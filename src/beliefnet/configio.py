"""Config file loading: one YAML schema family, documented in docs/formats.md.

Every config carries ``format`` and ``version`` headers. Each loader opens
its file with ``_yamlio.document`` and reads every field through the
``_yamlio.Reader`` that returns, so a validation failure raises
MalformedFile with the file path and the field's position (``key``,
``key.sub`` or ``key[i].sub``); a name repeated in an entry list keyed by
it (``variables``, ``themes``, ``scenarios``) is refused at ``key[i].name``.
The loaders define no types: each returns the arguments its command hands
to the library, as plain tuples and mappings of the library's own types
(``VariableRecode``, ``ThemeSpec``, ``TabuConfig``, ``TierSpec``).
"""

from __future__ import annotations

import math

from . import _yamlio
from .data import ThemeSpec, VariableRecode
from .learn import TabuConfig
from .model import TierSpec
from .scores import SCORE_KINDS

SUPPORTED_VERSION = 1


def _load_doc(path, expected_format, keys):
    """The config at ``path`` as a ``_yamlio.Reader``; a root key other than
    the headers and ``keys`` is refused."""
    return _yamlio.document(_yamlio.read(path), path, expected_format, SUPPORTED_VERSION, keys)


_NONNEGATIVE = (lambda v: v >= 0, "must be >= 0")
_POSITIVE = (lambda v: 0 < v < math.inf, "must be finite and > 0")
_AUTO_NODES = (lambda v: v == "auto", "the tornado covers the ancestors; must be 'auto' or absent")


def load_prep_config(path):
    """``(variables, missing_threshold, framing, models)``: ``variables`` is
    a tuple of ``VariableRecode``, ``models`` maps "full", "risk" and/or
    "opportunity", in that order, to variable lists."""
    doc = _load_doc(path, "beliefnet-prep",
                    ("missing_threshold", "framing", "variables", "models"))
    variables = []
    for name, entry in doc.keyed("variables", ("name", "source", "levels", "ordinal",
                                               "unmapped", "map"), "name").items():
        levels, mapping = entry.names("levels"), {}
        map_doc = entry.section("map", None)
        for token, label in map_doc.doc.items():
            if isinstance(label, bool):  # a null label is "missing"
                raise map_doc.error(f"{token!r}: {label!r}: quote a label YAML reads as a boolean")
            mapping[str(token)] = None if label is None else str(label)
        try:
            variables.append(VariableRecode(
                name, levels, mapping, source=entry.get("source", str, ""),
                ordinal=entry.get("ordinal", bool, False),
                unmapped=entry.get("unmapped", str, "strict")))
        except ValueError as exc:
            raise entry.error(str(exc)) from exc
    tables = ("full", "risk", "opportunity")
    models_doc = doc.section("models", tables)
    models = {t: models_doc.names(t) for t in tables if t in models_doc.doc}
    for table, names in models.items():
        if not names:  # a table of no columns would be written as a bare newline
            raise models_doc.error("lists no variables", table)
    return (tuple(variables), doc.get("missing_threshold", int, 50, _NONNEGATIVE),
            doc.get("framing", str, "DevelopAI"), models)


def load_theme_config(path) -> list:
    doc = _load_doc(path, "beliefnet-themes", ("themes",))
    specs = []
    for name, entry in doc.keyed("themes", ("name", "members"), "name").items():
        try:
            specs.append(ThemeSpec(name, entry.names("members")))
        except ValueError as exc:
            raise entry.error(str(exc)) from exc
    return specs


def load_tier_config(path) -> TierSpec:
    doc = _load_doc(path, "beliefnet-tiers", ("tiers",))
    tiers, earlier = [], set()
    for entry in doc.entries("tiers", ("name", "variables")):  # ``name`` only labels a tier
        tiers.append(entry.names("variables"))
        for j, name in enumerate(tiers[-1]):
            if name in earlier:
                raise entry.error(f"{name!r} is in an earlier tier", f"variables[{j}]")
        earlier.update(tiers[-1])
    try:
        return TierSpec(tiers)
    except ValueError as exc:
        raise doc.error(str(exc), "tiers") from exc


def load_learn_config(path):
    """``(score, alpha, bootstrap, TabuConfig)`` from the learn config at
    ``path``; every default when ``path`` is None."""
    doc = _yamlio.Reader({}, path) if path is None else _load_doc(
        path, "beliefnet-learn", ("score", "alpha", "bootstrap", "tabu"))
    tabu_doc = doc.section("tabu", ("tenure", "max_iterations", "stall_limit"), {})
    tabu = {
        key: tabu_doc.get(key, int, default, _POSITIVE)
        for key, default in (("tenure", 10), ("max_iterations", 1000), ("stall_limit", 100))
    }
    score = doc.get("score", str, "AIC").upper()
    if score not in SCORE_KINDS:
        raise doc.error(f"unknown score {score!r}", "score")
    return (score, doc.get("alpha", float, 1.0, _POSITIVE),
            doc.get("bootstrap", int, 2000, _POSITIVE), TabuConfig(**tabu))


def load_query_config(path):
    """The ``(target, evidence variables)`` pair of each table."""
    doc = _load_doc(path, "beliefnet-query", ("tables",))
    tables = []
    for entry in doc.entries("tables", ("target", "evidence_variables")):
        target = entry.get("target", str)
        sweeps = entry.names("evidence_variables")
        if target in sweeps:
            raise entry.error(f"target {target!r} appears in the evidence",
                              f"evidence_variables[{sweeps.index(target)}]")
        tables.append((target, sweeps))
    return tuple(tables)


def load_sobol_config(path):
    """``(targets, inputs)``."""
    doc = _load_doc(path, "beliefnet-sobol", ("targets", "inputs"))
    return doc.names("targets"), doc.names("inputs")


def load_scenario_config(path):
    """``(targets, {scenario name: {variable: level}})``."""
    doc = _load_doc(path, "beliefnet-scenarios", ("targets", "scenarios"))
    targets, scenarios = doc.names("targets"), {}
    for name, entry in doc.keyed("scenarios", ("name", "evidence"), "name").items():
        ev_doc = entry.section("evidence", None, {})
        ev = {str(k): ev_doc.get(k, str) for k in ev_doc.doc}
        for t in targets:
            if t in ev:
                raise ev_doc.error(f"scenario {name!r} fixes the target {t!r}", t)
        scenarios[name] = ev
    return targets, scenarios


def load_sensitivity_config(path):
    """``((variable, state), delta)``: the event the tornado and the
    influence shading share, and the perturbation size."""
    doc = _load_doc(path, "beliefnet-sensitivity", ("target", "nodes", "delta"))
    target = doc.section("target", ("variable", "state"))
    variable, state = target.get("variable", str), target.get("state", str)
    doc.get("nodes", str, "auto", _AUTO_NODES)
    delta = doc.get("delta", float, 0.1, _POSITIVE)
    return (variable, state), delta
