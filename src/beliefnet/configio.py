"""Config file loading: one YAML schema family, documented in docs/formats.md.

Every config carries ``format`` and ``version`` headers. Each loader opens
its file with ``_yamlio.document`` and reads every field through the
``_yamlio.Reader`` that returns, so a validation failure raises
MalformedFile with the file path and the field's position (``key``,
``key.sub`` or ``key[i].sub``).
The loaders define no types: each returns the arguments its command hands
to the library, as plain tuples of the library's own types (``RecodeSpec``,
``TabuConfig``, ``TierSpec``, ``ScenarioDef``), which check themselves.
"""

from __future__ import annotations

import math

from . import _yamlio
from .data import RecodeSpec, ThemeSpec, VariableRecode
from .learn import TabuConfig
from .model import TierSpec
from .analysis import ScenarioDef
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
    """``(recode spec, missing_threshold, framing, models)``; ``models`` maps
    "full", "risk" and/or "opportunity", in that order, to variable lists."""
    doc = _load_doc(path, "beliefnet-prep",
                    ("missing_threshold", "framing", "variables", "models"))
    entries = []
    for entry in doc.entries("variables",
                             ("name", "source", "levels", "ordinal", "unmapped", "map")):
        name, levels, mapping = entry.get("name", str), entry.names("levels"), {}
        for token, label in entry.get("map", dict).items():
            # YAML 1.1 reads an unquoted yes/no/on/off as a boolean (and True == 1)
            if token is None or isinstance(token, bool) or isinstance(label, bool):
                raise entry.error(f"{token!r}: {label!r}: quote a token or label YAML "
                                  "reads as null or a boolean", "map")
            mapping[str(token)] = None if label is None else str(label)
        try:
            entries.append(VariableRecode(
                name, levels, mapping, source=entry.get("source", str, ""),
                ordinal=entry.get("ordinal", bool, False),
                unmapped=entry.get("unmapped", str, "strict")))
        except ValueError as exc:
            raise entry.error(str(exc)) from exc
    tables = ("full", "risk", "opportunity")
    models_doc = doc.section("models", tables)
    models = {t: models_doc.names(t, distinct=True) for t in tables if t in models_doc.doc}
    for table, names in models.items():
        if not names:  # a table of no columns would be written as a bare newline
            raise models_doc.error("lists no variables", table)
    try:
        spec = RecodeSpec(entries)
    except ValueError as exc:
        raise doc.error(str(exc), "variables") from exc
    return (spec, doc.get("missing_threshold", int, 50, _NONNEGATIVE),
            doc.get("framing", str, "DevelopAI"), models)


def load_theme_config(path) -> list:
    doc = _load_doc(path, "beliefnet-themes", ("themes",))
    specs = []
    for entry in doc.entries("themes", ("name", "members")):
        try:
            specs.append(ThemeSpec(entry.get("name", str), entry.names("members")))
        except ValueError as exc:
            raise entry.error(str(exc)) from exc
    return specs


def load_tier_config(path) -> TierSpec:
    doc = _load_doc(path, "beliefnet-tiers", ("tiers",))
    # a tier's ``name`` only labels it for the reader
    tiers = tuple(entry.names("variables") for entry in doc.entries("tiers", ("name", "variables")))
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
        repeated = [v for k, v in enumerate(sweeps) if v in sweeps[:k]]
        if repeated:
            raise entry.error(f"{repeated[0]!r} is listed twice", "evidence_variables")
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
    """``(targets, scenarios)``."""
    doc = _load_doc(path, "beliefnet-scenarios", ("targets", "scenarios"))
    targets, scenarios = doc.names("targets", distinct=True), []
    for entry in doc.entries("scenarios", ("name", "evidence")):
        name = entry.get("name", str)
        ev_doc = entry.section("evidence", None, {})
        for k in ev_doc.doc:
            if k is None or isinstance(k, bool):
                raise ev_doc.error(f"expected a variable, got {k!r}")
        ev = {str(k): ev_doc.get(k, str) for k in ev_doc.doc}
        for t in targets:
            if t in ev:
                raise ev_doc.error(f"scenario {name!r} fixes the target {t!r}", t)
        scenarios.append(ScenarioDef(name, ev))
    return targets, tuple(scenarios)


def load_sensitivity_config(path):
    """``((variable, state), delta)``: the event the tornado and the
    influence shading share, and the perturbation size."""
    doc = _load_doc(path, "beliefnet-sensitivity", ("target", "nodes", "delta"))
    target = doc.section("target", ("variable", "state"))
    variable, state = target.get("variable", str), target.get("state", str)
    doc.get("nodes", str, "auto", _AUTO_NODES)
    delta = doc.get("delta", float, 0.1, _POSITIVE)
    return (variable, state), delta
