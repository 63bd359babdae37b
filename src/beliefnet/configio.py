"""Config file loading: one YAML schema family, documented in docs/formats.md.

Every config carries ``format`` and ``version`` headers. Validation failures
raise MalformedFile with the file path and a dotted key position.
The loaders define no types: each returns the arguments its command hands
to the library, as plain tuples of the library's own types (``RecodeSpec``,
``TabuConfig``, ``TierSpec``, ``ScenarioDef``), which check themselves.
"""

from __future__ import annotations

import math

from . import _yamlio
from ._yamlio import _field, _known, _names
from .data import RecodeSpec, ThemeSpec, VariableRecode
from .errors import MalformedFile
from .learn import TabuConfig
from .model import TierSpec
from .analysis import ScenarioDef
from .scores import SCORE_KINDS

SUPPORTED_VERSION = 1


def _load_doc(path, expected_format, keys):
    """The config at ``path``; a root key other than the headers and ``keys``
    is refused (see ``_known``)."""
    doc = _yamlio.header(_yamlio.read(path), path, expected_format, SUPPORTED_VERSION)
    _known(doc, ("format", "version", *keys), path=path)
    return doc


_NONNEGATIVE = (lambda v: v >= 0, "must be >= 0")
_POSITIVE = (lambda v: 0 < v < math.inf, "must be finite and > 0")
_AUTO_NODES = (lambda v: v == "auto", "the tornado covers the ancestors; must be 'auto' or absent")


def load_prep_config(path):
    """``(recode spec, missing_threshold, framing, models)``; ``models`` maps
    "full", "risk" and/or "opportunity", in that order, to variable lists."""
    doc = _load_doc(path, "beliefnet-prep",
                    ("missing_threshold", "framing", "variables", "models"))
    entries = []
    for i, entry in enumerate(_field(doc, "variables", list, path=path)):
        where = f"variables[{i}]."
        name = _field(entry, "name", str, path=path, where=where)
        _known(entry, ("name", "source", "levels", "ordinal", "unmapped", "map"),
               path=path, where=where)
        levels = _names(entry, "levels", path=path, where=where)
        mapping = {}
        for token, label in _field(entry, "map", dict, path=path, where=where).items():
            # YAML 1.1 reads an unquoted yes/no/on/off as a boolean (and True == 1)
            if token is None or isinstance(token, bool) or isinstance(label, bool):
                raise MalformedFile(path, f"{where}map",
                                    f"{token!r}: {label!r}: quote a token or label YAML "
                                    "reads as null or a boolean")
            mapping[str(token)] = None if label is None else str(label)
        try:
            entries.append(
                VariableRecode(
                    name,
                    levels,
                    mapping,
                    source=_field(entry, "source", str, "", path=path, where=where),
                    ordinal=_field(entry, "ordinal", bool, False, path=path, where=where),
                    unmapped=_field(entry, "unmapped", str, "strict", path=path, where=where),
                )
            )
        except ValueError as exc:
            raise MalformedFile(path, f"variables[{i}]", str(exc)) from exc
    models_doc = _field(doc, "models", dict, path=path)
    tables = ("full", "risk", "opportunity")
    _known(models_doc, tables, path=path, where="models.")
    models = {t: _names(models_doc, t, path=path, where="models.")
              for t in tables if t in models_doc}
    for table, names in models.items():
        for i, name in enumerate(names):
            if name in names[:i]:
                raise MalformedFile(path, f"models.{table}[{i}]", f"{name!r} is listed twice")
    try:
        spec = RecodeSpec(entries)
    except ValueError as exc:
        raise MalformedFile(path, "variables", str(exc)) from exc
    return (spec, _field(doc, "missing_threshold", int, 50, _NONNEGATIVE, path=path),
            _field(doc, "framing", str, "DevelopAI", path=path), models)


def load_theme_config(path) -> list:
    doc = _load_doc(path, "beliefnet-themes", ("themes",))
    specs = []
    for i, entry in enumerate(_field(doc, "themes", list, path=path)):
        where = f"themes[{i}]."
        name = _field(entry, "name", str, path=path, where=where)
        _known(entry, ("name", "members"), path=path, where=where)
        members = _names(entry, "members", path=path, where=where)
        try:
            specs.append(ThemeSpec(name, members))
        except ValueError as exc:
            raise MalformedFile(path, f"themes[{i}]", str(exc)) from exc
    return specs


def load_tier_config(path) -> TierSpec:
    doc = _load_doc(path, "beliefnet-tiers", ("tiers",))
    tiers = []
    for i, entry in enumerate(_field(doc, "tiers", list, path=path)):
        where = f"tiers[{i}]."
        names = _names(entry, "variables", path=path, where=where)
        # a tier's ``name`` only labels it for the reader
        _known(entry, ("name", "variables"), path=path, where=where)
        tiers.append(names)
    try:
        return TierSpec(tuple(tiers))
    except ValueError as exc:
        raise MalformedFile(path, "tiers", str(exc)) from exc


def load_learn_config(path):
    """``(score, alpha, bootstrap, TabuConfig)`` from the learn config at
    ``path``; every default when ``path`` is None."""
    doc = {} if path is None else _load_doc(
        path, "beliefnet-learn", ("score", "alpha", "bootstrap", "tabu"))
    tabu_doc = _field(doc, "tabu", dict, {}, path=path)
    _known(tabu_doc, ("tenure", "max_iterations", "stall_limit"), path=path, where="tabu.")
    tabu = {
        key: _field(tabu_doc, key, int, default, _POSITIVE, path=path, where="tabu.")
        for key, default in (("tenure", 10), ("max_iterations", 1000), ("stall_limit", 100))
    }
    score = _field(doc, "score", str, "AIC", path=path).upper()
    if score not in SCORE_KINDS:
        raise MalformedFile(path, "score", f"unknown score {score!r}")
    return (score, _field(doc, "alpha", float, 1.0, _POSITIVE, path=path),
            _field(doc, "bootstrap", int, 2000, _POSITIVE, path=path), TabuConfig(**tabu))


def load_query_config(path):
    """The ``(target, evidence variables)`` pair of each table."""
    doc = _load_doc(path, "beliefnet-query", ("tables",))
    tables = []
    for i, entry in enumerate(_field(doc, "tables", list, path=path)):
        where = f"tables[{i}]."
        target = _field(entry, "target", str, path=path, where=where)
        _known(entry, ("target", "evidence_variables"), path=path, where=where)
        sweeps = _names(entry, "evidence_variables", path=path, where=where)
        repeated = [v for k, v in enumerate(sweeps) if v in sweeps[:k]]
        if repeated:
            raise MalformedFile(
                path, f"{where}evidence_variables", f"{repeated[0]!r} is listed twice"
            )
        tables.append((target, sweeps))
    return tuple(tables)


def load_sobol_config(path):
    """``(targets, inputs)``."""
    doc = _load_doc(path, "beliefnet-sobol", ("targets", "inputs"))
    return _names(doc, "targets", path=path), _names(doc, "inputs", path=path)


def load_scenario_config(path):
    """``(targets, scenarios)``."""
    doc = _load_doc(path, "beliefnet-scenarios", ("targets", "scenarios"))
    scenarios = []
    for i, entry in enumerate(_field(doc, "scenarios", list, path=path)):
        where = f"scenarios[{i}]."
        name = _field(entry, "name", str, path=path, where=where)
        _known(entry, ("name", "evidence"), path=path, where=where)
        ev_doc = _field(entry, "evidence", dict, {}, path=path, where=where)
        for k in ev_doc:
            if k is None or isinstance(k, bool):
                raise MalformedFile(path, f"{where}evidence", f"expected a variable, got {k!r}")
        ev = {str(k): _field(ev_doc, k, str, path=path, where=f"{where}evidence.") for k in ev_doc}
        scenarios.append(ScenarioDef(name, ev))
    return _names(doc, "targets", path=path), tuple(scenarios)


def load_sensitivity_config(path):
    """``((variable, state), delta)``: the event the tornado and the
    influence shading share, and the perturbation size."""
    doc = _load_doc(path, "beliefnet-sensitivity", ("target", "nodes", "delta"))
    target = _field(doc, "target", dict, path=path)
    _known(target, ("variable", "state"), path=path, where="target.")
    variable = _field(target, "variable", str, path=path, where="target.")
    state = _field(target, "state", str, path=path, where="target.")
    _field(doc, "nodes", str, "auto", _AUTO_NODES, path=path)
    delta = _field(doc, "delta", float, 0.1, _POSITIVE, path=path)
    return (variable, state), delta
