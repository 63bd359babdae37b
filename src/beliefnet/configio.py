"""Config file loading: one YAML schema family, documented in docs/formats.md.

Every config carries ``format`` and ``version`` headers. Validation failures
raise MalformedFile with the file path and a dotted key position.
"""

from __future__ import annotations

from dataclasses import dataclass

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
_POSITIVE = (lambda v: v > 0, "must be > 0")
_AUTO_NODES = (lambda v: v == "auto", "the tornado covers the ancestors; must be 'auto' or absent")


@dataclass(frozen=True)
class PrepConfig:
    recode: RecodeSpec
    missing_threshold: int
    framing: str
    models: dict  # table name ("full", "risk" or "opportunity") -> variable list


def load_prep_config(path) -> PrepConfig:
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
    _known(models_doc, ("full", "risk", "opportunity"), path=path, where="models.")
    models = {t: _names(models_doc, t, path=path, where="models.") for t in models_doc}
    try:
        spec = RecodeSpec(entries)
    except ValueError as exc:
        raise MalformedFile(path, "variables", str(exc)) from exc
    return PrepConfig(
        recode=spec,
        missing_threshold=_field(doc, "missing_threshold", int, 50, _NONNEGATIVE, path=path),
        framing=_field(doc, "framing", str, "DevelopAI", path=path),
        models=models,
    )


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


@dataclass(frozen=True)
class LearnConfig:
    score: str
    alpha: float
    bootstrap: int
    tabu: TabuConfig


def load_learn_config(path) -> LearnConfig:
    """The learn config at ``path``; every default when ``path`` is None."""
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
    return LearnConfig(
        score=score,
        alpha=_field(doc, "alpha", float, 1.0, _POSITIVE, path=path),
        bootstrap=_field(doc, "bootstrap", int, 2000, _POSITIVE, path=path),
        tabu=TabuConfig(**tabu),
    )


@dataclass(frozen=True)
class QueryConfig:
    tables: tuple  # (target, evidence variable list) pairs


def load_query_config(path) -> QueryConfig:
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
    return QueryConfig(tuple(tables))


@dataclass(frozen=True)
class SobolConfig:
    targets: tuple
    inputs: tuple


def load_sobol_config(path) -> SobolConfig:
    doc = _load_doc(path, "beliefnet-sobol", ("targets", "inputs"))
    return SobolConfig(
        targets=_names(doc, "targets", path=path),
        inputs=_names(doc, "inputs", path=path),
    )


@dataclass(frozen=True)
class ScenarioConfig:
    targets: tuple
    scenarios: tuple


def load_scenario_config(path) -> ScenarioConfig:
    doc = _load_doc(path, "beliefnet-scenarios", ("targets", "scenarios"))
    scenarios = []
    for i, entry in enumerate(_field(doc, "scenarios", list, path=path)):
        where = f"scenarios[{i}]."
        name = _field(entry, "name", str, path=path, where=where)
        _known(entry, ("name", "evidence"), path=path, where=where)
        ev_doc = _field(entry, "evidence", dict, {}, path=path, where=where)
        ev = {str(k): _field(ev_doc, k, str, path=path, where=f"{where}evidence.") for k in ev_doc}
        scenarios.append(ScenarioDef(name, ev))
    return ScenarioConfig(
        targets=_names(doc, "targets", path=path),
        scenarios=tuple(scenarios),
    )


@dataclass(frozen=True)
class SensitivityConfig:
    target_variable: str
    target_state: str
    delta: float


def load_sensitivity_config(path) -> SensitivityConfig:
    doc = _load_doc(path, "beliefnet-sensitivity", ("target", "nodes", "delta"))
    target = _field(doc, "target", dict, path=path)
    _known(target, ("variable", "state"), path=path, where="target.")
    variable = _field(target, "variable", str, path=path, where="target.")
    state = _field(target, "state", str, path=path, where="target.")
    _field(doc, "nodes", str, "auto", _AUTO_NODES, path=path)
    delta = _field(doc, "delta", float, 0.1, _POSITIVE, path=path)
    return SensitivityConfig(variable, state, delta)
