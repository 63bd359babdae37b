"""Config file loading: one YAML schema family, documented in docs/formats.md.

Every config carries ``format`` and ``version`` headers. Validation failures
raise MalformedFile with the file path and a dotted key position.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import _yamlio
from .data import RecodeSpec, ThemeSpec, VariableRecode
from .errors import MalformedFile, VersionMismatch
from .learn import Constraints, TabuConfig
from .model import Evidence, TierSpec
from .analysis import ScenarioDef

SUPPORTED_VERSION = 1


def _load_doc(path, expected_format):
    doc = _yamlio.read(path)
    if not isinstance(doc, dict):
        raise MalformedFile(path, "(root)", "expected a mapping")
    if doc.get("format") != expected_format:
        raise MalformedFile(
            path, "format", f"expected {expected_format!r}, got {doc.get('format')!r}"
        )
    if doc.get("version") != SUPPORTED_VERSION:
        raise VersionMismatch(path, doc.get("version"), SUPPORTED_VERSION)
    return doc


_REQUIRED = object()
_NONNEGATIVE = (lambda v: v >= 0, "must be >= 0")
_POSITIVE = (lambda v: v > 0, "must be > 0")
_UNIT_INTERVAL = (lambda v: 0.0 < v <= 1.0, "must be in (0, 1] or 'auto'")


def _field(doc, key, kind, default=_REQUIRED, check=None, *, path, where=""):
    """``doc[key]`` read as ``kind``, ``default`` when absent or empty.

    ``kind`` is bool, int, list or dict (the value must be one), float (a
    number, or a string such as "1e-3", which YAML 1.1 does not read as a
    number) or str (any value, converted); ``check`` is a (predicate,
    reason) pair on the result. Every failure raises MalformedFile naming
    the field ``where`` + ``key``.
    """
    if not isinstance(doc, dict):
        raise MalformedFile(path, where.rstrip(".") or "(root)", "expected a mapping")
    value = doc.get(key)
    position = f"{where}{key}"
    if value is None:
        if default is _REQUIRED:
            raise MalformedFile(path, position, "missing field")
        value = default
    if kind is float and not isinstance(value, bool):
        try:
            value, ok = float(value), True
        except (TypeError, ValueError, OverflowError):
            ok = False
    elif kind is str:
        value, ok = str(value), True
    else:
        ok = type(value) is kind
    if not ok:
        raise MalformedFile(path, position, f"expected {kind.__name__}, got {value!r}")
    if check is not None and not check[0](value):
        raise MalformedFile(path, position, check[1])
    return value


def _pairs(doc, key, path):
    pairs = _field(doc, key, list, [], path=path)
    if not all(isinstance(p, list) and len(p) == 2 for p in pairs):
        raise MalformedFile(path, key, "expected a list of [parent, child] pairs")
    return tuple((str(a), str(b)) for a, b in pairs)


@dataclass(frozen=True)
class PrepConfig:
    recode: RecodeSpec
    missing_threshold: int
    framing: str
    models: dict  # table name -> variable list; may be empty


def load_prep_config(path) -> PrepConfig:
    doc = _load_doc(path, "beliefnet-prep")
    entries = []
    for i, entry in enumerate(_field(doc, "variables", list, path=path)):
        where = f"variables[{i}]."
        name = _field(entry, "name", str, path=path, where=where)
        levels = tuple(str(x) for x in _field(entry, "levels", list, path=path, where=where))
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
    models_doc = _field(doc, "models", dict, {}, path=path)
    models = {
        str(t): [str(n) for n in _field(models_doc, t, list, path=path, where="models.")]
        for t in models_doc
    }
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


@dataclass(frozen=True)
class ThemeGroup:
    spec: ThemeSpec
    population: str  # "risk" | "opportunity" | "all"


def load_theme_config(path) -> list:
    doc = _load_doc(path, "beliefnet-themes")
    groups = []
    for i, entry in enumerate(_field(doc, "themes", list, path=path)):
        where = f"themes[{i}]."
        name = _field(entry, "name", str, path=path, where=where)
        members = tuple(str(m) for m in _field(entry, "members", list, path=path, where=where))
        population = _field(entry, "population", str, "all", path=path, where=where)
        if population not in ("risk", "opportunity", "all"):
            raise MalformedFile(
                path, f"{where}population", f"unknown population {population!r}"
            )
        try:
            groups.append(ThemeGroup(ThemeSpec(name, members), population))
        except ValueError as exc:
            raise MalformedFile(path, f"themes[{i}]", str(exc)) from exc
    return groups


def load_tier_config(path) -> TierSpec:
    doc = _load_doc(path, "beliefnet-tiers")
    tiers = []
    flags = []
    for i, entry in enumerate(_field(doc, "tiers", list, path=path)):
        where = f"tiers[{i}]."
        names = _field(entry, "variables", list, path=path, where=where)
        tiers.append(tuple(str(v) for v in names))
        flags.append(_field(entry, "within_tier_edges", bool, True, path=path, where=where))
    try:
        return TierSpec(tuple(tiers), tuple(flags))
    except ValueError as exc:
        raise MalformedFile(path, "tiers", str(exc)) from exc


@dataclass(frozen=True)
class LearnConfig:
    score: str = "AIC"
    alpha: float = 1.0
    bootstrap: int = 2000
    threshold: float | None = None  # None = estimate from strengths
    tabu: TabuConfig = field(default_factory=TabuConfig)
    whitelist: tuple = ()
    blacklist: tuple = ()

    def constraints(self) -> Constraints:
        return Constraints(forbidden=self.blacklist, required=self.whitelist)


def load_learn_config(path) -> LearnConfig:
    doc = _load_doc(path, "beliefnet-learn")
    tabu_doc = _field(doc, "tabu", dict, {}, path=path)
    tabu = {
        key: _field(tabu_doc, key, int, default, _POSITIVE, path=path, where="tabu.")
        for key, default in (
            ("tenure", 10), ("max_iterations", 1000), ("stall_limit", 100), ("restarts", 1)
        )
    }
    threshold = None
    if doc.get("threshold") not in ("auto", None):
        threshold = _field(doc, "threshold", float, check=_UNIT_INTERVAL, path=path)
    score = _field(doc, "score", str, "AIC", path=path).upper()
    if score not in ("AIC", "BIC", "LOGLIK"):
        raise MalformedFile(path, "score", f"unknown score {score!r}")
    return LearnConfig(
        score=score,
        alpha=_field(doc, "alpha", float, 1.0, _POSITIVE, path=path),
        bootstrap=_field(doc, "bootstrap", int, 2000, _NONNEGATIVE, path=path),
        threshold=threshold,
        tabu=TabuConfig(**tabu),
        whitelist=_pairs(doc, "whitelist", path),
        blacklist=_pairs(doc, "blacklist", path),
    )


@dataclass(frozen=True)
class QueryConfig:
    tables: tuple  # (target, evidence variable list) pairs


def load_query_config(path) -> QueryConfig:
    doc = _load_doc(path, "beliefnet-query")
    tables = []
    for i, entry in enumerate(_field(doc, "tables", list, path=path)):
        where = f"tables[{i}]."
        target = _field(entry, "target", str, path=path, where=where)
        sweeps = tuple(
            str(v) for v in _field(entry, "evidence_variables", list, path=path, where=where)
        )
        tables.append((target, sweeps))
    return QueryConfig(tuple(tables))


@dataclass(frozen=True)
class SobolConfig:
    targets: tuple
    inputs: tuple


def load_sobol_config(path) -> SobolConfig:
    doc = _load_doc(path, "beliefnet-sobol")
    return SobolConfig(
        targets=tuple(str(t) for t in _field(doc, "targets", list, path=path)),
        inputs=tuple(str(i) for i in _field(doc, "inputs", list, path=path)),
    )


@dataclass(frozen=True)
class ScenarioConfig:
    targets: tuple
    scenarios: tuple


def load_scenario_config(path) -> ScenarioConfig:
    doc = _load_doc(path, "beliefnet-scenarios")
    scenarios = []
    for i, entry in enumerate(_field(doc, "scenarios", list, path=path)):
        where = f"scenarios[{i}]."
        name = _field(entry, "name", str, path=path, where=where)
        ev = {
            str(k): str(v)
            for k, v in _field(entry, "evidence", dict, {}, path=path, where=where).items()
        }
        scenarios.append(ScenarioDef(name, Evidence(ev)))
    return ScenarioConfig(
        targets=tuple(str(t) for t in _field(doc, "targets", list, path=path)),
        scenarios=tuple(scenarios),
    )


@dataclass(frozen=True)
class SensitivityConfig:
    target_variable: str
    target_state: str
    nodes: tuple | None  # None = ancestors of the target
    delta: float


def load_sensitivity_config(path) -> SensitivityConfig:
    doc = _load_doc(path, "beliefnet-sensitivity")
    target = _field(doc, "target", dict, path=path)
    variable = _field(target, "variable", str, path=path, where="target.")
    state = _field(target, "state", str, path=path, where="target.")
    nodes = None
    if doc.get("nodes") not in ("auto", None):
        nodes = tuple(str(n) for n in _field(doc, "nodes", list, path=path))
    delta = _field(doc, "delta", float, 0.1, _POSITIVE, path=path)
    return SensitivityConfig(variable, state, nodes, delta)
