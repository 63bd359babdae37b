"""Survey data pipeline: recoding, missing-data handling, themes and splits.

All stages are pure: the same input table and spec produce identical output.
Encoded tables store level indices (int32, -1 for missing).
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass

import numpy as np

from . import _yamlio, reports
from ._yamlio import _field, _known, _names
from .errors import (
    MalformedFile,
    MissingColumn,
    NonBinaryMember,
    RaggedRow,
    UnknownLevel,
    UnknownVariable,
    UnmappedToken,
)
from .model import CategoricalVariable

MISSING = -1
MENTIONED = "Mentioned"
NOT_MENTIONED = "Not mentioned"


class RawTable:
    """A rectangular table of verbatim string cells with a content fingerprint."""

    __slots__ = ("columns", "rows", "fingerprint")

    def __init__(self, columns, rows):
        self.columns = tuple(columns)
        self.rows = list(map(tuple, rows))
        width = len(self.columns)
        if not set(map(len, self.rows)) <= {width}:
            i = next(i for i, row in enumerate(self.rows) if len(row) != width)
            raise RaggedRow(i + 1, width, len(self.rows[i]))
        text = "\x1e".join(["\x1f".join(self.columns), *map("\x1f".join, self.rows)])
        self.fingerprint = hashlib.sha256(text.encode("utf-8")).hexdigest()

    @property
    def n_rows(self):
        return len(self.rows)

    def column(self, name):
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise MissingColumn(name) from None
        return [row[idx] for row in self.rows]


def load_csv(path, required_columns=None) -> RawTable:
    """Read a UTF-8 CSV with a header row, preserving cell text verbatim.

    Text that is not UTF-8 or not CSV raises MalformedFile with the line of
    the bad byte or of the record the reader could not finish, and an empty
    file or a header without a required column raises it at line 1; a
    record with more or fewer cells than the header raises RaggedRow with
    the line it starts on.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise MalformedFile(path, f"line {line}", f"not UTF-8 text ({exc.reason})") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    rows, start = [], 1
    try:
        for row in reader:
            if rows and len(row) != len(rows[0]):
                raise RaggedRow(len(rows), len(rows[0]), len(row), path, start)
            rows.append(row)
            start = reader.line_num + 1
    except csv.Error as exc:
        raise MalformedFile(path, f"line {start}", str(exc)) from None
    if not rows:
        raise MalformedFile(path, "line 1", "empty file: no header row")
    table = RawTable(rows[0], rows[1:])
    for name in required_columns or ():
        if name not in table.columns:
            raise MalformedFile(path, "line 1", f"missing column {name!r}")
    return table


@dataclass(frozen=True)
class VariableRecode:
    """Recoding rule for one variable.

    ``mapping`` sends raw tokens to level labels; a None target marks the
    token as missing. ``unmapped`` is "strict" (error on unseen tokens) or
    "missing".
    """

    name: str
    levels: tuple
    mapping: dict
    source: str = ""
    ordinal: bool = False
    unmapped: str = "strict"

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        object.__setattr__(self, "source", self.source or self.name)
        if self.unmapped not in ("strict", "missing"):
            raise ValueError(f"unmapped policy {self.unmapped!r}")
        if problem := _label_problem(self.name, self.levels):
            raise ValueError(problem)
        self.variable()  # the levels must make a variable: two or more, none repeated
        level_set = set(self.levels)
        for token, label in self.mapping.items():
            if label is not None and label not in level_set:
                raise ValueError(
                    f"variable {self.name!r}: token {token!r} maps to "
                    f"undeclared level {label!r}"
                )

    def variable(self) -> CategoricalVariable:
        return CategoricalVariable(self.name, self.levels, self.ordinal)


@dataclass(frozen=True)
class RecodeSpec:
    variables: tuple

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names in recode spec")


@dataclass(frozen=True)
class ThemeSpec:
    """A theme column defined as the OR of binary Mentioned indicators."""

    name: str
    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError(f"theme {self.name!r} has no members")


class DataTable:
    """Encoded observations: one int32 code column per variable, -1 = missing."""

    __slots__ = ("variables", "codes", "source", "_index")

    def __init__(self, variables, codes, source=""):
        self.variables = tuple(variables)
        self._index = {v.name: i for i, v in enumerate(self.variables)}
        if len(self._index) != len(self.variables):
            raise ValueError("duplicate variable names")
        codes = np.asarray(codes, dtype=np.int32)
        if codes.ndim != 2 or codes.shape[1] != len(self.variables):
            raise ValueError("codes must be (n_rows, n_variables)")
        for i, v in enumerate(self.variables):
            col = codes[:, i]
            if col.size and (col.min() < MISSING or col.max() >= v.r):
                raise ValueError(f"column {v.name!r} has out-of-range codes")
        codes = codes.copy()
        codes.flags.writeable = False
        self.codes = codes
        self.source = source

    @property
    def n_rows(self) -> int:
        return self.codes.shape[0]

    def var_index(self, name) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownVariable(name) from None

    def variable(self, name) -> CategoricalVariable:
        return self.variables[self.var_index(name)]

    def column(self, name) -> np.ndarray:
        return self.codes[:, self.var_index(name)]

    def missing_mask(self) -> np.ndarray:
        return self.codes == MISSING

    def select(self, names) -> "DataTable":
        idx = [self.var_index(n) for n in names]
        return DataTable(
            [self.variables[i] for i in idx], self.codes[:, idx], self.source
        )

    def filter_rows(self, mask) -> "DataTable":
        return DataTable(self.variables, self.codes[np.asarray(mask, bool)], self.source)


def recode(raw: RawTable, spec: RecodeSpec) -> DataTable:
    """Map raw tokens to level indices; unmapped tokens error or become missing."""
    columns = []
    for vr in spec.variables:
        lookup = {t: MISSING if x is None else vr.levels.index(x) for t, x in vr.mapping.items()}
        tokens = raw.column(vr.source)
        if vr.unmapped == "missing":
            lookup = {**dict.fromkeys(tokens, MISSING), **lookup}  # unmapped: missing
        try:
            columns.append(np.array([lookup[t] for t in tokens], dtype=np.int32))
        except KeyError as exc:
            raise UnmappedToken(vr.name, exc.args[0]) from None
    codes = np.array(columns, dtype=np.int32).reshape(len(columns), raw.n_rows).T
    return DataTable([vr.variable() for vr in spec.variables], codes, source=raw.fingerprint)


def collapse_rare(table: DataTable, variable, min_count: int) -> DataTable:
    """Drop levels observed fewer than ``min_count`` times, marking cells missing.

    Counts are taken on the table as given, i.e. before any row filtering. An
    empty table passes through unchanged: with no observations there is no
    basis for collapsing a domain.
    """
    if table.n_rows == 0:
        return table
    vi = table.var_index(variable)
    var = table.variables[vi]
    col = table.codes[:, vi]
    observed = np.bincount(col[col >= 0], minlength=var.r)
    keep = observed >= min_count
    if np.all(keep):
        return table
    if keep.sum() < 2:
        raise ValueError(
            f"collapsing rare levels of {variable!r} would leave "
            f"{int(keep.sum())} level(s)"
        )
    new_levels = tuple(lvl for lvl, k in zip(var.levels, keep) if k)
    remap = np.full(var.r + 1, MISSING, dtype=np.int32)  # slot -1 aliases to last
    remap[np.flatnonzero(keep)] = np.arange(int(keep.sum()), dtype=np.int32)
    new_col = remap[col]
    codes = np.array(table.codes)
    codes[:, vi] = new_col
    variables = list(table.variables)
    variables[vi] = CategoricalVariable(var.name, new_levels, var.ordinal)
    return DataTable(variables, codes, table.source)


def drop_incomplete(table: DataTable) -> DataTable:
    """Keep exactly the rows with no missing value."""
    return table.filter_rows(~table.missing_mask().any(axis=1))


def group_themes(table: DataTable, specs) -> DataTable:
    """Replace binary indicator columns with one OR-aggregated column per theme.

    A theme is Mentioned when at least one member is Mentioned, Not mentioned
    when all members are Not mentioned, and missing when the observed members
    are all Not mentioned but some member is missing.
    """
    member_names = set()
    theme_cols = []
    theme_vars = []
    for spec in specs:
        mentioned = np.zeros(table.n_rows, dtype=bool)
        unknown = np.zeros(table.n_rows, dtype=bool)
        for member in spec.members:
            var = table.variable(member)
            if set(var.levels) != {MENTIONED, NOT_MENTIONED}:
                raise NonBinaryMember(spec.name, member, var.levels)
            code_mentioned = var.level_index(MENTIONED)
            col = table.column(member)
            mentioned |= col == code_mentioned
            unknown |= col == MISSING
            member_names.add(member)
        theme_var = CategoricalVariable(spec.name, (MENTIONED, NOT_MENTIONED))
        col = np.where(
            mentioned,
            theme_var.level_index(MENTIONED),
            np.where(unknown, MISSING, theme_var.level_index(NOT_MENTIONED)),
        ).astype(np.int32)
        theme_vars.append(theme_var)
        theme_cols.append(col)
    kept = [v for v in table.variables if v.name not in member_names]
    kept_codes = table.codes[:, [table.var_index(v.name) for v in kept]]
    all_cols = np.column_stack([kept_codes, *theme_cols])
    return DataTable(list(kept) + theme_vars, all_cols, table.source)


def split_population(table: DataTable, framing: str):
    """Split rows by AI framing; "Both" respondents appear in both outputs.

    Returns (risk_table, opportunity_table): rows whose framing level is in
    {Risk, Both} and {Opportunity, Both} respectively.
    """
    var = table.variable(framing)
    for needed in ("Risk", "Opportunity", "Both"):
        if needed not in var.levels:
            raise UnknownLevel(framing, needed)
    col = table.column(framing)
    risk = table.filter_rows(
        (col == var.level_index("Risk")) | (col == var.level_index("Both"))
    )
    opportunity = table.filter_rows(
        (col == var.level_index("Opportunity")) | (col == var.level_index("Both"))
    )
    return risk, opportunity


def save_datatable(table: DataTable, csv_path, dict_path) -> None:
    """Write the table as a label CSV plus a YAML variable dictionary."""
    _check_levels(table.variables, csv_path)
    # code -1 picks the trailing "", so a missing cell is written empty
    labels = [np.array(v.levels + ("",), dtype=object)[table.codes[:, i]]
              for i, v in enumerate(table.variables)]
    reports.write_csv(csv_path, [v.name for v in table.variables], zip(*labels))
    doc = {
        "format": "beliefnet-dict",
        "version": 1,
        "n_rows": int(table.n_rows),
        "source": table.source,
        "variables": variable_entries(table.variables),
    }
    reports.write_text(dict_path, _yamlio.dump(doc))


def variable_entries(variables) -> list:
    """The ``variables:`` list of a dictionary or model file."""
    return [{"name": v.name, "levels": list(v.levels), "ordinal": v.ordinal} for v in variables]


def read_variables(doc, path) -> list:
    """The variables in ``doc``'s ``variables:`` list, as ``variable_entries``
    writes it; MalformedFile at the entry or field that is wrong."""
    variables = []
    for i, entry in enumerate(_field(doc, "variables", list, path=path)):
        where = f"variables[{i}]."
        name = _field(entry, "name", str, path=path, where=where)
        _known(entry, ("name", "levels", "ordinal"), path=path, where=where)
        levels = _names(entry, "levels", path=path, where=where)
        ordinal = _field(entry, "ordinal", bool, False, path=path, where=where)
        try:
            variables.append(CategoricalVariable(name, levels, ordinal))
        except ValueError as exc:
            raise MalformedFile(path, f"variables[{i}]", str(exc)) from exc
    if len({v.name for v in variables}) != len(variables):
        raise MalformedFile(path, "variables", "duplicate variable names")
    return variables


def load_datatable(csv_path, dict_path) -> DataTable:
    """The table in ``csv_path``, whose rows the dictionary ``dict_path`` counts."""
    doc = _yamlio.header(_yamlio.read(dict_path), dict_path, "beliefnet-dict", 1)
    _known(doc, ("format", "version", "n_rows", "source", "variables"), path=dict_path)
    variables = read_variables(doc, dict_path)
    _check_levels(variables, dict_path)
    n_rows = _field(doc, "n_rows", int, path=dict_path)
    raw = load_csv(csv_path, required_columns=[v.name for v in variables])
    if raw.n_rows != n_rows:
        reason = f"{raw.n_rows} rows, but {dict_path} declares {n_rows}"
        raise MalformedFile(csv_path, "n_rows", reason)
    columns = []
    for var in variables:
        lookup = {label: i for i, label in enumerate(("",) + var.levels, MISSING)}
        cells = raw.column(var.name)
        try:
            columns.append(np.array([lookup[c] for c in cells], dtype=np.int32))
        except KeyError as exc:
            row = next(i for i, c in enumerate(cells, 1) if c not in lookup)
            raise MalformedFile(csv_path, f"row {row}",
                                f"variable {var.name!r} has no level {exc.args[0]!r}") from None
    codes = np.array(columns, dtype=np.int32).reshape(len(columns), raw.n_rows).T
    return DataTable(variables, codes, source=_field(doc, "source", str, "", path=dict_path))


def _check_levels(variables, path):
    """MalformedFile for a variable ``_label_problem`` refuses."""
    for v in variables:
        if problem := _label_problem(v.name, v.levels):
            raise MalformedFile(path, "variables", problem)


def _label_problem(name, levels):
    """Why a table CSV cannot round-trip this variable, or None: an empty
    label reads back as missing, and the writer quotes a cell only for a
    comma, a double quote or a newline, so a bare carriage return splits it."""
    if "" in levels:
        return f"variable {name!r} has an empty level label"
    for label in (name, *levels):
        if "\r" in label and not {",", '"', "\n"} & set(label):
            return f"variable {name!r}: {label!r} has a carriage return the CSV leaves unquoted"
