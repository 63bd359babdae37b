"""Survey data pipeline: recoding, rare-level collapsing, missing-data
handling, themes and splits. ``recode`` is the one decoder of text cells:
prep applies it to the raw survey and ``load_datatable`` to a saved table.

All stages are pure: the same input table and spec produce identical output.
Encoded tables store level indices (int32, -1 for missing). ``recode`` names
an unmapped token's row and ``collapse_rare`` returns the levels it dropped,
so no caller scans a column again.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import io
from dataclasses import dataclass

import numpy as np

from . import _yamlio, reports
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

    A leading byte-order mark is dropped. Text that is not UTF-8 or not CSV
    raises MalformedFile with the line of the bad byte or of the record the
    reader could not finish, and an empty file or a header that lacks or
    repeats a required column raises it at line 1; a record with more or
    fewer cells than the header raises RaggedRow with the line it starts on.
    """
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)  # as Excel's "CSV UTF-8" writes
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
        if table.columns.count(name) > 1:  # ``column`` would read the first copy alone
            raise MalformedFile(path, "line 1", f"repeated column {name!r}")
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


def recode(raw: RawTable, spec) -> DataTable:
    """Map raw tokens to level indices by ``spec``, a sequence of
    ``VariableRecode``; an unmapped token becomes missing or raises
    UnmappedToken with the data row of its first cell."""
    columns = []
    for vr in spec:
        lookup = {t: MISSING if x is None else vr.levels.index(x) for t, x in vr.mapping.items()}
        tokens = raw.column(vr.source)
        if vr.unmapped == "missing":
            lookup = {**dict.fromkeys(tokens, MISSING), **lookup}  # unmapped: missing
        try:
            columns.append(np.array([lookup[t] for t in tokens], dtype=np.int32))
        except KeyError as exc:
            raise UnmappedToken(vr.name, exc.args[0], tokens.index(exc.args[0]) + 1) from None
    codes = np.array(columns, dtype=np.int32).reshape(len(columns), raw.n_rows).T
    return DataTable([vr.variable() for vr in spec], codes, source=raw.fingerprint)


def collapse_rare(table: DataTable, min_count: int):
    """Drop every level observed fewer than ``min_count`` times in its column,
    marking its cells missing; ``(table, {variable: [dropped levels]})``.

    One pass over the columns, in table order, builds at most one table.
    Counts are taken on the table as given, i.e. before any row filtering;
    the first column left with fewer than two levels raises ValueError. An
    empty table passes through unchanged: with no observations there is no
    basis for collapsing a domain.
    """
    if table.n_rows == 0:
        return table, {}
    codes, variables, dropped = table.codes.copy(), list(table.variables), {}
    for vi, var in enumerate(table.variables):
        col = codes[:, vi]
        keep = np.bincount(col[col >= 0], minlength=var.r) >= min_count
        if np.all(keep):
            continue
        if (n := int(keep.sum())) < 2:
            raise ValueError(f"collapsing rare levels of {var.name!r} would leave {n} level(s)")
        remap = np.full(var.r + 1, MISSING, dtype=np.int32)  # slot -1 aliases to last
        remap[np.flatnonzero(keep)] = np.arange(n, dtype=np.int32)
        codes[:, vi] = remap[col]
        new_levels = tuple(lvl for lvl, k in zip(var.levels, keep) if k)
        variables[vi] = CategoricalVariable(var.name, new_levels, var.ordinal)
        dropped[var.name] = [lvl for lvl, k in zip(var.levels, keep) if not k]
    return (DataTable(variables, codes, table.source) if dropped else table), dropped


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
    for v in table.variables:
        if problem := _label_problem(v.name, v.levels):
            raise MalformedFile(csv_path, "variables", problem)
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


def read_variables(doc) -> list:
    """The variables in the ``variables:`` list of ``doc``, a
    ``_yamlio.Reader`` of a dictionary or model file, as ``variable_entries``
    writes it; MalformedFile at the entry or field that is wrong."""
    variables = []
    for name, entry in doc.keyed("variables", ("name", "levels", "ordinal"), "name").items():
        try:
            variables.append(CategoricalVariable(
                name, entry.names("levels"), entry.get("ordinal", bool, False)))
        except ValueError as exc:
            raise entry.error(str(exc)) from exc
    return variables


def load_datatable(csv_path, dict_path) -> DataTable:
    """The table in ``csv_path``, whose rows the dictionary ``dict_path`` counts,
    decoded by ``recode``: each level is its own token, the empty cell missing."""
    doc = _yamlio.document(_yamlio.read(dict_path), dict_path, "beliefnet-dict", 1,
                           ("n_rows", "source", "variables"))
    variables = read_variables(doc)
    try:  # VariableRecode refuses a label the CSV cannot round-trip
        spec = [VariableRecode(v.name, v.levels, {"": None, **{x: x for x in v.levels}},
                               ordinal=v.ordinal) for v in variables]
    except ValueError as exc:
        raise doc.error(str(exc), "variables") from None
    n_rows = doc.get("n_rows", int)
    raw = load_csv(csv_path, required_columns=[v.name for v in variables])
    if raw.n_rows != n_rows:
        reason = f"{raw.n_rows} rows, but {dict_path} declares {n_rows}"
        raise MalformedFile(csv_path, "n_rows", reason)
    try:
        table = recode(raw, spec)
    except UnmappedToken as exc:
        raise MalformedFile(csv_path, f"row {exc.row}",
                            f"variable {exc.variable!r} has no level {exc.token!r}") from None
    return DataTable(table.variables, table.codes, doc.get("source", str, ""))


def _label_problem(name, levels):
    """Why a table CSV cannot round-trip this variable, or None: an empty
    label reads back as missing, and the writer quotes a cell only for a
    comma, a double quote or a newline, so a bare carriage return splits it."""
    if "" in levels:
        return f"variable {name!r} has an empty level label"
    for label in (name, *levels):
        if "\r" in label and not {",", '"', "\n"} & set(label):
            return f"variable {name!r}: {label!r} has a carriage return the CSV leaves unquoted"
