"""Per-cell and whole-document reference versions of beliefnet's file I/O.

These are the straightforward implementations the column-wise and row-text
code in ``beliefnet.data`` and ``beliefnet.modelio`` replaced. The tests
require equal bytes, equal codes and equal errors from both. ``read_query_csv``
reloads a query report for the tests that check its numbers, and ``same``
compares what a round trip gives back field by field.
"""

import csv
import hashlib

import numpy as np

from beliefnet import _yamlio
from beliefnet.data import MISSING, DataTable, load_csv
from beliefnet.errors import MalformedFile, UnmappedToken
from beliefnet.model import Cpt, FittedNetwork
from beliefnet.modelio import FORMAT_NAME, FORMAT_VERSION


def serialize(net, width=100000):
    """The model file as one ``_yamlio.dump`` of the whole document."""
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "variables": [
            {"name": v.name, "levels": list(v.levels), "ordinal": v.ordinal}
            for v in net.variables
        ],
        "arcs": [[p, c] for (p, c) in net.dag.arcs()],
        "cpts": [
            {
                "variable": v.name,
                "parents": list(net.cpts[v.name].parent_order),
                "rows": [[float(x) for x in row] for row in net.cpts[v.name].table],
            }
            for v in net.variables
        ],
        "metadata": dict(net.metadata),
    }
    return _yamlio.dump(doc, width=width)


def fingerprint(columns, rows):
    """The RawTable content digest, one update per row."""
    digest = hashlib.sha256()
    digest.update("\x1f".join(columns).encode("utf-8"))
    for row in rows:
        digest.update(b"\x1e")
        digest.update("\x1f".join(row).encode("utf-8"))
    return digest.hexdigest()


def recode(raw, spec):
    """Token by token, writing each code into a numpy column."""
    columns = []
    for vr in spec.variables:
        tokens = raw.column(vr.source)
        lookup = {}
        for token, label in vr.mapping.items():
            lookup[token] = MISSING if label is None else vr.levels.index(label)
        col = np.empty(len(tokens), dtype=np.int32)
        for i, token in enumerate(tokens):
            if token in lookup:
                col[i] = lookup[token]
            elif vr.unmapped == "missing":
                col[i] = MISSING
            else:
                raise UnmappedToken(vr.name, token)
        columns.append(col)
    codes = (
        np.stack(columns, axis=1) if columns else np.empty((raw.n_rows, 0), dtype=np.int32)
    )
    return DataTable([vr.variable() for vr in spec.variables], codes, source=raw.fingerprint)


def save_datatable(table, csv_path, dict_path):
    """One ``writerow`` per row, one label lookup per cell."""
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([v.name for v in table.variables])
        for row in table.codes:
            writer.writerow(
                ["" if code == MISSING else var.levels[code]
                 for var, code in zip(table.variables, row)]
            )
    doc = {
        "format": "beliefnet-dict",
        "version": 1,
        "n_rows": int(table.n_rows),
        "source": table.source,
        "variables": [
            {"name": v.name, "levels": list(v.levels), "ordinal": v.ordinal}
            for v in table.variables
        ],
    }
    with open(dict_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_yamlio.dump(doc))


def load_codes(csv_path, variables):
    """The CSV's cells as codes, cell by cell, column by column."""
    raw = load_csv(csv_path, required_columns=[v.name for v in variables])
    order = [raw.columns.index(v.name) for v in variables]
    codes = np.empty((raw.n_rows, len(variables)), dtype=np.int32)
    for out_col, (var, src_col) in enumerate(zip(variables, order)):
        lookup = {label: i for i, label in enumerate(var.levels)}
        for i, row in enumerate(raw.rows):
            cell = row[src_col]
            if cell == "":
                codes[i, out_col] = MISSING
            else:
                try:
                    codes[i, out_col] = lookup[cell]
                except KeyError:
                    raise MalformedFile(csv_path, f"row {i + 1}",
                                        f"variable {var.name!r} has no level {cell!r}") from None
    return codes


def read_query_csv(path):
    """Reload a query CSV: (levels, [(evidence_variable, evidence_value, probs)])."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    return tuple(header[2:]), [(r[0], r[1], [float(x) for x in r[2:]]) for r in rows]


def same(a, b):
    """Whether two DataTables (variables and codes; the source is not
    compared), Cpts or FittedNetworks hold equal fields; the library's own
    ``==`` is identity."""
    if type(a) is not type(b):
        return False
    if isinstance(a, DataTable):
        return a.variables == b.variables and np.array_equal(a.codes, b.codes)
    if isinstance(a, Cpt):
        return ((a.variable, a.parent_order) == (b.variable, b.parent_order)
                and np.array_equal(a.table, b.table))
    assert isinstance(a, FittedNetwork), type(a)
    return (a.variables == b.variables and a.dag == b.dag and a.metadata == b.metadata
            and a.cpts.keys() == b.cpts.keys()
            and all(same(a.cpts[k], b.cpts[k]) for k in a.cpts))
