"""Model file serialization and Graphviz export.

The native model file is a versioned YAML document holding variables, arcs,
CPT rows, and metadata (see docs/formats.md). Floats are written with
shortest round-trip repr, so serialize/deserialize is the identity on every
field, bit for bit.
"""

from __future__ import annotations

from . import _yamlio, reports
from ._yamlio import _field, _known
from .data import read_variables, variable_entries
from .errors import MalformedFile
from .model import Cpt, Dag, FittedNetwork

FORMAT_NAME = "beliefnet-model"
FORMAT_VERSION = 1
WIDTH = 100000  # the emitter's line width, so a CPT row stays on one line


def serialize(net: FittedNetwork) -> str:
    """The model file, as ``_yamlio.dump`` writes the document at WIDTH."""
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "variables": variable_entries(net.variables),
        "arcs": [[p, c] for (p, c) in net.dag.arcs()],
        "cpts": [
            {"variable": v.name, "parents": list(net.cpts[v.name].parent_order)}
            for v in net.variables
        ],
        "metadata": dict(net.metadata),
    }
    # only top-level keys and items start a line unindented, and only CPT
    # entries start "- variable: "; each entry's rows go after its parents
    body, metadata = _yamlio.dump(doc, width=WIDTH).split("\nmetadata:", 1)
    first, *entries = body.split("\n- variable: ")
    parts = [first, "\n"]
    for v, entry in zip(net.variables, entries):
        parts += ["- variable: ", entry, "\n  rows:\n"]
        for row in net.cpts[v.name].table.tolist():
            line = f"  - [{', '.join(map(_yaml_float, row))}]\n"
            if len(line) > WIDTH:  # the emitter breaks a long flow sequence
                line = _yamlio.dump([{"rows": [row]}], width=WIDTH)[len("- rows:\n"):]
            parts.append(line)
    parts += ["metadata:", metadata]
    return "".join(parts)


def _yaml_float(x: float) -> str:
    """``x`` as PyYAML's SafeRepresenter writes a float."""
    text = repr(x).lower()
    if "." not in text and "e" in text:
        return text.replace("e", ".0e", 1)
    return {"nan": ".nan", "inf": ".inf", "-inf": "-.inf"}.get(text, text)


def save(net: FittedNetwork, path) -> None:
    reports.write_text(path, serialize(net))


def deserialize(text, source="<string>") -> FittedNetwork:
    """The network in ``text``, YAML text or a text file."""
    return _network(_yamlio.load(text, source), source)


def load(path) -> FittedNetwork:
    return _network(_yamlio.read(path), str(path))


def _network(doc, source) -> FittedNetwork:
    _yamlio.header(doc, source, FORMAT_NAME, FORMAT_VERSION)
    _known(doc, ("format", "version", "variables", "arcs", "cpts", "metadata"), path=source)
    variables = read_variables(doc, source)
    parents, rows = {}, {}
    for i, entry in enumerate(_field(doc, "cpts", list, path=source)):
        where = f"cpts[{i}]."
        name = _field(entry, "variable", str, path=source, where=where)
        _known(entry, ("variable", "parents", "rows"), path=source, where=where)
        if name in parents:
            raise MalformedFile(source, "cpts", f"duplicate entry for {name!r}")
        parents[name] = tuple(str(p) for p in _field(entry, "parents", list, path=source,
                                                     where=where))
        rows[name] = _field(entry, "rows", list, path=source, where=where)
    arcs = _field(doc, "arcs", list, path=source)
    metadata = _field(doc, "metadata", dict, {}, path=source)
    try:
        dag = Dag(tuple(v.name for v in variables), parents)
        if {(str(a), str(b)) for a, b in arcs} != set(dag.arcs()):
            raise MalformedFile(source, "arcs", "arc list disagrees with CPT parents")
        cpts = {name: Cpt(name, parents[name], rows[name]) for name in parents}
        return FittedNetwork(variables, dag, cpts, metadata)
    except MalformedFile:
        raise
    except Exception as exc:
        # a cycle, an unknown parent, a bad arc pair, or ragged or
        # non-numeric rows, which numpy refuses with ValueError or TypeError
        raise MalformedFile(source, "(document)", str(exc)) from exc


def _dot_quote(name: str) -> str:
    return '"' + str(name).replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(dag: Dag, node_colors=None) -> str:
    """Graphviz DOT text listing every node and arc exactly once.

    ``node_colors`` maps node name -> fill color (any Graphviz color string);
    colored nodes are rendered with style=filled.
    """
    node_colors = node_colors or {}
    lines = ['digraph "beliefnet" {']
    for node in dag.nodes:
        color = node_colors.get(node)
        if color is not None:
            lines.append(
                f"  {_dot_quote(node)} [style=filled, fillcolor={_dot_quote(color)}];"
            )
        else:
            lines.append(f"  {_dot_quote(node)};")
    for parent, child in dag.arcs():
        lines.append(f"  {_dot_quote(parent)} -> {_dot_quote(child)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
