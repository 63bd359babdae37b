"""YAML parsing and emission for every beliefnet file, through libyaml when
PyYAML ships it. Both parsers give the same documents; the emitters differ
only on strings outside printable ASCII (the pure one may split them across
lines) and on empty keys, so such documents take the pure emitter and every
file is written byte for byte as ``yaml.safe_dump`` writes it. Every loader
reads its fields through ``_field`` and ``_known``, which name a wrong field
by its position.
"""

from __future__ import annotations

import yaml

from .errors import MalformedFile, VersionMismatch


class _FloatRows:
    """Loader mixin: a sequence of float scalars (a CPT row) is built by
    ``float()``, not by PyYAML's per-node dispatch; any other sequence, or a
    scalar ``float()`` refuses (``.inf``, ``1:30.0``), takes the constructor."""

    def construct_sequence(self, node, deep=False):
        floats = "tag:yaml.org,2002:float"
        if isinstance(node, yaml.SequenceNode) and all(c.tag == floats for c in node.value):
            try:
                return [float(c.value) for c in node.value]
            except (TypeError, ValueError):
                pass
        return super().construct_sequence(node, deep)


def loader(base):
    """``base``, a PyYAML safe loader class, with the ``_FloatRows`` shortcut."""
    return type(base.__name__, (_FloatRows, base), {})


if yaml.__with_libyaml__:
    Loader, Dumper = loader(yaml.CSafeLoader), yaml.CSafeDumper
else:
    Loader, Dumper = loader(yaml.SafeLoader), yaml.SafeDumper


def load(stream, source):
    """The document in ``stream`` (text or a text file); a syntax error raises
    MalformedFile(source, "line L, column C", problem)."""
    try:
        return yaml.load(stream, Loader=Loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        position = f"line {mark.line + 1}, column {mark.column + 1}" if mark else "(unknown)"
        raise MalformedFile(source, position, getattr(exc, "problem", str(exc))) from exc
    except (ValueError, IndexError, KeyError, AttributeError) as exc:
        # undecodable bytes, or what PyYAML's constructors raise on a bad
        # tagged value: !!int x, !!int '', !!bool x, !!timestamp x
        raise MalformedFile(source, "(document)", str(exc)) from exc


def read(path):
    """The document in the UTF-8 file ``path``, as ``load`` parses it."""
    with open(path, "r", encoding="utf-8") as fh:
        return load(fh, path)


def header(doc, source, name, version):
    """``doc`` once it is a mapping whose ``format`` is ``name`` and whose
    ``version`` is ``version``: else MalformedFile at "(root)" or "format",
    or VersionMismatch."""
    if not isinstance(doc, dict):
        raise MalformedFile(source, "(root)", "expected a mapping")
    if doc.get("format") != name:
        raise MalformedFile(source, "format", f"expected {name!r}, got {doc.get('format')!r}")
    if doc.get("version") != version:
        raise VersionMismatch(source, doc.get("version"), version)
    return doc


_REQUIRED = object()


def _field(doc, key, kind, default=_REQUIRED, check=None, *, path, where=""):
    """``doc[key]`` read as ``kind``, ``default`` when absent or empty.

    ``kind`` is bool, int, list or dict (the value must be one), float (a
    number, or a string such as "1e-3", which YAML 1.1 does not read as a
    number) or str (a scalar, converted; a list, a mapping or a boolean, which
    YAML 1.1 reads from an unquoted yes/no/on/off, is refused);
    ``check`` is a (predicate, reason) pair on the result. Every failure
    raises MalformedFile naming the field ``where`` + ``key``.
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
        ok = not isinstance(value, (list, dict, bool))
        value = str(value) if ok else value
    else:
        ok = type(value) is kind
    if not ok:
        raise MalformedFile(path, position, f"expected {kind.__name__}, got {value!r}")
    if check is not None and not check[0](value):
        raise MalformedFile(path, position, check[1])
    return value


def _names(doc, key, *, path, where=""):
    """``doc[key]``, a required list of scalars, as a tuple of strings; an
    item that is a list, a mapping, a null or a boolean raises MalformedFile
    at ``key[i]``, so ``~`` is not read as "None", nor ``yes`` as "True"."""
    items = _field(doc, key, list, path=path, where=where)
    for i, item in enumerate(items):
        if item is None or isinstance(item, (list, dict, bool)):
            raise MalformedFile(path, f"{where}{key}[{i}]", f"expected a name, got {item!r}")
    return tuple(map(str, items))


def _known(doc, keys, *, path, where=""):
    """Refuse the first key of the mapping ``doc`` that is not in ``keys``,
    so a misspelled key is not read as absent."""
    for key in doc:
        if key not in keys:
            raise MalformedFile(path, f"{where}{key}", f"unknown key; known: {', '.join(keys)}")


def dump(doc, width=None):
    """The block-style YAML text of ``doc``, keys in insertion order."""
    dumper = Dumper if _plain(doc) else yaml.SafeDumper
    return yaml.dump(doc, Dumper=dumper, sort_keys=False, default_flow_style=None, width=width)


def _plain(node) -> bool:
    """True when every string in ``node`` is printable ASCII and no mapping
    key is empty."""
    if isinstance(node, str):
        return node.isascii() and node.isprintable()
    if isinstance(node, dict):
        return all(key != "" and _plain(key) and _plain(v) for key, v in node.items())
    if isinstance(node, list):
        return all(map(_plain, node))
    return True
