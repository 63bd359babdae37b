"""YAML parsing and emission for every beliefnet file, through libyaml when
PyYAML ships it. Both parsers give the same documents; the emitters differ
only on strings outside printable ASCII (the pure one may split them across
lines) and on empty keys, so such documents take the pure emitter and every
file is written byte for byte as ``yaml.safe_dump`` writes it. Every loader
opens its file with ``document``, which checks the header and the root keys,
and reads its fields through the ``Reader`` that returns, which names a
wrong field by its position.
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


_REQUIRED = object()


class Reader:
    """A mapping of the file ``path`` at ``where`` ("", "key." or "key[i].sub."),
    read field by field; every refusal is MalformedFile at the field's position."""

    __slots__ = ("doc", "path", "where")

    def __init__(self, doc, path, where=""):
        self.doc, self.path, self.where = doc, path, where
        if not isinstance(doc, dict):
            raise self.error("expected a mapping")

    def error(self, reason, key=""):
        """MalformedFile at ``key``, or at this mapping when ``key`` is ""."""
        position = f"{self.where}{key}" if key != "" else self.where[:-1] or "(root)"
        return MalformedFile(self.path, position, reason)

    def get(self, key, kind, default=_REQUIRED, check=None):
        """``doc[key]`` read as ``kind``, ``default`` when absent or empty.

        ``kind`` is bool, int, list or dict (the value must be one), float (a
        number, or a string such as "1e-3", which YAML 1.1 does not read as a
        number) or str (a scalar, converted; a list, a mapping or a boolean,
        which YAML 1.1 reads from an unquoted yes/no/on/off, is refused);
        ``check`` is a (predicate, reason) pair on the result.
        """
        value = self.doc.get(key)
        if value is None:
            if default is _REQUIRED:
                raise self.error("missing field", key)
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
            raise self.error(f"expected {kind.__name__}, got {value!r}", key)
        if check is not None and not check[0](value):
            raise self.error(check[1], key)
        return value

    def names(self, key):
        """``doc[key]``, a required list of scalars, as a tuple of strings; an
        item that is a list, a mapping, a null or a boolean is refused at
        ``key[i]``, so ``~`` is not read as "None", nor ``yes`` as "True", and
        so is an item listed before: a list of names names each thing once."""
        items = self.get(key, list)
        names = tuple(map(str, items))
        for i, item in enumerate(items):
            if item is None or isinstance(item, (list, dict, bool)):
                raise self.error(f"expected a name, got {item!r}", f"{key}[{i}]")
            if names.index(names[i]) < i:
                raise self.error(f"{names[i]!r} is listed twice", f"{key}[{i}]")
        return names

    def known(self, keys):
        """This reader, once no key is outside ``keys``: a misspelled key is
        refused, not read as absent."""
        for key in self.doc:
            if key not in keys:
                raise self.error(f"unknown key; known: {', '.join(keys)}", key)
        return self

    def section(self, key, keys, default=_REQUIRED):
        """The mapping ``doc[key]`` at ``key.``, its keys checked against
        ``keys``; when that is None its keys are data, not fields, and one YAML
        1.1 reads as null or a boolean (``~``, ``yes``) is refused at ``key``."""
        section = Reader(self.get(key, dict, default), self.path, f"{self.where}{key}.")
        bad = [k for k in section.doc if k is None or isinstance(k, bool)]
        if keys is None and bad:
            raise section.error(f"{bad[0]!r}: quote a key YAML reads as null or a boolean")
        return section if keys is None else section.known(keys)

    def entries(self, key, keys):
        """The required list ``doc[key]`` as one reader per item, at
        ``key[i].``; each item must be a mapping whose keys are in ``keys``."""
        return [Reader(item, self.path, f"{self.where}{key}[{i}].").known(keys)
                for i, item in enumerate(self.get(key, list))]

    def keyed(self, key, keys, field):
        """``entries(key, keys)`` as ``{name: entry}`` in list order, each
        named by its required ``field``, read as str; a name an earlier entry
        used is refused at ``key[i].field``, as ``names`` refuses one."""
        keyed = {}
        for entry in self.entries(key, keys):
            name = entry.get(field, str)
            if name in keyed:
                raise entry.error(f"{name!r} is listed twice", field)
            keyed[name] = entry
        return keyed


def document(doc, path, name, version, keys):
    """The ``Reader`` of ``doc``, a mapping whose ``format`` is ``name``, whose
    ``version`` is ``version`` and whose other root keys are in ``keys``."""
    doc = Reader(doc, path)
    if doc.doc.get("format") != name:
        raise doc.error(f"expected {name!r}, got {doc.doc.get('format')!r}", "format")
    if doc.doc.get("version") != version:
        raise VersionMismatch(path, doc.doc.get("version"), version)
    return doc.known(("format", "version", *keys))


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
