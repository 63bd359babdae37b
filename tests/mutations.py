"""One-line mutations of a text file, shared by the loader and CLI properties."""

import re

VALUES = ("", "[]", "{}", "x", "-1", "0", "2.5", "[1, 2]", "{a: 1}", "{1: x}", "null",
          ".nan", ".inf", "true", "auto", "'1e-3'", "[[A]]", "!!int x", "!!float y")

MUTATIONS = ("delete", "drop colon", "indent", "dedent", "duplicate", "value", "repeat item")


def mutate(line, kind, value):
    """The lines that replace ``line`` after one mutation; "repeat item"
    writes the first item of a flow list twice."""
    key, colon, _ = line.partition(":")
    lead = line[:len(line) - len(line.lstrip(" -"))]
    return {
        "delete": [],
        "drop colon": [key + line[len(key) + 1:]] if colon else [line + ":"],
        "indent": ["  " + line],
        "dedent": [line.lstrip(" -")],
        "duplicate": [line, line],
        "value": [f"{key}: {value}" if colon else lead + value],
        "repeat item": [re.sub(r"\[([^][,]+)", r"[\1, \1", line, count=1)],
    }[kind]
