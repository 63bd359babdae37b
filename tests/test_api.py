"""The public API: ``beliefnet.__all__``, the names it leaves out, and the README list."""

import ast
import importlib
import re
from pathlib import Path

import beliefnet

ROOT = Path(__file__).resolve().parents[1]
DELETED = {
    "data": ("counts", "CountTable", "DEFAULT_MIN_LEVEL_COUNT"),
    "errors": ("IncompleteAssignment", "UnsatisfiableConstraints"),
    "inference": ("conditional_table", "fit_mle"),
    "reports": ("read_query_csv",),
    "learn": ("Constraints",),
    "model": ("Evidence", "children_map", "config_index", "config_levels", "d_separated",
              "joint_probability", "parameter_count"),
    "scores": ("score",),
}


def test_all_is_sorted_public_and_resolves():
    names = beliefnet.__all__
    assert names == sorted(set(names))
    assert not [n for n in names if n.startswith("_")]
    for name in names:
        assert getattr(beliefnet, name) is not None


def test_all_lists_exactly_what_init_imports():
    tree = ast.parse(Path(beliefnet.__file__).read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name
                for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported == set(beliefnet.__all__)


def test_deleted_names_are_gone():
    for module, names in DELETED.items():
        owner = importlib.import_module(f"beliefnet.{module}")
        for name in names:
            assert not hasattr(owner, name), f"beliefnet.{module}.{name}"
            assert not hasattr(beliefnet, name), name


def test_readme_lists_the_api_by_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1].split("\n## ", 1)[0]
    # one list item per module, wrapped onto indented continuation lines
    items = re.findall(r"^- (`beliefnet\.\w+`.*?)(?=\n\S|\Z)", section, re.M | re.S)
    listed = []
    for item in items:
        module, *names = re.findall(r"`([^`]+)`", item)
        for name in names:
            assert getattr(beliefnet, name).__module__ == module, (module, name)
        listed += names
    assert sorted(listed) == beliefnet.__all__
