"""The libyaml and pure-Python YAML paths read and write every beliefnet file
alike: equal documents on load, identical bytes on dump. The loaders' float
shortcut gives what PyYAML's own constructor gives."""

import glob

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NEEDS_LIBYAML, YAML_CLASSES, use_yaml
from netgen import random_net
from reference_io import same
from beliefnet import _yamlio
from beliefnet.cli import main
from beliefnet.configio import load_learn_config
from beliefnet.data import load_datatable, save_datatable
from beliefnet.errors import MalformedFile
from beliefnet.inference import sample
from beliefnet.modelio import deserialize, serialize

MODEL_FILES = sorted(glob.glob("fixtures/*.bn.yaml")) + ["perfbench/data/fixture_full.bn.yaml"]
WIDTHS = (None, 100000)  # every file but the model file; the model file

FLOATS = [1e-300, 5e-324, 2.2250738585072014e-308, 1e300, 1.7976931348623157e308,
          float("nan"), float("inf"), float("-inf"), -0.0, 0.1, 1 / 3]
LABELS = [
    "No", "yes", "on", "off", "~", "null", "True", "1e3", "012", "", " lead", "a: b",
    "Männlich", "naïve—dash", "日本語", "🙂", "x" * 400, " ".join(["word"] * 80),
    " ".join(["wörd"] * 80),
]


def both(monkeypatch, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` under the libyaml classes, then under the pure ones."""
    out = []
    for path in ("libyaml", "pure"):
        with monkeypatch.context() as m:
            use_yaml(m, path)
            out.append(fn(*args, **kwargs))
    return out


def safe_dump(doc, width=None):
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None, width=width)


@NEEDS_LIBYAML
class TestParity:
    def test_model_files(self, monkeypatch):
        for path in MODEL_FILES:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            libyaml_doc, pure_doc = both(monkeypatch, _yamlio.load, text, path)
            assert libyaml_doc == pure_doc, path
            for width in WIDTHS:
                a, b = both(monkeypatch, _yamlio.dump, libyaml_doc, width=width)
                assert a == b, (path, width)
            assert both(monkeypatch, lambda: serialize(deserialize(text))) == [text, text]

    def test_netgen_nets(self, monkeypatch):
        rng = np.random.default_rng(11)
        for n in (2, 5, 9, 14):
            net = random_net(rng, n, max_levels=5)
            a, b = both(monkeypatch, serialize, net)
            assert a == b
            assert all(same(back, net) for back in both(monkeypatch, deserialize, a))

    def test_dictionary_audit_and_manifest(self, monkeypatch, tmp_path):
        assert main([
            "prep", "--raw", "fixtures/synthetic_survey.csv", "--recode", "fixtures/prep.yaml",
            "--themes", "fixtures/themes.yaml", "--workspace", str(tmp_path), "--name", "s",
        ]) == 0
        names = ("s_full.dict.yaml", "s.audit.yaml", "s.manifest.yaml")
        for name in names:
            text = (tmp_path / "data" / name).read_text(encoding="utf-8")
            a, b = both(monkeypatch, _yamlio.load, text, name)
            assert a == b
            assert both(monkeypatch, _yamlio.dump, a) == [text, text]

    def test_floats(self, monkeypatch):
        doc = {"rows": [FLOATS, [x / 7 for x in FLOATS]], "one": 5e-324}
        for width in WIDTHS:
            a, b = both(monkeypatch, _yamlio.dump, doc, width=width)
            assert a == b == safe_dump(doc, width)
            loaded = both(monkeypatch, _yamlio.load, a, "<floats>")
            assert repr(loaded[0]) == repr(loaded[1]) == repr(doc)

    def test_labels(self, monkeypatch):
        doc = {
            "variables": [{"name": s, "levels": [s, "x"], "ordinal": False} for s in LABELS],
            "map": {s: s for s in LABELS},
        }
        for width in WIDTHS:
            a, b = both(monkeypatch, _yamlio.dump, doc, width=width)
            assert a == b == safe_dump(doc, width)
            assert both(monkeypatch, _yamlio.load, a, "<labels>") == [doc, doc]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.dictionaries(
            st.text(max_size=30),
            st.recursive(
                st.one_of(st.text(max_size=60), st.floats(), st.integers(), st.booleans(),
                          st.none()),
                lambda inner: st.one_of(
                    st.lists(inner, max_size=6), st.dictionaries(st.text(max_size=30), inner,
                                                                 max_size=4)
                ),
                max_leaves=30,
            ),
            min_size=1,
            max_size=4,
        ),
        st.sampled_from(WIDTHS + (40,)),
    )
    def test_any_mapping_dumps_as_safe_dump(self, doc, width):
        text = _yamlio.dump(doc, width=width)
        assert text == safe_dump(doc, width)
        assert repr(_yamlio.load(text, "<doc>")) == repr(yaml.safe_load(text))


# scalars a float-tagged node can hold, or that sit next to one
SCALARS = [
    "1.5", "-2.25", "1.0e-05", "5e-324", "!!float 5e-324", "!!float 1", "!!float -0", ".inf",
    "-.inf", ".NaN", "!!float .inf", "!!float -nan", "!!float nan", "1_000.5",
    "!!float 1_000.5", "!!float 1__0.5", "!!float _1.5", "1:30.0", "-1:30.0",
    "!!float 1:30.0", "!!float x", "!!float ''", "&a 2.5", "*a", "!!float &b 1.5", "*b",
    "!!float [1, 2]", "!!float {a: 1}", "!!int 3", "!!int x", "abc", "'1.5'", "~",
    "!!float +.5", "!!float 1e500", "!!float ' 2.5 '", "0.0", "-0.0", "1.0",
    "!!float 0x1p3", "!!float \u0661\u0662", "!!float 1E5", "[1.5, .inf]", "{k: 1.5}",
    "!!seq abc", "!!seq {a: 1.5}", "!!seq [1.5, 2.5]",
]


@st.composite
def _documents(draw):
    """YAML text: flow and block sequences (nested, or under a key) of SCALARS."""
    items = draw(st.lists(st.sampled_from(SCALARS), min_size=1, max_size=6))
    form = draw(st.sampled_from(["flow", "block", "nested", "keyed"]))
    flow = "[" + ", ".join(items) + "]"
    if form == "flow":
        return flow + "\n"
    if form == "block":
        return "".join(f"- {x}\n" for x in items)
    if form == "nested":
        return f"- {flow}\n- {items[0]}\n"
    return f"rows:\n- {flow}\nrow: {flow}\n"


def _outcome(text):
    try:
        return "value", repr(_yamlio.load(text, "<doc>"))
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc).__name__, str(exc)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_documents())
def test_float_shortcut_matches_constructor(text):
    """Each loader gives the value, or the error, its PyYAML base class gives."""
    for base in (getattr(yaml, "CSafeLoader", None), yaml.SafeLoader):
        if base is None:
            continue
        outcomes = []
        for cls in (_yamlio.loader(base), base):
            with pytest.MonkeyPatch.context() as m:
                m.setattr(_yamlio, "Loader", cls)
                outcomes.append(_outcome(text))
        assert outcomes[0] == outcomes[1], (base.__name__, text)


def test_row_floats_skip_the_constructor(monkeypatch):
    tags = []
    construct = _yamlio.Loader.construct_object

    def spy(self, node, deep=False):
        tags.append(node.tag)
        return construct(self, node, deep)

    monkeypatch.setattr(_yamlio.Loader, "construct_object", spy)
    with open("fixtures/mini.bn.yaml", encoding="utf-8") as fh:
        assert deserialize(fh.read()).cpts["WetGrass"].table[3, 1] == 0.99
    assert tags and "tag:yaml.org,2002:float" not in tags


class _CountingLoader(YAML_CLASSES["pure"][0]):
    made = 0

    def __init__(self, stream):
        type(self).made += 1
        super().__init__(stream)


class _CountingDumper(yaml.SafeDumper):
    made = 0

    def __init__(self, *args, **kwargs):
        type(self).made += 1
        super().__init__(*args, **kwargs)


def test_pure_fallback_serves_model_config_and_dictionary(monkeypatch, tmp_path):
    monkeypatch.setattr(_yamlio, "Loader", _CountingLoader)
    monkeypatch.setattr(_yamlio, "Dumper", _CountingDumper)
    monkeypatch.setattr(_CountingLoader, "made", 0)
    monkeypatch.setattr(_CountingDumper, "made", 0)
    net = random_net(np.random.default_rng(3), 6)
    assert same(deserialize(serialize(net)), net)
    assert load_learn_config("fixtures/learn_fast.yaml")[2] == 200
    data = sample(net, 20, seed=4)
    save_datatable(data, tmp_path / "t.csv", tmp_path / "t.dict.yaml")
    back = load_datatable(tmp_path / "t.csv", tmp_path / "t.dict.yaml")
    assert np.array_equal(back.codes, data.codes)
    assert (_CountingLoader.made, _CountingDumper.made) == (3, 2)


@pytest.mark.parametrize("text", ["- !!float ''", "- !!int ''", "- !!bool x", "- !!timestamp x"])
def test_constructor_crash_is_malformed_file(text):
    # PyYAML's constructors raise IndexError, KeyError or AttributeError here
    with pytest.raises(MalformedFile) as err:
        _yamlio.load(text, "t.yaml")
    assert (err.value.path, err.value.position) == ("t.yaml", "(document)")


def _refusal(read, doc):
    """(position, reason) of the MalformedFile ``read`` raises on the
    document ``doc`` of the format "beliefnet-x", version 1."""
    with pytest.raises(MalformedFile) as err:
        read(_yamlio.document(doc, "x.yaml", "beliefnet-x", 1, tuple(doc)[2:]))
    assert err.value.path == "x.yaml"
    return err.value.position, err.value.reason


HEAD = {"format": "beliefnet-x", "version": 1}


class TestReader:
    """Each reader method refuses at the position of what it reads: ``key``,
    ``key.sub`` or ``key[i].sub``."""

    def test_document_not_a_mapping_is_refused_at_the_root(self):
        with pytest.raises(MalformedFile) as err:
            _yamlio.document(["format", "version"], "x.yaml", "beliefnet-x", 1, ())
        assert (err.value.position, err.value.reason) == ("(root)", "expected a mapping")

    def test_document_refuses_an_unknown_root_key(self):
        with pytest.raises(MalformedFile) as err:
            _yamlio.document({**HEAD, "tabu": {}}, "x.yaml", "beliefnet-x", 1, ("alpha",))
        assert err.value.position == "tabu"

    def test_section(self):
        def read(doc):
            doc.section("tabu", ("tenure",)).get("tenure", int, 10, (lambda v: v > 0, "> 0"))
        assert _refusal(read, {**HEAD, "tabu": {"tenure": 0}}) == ("tabu.tenure", "> 0")
        assert _refusal(read, {**HEAD, "tabu": {"tenur": 3}})[0] == "tabu.tenur"
        assert _refusal(read, {**HEAD, "tabu": [3]}) == ("tabu", "expected dict, got [3]")

    def test_section_of_data_keys(self):
        # a YAML 1.1 null or boolean key would be read as "None" or "True"
        def read(doc):
            doc.section("evidence", None)
        assert _refusal(read, {**HEAD, "evidence": _yamlio.load("{yes: x}", "x.yaml")}) == (
            "evidence", "True: quote a key YAML reads as null or a boolean")
        assert _refusal(read, {**HEAD, "evidence": _yamlio.load("{~: x}", "x.yaml")})[0] == (
            "evidence")
        read(_yamlio.document({**HEAD, "evidence": {"yes": "x", 1: "y"}}, "x.yaml",
                              "beliefnet-x", 1, ("evidence",)))

    def test_entries(self):
        def read(doc):
            return [entry.get("name", str) for entry in doc.entries("variables", ("name",))]
        doc = {**HEAD, "variables": [{"name": "A"}, {"name": "B"}, {}]}
        assert _refusal(read, doc) == ("variables[2].name", "missing field")
        doc = {**HEAD, "variables": ["A"]}
        assert _refusal(read, doc) == ("variables[0]", "expected a mapping")
        doc = {**HEAD, "variables": [{"name": "A"}, {"nme": "B"}]}
        assert _refusal(read, doc)[0] == "variables[1].nme"

    def test_names(self):
        def read(doc):
            doc.section("models", ("full",)).names("full")
        doc = {**HEAD, "models": {"full": ["A", ["B"]]}}
        assert _refusal(read, doc) == ("models.full[1]", "expected a name, got ['B']")
        doc = {**HEAD, "models": {"full": ["A", "B", "A"]}}
        assert _refusal(read, doc) == ("models.full[2]", "'A' is listed twice")

    def test_error_at_an_entry_and_at_its_field(self):
        doc = _yamlio.document({**HEAD, "tiers": [{"variables": []}]}, "x.yaml",
                               "beliefnet-x", 1, ("tiers",))
        (entry,) = doc.entries("tiers", ("variables",))
        assert (entry.error("r").position, entry.error("r", "variables").position,
                doc.error("r").position) == ("tiers[0]", "tiers[0].variables", "(root)")
