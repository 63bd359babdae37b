"""Model file round-trips, golden stability, and DOT export."""

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_io
from conftest import YAML_CLASSES, use_yaml
from netgen import random_dag, random_net
from beliefnet import modelio
from beliefnet.errors import MalformedFile, VersionMismatch
from beliefnet.model import CategoricalVariable, Cpt, Dag, FittedNetwork
from beliefnet.modelio import deserialize, export_dot, load, serialize

GOLDEN_DIR = "fixtures"


def small_net():
    dag = Dag(("A", "B", "C"), {"B": ("A",), "C": ("A", "B")})
    variables = (
        CategoricalVariable("A", ("a0", "a1")),
        CategoricalVariable("B", ("b0", "b1", "b2"), ordinal=True),
        CategoricalVariable("C", ("c0", "c1")),
    )
    rng = np.random.default_rng(3)
    cpts = {
        "A": Cpt("A", (), rng.dirichlet([1, 1], size=1)),
        "B": Cpt("B", ("A",), rng.dirichlet([1, 1, 1], size=2)),
        "C": Cpt("C", ("A", "B"), rng.dirichlet([1, 1], size=6)),
    }
    return FittedNetwork(
        variables, dag, cpts, metadata={"seed": "3", "score": "AIC", "note": "test"}
    )


class TestRoundTrip:
    def test_identity_bit_for_bit(self):
        net = small_net()
        back = deserialize(serialize(net))
        assert reference_io.same(back, net)
        for name in net.cpts:
            assert np.all(back.cpts[name].table == net.cpts[name].table)
        assert back.metadata == net.metadata

    def test_serialize_is_deterministic(self):
        net = small_net()
        assert serialize(net) == serialize(net)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_nets_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        net = random_net(rng, 5)
        assert reference_io.same(deserialize(serialize(net)), net)


# names and levels YAML must quote, escape or keep as written
NAMES = ["A", "Yes", "No", "on", "null", "~", "'q'", '"dq"', "a: b", "x:y", "- dash", "#h",
         "Männlich", "日本語", " lead", "trail ", " both ", "1e3", "012", "true", "[b]",
         "{c}", "a,b", "with space", "? q", "*star", "&amp", "!bang", "%p", "@at", "`t`",
         "variable: v", "metadata: m", "- variable: x", "ü" * 20 + " long name here",
         "two\nlines", "a\n- variable: b", "x\nmetadata: y", "p\n\n  rows: q"]
SPECIAL_FLOATS = [5e-324, 1e-300, 0.0, 1.0, 1e-05, 2.5e-10, 3.0000000000000004e-07]


@st.composite
def _odd_nets(draw):
    """A random network named from NAMES, with CPT rows holding subnormal,
    zero, one and exponent-form entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    n = draw(st.integers(1, 6), label="nodes")
    names = draw(st.lists(st.sampled_from(NAMES), min_size=n, max_size=n, unique=True))
    dag = random_dag(rng, n, p_arc=0.5)
    rename = dict(zip(dag.nodes, names))
    dag = Dag(tuple(names), {rename[c]: tuple(rename[p] for p in dag.parent_tuple(c))
                             for c in dag.nodes})
    variables = [CategoricalVariable(
        name, draw(st.lists(st.sampled_from(NAMES), min_size=2, max_size=3, unique=True)),
        ordinal=draw(st.booleans())) for name in names]
    cards = {v.name: v.r for v in variables}
    cpts = {}
    for v in variables:
        parents = dag.parent_tuple(v.name)
        table = rng.dirichlet([0.5] * v.r, size=int(np.prod([cards[p] for p in parents])))
        for row in table:
            for k in range(v.r - 1):
                if rng.random() < 0.4:
                    row[k] = SPECIAL_FLOATS[int(rng.integers(len(SPECIAL_FLOATS)))]
            row[-1] = 0.0
            row[-1] = max(0.0, 1.0 - row.sum())
            row /= row.sum()
        cpts[v.name] = Cpt(v.name, parents, table)
    metadata = draw(st.dictionaries(
        st.sampled_from(NAMES), st.one_of(st.sampled_from(NAMES), st.integers(), st.floats(allow_nan=False)),
        max_size=3), label="metadata")
    return FittedNetwork(variables, dag, cpts, metadata)


class TestSerializeParity:
    """The row-text serializer against one ``_yamlio.dump`` of the whole
    document, on both emitters and at a narrow width that wraps rows."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(_odd_nets(), st.sampled_from([modelio.WIDTH, 40]))
    def test_matches_whole_document_dump(self, net, width):
        for path in YAML_CLASSES:
            if YAML_CLASSES[path][0] is None:
                continue
            with pytest.MonkeyPatch.context() as m:
                use_yaml(m, path)
                m.setattr(modelio, "WIDTH", width)
                assert serialize(net) == reference_io.serialize(net, width), (path, width)
        back = deserialize(serialize(net))
        assert reference_io.same(back, net) and repr(back.metadata) == repr(net.metadata)

    def test_floats_as_the_dumper_writes_them(self):
        values = SPECIAL_FLOATS + [-0.0, 1e16, 1e-16, 1.5e300, float("inf"), float("-inf"),
                                   float("nan"), 123456789.0, 0.1]
        for x in values:
            assert modelio._yaml_float(x) + "\n" == yaml.safe_dump([x])[2:], x


class TestGoldens:
    def test_mini_golden_loads(self):
        net = load(f"{GOLDEN_DIR}/mini.bn.yaml")
        assert [v.name for v in net.variables] == ["Rain", "Sprinkler", "WetGrass"]
        assert net.cpts["WetGrass"].q == 4
        assert net.metadata["score"] == "hand-built"

    def test_generator_golden_loads(self):
        net = load(f"{GOLDEN_DIR}/chain6.bn.yaml")
        assert len(net.variables) == 6
        assert net.dag.arcs() == [
            ("N0", "N1"), ("N1", "N2"), ("N2", "N3"), ("N3", "N4"), ("N4", "N5"),
        ]

    def test_golden_round_trip_bytes(self):
        with open(f"{GOLDEN_DIR}/mini.bn.yaml", encoding="utf-8") as fh:
            text = fh.read()
        assert serialize(deserialize(text)) == text


class TestErrors:
    def test_malformed_yaml_has_position(self, yaml_path):
        with pytest.raises(MalformedFile) as exc:
            deserialize("format: beliefnet-model\nversion: 1\nvariables: [:::")
        assert exc.value.position == "line 3, column 13"

    def test_wrong_format(self):
        with pytest.raises(MalformedFile):
            deserialize("format: something-else\nversion: 1\n")

    def test_undecodable_file(self, tmp_path):
        p = tmp_path / "bad.bn.yaml"
        p.write_bytes(b"format: beliefnet-model\nversion: 1\nmetadata: {note: \xff}\n")
        with pytest.raises(MalformedFile) as exc:
            load(p)
        assert "utf-8" in exc.value.reason

    def test_version_mismatch(self):
        with pytest.raises(VersionMismatch):
            deserialize("format: beliefnet-model\nversion: 99\nvariables: []\n")

    def test_arc_disagreement(self):
        net = small_net()
        text = serialize(net).replace("- [A, B]\n", "")
        with pytest.raises(MalformedFile):
            deserialize(text)

    def test_duplicate_cpt_entry(self):
        with open(f"{GOLDEN_DIR}/mini.bn.yaml", encoding="utf-8") as fh:
            text = fh.read()
        text = text.replace("metadata:", "- variable: Rain\n  parents: []\n  rows:\n"
                            "  - [0.5, 0.5]\nmetadata:")
        with pytest.raises(MalformedFile) as exc:
            deserialize(text, source="mini.bn.yaml")
        assert str(exc.value) == "mini.bn.yaml: cpts: duplicate entry for 'Rain'"

    @pytest.mark.parametrize("field", ["variables", "cpts", "arcs"])
    def test_missing_field(self, field):
        doc = yaml.safe_load(serialize(small_net()))
        del doc[field]
        with pytest.raises(MalformedFile) as exc:
            deserialize(yaml.safe_dump(doc), source="m.bn.yaml")
        assert str(exc.value) == f"m.bn.yaml: {field}: missing field"


class TestDotExport:
    def test_contains_every_node_and_arc_once(self):
        net = small_net()
        dot = export_dot(net.dag)
        lines = dot.splitlines()
        for node in net.dag.nodes:
            assert lines.count(f'  "{node}";') == 1
        assert lines.count('  "A" -> "B";') == 1
        assert dot.count("->") == len(net.dag.arcs())

    def test_color_map(self):
        dag = Dag(("A", "B"), {"B": ("A",)})
        dot = export_dot(dag, node_colors={"A": "#ff0000", "B": "#ffffff"})
        assert dot.count("fillcolor=") == 2
        assert 'style=filled, fillcolor="#ff0000"' in dot

    def test_quoting(self):
        dag = Dag(('we"ird',))
        dot = export_dot(dag)
        assert '"we\\"ird"' in dot
