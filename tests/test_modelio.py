"""Model file round-trips, golden stability, and DOT export."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netgen import random_net
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
        assert back == net
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
        assert deserialize(serialize(net)) == net


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

    def test_missing_field(self):
        with pytest.raises(MalformedFile) as exc:
            deserialize("format: beliefnet-model\nversion: 1\n")
        assert exc.value.position == "variables"


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
