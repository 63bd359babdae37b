"""Core model types and structural queries."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from graphutil import d_separated
from netgen import random_dag, random_net
from beliefnet.errors import (
    CycleDetected,
    InvalidQuery,
    UnknownLevel,
    UnknownVariable,
)
from beliefnet.analysis import param_label, tornado
from beliefnet.inference import posterior
from beliefnet.model import (
    CategoricalVariable,
    Cpt,
    Dag,
    FittedNetwork,
    TierSpec,
    topological_order,
)


def binary(name):
    return CategoricalVariable(name, ("no", "yes"))


def make_net(variables, parents, tables):
    dag = Dag(tuple(v.name for v in variables), parents)
    cpts = {
        name: Cpt(name, dag.parent_tuple(name), table)
        for name, table in tables.items()
    }
    return FittedNetwork(variables, dag, cpts)


class TestVariables:
    def test_needs_two_levels(self):
        with pytest.raises(ValueError):
            CategoricalVariable("X", ("only",))

    def test_duplicate_levels(self):
        with pytest.raises(ValueError):
            CategoricalVariable("X", ("a", "a"))

    def test_level_index(self):
        v = CategoricalVariable("X", ("a", "b", "c"))
        assert v.level_index("c") == 2
        with pytest.raises(UnknownLevel):
            v.level_index("d")


class TestDag:
    def test_chain_order(self):
        dag = Dag(("A", "B", "C"), {"B": ("A",), "C": ("B",)})
        assert topological_order(dag) == ["A", "B", "C"]

    def test_isolated_nodes_any_permutation_valid(self):
        dag = Dag(("A", "B", "C"))
        order = topological_order(dag)
        assert sorted(order) == ["A", "B", "C"]
        # validator: every permutation of isolated nodes is a topological order
        for perm in itertools.permutations(["A", "B", "C"]):
            position = {n: i for i, n in enumerate(perm)}
            assert all(
                position[p] < position[c] for c in dag.nodes for p in dag.parents[c]
            )

    def test_two_cycle(self):
        with pytest.raises(CycleDetected) as exc:
            Dag(("A", "B"), {"A": ("B",), "B": ("A",)})
        assert set(exc.value.cycle) == {"A", "B"}

    def test_cycle_named(self):
        with pytest.raises(CycleDetected) as exc:
            Dag(("A", "B", "C", "D"), {"B": ("A", "D"), "C": ("B",), "D": ("C",)})
        assert set(exc.value.cycle) == {"B", "C", "D"}

    def test_unknown_parent(self):
        with pytest.raises(UnknownVariable):
            Dag(("A",), {"A": ("Z",)})

    def test_self_loop(self):
        with pytest.raises(ValueError):
            Dag(("A", "B"), {"A": ("A",)})

    def test_repeated_node_or_parent(self):
        with pytest.raises(ValueError, match="duplicate node names"):
            Dag(("A", "B", "A"))
        with pytest.raises(ValueError, match="duplicate parent for 'B'"):
            Dag(("A", "B"), {"B": ("A", "A")})

    def test_unknown_node(self):
        dag = Dag(("A", "B"), {"B": ("A",)})
        with pytest.raises(UnknownVariable):
            dag.parent_tuple("Z")
        with pytest.raises(UnknownVariable):
            dag.ancestors("Z")

    def test_ancestors(self):
        dag = Dag(("A", "B", "C", "D"), {"B": ("A",), "C": ("B",), "D": ()})
        assert dag.ancestors("C") == {"A", "B"}
        assert dag.ancestors("D") == set()


class TestDSeparation:
    def test_chain_blocked(self):
        dag = Dag(("A", "B", "C"), {"B": ("A",), "C": ("B",)})
        assert d_separated(dag, "A", "C", {"B"})
        assert not d_separated(dag, "A", "C", set())

    def test_collider(self):
        dag = Dag(("A", "B", "C"), {"C": ("A", "B")})
        assert d_separated(dag, "A", "B", set())
        assert not d_separated(dag, "A", "B", {"C"})

    def test_collider_descendant_opens(self):
        dag = Dag(("A", "B", "C", "D"), {"C": ("A", "B"), "D": ("C",)})
        assert not d_separated(dag, "A", "B", {"D"})

    def test_unknown_variable(self):
        dag = Dag(("A", "B"), {"B": ("A",)})
        with pytest.raises(UnknownVariable):
            d_separated(dag, "A", "Z", set())

    def test_preconditions(self):
        dag = Dag(("A", "B"), {"B": ("A",)})
        with pytest.raises(ValueError):
            d_separated(dag, "A", "A", set())
        with pytest.raises(ValueError):
            d_separated(dag, "A", "B", {"A"})

    def test_agrees_with_ci_oracle_on_random_dags(self):
        # 1000 (dag, x, y, z) cases against conditional independence in the
        # joint of a random-CPT parameterization of the dag
        rng = np.random.default_rng(20230626)
        cases = 0
        while cases < 1000:
            net = random_net(rng, 6, min_levels=2, max_levels=2, p_arc=0.4)
            names = [v.name for v in net.variables]
            for _ in range(25):
                x, y = rng.choice(6, size=2, replace=False)
                x, y = names[int(x)], names[int(y)]
                rest = [n for n in names if n not in (x, y)]
                z = [n for n in rest if rng.random() < 0.35]
                sep = d_separated(net.dag, x, y, set(z))
                ci = oracles.conditionally_independent(net, x, y, z, tol=1e-9)
                if sep:
                    assert ci, f"d-separated but dependent: {x},{y}|{z}"
                else:
                    # generic CPTs: d-connection shows up as dependence
                    assert not oracles.conditionally_independent(
                        net, x, y, z, tol=1e-12
                    ), f"d-connected but independent: {x},{y}|{z}"
                cases += 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 7))
    def test_symmetric(self, seed, n):
        rng = np.random.default_rng(seed)
        dag = random_dag(rng, n)
        names = list(dag.nodes)
        x, y = (names[int(i)] for i in rng.choice(n, size=2, replace=False))
        z = {m for m in names if m not in (x, y) and rng.random() < 0.3}
        assert d_separated(dag, x, y, z) == d_separated(dag, y, x, z)


class TestJointProbability:
    """The joint-probability oracle that acceptance criterion 2 sums."""

    def test_single_binary(self):
        net = make_net([binary("A")], {}, {"A": [[0.3, 0.7]]})
        assert oracles.joint_prob(net, {"A": "yes"}) == pytest.approx(0.7)

    def test_two_independent_uniform(self):
        net = make_net(
            [binary("A"), binary("B")],
            {},
            {"A": [[0.5, 0.5]], "B": [[0.5, 0.5]]},
        )
        for a in ("no", "yes"):
            for b in ("no", "yes"):
                assert oracles.joint_prob(net, {"A": a, "B": b}) == pytest.approx(0.25)

    def test_sums_to_one_on_random_nets(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            net = random_net(rng, 5)
            total = 0.0
            for combo in itertools.product(*(v.levels for v in net.variables)):
                assignment = dict(zip((v.name for v in net.variables), combo))
                total += oracles.joint_prob(net, assignment)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_matches_oracle(self):
        # P(x) = P(x without V0) * P(V0 = x_V0 | the rest), both by elimination
        rng = np.random.default_rng(11)
        net = random_net(rng, 5)
        for _ in range(20):
            assignment = {
                v.name: v.levels[int(rng.integers(v.r))] for v in net.variables
            }
            rest = {k: v for k, v in assignment.items() if k != "V0"}
            result = posterior(net, "V0", rest)
            assert oracles.joint_prob(net, assignment) == pytest.approx(
                result.evidence_probability * result[assignment["V0"]], abs=1e-12
            )

    def test_unknown_level(self):
        net = make_net([binary("A")], {}, {"A": [[0.5, 0.5]]})
        with pytest.raises(UnknownLevel):
            oracles.joint_prob(net, {"A": "maybe"})


class TestParameterCount:
    def test_binary_arc(self):
        dag = Dag(("A", "B"), {"B": ("A",)})
        assert oracles.parameter_count(dag, [binary("A"), binary("B")]) == 3

    def test_isolated_four_level(self):
        dag = Dag(("X",))
        x = CategoricalVariable("X", ("a", "b", "c", "d"))
        assert oracles.parameter_count(dag, [x]) == 3

    def test_three_level_two_binary_parents(self):
        dag = Dag(("A", "B", "C"), {"C": ("A", "B")})
        c = CategoricalVariable("C", ("x", "y", "z"))
        # C contributes 4 * 2; A and B one each
        assert oracles.parameter_count(dag, [binary("A"), binary("B"), c]) == 8 + 2

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10_000))
    def test_adding_arc_never_decreases(self, seed):
        rng = np.random.default_rng(seed)
        net = random_net(rng, 5, p_arc=0.3)
        dag = net.dag
        base = oracles.parameter_count(dag, net.variables)
        for a in dag.nodes:
            for b in dag.nodes:
                if a == b or a in dag.parents[b] or b in dag.ancestors(a):
                    continue
                grown = Dag(
                    dag.nodes,
                    {**dag.parents, b: dag.parents[b] + (a,)},
                )
                assert oracles.parameter_count(grown, net.variables) >= base


class TestConfigIndexing:
    def test_first_parent_most_significant(self):
        # a CPT row's configuration decodes mixed-radix over the parent cards
        # (3, 2), as a tornado bar's label shows
        a = CategoricalVariable("A", ("a0", "a1", "a2"))
        b, c = binary("B"), binary("C")
        rows = np.linspace(0.2, 0.7, 6)
        net = make_net(
            [a, b, c], {"A": (), "B": (), "C": ("A", "B")},
            {"A": [[0.2, 0.3, 0.5]], "B": [[0.4, 0.6]],
             "C": np.stack([rows, 1 - rows], axis=1)},
        )
        labels = {(bar.param.config, bar.param.state): param_label(net, bar.param)
                  for bar in tornado(net, ("C", "yes"), nodes=["C"])}
        assert labels[2, 0] == "P(C=no | A=a1, B=no)"
        assert labels[1, 0] == "P(C=no | A=a0, B=yes)"


class TestCpt:
    def test_row_sum_rejected(self):
        with pytest.raises(ValueError):
            Cpt("A", (), [[0.5, 0.4]])

    def test_row_sum_repaired_with_warning(self):
        row = [0.5 + 2e-10, 0.5]
        with pytest.warns(UserWarning):
            cpt = Cpt("A", (), [row])
        assert cpt.table.sum() == pytest.approx(1.0, abs=1e-15)

    def test_exact_rows_untouched(self):
        cpt = Cpt("A", (), [[0.25, 0.75]])
        assert cpt.table[0, 0] == 0.25
        assert not cpt.table.flags.writeable

    def test_negative_entry(self):
        with pytest.raises(ValueError):
            Cpt("A", (), [[-0.1, 1.1]])

    def test_shape_refused(self):
        with pytest.raises(ValueError, match="must be 2-D"):
            Cpt("A", (), [0.5, 0.5])
        with pytest.raises(ValueError, match="at least 2 states"):
            Cpt("A", (), [[1.0]])

    def test_repr(self):
        cpt = Cpt("B", ("A",), [[0.5, 0.5], [0.1, 0.9]])
        assert repr(cpt) == "Cpt('B', parents=['A'], q=2, r=2)"


class TestFittedNetwork:
    def test_missing_cpt(self):
        dag = Dag(("A", "B"))
        with pytest.raises(ValueError):
            FittedNetwork([binary("A"), binary("B")], dag, {"A": Cpt("A", (), [[0.5, 0.5]])})

    def test_parent_order_mismatch(self):
        dag = Dag(("A", "B", "C"), {"C": ("A", "B")})
        cpts = {
            "A": Cpt("A", (), [[0.5, 0.5]]),
            "B": Cpt("B", (), [[0.5, 0.5]]),
            "C": Cpt("C", ("B", "A"), np.full((4, 2), 0.5)),
        }
        with pytest.raises(ValueError):
            FittedNetwork([binary(n) for n in "ABC"], dag, cpts)

    def test_shape_mismatch(self):
        dag = Dag(("A", "B"), {"B": ("A",)})
        cpts = {
            "A": Cpt("A", (), [[0.5, 0.5]]),
            "B": Cpt("B", ("A",), [[0.5, 0.5]]),  # needs q=2 rows
        }
        with pytest.raises(ValueError):
            FittedNetwork([binary("A"), binary("B")], dag, cpts)

    def test_variables_must_match_the_dag(self):
        a = {"A": Cpt("A", (), [[0.5, 0.5]])}
        with pytest.raises(ValueError, match="duplicate variable names"):
            FittedNetwork([binary("A"), binary("A")], Dag(("A",)), a)
        with pytest.raises(ValueError, match="DAG nodes and variable names differ"):
            FittedNetwork([binary("A")], Dag(("B",)), a)

    def test_cpt_filed_under_another_name(self):
        dag = Dag(("A", "B"))
        cpts = {"A": Cpt("B", (), [[0.5, 0.5]]), "B": Cpt("B", (), [[0.5, 0.5]])}
        with pytest.raises(ValueError, match="under key 'A' is for 'B'"):
            FittedNetwork([binary("A"), binary("B")], dag, cpts)

    @pytest.mark.parametrize("cpt", [
        Cpt("D", (), [[0.5, 0.5]]),  # no such node
        Cpt("C", ("B", "A"), np.full((4, 2), 0.5)),  # parents out of DAG order
        Cpt("C", ("A", "B"), np.full((2, 2), 0.5)),  # needs q=4 rows
        Cpt("A", (), [[0.2, 0.3, 0.5]]),  # A has 2 levels, not 3
    ], ids=["unknown-node", "parent-order", "rows", "levels"])
    def test_constructor_refuses_a_replaced_cpt_that_does_not_fit(self, cpt):
        net = make_net([binary(n) for n in "ABC"], {"C": ("A", "B")},
                       {"A": [[0.5, 0.5]], "B": [[0.5, 0.5]], "C": np.full((4, 2), 0.5)})
        with pytest.raises(ValueError):
            FittedNetwork(net.variables, net.dag, {**net.cpts, cpt.variable: cpt})


class TestEvidence:
    def test_validate(self):
        """Evidence is a plain {variable: level} dict, checked by the query."""
        net = make_net([binary("A"), binary("B")], {"B": ("A",)},
                       {"A": [[0.5, 0.5]], "B": [[0.9, 0.1], [0.2, 0.8]]})
        evidence = {"A": "yes"}
        result = posterior(net, "B", evidence)
        evidence["A"] = "no"
        assert result.evidence == {"A": "yes"}
        assert result["yes"] == pytest.approx(0.8)
        with pytest.raises(UnknownLevel):
            posterior(net, "B", {"A": "maybe"})
        with pytest.raises(UnknownVariable):
            posterior(net, "B", {"Z": "yes"})
        with pytest.raises(InvalidQuery):
            posterior(net, "B", {"B": "yes"})


class TestTierSpec:
    def test_duplicate_variable(self):
        with pytest.raises(ValueError):
            TierSpec((("A", "B"), ("B",)))

    def test_empty_tier(self):
        with pytest.raises(ValueError):
            TierSpec((("A",), ()))
