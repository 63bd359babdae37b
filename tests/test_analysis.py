"""Sobol decomposition, scenario reasoning, and CPT sensitivity."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

import oracles
from graphutil import d_separated
from gesis import prep_learn_argv, write_raw_survey
from netgen import random_evidence, random_net, window_dag
from reference_inference import reference_posterior
from beliefnet import analysis, inference, modelio
from beliefnet.cli import main
from beliefnet.analysis import (
    CptParameterId,
    DirectedShift,
    TornadoBar,
    influence_colors,
    node_influence,
    perturb_parameter,
    scenario_posteriors,
    sensitivity_slope,
    sobol_first_order,
    sobol_matrix,
    tornado,
)
from beliefnet.errors import (
    DegenerateTarget,
    InvalidQuery,
    SaturatedParameter,
    UnknownVariable,
    ZeroProbabilityEvidence,
)
from beliefnet.inference import posterior
from beliefnet.model import CategoricalVariable, Cpt, Dag, FittedNetwork


def binary(name):
    return CategoricalVariable(name, (f"{name.lower()}0", f"{name.lower()}1"))


def copy_net():
    """Y is a deterministic copy of binary X."""
    variables = (binary("X"), binary("Y"))
    dag = Dag(("X", "Y"), {"Y": ("X",)})
    cpts = {
        "X": Cpt("X", (), [[0.4, 0.6]]),
        "Y": Cpt("Y", ("X",), [[1.0, 0.0], [0.0, 1.0]]),
    }
    return FittedNetwork(variables, dag, cpts)


def independent_net():
    variables = (binary("X"), binary("Y"))
    dag = Dag(("X", "Y"))
    cpts = {"X": Cpt("X", (), [[0.3, 0.7]]), "Y": Cpt("Y", (), [[0.6, 0.4]])}
    return FittedNetwork(variables, dag, cpts)


def chain_xmy():
    variables = (binary("X"), CategoricalVariable("M", ("m0", "m1", "m2")), binary("Y"))
    dag = Dag(("X", "M", "Y"), {"M": ("X",), "Y": ("M",)})
    cpts = {
        "X": Cpt("X", (), [[0.35, 0.65]]),
        "M": Cpt("M", ("X",), [[0.7, 0.2, 0.1], [0.15, 0.3, 0.55]]),
        "Y": Cpt("Y", ("M",), [[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]]),
    }
    return FittedNetwork(variables, dag, cpts)


class TestSobol:
    def test_deterministic_copy_full_variance(self):
        res = sobol_first_order(copy_net(), "Y", "X")
        assert res.aggregate == pytest.approx(1.0, abs=1e-9)
        assert np.all(np.abs(res.per_state - 1.0) < 1e-9)

    def test_independent_is_exactly_zero(self):
        res = sobol_first_order(independent_net(), "Y", "X")
        assert res.aggregate == 0.0
        assert np.all(res.per_state == 0.0)

    def test_mediated_chain_matches_oracle(self):
        net = chain_xmy()
        res = sobol_first_order(net, "Y", "X")
        per_state, aggregate = oracles.sobol_first_order(net, "Y", "X")
        assert np.abs(res.per_state - per_state).max() < 1e-9
        assert res.aggregate == pytest.approx(aggregate, abs=1e-9)
        assert res.aggregate > 0.01  # the chain really does transmit variance

    def test_random_nets_match_oracle(self):
        rng = np.random.default_rng(71)
        for _ in range(25):
            net = random_net(rng, 5)
            names = [v.name for v in net.variables]
            y, x = (names[int(i)] for i in rng.choice(5, 2, replace=False))
            res = sobol_first_order(net, y, x)
            per_state, aggregate = oracles.sobol_first_order(net, y, x)
            assert np.abs(res.per_state - per_state).max() < 1e-9
            assert res.aggregate == pytest.approx(aggregate, abs=1e-9)
            assert -1e-9 <= res.aggregate <= 1 + 1e-9
            assert np.all(res.per_state >= -1e-9)
            assert np.all(res.per_state <= 1 + 1e-9)

    def test_degenerate_target(self):
        variables = (binary("X"), binary("Y"))
        net = FittedNetwork(
            variables,
            Dag(("X", "Y")),
            {"X": Cpt("X", (), [[0.5, 0.5]]), "Y": Cpt("Y", (), [[1.0, 0.0]])},
        )
        with pytest.raises(DegenerateTarget):
            sobol_first_order(net, "Y", "X")

    def test_input_equals_target(self):
        with pytest.raises(InvalidQuery):
            sobol_first_order(copy_net(), "Y", "Y")


def test_sobol_zero_exactly_off_the_shared_ancestry():
    """Given nothing, an input the Bayes-ball reference calls d-separated from
    the target has S = 0.0 exactly, not float noise; every other ordered pair
    matches the enumeration oracle. Nets of 2-8 nodes, a quarter of them
    window DAGs, every ordered pair of each."""
    rng = np.random.default_rng(2024)
    separated = connected = 0
    for case in range(160):
        n = int(rng.integers(2, 9))
        dag = window_dag(rng, n, window=3, max_parents=2) if case % 4 == 0 else None
        net = random_net(rng, n, max_levels=3, p_arc=0.25, dag=dag)
        for y in net.dag.nodes:
            for x in net.dag.nodes:
                if x == y:
                    continue
                res = sobol_first_order(net, y, x)
                if d_separated(net.dag, x, y):
                    separated += 1
                    assert res.aggregate == 0.0, (case, x, y, res.aggregate)
                    assert np.all(res.per_state == 0.0)
                else:
                    connected += 1
                    per_state, aggregate = oracles.sobol_first_order(net, y, x)
                    assert res.aggregate == pytest.approx(aggregate, abs=1e-9), (case, x, y)
                    assert np.abs(res.per_state - per_state).max() < 1e-9
    assert separated > 500 and connected > 500, (separated, connected)


class TestSobolMatrix:
    def test_cells_match_single_calls(self):
        net = chain_xmy()
        m = sobol_matrix(net, ["Y", "M"], ["X", "M", "Y"])
        assert m.value("X", "Y") == pytest.approx(
            sobol_first_order(net, "Y", "X").aggregate * 100, abs=1e-12
        )
        assert m.value("Y", "Y") is None
        assert m.value("M", "M") is None

    def test_sorted_by_first_target_descending(self):
        net = chain_xmy()
        m = sobol_matrix(net, ["Y"], ["X", "M"])
        assert m.inputs[0] == "M"  # direct parent explains more than grandparent
        values = [m.value(i, "Y") for i in m.inputs]
        assert values == sorted(values, reverse=True)

    def test_target_row_sorts_last(self):
        net = chain_xmy()
        m = sobol_matrix(net, ["Y"], ["X", "M", "Y"])
        assert m.inputs[-1] == "Y"

    def test_no_targets_rejected(self):
        with pytest.raises(InvalidQuery, match="at least one target"):
            sobol_matrix(chain_xmy(), [], ["X", "M"])

    @pytest.mark.parametrize("targets, inputs, message", [
        (["Y", "Y"], ["X", "M"], "target 'Y' is listed twice"),
        (["Y"], ["X", "M", "X"], "input 'X' is listed twice"),
    ])
    def test_repeated_name_rejected(self, targets, inputs, message):
        with pytest.raises(InvalidQuery, match=message):
            sobol_matrix(chain_xmy(), targets, inputs)

    def test_disconnected_inputs_zero_column(self):
        variables = (binary("A"), binary("B"), binary("Y"))
        net = FittedNetwork(
            variables,
            Dag(("A", "B", "Y"), {"B": ("A",)}),
            {
                "A": Cpt("A", (), [[0.5, 0.5]]),
                "B": Cpt("B", ("A",), [[0.8, 0.2], [0.3, 0.7]]),
                "Y": Cpt("Y", (), [[0.4, 0.6]]),
            },
        )
        m = sobol_matrix(net, ["Y"], ["A", "B"])
        assert m.value("A", "Y") == 0.0
        assert m.value("B", "Y") == 0.0


class TestScenarios:
    def test_baseline_equals_marginals(self):
        net = chain_xmy()
        res = scenario_posteriors(net, {"Baseline": {}}, ["Y"])
        want = posterior(net, "Y").distribution
        assert np.abs(res[0].posteriors["Y"].distribution - want).max() < 1e-12
        assert res[0].evidence_probability == pytest.approx(1.0)

    def test_scenario_fixing_target_rejected(self):
        net = chain_xmy()
        with pytest.raises(InvalidQuery, match="scenario 'bad' fixes the target 'Y'"):
            scenario_posteriors(net, {"bad": {"Y": "y0"}}, ["Y"])

    def test_no_targets_rejected(self):
        # with no target there is no query to report P(evidence) from
        with pytest.raises(InvalidQuery, match="at least one target"):
            scenario_posteriors(chain_xmy(), {"s": {"X": "x1"}}, [])

    def test_repeated_target_rejected(self):
        with pytest.raises(InvalidQuery, match="target 'Y' is listed twice"):
            scenario_posteriors(chain_xmy(), {"s": {}}, ["Y", "X", "Y"])

    def test_results_keep_their_own_evidence(self):
        net = chain_xmy()
        evidence = {"X": "x1"}
        res = scenario_posteriors(net, {"s": evidence}, ["Y"])
        evidence["X"] = "x0"
        assert res[0].evidence == {"X": "x1"}
        assert res[0].posteriors["Y"].evidence == {"X": "x1"}

    def test_matches_oracle(self):
        net = chain_xmy()
        scens = {"s1": {"X": "x1"}, "s2": {"X": "x0", "M": "m2"}}
        res = scenario_posteriors(net, scens, ["Y"])
        for r, evidence in zip(res, scens.values()):
            want, p_ev = oracles.posterior(net, "Y", evidence)
            assert np.abs(r.posteriors["Y"].distribution - want).max() < 1e-9
            assert r.evidence_probability == pytest.approx(p_ev, abs=1e-9)

    def test_order_preserved_and_equal_to_single_calls(self):
        net = chain_xmy()
        scens = {"b": {"M": "m1"}, "a": {"M": "m0"}}
        res = scenario_posteriors(net, scens, ["Y", "X"])
        assert [r.name for r in res] == ["b", "a"]
        for r, evidence in zip(res, scens.values()):
            for t in ("Y", "X"):
                single = posterior(net, t, evidence)
                assert np.all(r.posteriors[t].distribution == single.distribution)

    def test_zero_probability_names_scenario(self):
        variables = (binary("X"), binary("Y"))
        net = FittedNetwork(
            variables,
            Dag(("X", "Y"), {"Y": ("X",)}),
            {
                "X": Cpt("X", (), [[1.0, 0.0]]),
                "Y": Cpt("Y", ("X",), [[0.5, 0.5], [0.5, 0.5]]),
            },
        )
        with pytest.raises(ZeroProbabilityEvidence) as exc:
            scenario_posteriors(net, {"impossible": {"X": "x1"}}, ["Y"])
        assert exc.value.scenario == "impossible"


class TestSensitivitySlope:
    def test_own_state_slope_is_one(self):
        net = FittedNetwork(
            (binary("X"),), Dag(("X",)), {"X": Cpt("X", (), [[0.3, 0.7]])}
        )
        slope = sensitivity_slope(net, ("X", "x0"), CptParameterId("X", 0, 0))
        assert slope == pytest.approx(1.0, abs=1e-12)

    def test_d_separated_parameter_zero_slope(self):
        net = independent_net()
        slope = sensitivity_slope(net, ("Y", "y1"), CptParameterId("X", 0, 0))
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_two_by_two(self):
        net = copy_net()
        # P(Y=y1) = P(X=x1); raising P(X=x0) by t lowers it one-for-one
        slope = sensitivity_slope(net, ("Y", "y1"), CptParameterId("X", 0, 0))
        assert slope == pytest.approx(-1.0, abs=1e-12)

    def test_matches_central_finite_difference(self):
        rng = np.random.default_rng(73)
        checked = 0
        while checked < 60:
            net = random_net(rng, 5)
            names = [v.name for v in net.variables]
            target = names[int(rng.integers(5))]
            t_var = net.variable(target)
            event = (target, t_var.levels[int(rng.integers(t_var.r))])
            p_name = names[int(rng.integers(5))]
            cpt = net.cpts[p_name]
            param = CptParameterId(
                p_name, int(rng.integers(cpt.q)), int(rng.integers(cpt.r))
            )
            theta = float(cpt.table[param.config, param.state])
            if 1.0 - theta == 0.0:
                continue
            eps = min(1e-4, theta / 2 if theta > 0 else 1e-4, (1 - theta) / 2)
            if theta - eps < 0 or theta + eps > 1:
                continue
            slope = sensitivity_slope(net, event, param)
            lo = oracles.posterior(
                perturb_parameter(net, param, theta - eps), target
            )[0][t_var.level_index(event[1])]
            hi = oracles.posterior(
                perturb_parameter(net, param, theta + eps), target
            )[0][t_var.level_index(event[1])]
            fd = (hi - lo) / (2 * eps)
            assert slope == pytest.approx(fd, abs=1e-6)
            checked += 1

    def test_three_point_collinearity(self):
        rng = np.random.default_rng(79)
        for _ in range(20):
            net = random_net(rng, 4)
            name = net.variables[0].name
            cpt = net.cpts[name]
            param = CptParameterId(name, 0, 0)
            theta = float(cpt.table[0, 0])
            if 1.0 - theta == 0.0:
                continue
            target = net.variables[-1].name
            t_var = net.variable(target)
            event = (target, t_var.levels[0])
            if target == name:
                continue
            t1 = theta + (1 - theta) / 3
            t2 = theta + 2 * (1 - theta) / 3

            def p_at(v):
                return posterior(perturb_parameter(net, param, v), target)[event[1]]

            p0, p1, p2 = p_at(theta), p_at(t1), p_at(t2)
            s1 = (p1 - p0) / (t1 - theta)
            s2 = (p2 - p0) / (t2 - theta)
            assert s1 == pytest.approx(s2, abs=1e-10)

    def test_saturated_parameter(self):
        net = copy_net()
        with pytest.raises(SaturatedParameter):
            sensitivity_slope(net, ("Y", "y1"), CptParameterId("Y", 0, 0))

    @pytest.mark.parametrize("param, message", [
        (CptParameterId("Z", 0, 0), "no CPT for 'Z'"),
        (CptParameterId("Y", 2, 0), r"out of bounds for Cpt\('Y', parents=\['X'\], q=2, r=2\)"),
        (CptParameterId("Y", 0, -1), "out of bounds"),
    ])
    def test_parameter_outside_the_network(self, param, message):
        with pytest.raises(InvalidQuery, match=message):
            sensitivity_slope(copy_net(), ("Y", "y1"), param)
        with pytest.raises(InvalidQuery, match=message):  # the same check
            perturb_parameter(copy_net(), param, 0.5)

    def test_evidence_uses_quotient_rule(self):
        net = chain_xmy()
        slope = sensitivity_slope(
            net, ("Y", "y1"), CptParameterId("X", 0, 0), evidence={"M": "m1"}
        )
        # X's prior is irrelevant once M is observed (Y ⟂ X | M)
        assert slope == pytest.approx(0.0, abs=1e-9)


class TestPerturbParameter:
    def test_saturated_parameter(self):
        with pytest.raises(SaturatedParameter):
            perturb_parameter(copy_net(), CptParameterId("Y", 0, 0), 0.5)

    @pytest.mark.parametrize("value", [-0.1, 1.5])
    def test_value_outside_unit_interval(self, value):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            perturb_parameter(copy_net(), CptParameterId("X", 0, 0), value)

    def test_shares_untouched_cpts_and_copies_metadata(self):
        net = FittedNetwork(
            (binary("A"), binary("B")),
            Dag(("A", "B"), {"B": ("A",)}),
            {"A": Cpt("A", (), [[0.5, 0.5]]), "B": Cpt("B", ("A",), [[0.9, 0.1], [0.2, 0.8]])},
            {"method": "bayes"},
        )
        other = perturb_parameter(net, CptParameterId("B", 0, 0), 0.6)
        assert other.cpts["A"] is net.cpts["A"]
        assert other.cpts["B"].table[0] == pytest.approx([0.6, 0.4], abs=1e-15)
        assert other.family_cards == net.family_cards
        assert net.cpts["B"].table[0, 0] == 0.9  # the source keeps its own dicts
        other.metadata["n_rows"] = 5  # as cmd_learn updates a network's metadata in place
        assert net.metadata == {"method": "bayes"}
        assert other.metadata == {"method": "bayes", "n_rows": 5}


def zeroed_net(rng, n_nodes, dag=None):
    """A random net whose CPTs hold theta = 0 entries and saturated rows."""
    net = random_net(rng, n_nodes, dag=dag)
    cpts = {}
    for name, cpt in net.cpts.items():
        table = np.array(cpt.table)
        for row in table:
            drop = rng.random(row.size) < 0.3
            drop[int(rng.integers(row.size))] = False  # keep one entry
            row[drop] = 0.0
            row /= row.sum()
        cpts[name] = Cpt(name, cpt.parent_order, table)
    return FittedNetwork(net.variables, net.dag, cpts)


def random_tornado_cases():
    """24 seeded (net, event, delta) cases, with theta = 0 entries and
    saturated rows; two in three on a windowed DAG with the event last."""
    rng = np.random.default_rng(29)
    for case in range(24):
        n = int(rng.integers(4, 9))
        dag = window_dag(rng, n, window=4, max_parents=3) if case % 3 else None
        net = zeroed_net(rng, n, dag)
        t_var = net.variables[-1] if dag else net.variables[int(rng.integers(n))]
        event = (t_var.name, t_var.levels[int(rng.integers(t_var.r))])
        yield net, event, (0.05, 0.1, 0.3)[case % 3]


def gesis_net(tmp_path):
    """The paper's configs learned from 400 synthetic raw rows: 22 variables."""
    raw = tmp_path / "raw.csv"
    write_raw_survey(raw, n_rows=400, seed=1)
    for argv in prep_learn_argv(raw, tmp_path, bootstrap=4):
        assert main(argv) == 0, argv[0]
    return modelio.load(tmp_path / "models" / "full.bn.yaml")


def random_case(rng, n_nodes=6):
    """(net, event, evidence) with the event variable kept out of the evidence."""
    net = zeroed_net(rng, n_nodes)
    t_var = net.variables[int(rng.integers(n_nodes))]
    event = (t_var.name, t_var.levels[int(rng.integers(t_var.r))])
    return net, event, random_evidence(rng, net, max_vars=2, exclude=(t_var.name,))


def two_point_slope(net, param, p_of):
    """Slope of the linear function ``p_of(net)`` from two perturbed values."""
    theta = float(net.cpts[param.variable].table[param.config, param.state])
    other = (theta + 1.0) / 2.0 if theta <= 0.5 else theta / 2.0
    return (p_of(perturb_parameter(net, param, other)) - p_of(net)) / (other - theta)


def closure(net, names):
    """The given variables plus their ancestors, from ``Dag.ancestors``."""
    found = set(names)
    for name in names:
        found |= net.dag.ancestors(name)
    return found


class TestCptGradient:
    """Gradient slopes against enumeration of the full joint."""

    def test_gradient_matches_enumeration(self):
        rng = np.random.default_rng(301)
        checked = 0
        for _ in range(40):
            net, event, evidence = random_case(rng)
            assignment = {**evidence, event[0]: event[1]}
            ev = {n: net.variable(n).level_index(v) for n, v in assignment.items()}
            p = oracles.probability(net, assignment)
            for name in closure(net, assignment):
                grad, scale = analysis._gradient(net, name, ev)
                want = oracles.cpt_gradient(net, name, assignment)
                assert np.abs(grad * np.exp(scale) - want).max() <= 1e-12
                # P is linear in each entry: P = sum(theta * G)
                assert float((net.cpts[name].table * want).sum()) == pytest.approx(p, abs=1e-12)
                checked += 1
        assert checked > 100

    def test_node_influence_matches_two_point_slopes(self):
        rng = np.random.default_rng(302)
        for _ in range(30):
            net, event, _ = random_case(rng)
            variable, level = event
            infl = node_influence(net, event)

            def p_event(m):
                return oracles.probability(m, {variable: level})

            for name in net.dag.ancestors(variable):
                slopes = [
                    abs(two_point_slope(net, param, p_event))
                    for param in analysis._node_params(net, name)
                    if net.cpts[name].table[param.config, param.state] != 1.0
                ]
                assert infl[name] == pytest.approx(max(slopes, default=0.0), abs=1e-12)

    def test_slope_with_evidence_matches_quotient(self):
        rng = np.random.default_rng(303)
        checked = 0
        while checked < 150:
            net, event, evidence = random_case(rng)
            if not evidence:
                continue
            variable = event[0]
            names = sorted(closure(net, [variable, *evidence]))
            name = names[int(rng.integers(len(names)))]
            cpt = net.cpts[name]
            param = CptParameterId(name, int(rng.integers(cpt.q)), int(rng.integers(cpt.r)))
            if cpt.table[param.config, param.state] == 1.0 or cpt.r < 2:
                continue
            b = oracles.probability(net, evidence)
            if b == 0.0:
                with pytest.raises(ZeroProbabilityEvidence):
                    sensitivity_slope(net, event, param, evidence)
                continue

            def joint(m):
                return oracles.probability(m, {**evidence, variable: event[1]})

            def marginal(m):
                return oracles.probability(m, evidence)

            a = joint(net)
            da, db = two_point_slope(net, param, joint), two_point_slope(net, param, marginal)
            want = (da * b - a * db) / b**2
            got = sensitivity_slope(net, event, param, evidence)
            assert got == pytest.approx(want, abs=1e-12)
            checked += 1

    def test_outside_closure_exact_zero(self):
        rng = np.random.default_rng(304)
        checked = 0
        for _ in range(60):
            net, event, evidence = random_case(rng)
            inside = closure(net, [event[0], *evidence])
            for name in net.dag.nodes:
                cpt = net.cpts[name]
                if name in inside or cpt.r < 2:
                    continue
                for param in analysis._node_params(net, name):
                    if cpt.table[param.config, param.state] == 1.0:
                        continue
                    assert sensitivity_slope(net, event, param, evidence) == 0.0
                    checked += 1
        assert checked > 100


class TestTornado:
    def test_two_node_shift_arithmetic(self):
        net = copy_net()
        bars = tornado(net, ("Y", "y1"), delta=0.1)
        prior_bar = next(b for b in bars if b.param == CptParameterId("X", 0, 0))
        # P(Y=y1) = P(X=x1): raising P(X=x0) by 0.1 shifts it by -0.1
        assert prior_bar.increase.shift == pytest.approx(
            0.1 * (0.0 - 1.0), abs=1e-12
        )
        assert prior_bar.decrease.shift == pytest.approx(0.1, abs=1e-12)

    def test_default_nodes_are_ancestors(self):
        net = chain_xmy()
        bars = tornado(net, ("Y", "y1"))
        names = {b.param.variable for b in bars}
        assert names == {"X", "M"}

    @pytest.mark.parametrize("delta", [0.0, -0.1])
    def test_non_positive_delta_rejected(self, delta):
        with pytest.raises(ValueError, match="delta must be > 0"):
            tornado(chain_xmy(), ("Y", "y1"), delta=delta)

    def test_unknown_node_rejected(self):
        with pytest.raises(UnknownVariable, match="Bogus"):
            tornado(chain_xmy(), ("Y", "y1"), nodes=["X", "Bogus"])

    def test_repeated_node_rejected(self):
        with pytest.raises(InvalidQuery, match="node 'X' is listed twice"):
            tornado(chain_xmy(), ("Y", "y1"), nodes=["X", "M", "X"])

    def test_d_separated_nodes_zero_bars_sorted_last(self):
        net = independent_net()
        bars = tornado(net, ("Y", "y1"), nodes=["X"], delta=0.1)
        assert all(b.magnitude == pytest.approx(0.0, abs=1e-12) for b in bars)

    def test_shift_equals_slope_times_delta(self):
        net = chain_xmy()
        delta = 0.07
        bars = tornado(net, ("Y", "y1"), delta=delta)
        for bar in bars:
            theta = float(
                net.cpts[bar.param.variable].table[bar.param.config, bar.param.state]
            )
            if 1.0 - theta == 0.0:
                continue
            slope = sensitivity_slope(net, ("Y", "y1"), bar.param)
            assert bar.increase.shift == pytest.approx(
                slope * bar.increase.delta, abs=1e-9
            )
            assert bar.decrease.shift == pytest.approx(
                -slope * bar.decrease.delta, abs=1e-9
            )

    def test_sorted_by_magnitude(self):
        net = chain_xmy()
        bars = tornado(net, ("Y", "y1"))
        mags = [b.magnitude for b in bars]
        assert mags == sorted(mags, reverse=True)
        assert all(m <= 1.0 for m in mags)

    def test_clipping_near_bounds(self):
        variables = (binary("X"), binary("Y"))
        net = FittedNetwork(
            variables,
            Dag(("X", "Y"), {"Y": ("X",)}),
            {
                "X": Cpt("X", (), [[0.95, 0.05]]),
                "Y": Cpt("Y", ("X",), [[0.9, 0.1], [0.2, 0.8]]),
            },
        )
        bars = tornado(net, ("Y", "y1"), delta=0.2)
        bar = next(b for b in bars if b.param == CptParameterId("X", 0, 0))
        assert bar.increase.delta == pytest.approx(0.05)
        assert bar.decrease.delta == pytest.approx(0.2)

    def test_saturated_rows_zero_bars(self):
        net = copy_net()
        bars = tornado(net, ("Y", "y1"), nodes=["Y", "X"])
        saturated = [b for b in bars if b.param == CptParameterId("Y", 0, 0)]
        assert saturated[0].increase.shift == 0.0
        assert saturated[0].decrease.shift == 0.0

    def test_baseline_probability_computed_once(self, monkeypatch):
        import beliefnet.analysis as analysis_mod

        net = chain_xmy()
        event = ("Y", "y1")
        n_params = sum(net.cpts[n].q * net.cpts[n].r for n in ("X", "M"))
        calls = {"n": 0}

        def counting(*args, **kwargs):
            calls["n"] += 1
            return posterior(*args, **kwargs)

        monkeypatch.setattr(analysis_mod, "posterior", counting)
        tornado(net, event)
        assert calls["n"] <= 2 * n_params + 1
        calls["n"] = 0
        node_influence(net, event)
        assert calls["n"] <= n_params + 1

    def test_one_min_fill_search_per_call(self, monkeypatch):
        calls = []

        def counting(scopes, hidden):
            calls.append(hidden)
            return min_fill(scopes, hidden)

        min_fill = inference._min_fill_order
        monkeypatch.setattr(inference, "_min_fill_order", counting)
        bars = tornado(chain_xmy(), ("Y", "y1"))
        assert len(bars) == 8  # one recorded elimination, 16 replays
        assert len(calls) == 1

    def test_shared_order_matches_a_search_per_copy(self):
        """Bars equal, float for float, those of a reference that runs its own
        min-fill search on every perturbed copy."""
        zeros = saturated = 0
        for net, event, delta in random_tornado_cases():
            bars = tornado(net, event, delta=delta)
            assert bars == reference_tornado(net, event, delta)
            tables = [net.cpts[b.param.variable].table for b in bars]
            zeros += sum(float(t[b.param.config, b.param.state]) == 0.0
                         for t, b in zip(tables, bars))
            saturated += sum(float(t[b.param.config, b.param.state]) == 1.0
                             for t, b in zip(tables, bars))
        assert zeros > 0 and saturated > 0

    def test_bars_cover_every_parameter_once(self):
        net = chain_xmy()
        bars = tornado(net, ("Y", "y1"))
        params = [b.param for b in bars]
        assert len(params) == len(set(params))
        expected = sum(
            net.cpts[n].q * net.cpts[n].r for n in ("X", "M")
        )
        assert len(params) == expected

    def test_repaired_perturbation_matches_a_full_cpt(self):
        """A perturbed row off 1 by between 1e-12 and 1e-9 is renormalized as
        a full ``Cpt`` renormalizes it, with the same warning."""
        net = FittedNetwork(
            (binary("X"), CategoricalVariable("A", ("a0", "a1", "a2")), binary("Y")),
            Dag(("X", "A", "Y"), {"A": ("X",), "Y": ("A",)}),
            # row 0 is exact within 1e-12; moving 0.99 down by 0.1 scales the
            # rest by 11, so the moved row is off 1 by about 1e-11
            {"X": Cpt("X", (), [[0.3, 0.7]]),
             "A": Cpt("A", ("X",), [[0.99, 0.004, 0.006 + 9e-13], [0.2, 0.3, 0.5]]),
             "Y": Cpt("Y", ("A",), [[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])},
        )
        with pytest.warns(UserWarning, match="renormalizing 1 row") as got:
            bars = tornado(net, ("Y", "y1"))
        with pytest.warns(UserWarning, match="renormalizing 1 row") as want:
            assert bars == reference_tornado(net, ("Y", "y1"), 0.1)
        assert len(got) == len(want) == 1

    def test_near_saturated_row_names_the_parameter(self):
        """The rest of the row sums to 1 - theta only within 1e-12 of 1: a
        perturbed copy would be refused, so both paths raise the same error."""
        net = FittedNetwork(
            (CategoricalVariable("A", ("a0", "a1", "a2")), binary("Y")),
            Dag(("A", "Y"), {"Y": ("A",)}),
            {"A": Cpt("A", (), [[1 - 1e-13, 6.5e-14, 6.5e-14 + 3e-14]]),
             "Y": Cpt("Y", ("A",), [[0.9, 0.1], [0.5, 0.5], [0.2, 0.8]])},
        )
        param = CptParameterId("A", 0, 0)
        with pytest.raises(SaturatedParameter, match="does not sum to 1 - theta") as exc:
            tornado(net, ("Y", "y1"))
        assert exc.value.param == param
        with pytest.raises(SaturatedParameter) as exc:
            perturb_parameter(net, param, 0.5)
        assert exc.value.param == param

    def test_replay_recomputes_only_what_the_perturbed_cpt_reaches(self, monkeypatch):
        """On the benchmark's fixture model, the bars cost fewer factor
        products than one full elimination per perturbed side would."""
        net = modelio.load("perfbench/data/fixture_full.bn.yaml")
        event = ("HeardEURegulation", "No")
        calls = []
        multiply = inference.Factor.multiply
        monkeypatch.setattr(inference.Factor, "multiply",
                            lambda f, g: calls.append(1) or multiply(f, g))
        posterior(net, event[0])
        baseline = len(calls)
        calls.clear()
        bars = tornado(net, event)
        runs = 1 + sum(1 + (bar.down_delta > 0.0) for bar in bars if bar.up_delta > 0.0)
        assert runs == 2165  # the baseline and one run per perturbed side
        assert baseline > 0 and len(calls) < runs * baseline

    def test_held_baseline_arrays_are_read_only(self):
        net = chain_xmy()
        _, _, record = inference._eliminate(net, ("Y",), {"X": 0})
        factors = [factor for _, _, factor, _ in record.steps] + [record.result]
        arrays = [f.values for f in factors if isinstance(f.values, np.ndarray)]
        assert len(arrays) == len(factors) == 3
        for values in arrays:
            with pytest.raises(ValueError, match="read-only"):
                values[...] = 0.0

    @pytest.mark.parametrize("keep, without, pruned", [
        (("M",), None, "Y"),  # barren
        (("Y",), "M", "M"),  # left out
    ])
    def test_replay_of_a_cpt_outside_the_elimination_is_the_baseline(
        self, keep, without, pruned
    ):
        net = chain_xmy()
        _, log_scale, record = inference._eliminate(net, keep, {}, without=without)
        factor = inference.Factor.from_cpt(net, pruned, net.cpts[pruned].table * 0.5)
        result, replayed = record.replay(pruned, factor)
        assert result is record.result and replayed == log_scale

    def test_replay_of_the_baseline_factors_is_bit_identical(self):
        """Each CPT replayed with a fresh copy of its own table recomputes
        its path of steps and gives the baseline back bit for bit."""
        for net, (variable, _), _ in random_tornado_cases():
            _, log_scale, record = inference._eliminate(net, (variable,), {})
            for name in record.cpts:
                table = net.cpts[name].table.copy()
                result, replayed = record.replay(name, inference.Factor.from_cpt(net, name, table))
                assert result is not record.result
                assert result.values.tobytes() == record.result.values.tobytes()
                assert replayed.hex() == log_scale.hex()

    def test_gesis_shaped_model_matches_the_reference(self, tmp_path):
        """The paper's configs on 400 synthetic raw rows: 22 variables, 477 bars."""
        net = gesis_net(tmp_path)
        event = ("HeardEURegulation", "No")
        bars = tornado(net, event)
        assert len(bars) > 400
        assert bars == reference_tornado(net, event, 0.1)


def reference_tornado(net, event, delta):
    """Tornado bars with one posterior per side on a perturbed copy that the
    ``FittedNetwork`` constructor checks whole, each with its own min-fill
    search; sorted as ``tornado`` sorts."""
    variable, level = event
    p0 = posterior(net, variable)[level]

    def shift(param, value):
        return posterior(perturb_parameter(net, param, value), variable)[level] - p0

    bars = []
    ancestors = net.dag.ancestors(variable)
    for name in (n for n in net.dag.nodes if n in ancestors):
        table = net.cpts[name].table
        for j, k in np.ndindex(table.shape):
            param, theta = CptParameterId(name, j, k), float(table[j, k])
            up = 0.0 if theta == 1.0 else min(delta, 1.0 - theta)  # saturated: a zero bar
            down = 0.0 if theta == 1.0 else min(delta, theta)
            bars.append(TornadoBar(
                param,
                up, shift(param, theta + up) if up else 0.0,
                down, shift(param, theta - down) if down else 0.0,
            ))
    bars.sort(key=lambda bar: (-bar.magnitude, bar.param))
    return bars


# The 80-bit judge: ``reference_posterior`` in np.longdouble (eps 1.08e-19 on
# x86-64). Each bound is about twice, rounded up, the largest error of a sweep
# over every bar and every ancestor entry of the three inputs below, with 3-4
# evidence sets each (CHANGES.md), in float64 eps: shifts 0.72 and
# evidence-free slopes 1.49 off, absolutely; with evidence 7.93 off, relative
# to the size of what is differentiated. Never loosened.
LD = np.longdouble
EPS = np.finfo(float).eps
SHIFT_BOUND, SLOPE_BOUND, RELATIVE_BOUND = 2 * EPS, 3 * EPS, 16 * EPS


def p80(net, event, evidence=None, param=None, value=None):
    """80-bit (P(event | evidence), P(evidence)), with ``param`` moved to
    ``value`` and the rest of its row co-varied, if given."""
    tables = {}
    if param is not None:
        table = tables[param.variable] = net.cpts[param.variable].table.astype(LD)
        row = table[param.config]
        row *= (1 - LD(value)) / (1 - row[param.state])
        row[param.state] = value
    dist, log_pe, _ = reference_posterior(net, event[0], evidence, LD, tables)
    return dist[net.variable(event[0]).level_index(event[1])], np.exp(log_pe)


def gradient_slope(net, param, levels):
    """The slope of P(``levels``) along ``param`` as ``sensitivity_slope``
    takes it from the CPT gradient."""
    grad, scale = analysis._gradient(net, param.variable, levels)
    slopes = analysis._slopes(net.cpts[param.variable].table, grad)
    return slopes[param.config, param.state] * math.exp(scale)


@pytest.mark.skipif(np.finfo(LD).eps >= 1e-18, reason="np.longdouble is no wider than "
                    "float64 on this platform (as on arm64 macOS): no 80-bit reference")
class TestLongDoubleReference:
    """Tornado shifts and CPT slopes against an 80-bit elimination, a judge
    independent of both the replay and the perturbation path."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """(net, event, delta) cases: the benchmark's fixture model and the
        GESIS-shaped model at HeardEURegulation=No, and the 24 random nets of
        the shared-order test."""
        event = ("HeardEURegulation", "No")
        return {
            "fixture": [(modelio.load("perfbench/data/fixture_full.bn.yaml"), event, 0.1)],
            "gesis": [(gesis_net(tmp_path_factory.mktemp("gesis")), event, 0.1)],
            "random": list(random_tornado_cases()),
        }

    @pytest.mark.parametrize("name, n_bars", [("fixture", 200), ("gesis", 200), ("random", 12)])
    def test_tornado_shifts(self, inputs, name, n_bars):
        """A seeded sample of each model's bars, up to 12 per random net."""
        rng, checked = np.random.default_rng(22), 0
        for net, event, delta in inputs[name]:
            bars = tornado(net, event, delta=delta)
            bars = [bars[i] for i in rng.choice(len(bars), min(n_bars, len(bars)), replace=False)]
            p0 = p80(net, event)[0]
            for bar in bars:
                param = bar.param
                theta = float(net.cpts[param.variable].table[param.config, param.state])
                for step, shift in ((bar.up_delta, bar.up_shift), (-bar.down_delta, bar.down_shift)):
                    if step:  # the value set is theta + step as float64 rounds it
                        want = p80(net, event, None, param, theta + step)[0] - p0
                        assert abs(shift - want) <= SHIFT_BOUND, (param, step)
                        checked += 1
        assert checked >= 200  # sides moved: a saturated bar has none

    @pytest.mark.parametrize("name", ["fixture", "gesis", "random"])
    def test_slopes(self, inputs, name):
        """``sensitivity_slope`` against the 80-bit difference of P at two
        values of theta: P(event) is linear in theta, and with evidence
        P(event, e) and P(e) are, so their slopes are checked one by one."""
        rng, checked = np.random.default_rng(22), 0
        for net, event, _ in inputs[name]:
            target = {event[0]: net.variable(event[0]).level_index(event[1])}
            params = [CptParameterId(n, j, k) for n in sorted(net.dag.ancestors(event[0]))
                      for j, k in np.ndindex(net.cpts[n].table.shape)
                      if net.cpts[n].table[j, k] < 1.0]
            evidence = {}
            while not evidence:  # one or two observed variables, of positive probability
                evidence = random_evidence(rng, net, max_vars=2, exclude=(event[0],))
                try:
                    at = p80(net, event, evidence)
                except ZeroProbabilityEvidence:
                    evidence = {}
            ev = {v: net.variable(v).level_index(level) for v, level in evidence.items()}
            for i in rng.choice(len(params), min(len(params), 20), replace=False):
                param = params[i]
                theta = LD(net.cpts[param.variable].table[param.config, param.state])
                lo, hi = theta / 2, (1 + theta) / 2
                p_lo, p_hi = (p80(net, event, None, param, v)[0] for v in (lo, hi))
                want = (p_hi - p_lo) / (hi - lo)
                assert abs(sensitivity_slope(net, event, param) - want) <= SLOPE_BOUND, param
                # with evidence: the numerator P(event, e) and the denominator P(e),
                # each within the bound of its size, the larger of its two values
                (p_lo, e_lo), (p_hi, e_hi) = (p80(net, event, evidence, param, v) for v in (lo, hi))
                slopes, sizes = [], []
                for levels, a, b in (({**ev, **target}, p_lo * e_lo, p_hi * e_hi), (ev, e_lo, e_hi)):
                    slopes.append((b - a) / (hi - lo))
                    sizes.append(max(a, b))
                    got = gradient_slope(net, param, levels)
                    assert abs(got - slopes[-1]) <= RELATIVE_BOUND * sizes[-1], (param, levels)
                # and their quotient rule, within what those bounds carry into it
                want = (slopes[0] - at[0] * slopes[1]) / at[1]
                size = (sizes[0] + at[0] * sizes[1]) / at[1]
                got = sensitivity_slope(net, event, param, evidence)
                assert abs(got - want) <= RELATIVE_BOUND * size, (param, evidence)
                checked += 1
        assert checked >= 20


SLOTTED = [
    CptParameterId("X", 1, 0),
    DirectedShift("increase", 0.1, -0.025),
    TornadoBar(CptParameterId("X", 1, 0), 0.1, -0.025, 0.05, 0.0125),
]


class TestSlottedTypes:
    @pytest.mark.parametrize("obj", SLOTTED, ids=lambda o: type(o).__name__)
    def test_no_dict_frozen_and_round_trips(self, obj):
        assert not hasattr(obj, "__dict__")
        field = dataclasses.fields(obj)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, field, getattr(obj, field))
        for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj)):
            assert type(back) is type(obj)
            assert back == obj
            assert hash(back) == hash(obj)

    def test_equality_order_and_hash_by_fields(self):
        ids = [CptParameterId("Y", 0, 0), CptParameterId("X", 1, 0), CptParameterId("X", 0, 1)]
        assert sorted(ids) == [ids[2], ids[1], ids[0]]
        assert CptParameterId("X", 1, 0) == ids[1]
        assert hash(ids[1]) == hash(("X", 1, 0))
        assert {ids[1]: "a"}[CptParameterId("X", 1, 0)] == "a"
        bar = SLOTTED[2]
        assert bar.magnitude == 0.025
        assert dataclasses.replace(bar, up_shift=0.025) != bar
        assert bar.increase == DirectedShift("increase", 0.1, -0.025)
        assert bar.decrease == DirectedShift("decrease", 0.05, 0.0125)
        # a side passed whole sets its two fields, as in the benchmark's own tests
        moved = dataclasses.replace(bar, decrease=DirectedShift("decrease", 0.2, 0.5))
        assert (moved.param, moved.increase, moved.down_delta, moved.down_shift) == (
            bar.param, bar.increase, 0.2, 0.5)
        assert hash(bar) == hash(tuple(getattr(bar, f.name) for f in dataclasses.fields(bar)))

    def test_sides_passed_whole_set_their_fields(self):
        bar = TornadoBar(CptParameterId("X", 1, 0), 0.0, 0.0, 0.0, 0.0,
                         increase=DirectedShift("increase", 0.1, -0.025),
                         decrease=DirectedShift("decrease", 0.05, 0.0125))
        assert bar == SLOTTED[2]


class TestNodeInfluence:
    def test_non_ancestors_and_target_zero(self):
        net = independent_net()
        infl = node_influence(net, ("Y", "y1"))
        assert infl["X"] == 0.0
        assert infl["Y"] == 0.0

    def test_chain_ancestors_positive(self):
        net = chain_xmy()
        infl = node_influence(net, ("Y", "y1"))
        assert infl["X"] > 0
        assert infl["M"] > 0
        assert infl["Y"] == 0.0

    def test_matches_tornado_bars(self):
        net = chain_xmy()
        delta = 0.05
        infl = node_influence(net, ("Y", "y1"))
        bars = tornado(net, ("Y", "y1"), delta=delta)
        by_node = {}
        for bar in bars:
            theta = float(
                net.cpts[bar.param.variable].table[bar.param.config, bar.param.state]
            )
            if min(theta, 1 - theta) < delta:  # clipped; slope scaling differs
                continue
            by_node.setdefault(bar.param.variable, []).append(bar.magnitude / delta)
        for node, values in by_node.items():
            assert infl[node] >= max(values) - 1e-9

    def test_influence_colors_scale(self):
        colors = influence_colors({"A": 0.0, "B": 0.5, "C": 1.0})
        assert colors["A"] == "#ffffff"
        assert colors["C"] == "#ff0000"
        assert colors["B"] == "#ff8080"

    def test_influence_colors_all_zero(self):
        colors = influence_colors({"A": 0.0})
        assert colors["A"] == "#ffffff"
