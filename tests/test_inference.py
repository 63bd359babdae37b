"""Exact inference, parameter fitting, and sampling."""

import math

import numpy as np
import pytest

import oracles
from netgen import random_evidence, random_net, window_dag
from reference_inference import ReferenceFactor, reference_min_fill_order, reference_posterior
from beliefnet import inference
from beliefnet.data import DataTable
from beliefnet.errors import InvalidQuery, ZeroProbabilityEvidence
from beliefnet.inference import (
    Factor,
    _min_fill_order,
    fit_bayes,
    posterior,
    sample,
)
from beliefnet.model import CategoricalVariable, Cpt, Dag, FittedNetwork
from beliefnet.modelio import load as load_model


def chain_ab(p_a=0.3, p_b_given=((0.9, 0.1), (0.2, 0.8))):
    variables = (
        CategoricalVariable("A", ("a0", "a1")),
        CategoricalVariable("B", ("b0", "b1")),
    )
    dag = Dag(("A", "B"), {"B": ("A",)})
    cpts = {
        "A": Cpt("A", (), [[1 - p_a, p_a]]),
        "B": Cpt("B", ("A",), p_b_given),
    }
    return FittedNetwork(variables, dag, cpts)


class TestFactor:
    def test_constructor_rejects_shape_mismatch(self):
        # Factor is unchecked; the reference factor every query is compared
        # against validates each table it builds
        with pytest.raises(ValueError):
            ReferenceFactor(("A", "B"), (2, 3), np.ones((3, 2)))
        with pytest.raises(ValueError):
            ReferenceFactor(("A",), (2,), 1.0)

    def test_multiply_equals_broadcast_product_for_reordered_overlap(self):
        rng = np.random.default_rng(11)
        f = Factor(("A", "B", "C"), (2, 3, 4), rng.random((2, 3, 4)))
        g = Factor(("C", "D", "A"), (4, 5, 2), rng.random((4, 5, 2)))
        prod = f.multiply(g)
        assert prod.scope == ("A", "B", "C", "D")
        assert prod.cards == (2, 3, 4, 5)
        want = f.values[:, :, :, None] * g.values.transpose(2, 0, 1)[:, None, :, :]
        assert prod.values.shape == want.shape
        assert np.array_equal(prod.values, want)

    def test_multiply_aligns_scopes(self):
        f = Factor(("A", "B"), (2, 3), np.arange(6).reshape(2, 3))
        g = Factor(("B", "C"), (3, 2), np.ones((3, 2)))
        prod = f.multiply(g)
        assert prod.scope == ("A", "B", "C")
        assert prod.values[1, 2, 0] == 5

    def test_sum_out(self):
        f = Factor(("A", "B"), (2, 2), np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = f.sum_out("A")
        assert out.scope == ("B",)
        assert out.values.tolist() == [4.0, 6.0]

    def test_reduce(self):
        f = Factor(("A", "B"), (2, 2), np.array([[1.0, 2.0], [3.0, 4.0]]))
        out = f.reduce({"A": 1})
        assert out.scope == ("B",)
        assert out.values.tolist() == [3.0, 4.0]


class TestPosterior:
    def test_root_prior_returned(self):
        net = chain_ab()
        res = posterior(net, "A")
        assert np.allclose(res.distribution, [0.7, 0.3])
        assert res.evidence_probability == pytest.approx(1.0)

    def test_bayes_rule_by_hand(self):
        net = chain_ab()
        # P(A=a1 | B=b1) = 0.3*0.8 / (0.7*0.1 + 0.3*0.8)
        res = posterior(net, "A", {"B": "b1"})
        expected = 0.24 / 0.31
        assert res["a1"] == pytest.approx(expected, abs=1e-12)
        assert res.evidence_probability == pytest.approx(0.31, abs=1e-12)

    def test_target_in_evidence(self):
        net = chain_ab()
        with pytest.raises(InvalidQuery):
            posterior(net, "A", {"A": "a0"})

    def test_evidence_on_independent_node_keeps_marginal(self):
        variables = (
            CategoricalVariable("A", ("a0", "a1")),
            CategoricalVariable("B", ("b0", "b1")),
        )
        net = FittedNetwork(
            variables,
            Dag(("A", "B")),
            {"A": Cpt("A", (), [[0.6, 0.4]]), "B": Cpt("B", (), [[0.3, 0.7]])},
        )
        baseline = posterior(net, "B").distribution
        for level in ("a0", "a1"):
            got = posterior(net, "B", {"A": level}).distribution
            assert np.abs(got - baseline).max() < 1e-9

    def test_zero_probability_evidence(self):
        net = chain_ab(p_b_given=((1.0, 0.0), (1.0, 0.0)))
        with pytest.raises(ZeroProbabilityEvidence):
            posterior(net, "A", {"B": "b1"})

    def test_zero_probability_evidence_on_roots_before_target(self):
        # two observed roots come before the target, so their scalar factors
        # are multiplied first; one of them is a structural zero
        variables = tuple(
            CategoricalVariable(n, (f"{n.lower()}0", f"{n.lower()}1"))
            for n in ("X", "Y", "T")
        )
        cpts = {
            "X": Cpt("X", (), [[1.0, 0.0]]),
            "Y": Cpt("Y", (), [[0.4, 0.6]]),
            "T": Cpt("T", (), [[0.3, 0.7]]),
        }
        net = FittedNetwork(variables, Dag(("X", "Y", "T"), {}), cpts)
        with pytest.raises(ZeroProbabilityEvidence):
            posterior(net, "T", {"X": "x1", "Y": "y0"})
        with pytest.raises(ZeroProbabilityEvidence):
            posterior(net, "T", {"Y": "y0", "X": "x1"})

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(60):
            net = random_net(rng, int(rng.integers(3, 9)))
            target = net.variables[int(rng.integers(len(net.variables)))].name
            ev = random_evidence(rng, net, max_vars=3, exclude=(target,))
            got = posterior(net, target, ev)
            want_dist, want_pe = oracles.posterior(net, target, ev)
            assert np.abs(got.distribution - want_dist).max() < 1e-9
            assert got.evidence_probability == pytest.approx(want_pe, abs=1e-9)
            assert got.distribution.sum() == pytest.approx(1.0, abs=1e-9)

    def test_elimination_order_independence(self):
        rng = np.random.default_rng(103)
        import itertools

        net = random_net(rng, 5, p_arc=0.5)
        target = net.variables[0].name
        ev_var = net.variables[-1].name
        ev = {ev_var: net.variables[-1].levels[0]} if ev_var != target else {}
        base = posterior(net, target, ev)
        hidden = [
            v.name for v in net.variables if v.name != target and v.name not in ev
        ]
        for perm in itertools.islice(itertools.permutations(hidden), 12):
            res = posterior(net, target, ev, order=perm)
            assert np.abs(res.distribution - base.distribution).max() < 1e-12

    def test_order_must_cover_hidden(self):
        variables = (
            CategoricalVariable("A", ("a0", "a1")),
            CategoricalVariable("B", ("b0", "b1")),
            CategoricalVariable("C", ("c0", "c1")),
        )
        net = FittedNetwork(
            variables,
            Dag(("A", "B", "C"), {"B": ("A",), "C": ("B",)}),
            {
                "A": Cpt("A", (), [[0.5, 0.5]]),
                "B": Cpt("B", ("A",), [[0.9, 0.1], [0.2, 0.8]]),
                "C": Cpt("C", ("B",), [[0.7, 0.3], [0.4, 0.6]]),
            },
        )
        with pytest.raises(InvalidQuery):
            posterior(net, "C", order=("A",))  # misses hidden B

    def test_long_chain_tiny_evidence_probability(self):
        # 60-node binary chain with rare emissions observed at every other
        # node: P(evidence) ~ 1e-80. Checked against an independent log-space
        # forward recursion, so the per-elimination rescaling must carry the
        # magnitude exactly.
        n = 60
        p_stay, p_emit = 0.995, 0.005
        variables = tuple(
            CategoricalVariable(f"X{i}", ("n", "y")) for i in range(n)
        )
        parents = {f"X{i}": (f"X{i-1}",) for i in range(1, n)}
        cpts = {"X0": Cpt("X0", (), [[0.5, 0.5]])}
        for i in range(1, n):
            cpts[f"X{i}"] = Cpt(
                f"X{i}",
                (f"X{i-1}",),
                [[p_stay, 1 - p_stay], [1 - p_emit, p_emit]],
            )
        net = FittedNetwork(variables, Dag(tuple(v.name for v in variables), parents), cpts)
        evidence = {f"X{i}": "y" for i in range(1, n, 2)}

        # independent oracle: forward pass over log P(X_i, evidence so far)
        log_alpha = np.log([0.5, 0.5])
        trans = np.array([[p_stay, 1 - p_stay], [1 - p_emit, p_emit]])
        for i in range(1, n):
            log_col = np.logaddexp(
                log_alpha[0] + np.log(trans[0]), log_alpha[1] + np.log(trans[1])
            )
            if f"X{i}" in evidence:
                log_col[0] = -np.inf
            log_alpha = log_col
        want_log_pe = float(np.logaddexp(log_alpha[0], log_alpha[1]))

        res = posterior(net, "X0", evidence)
        assert want_log_pe < -120  # many orders below any single CPT entry
        assert np.log(res.evidence_probability) == pytest.approx(want_log_pe, abs=1e-9)
        assert res.distribution.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_roots", [19, 25])
    def test_many_tiny_independent_evidence_roots(self, n_roots):
        # each observed root reduces to a scalar factor of 1e-16; together
        # P(evidence) = 1e-304 (19 roots) or 1e-400 (25 roots, below the
        # smallest double), which is tiny but not zero
        roots = [f"R{i}" for i in range(n_roots)]
        variables = (CategoricalVariable("T", ("t0", "t1")),) + tuple(
            CategoricalVariable(r, ("common", "rare")) for r in roots
        )
        cpts = {"T": Cpt("T", (), [[0.25, 0.75]])}
        cpts.update({r: Cpt(r, (), [[1 - 1e-16, 1e-16]]) for r in roots})
        net = FittedNetwork(variables, Dag(("T", *roots), {}), cpts)
        res = posterior(net, "T", {r: "rare" for r in roots})
        assert res.log_evidence_probability == pytest.approx(n_roots * np.log(1e-16), rel=1e-12)
        assert res.evidence_probability == pytest.approx(np.exp(n_roots * np.log(1e-16)), rel=1e-9)
        assert res.distribution.tolist() == pytest.approx([0.25, 0.75], abs=1e-15)

    def test_tiny_evidence_likelihoods_on_target(self):
        # 30 observed children of the target, each 1e-16 likely under t0 and
        # 1e-15 under t1: the product over the target underflows unless the
        # final product is renormalized as it grows
        kids = [f"C{i}" for i in range(30)]
        variables = (CategoricalVariable("T", ("t0", "t1")),) + tuple(
            CategoricalVariable(c, ("common", "rare")) for c in kids
        )
        cpts = {"T": Cpt("T", (), [[0.5, 0.5]])}
        cpts.update(
            {c: Cpt(c, ("T",), [[1 - 1e-16, 1e-16], [1 - 1e-15, 1e-15]]) for c in kids}
        )
        net = FittedNetwork(variables, Dag(("T", *kids), {c: ("T",) for c in kids}), cpts)
        res = posterior(net, "T", {c: "rare" for c in kids})
        # odds t0 : t1 = 1 : 1e30
        assert res["t0"] == pytest.approx(1e-30, rel=1e-9)
        want = np.log(0.5) + 30 * np.log(1e-15) + np.log1p(1e-30)
        assert res.log_evidence_probability == pytest.approx(want, rel=1e-12)

    def test_chain_rule_evidence_probability(self):
        rng = np.random.default_rng(107)
        for _ in range(10):
            net = random_net(rng, 5)
            ev = random_evidence(rng, net, max_vars=2)
            target = next(
                v.name for v in net.variables if v.name not in ev
            )
            got = posterior(net, target, ev)
            joint = oracles.full_joint(net)
            index = [slice(None)] * joint.ndim
            for name, level in ev.items():
                pos = [v.name for v in net.variables].index(name)
                index[pos] = net.variable(name).level_index(level)
            assert got.evidence_probability == pytest.approx(
                float(joint[tuple(index)].sum()), abs=1e-9
            )


class TestMinFillOrder:
    def test_matches_reference_on_random_graphs(self):
        rng = np.random.default_rng(2024)
        for case in range(3000):
            n = int(rng.integers(2, 13))
            names = [f"V{i}" for i in range(n)]
            if case % 2:
                net = random_net(rng, n, max_parents=int(rng.integers(1, 5)))
                scopes = [(v,) + net.dag.parent_tuple(v) for v in net.dag.nodes]
            else:
                scopes = [
                    tuple(names[i] for i in rng.choice(n, size=k, replace=False))
                    for k in rng.integers(1, min(n, 4) + 1, size=int(rng.integers(1, 2 * n)))
                ]
            present = sorted({v for scope in scopes for v in scope})
            hidden = [v for v in present if rng.random() < 0.7]
            assert _min_fill_order(scopes, hidden) == reference_min_fill_order(
                scopes, hidden
            ), (scopes, hidden)

    def test_matches_reference_at_benchmark_width(self, monkeypatch):
        # 40-node nets with parents from an 8-node window, queried with 0-6
        # evidence variables: the evidence-reduced scopes posterior orders
        seen = []

        def spy(scopes, hidden):
            seen.append((list(scopes), set(hidden)))
            return _min_fill_order(scopes, hidden)

        monkeypatch.setattr(inference, "_min_fill_order", spy)
        rng = np.random.default_rng(2025)
        for _ in range(30):
            net = random_net(rng, 40, max_levels=5, dag=window_dag(rng, 40))
            for _ in range(5):
                target = net.variables[int(rng.integers(40))].name
                posterior(net, target, random_evidence(rng, net, max_vars=6, exclude=(target,)))
        assert len(seen) == 150
        assert max(len(hidden) for _, hidden in seen) >= 20
        for scopes, hidden in seen:
            assert _min_fill_order(scopes, hidden) == reference_min_fill_order(
                scopes, hidden
            ), (scopes, hidden)


def _with_structural_zeros(net):
    """``net`` with its CPT entries below 0.15 set to zero (each row keeps
    its largest entry) and the rows renormalized."""
    cpts = {}
    for name, cpt in net.cpts.items():
        table = cpt.table.copy()
        table[(table < 0.15) & (table < table.max(axis=1, keepdims=True))] = 0.0
        cpts[name] = Cpt(name, cpt.parent_order, table / table.sum(axis=1, keepdims=True))
    return FittedNetwork(net.variables, net.dag, cpts)


class TestReferencePosterior:
    """posterior against the validated-factor elimination loop, with ==."""

    @staticmethod
    def queries(rng, net, n):
        roots = [v for v in net.dag.nodes if not net.dag.parent_tuple(v)]
        for q in range(n):
            target = net.variables[int(rng.integers(len(net.variables)))].name
            ev = random_evidence(rng, net, max_vars=6, exclude=(target,))
            if q % 3 == 0:  # observe up to three roots as well
                for r in rng.permutation(roots)[: int(rng.integers(1, 4))]:
                    if r != target and len(ev) < 6:
                        var = net.variable(str(r))
                        ev[var.name] = var.levels[int(rng.integers(var.r))]
            yield target, ev

    @staticmethod
    def nets(rng):
        for case in range(24):
            n = int(rng.integers(3, 16)) if case % 2 else 24
            dag = window_dag(rng, n) if case % 3 else None
            yield random_net(rng, n, max_levels=5, max_parents=4, dag=dag)

    def test_bit_identical_to_reference(self):
        rng = np.random.default_rng(404)
        n_roots_observed = 0
        for net in self.nets(rng):
            roots = {v for v in net.dag.nodes if not net.dag.parent_tuple(v)}
            for target, ev in self.queries(rng, net, 10):
                got = posterior(net, target, ev)
                dist, log_pe, order = reference_posterior(net, target, ev)
                assert got.distribution.tolist() == dist.tolist()
                assert got.log_evidence_probability == log_pe
                assert got.elimination_order == order
                n_roots_observed += bool(roots & set(ev))
        assert n_roots_observed >= 40

    def test_structural_zeros_raise_like_reference(self):
        rng = np.random.default_rng(405)
        zero = equal = 0
        for net in self.nets(rng):
            net = _with_structural_zeros(net)
            for target, ev in self.queries(rng, net, 10):
                try:
                    dist, log_pe, order = reference_posterior(net, target, ev)
                except ZeroProbabilityEvidence:
                    with pytest.raises(ZeroProbabilityEvidence):
                        posterior(net, target, ev)
                    zero += 1
                    continue
                got = posterior(net, target, ev)
                assert got.distribution.tolist() == dist.tolist()
                assert got.log_evidence_probability == log_pe
                assert got.elimination_order == order
                equal += 1
        assert zero >= 10 and equal >= 10


class TestFitBayes:
    def test_prior_only_row(self):
        data = DataTable(
            (
                CategoricalVariable("A", ("a0", "a1")),
                CategoricalVariable("B", ("b0", "b1")),
            ),
            np.array([[0, 0], [0, 1]], dtype=np.int32),
        )
        net = fit_bayes(Dag(("A", "B"), {"B": ("A",)}), data, alpha=1)
        # parent config A=a1 never observed: row is the flat prior
        assert np.allclose(net.cpts["B"].table[1], [0.5, 0.5])

    def test_closed_form_example(self):
        # N_ijk = 3, N_ij = 9, r = 4, alpha = 1 -> 4/13
        v = CategoricalVariable("X", ("a", "b", "c", "d"))
        codes = np.array([0] * 3 + [1] * 2 + [2] * 2 + [3] * 2, dtype=np.int32)
        data = DataTable((v,), codes[:, None])
        net = fit_bayes(Dag(("X",)), data, alpha=1)
        assert net.cpts["X"].table[0, 0] == pytest.approx(4 / 13, abs=1e-15)

    def test_matches_closed_form_on_random_tables(self):
        rng = np.random.default_rng(211)
        for _ in range(50):
            n_levels = int(rng.integers(2, 5))
            p_levels = int(rng.integers(2, 4))
            x = CategoricalVariable("X", tuple(f"x{k}" for k in range(n_levels)))
            p = CategoricalVariable("P", tuple(f"p{k}" for k in range(p_levels)))
            n = int(rng.integers(1, 200))
            codes = np.stack(
                [rng.integers(0, n_levels, n), rng.integers(0, p_levels, n)], axis=1
            ).astype(np.int32)
            data = DataTable((x, p), codes)
            alpha = float(rng.uniform(0.2, 3.0))
            net = fit_bayes(Dag(("X", "P"), {"X": ("P",)}), data, alpha=alpha)
            n_ijk = oracles.counts(data, "X", ["P"])
            expected = (n_ijk + alpha) / (
                n_ijk.sum(axis=1)[:, None] + n_levels * alpha
            )
            assert np.abs(net.cpts["X"].table - expected).max() <= 1e-15

    def test_strictly_positive(self):
        rng = np.random.default_rng(223)
        codes = rng.integers(0, 2, size=(30, 2)).astype(np.int32)
        data = DataTable(
            (
                CategoricalVariable("A", ("a0", "a1")),
                CategoricalVariable("B", ("b0", "b1")),
            ),
            codes,
        )
        net = fit_bayes(Dag(("A", "B"), {"B": ("A",)}), data)
        for cpt in net.cpts.values():
            assert np.all(cpt.table > 0)
            assert np.all(cpt.table < 1)

    def test_requires_complete_cases(self):
        v = CategoricalVariable("A", ("a", "b"))
        data = DataTable((v,), np.array([[0], [-1]], dtype=np.int32))
        with pytest.raises(ValueError):
            fit_bayes(Dag(("A",)), data)

    def test_alpha_must_be_positive(self):
        v = CategoricalVariable("A", ("a", "b"))
        data = DataTable((v,), np.array([[0]], dtype=np.int32))
        with pytest.raises(ValueError):
            fit_bayes(Dag(("A",)), data, alpha=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan, -1.0])
    def test_alpha_must_be_finite(self, alpha):
        # an infinite alpha is refused by name, not as a NaN row of some CPT
        net = load_model("fixtures/mini.bn.yaml")
        data = sample(net, 50, seed=3)
        with pytest.raises(ValueError, match="alpha"):
            fit_bayes(net.dag, data, alpha=alpha)

    def test_alpha_to_zero_limit_matches(self):
        # as alpha -> 0 the estimate tends to the row ratios N_ijk / N_ij
        rng = np.random.default_rng(227)
        codes = rng.integers(0, 2, size=(200, 2)).astype(np.int32)
        data = DataTable(
            (
                CategoricalVariable("A", ("a0", "a1")),
                CategoricalVariable("B", ("b0", "b1")),
            ),
            codes,
        )
        dag = Dag(("A", "B"), {"B": ("A",)})
        near_zero = fit_bayes(dag, data, alpha=1e-9)
        for name in ("A", "B"):
            n = oracles.counts(data, name, dag.parent_tuple(name))
            ratios = n / n.sum(axis=1)[:, None]
            assert np.abs(near_zero.cpts[name].table - ratios).max() < 1e-9


class TestSample:
    def test_zero_rows(self):
        net = chain_ab()
        t = sample(net, 0, seed=1)
        assert t.n_rows == 0

    def test_negative_rows_refused(self):
        with pytest.raises(ValueError, match="n must be >= 0"):
            sample(chain_ab(), -1)

    def test_deterministic_cpts_identical_rows(self):
        net = chain_ab(p_a=0.0, p_b_given=((1.0, 0.0), (0.0, 1.0)))
        t = sample(net, 50, seed=2)
        assert np.all(t.codes == 0)

    def test_seed_determinism(self):
        net = chain_ab()
        assert np.array_equal(sample(net, 100, seed=3).codes, sample(net, 100, seed=3).codes)
        assert not np.array_equal(sample(net, 100, seed=3).codes, sample(net, 100, seed=4).codes)

    def test_marginals_converge(self):
        rng = np.random.default_rng(233)
        net = random_net(rng, 3)
        t = sample(net, 100_000, seed=5)
        for v in net.variables:
            want = posterior(net, v.name).distribution
            got = np.bincount(t.column(v.name), minlength=v.r) / t.n_rows
            assert np.abs(got - want).max() < 0.01
