"""Decomposable scoring: local log-likelihood, AIC/BIC, cache transparency."""

import math

import numpy as np
import pytest
from scipy.special import xlogy

import oracles
from beliefnet import scores
from beliefnet.data import DataTable
from beliefnet.inference import sample
from beliefnet.learn import TabuConfig, TabuLog, tabu_search
from beliefnet.model import CategoricalVariable, Dag
from beliefnet.scores import DecomposableScore
from netgen import random_net
from oracles import score


def table(cols):
    """DataTable from dict name -> list of codes (all binary unless wider)."""
    variables = []
    arrays = []
    for name, codes in cols.items():
        codes = np.asarray(codes, dtype=np.int32)
        r = int(codes.max()) + 1
        variables.append(
            CategoricalVariable(name, tuple(f"v{k}" for k in range(max(r, 2))))
        )
        arrays.append(codes)
    return DataTable(variables, np.stack(arrays, axis=1))


def loglik(t, variable, parents=()):
    return DecomposableScore(t, "LOGLIK").local(variable, parents)


def rows(t, idx):
    """The table of rows ``t.codes[idx]``: what a bootstrap replicate resamples."""
    return DataTable(t.variables, t.codes[np.asarray(idx)])


class TestLocalLoglik:
    def test_even_split(self):
        t = table({"X": [0] * 5 + [1] * 5})
        assert loglik(t, "X") == pytest.approx(10 * math.log(0.5), abs=1e-12)

    def test_deterministic_column_is_zero(self):
        t = table({"X": [0] * 10})
        assert loglik(t, "X") == 0.0

    def test_empty_parent_rows_contribute_zero(self):
        # P's second level is never observed, so its row of N_ijk is all zero
        x = CategoricalVariable("X", ("a", "b"))
        p = CategoricalVariable("P", ("u", "v"))
        t = DataTable([x, p], np.array([[0, 0], [0, 0], [0, 0], [1, 0]], dtype=np.int32))
        expected = 3 * math.log(3 / 4) + 1 * math.log(1 / 4)
        assert loglik(t, "X", ("P",)) == pytest.approx(expected, abs=1e-12)

    def test_matches_brute_force_on_random_table(self):
        rng = np.random.default_rng(17)
        x = CategoricalVariable("X", ("a", "b", "c", "d"))
        p = CategoricalVariable("P", ("u", "v", "w"))
        raw = rng.integers(0, 30, size=(3, 4))
        cells = [(k, j) for j in range(3) for k in range(4) for _ in range(raw[j, k])]
        t = DataTable([x, p], np.array(cells, dtype=np.int32))
        expected = 0.0
        for j in range(3):
            nij = raw[j].sum()
            for k in range(4):
                if raw[j, k] > 0:
                    expected += raw[j, k] * math.log(raw[j, k] / nij)
        assert loglik(t, "X", ("P",)) == pytest.approx(expected, rel=1e-12)


class TestScore:
    def test_empty_graph_uniform_binary(self):
        t = table({"A": [0, 1] * 50, "B": [0, 1] * 50})
        dag = Dag(("A", "B"))
        ll = score(dag, t, "LOGLIK")
        assert ll == pytest.approx(200 * math.log(0.5), abs=1e-9)
        assert score(dag, t, "AIC") == pytest.approx(ll - 2, abs=1e-9)
        assert score(dag, t, "BIC") == pytest.approx(
            ll - 1.0 * math.log(100), abs=1e-9
        )

    def test_equals_sum_of_local_terms(self):
        rng = np.random.default_rng(23)
        t = table(
            {
                "A": rng.integers(0, 2, 400),
                "B": rng.integers(0, 3, 400),
                "C": rng.integers(0, 2, 400),
                "D": rng.integers(0, 2, 400),
            }
        )
        dag = Dag(("A", "B", "C", "D"), {"B": ("A",), "C": ("A", "B"), "D": ("C",)})
        total = score(dag, t, "AIC")
        parts = sum(
            DecomposableScore(t, "AIC").local(n, dag.parent_tuple(n)) for n in dag.nodes
        )
        assert total == pytest.approx(parts, abs=1e-9)

    def test_aic_penalty_matches_parameter_count(self):
        rng = np.random.default_rng(29)
        t = table({"A": rng.integers(0, 2, 200), "B": rng.integers(0, 3, 200)})
        dag = Dag(("A", "B"), {"B": ("A",)})
        d = oracles.parameter_count(dag, t.variables)
        assert score(dag, t, "AIC") == pytest.approx(
            score(dag, t, "LOGLIK") - d, abs=1e-9
        )

    def test_exactly_independent_columns_arc_lowers_aic(self):
        # all four joint cells equal: the empirical dependence is exactly zero,
        # so the arc buys nothing and costs one parameter
        a = [0] * 50 + [1] * 50
        b = ([0] * 25 + [1] * 25) * 2
        t = table({"A": a, "B": b})
        empty = Dag(("A", "B"))
        arc = Dag(("A", "B"), {"B": ("A",)})
        assert score(arc, t, "AIC") == pytest.approx(
            score(empty, t, "AIC") - 1, abs=1e-9
        )

    def test_dependent_columns_reward_arc(self):
        rng = np.random.default_rng(31)
        a = rng.integers(0, 2, 1000)
        flip = rng.random(1000) < 0.05
        b = np.where(flip, 1 - a, a)
        t = table({"A": a, "B": b})
        assert score(Dag(("A", "B"), {"B": ("A",)}), t) > score(Dag(("A", "B")), t)

    def test_decomposability_single_node_change(self):
        rng = np.random.default_rng(37)
        t = table(
            {
                "A": rng.integers(0, 2, 300),
                "B": rng.integers(0, 2, 300),
                "C": rng.integers(0, 3, 300),
            }
        )
        before = Dag(("A", "B", "C"), {"C": ("A",)})
        after = Dag(("A", "B", "C"), {"C": ("A", "B")})
        delta_total = score(after, t) - score(before, t)
        delta_local = (DecomposableScore(t, "AIC").local("C", ("A", "B"))
                       - DecomposableScore(t, "AIC").local("C", ("A",)))
        assert delta_total == delta_local  # exact, not approximate

    def test_missing_data_rejected(self):
        v = CategoricalVariable("A", ("a", "b"))
        t = DataTable([v], np.array([[0], [-1]], dtype=np.int32))
        with pytest.raises(ValueError):
            score(Dag(("A",)), t)

    def test_unknown_kind(self):
        t = table({"A": [0, 1]})
        with pytest.raises(ValueError):
            score(Dag(("A",)), t, "XYZ")


class TestScoreCache:
    def test_bit_identical_with_and_without_cache(self):
        rng = np.random.default_rng(41)
        t = table(
            {
                "A": rng.integers(0, 2, 250),
                "B": rng.integers(0, 3, 250),
                "C": rng.integers(0, 2, 250),
            }
        )
        dag = Dag(("A", "B", "C"), {"B": ("A",), "C": ("B", "A")})
        ev = DecomposableScore(t, "AIC")
        families = [(n, dag.parent_tuple(n)) for n in dag.nodes]
        computed = [ev.local(*f) for f in families]
        cached = [ev.local(*f) for f in families]
        fresh = [DecomposableScore(t, "AIC").local(*f) for f in families]
        assert computed == cached == fresh
        assert (ev.cache.hits, ev.cache.misses) == (len(families), len(families))

    def test_cached_equals_recomputation_exactly(self):
        rng = np.random.default_rng(43)
        t = table({"A": rng.integers(0, 2, 100), "B": rng.integers(0, 2, 100)})
        ev = DecomposableScore(t, "AIC")
        first = ev.local("B", ("A",))
        fresh = DecomposableScore(t, "AIC").local("B", ("A",))
        assert first == fresh
        assert ev.cache.store[(1, 0b1)] == fresh  # key: (child column, parent mask)

    def test_parent_order_canonicalized(self):
        rng = np.random.default_rng(47)
        t = table(
            {
                "A": rng.integers(0, 2, 150),
                "B": rng.integers(0, 3, 150),
                "C": rng.integers(0, 2, 150),
            }
        )
        ev = DecomposableScore(t, "AIC")
        assert ev.local("C", ("A", "B")) == ev.local("C", ("B", "A"))


def reference_local(table, variable, parents, kind):
    """Penalized local score by the counts + ``xlogy`` sums the kernel replaced."""
    n = oracles.counts(table, variable, parents)
    n_ij = n.sum(axis=1)
    value = float(xlogy(n, n).sum() - xlogy(n_ij, n_ij).sum())
    if kind != "LOGLIK":
        d = n.shape[0] * (table.variable(variable).r - 1)
        log_n = math.log(table.n_rows) if table.n_rows else 0.0
        value -= d if kind == "AIC" else 0.5 * d * log_n
    return value


def random_table(rng):
    k = int(rng.integers(2, 7))
    arities = rng.integers(2, 5, k)
    n = int(rng.integers(1, 300))
    variables = [
        CategoricalVariable(f"V{i}", tuple(f"l{j}" for j in range(r)))
        for i, r in enumerate(arities)
    ]
    codes = np.stack([rng.integers(0, r, n) for r in arities], axis=1)
    return DataTable(variables, codes)


class TestKernelOracle:
    """The column-cached, weighted kernel against the pre-kernel scoring path."""

    @pytest.mark.parametrize("kind", ["AIC", "BIC", "LOGLIK"])
    def test_equals_reference_on_random_tables(self, kind):
        rng = np.random.default_rng({"AIC": 101, "BIC": 103, "LOGLIK": 107}[kind])
        for _ in range(40):
            t = random_table(rng)
            k = len(t.variables)
            ev = DecomposableScore(t, kind)
            for _ in range(8):
                child = int(rng.integers(k))
                mask = int(rng.integers(1 << k)) & ~(1 << child)
                if rng.random() < 0.25:
                    mask = 0
                names = [t.variables[i].name for i in range(k) if mask >> i & 1]
                want = reference_local(t, t.variables[child].name, names, kind)
                assert ev.local(child, mask) == want
                assert ev.local(t.variables[child].name, names[::-1]) == want

    @pytest.mark.parametrize("kind", ["AIC", "BIC", "LOGLIK"])
    def test_weights_equal_resampled_table(self, kind):
        rng = np.random.default_rng({"AIC": 109, "BIC": 113, "LOGLIK": 127}[kind])
        for _ in range(15):
            t = random_table(rng)
            k = len(t.variables)
            idx = rng.integers(0, t.n_rows, t.n_rows)
            w = np.bincount(idx, minlength=t.n_rows)
            weighted = DecomposableScore(t, kind, weights=w)
            resampled = rows(t, idx)
            plain = DecomposableScore(resampled, kind)
            for child in range(k):
                for mask in range(1 << k):
                    if mask >> child & 1:
                        continue
                    names = [t.variables[i].name for i in range(k) if mask >> i & 1]
                    want = reference_local(resampled, t.variables[child].name, names, kind)
                    assert weighted.local(child, mask) == want
                    assert plain.local(child, mask) == want

    @pytest.mark.parametrize("weights", [
        np.ones(9), np.ones(11), np.ones((10, 1)), -np.ones(10),
        np.array([1.0] * 9 + [np.nan]), np.array([np.inf] + [1.0] * 9),
        np.array([0.5] + [1.0] * 9),
    ], ids=["short", "long", "2d", "negative", "nan", "inf", "fractional"])
    def test_bad_weights_rejected(self, weights):
        t = table({"A": [0, 1] * 5, "B": [1, 0] * 5})
        with pytest.raises(ValueError):
            DecomposableScore(t, "AIC", weights=weights)

    def test_xlogx_table_equals_xlogy_bit_for_bit(self):
        k = np.arange(200_001, dtype=np.float64)
        got = scores._xlogx_upto(200_000)
        assert np.array_equal(got.view(np.int64), xlogy(k, k).view(np.int64))

    def test_xlogx_table_grown_in_steps_equals_one_build(self, monkeypatch):
        def fresh():
            empty = np.zeros(1)
            empty.flags.writeable = False
            monkeypatch.setattr(scores, "_xlogx", empty)

        fresh()
        once = scores._xlogx_upto(2042)
        fresh()
        for n in (10, 1303, 2042):
            stepped = scores._xlogx_upto(n)
        assert np.array_equal(stepped.view(np.int64), once.view(np.int64))
        assert np.array_equal(scores._xlogx_upto(10).view(np.int64), once[:11].view(np.int64))
        # scorers share the one table instead of building their own
        t = table({"A": [0, 1] * 5})
        assert np.shares_memory(DecomposableScore(t)._xlogx, scores._xlogx)

    def test_xlogx_table_is_read_only(self):
        t = table({"A": [0, 1] * 5})
        for view in (scores._xlogx_upto(20), scores._xlogx, DecomposableScore(t)._xlogx):
            with pytest.raises(ValueError):
                view[1] = 0.0

    def test_missing_value_in_a_weighted_row_rejected(self):
        v = CategoricalVariable("A", ("a", "b"))
        t = DataTable([v], np.array([[0], [-1], [1]], dtype=np.int32))
        with pytest.raises(ValueError):
            DecomposableScore(t, "AIC", weights=[1, 1, 1])
        assert DecomposableScore(t, "AIC", weights=[2, 0, 1]).local("A", ()) == reference_local(
            rows(t, [0, 0, 2]), "A", (), "AIC"
        )


class TestCellCodeRange:
    @pytest.mark.parametrize("n_parents", [30, 31])
    def test_family_beyond_int32_codes_rejected_before_tallying(self, n_parents):
        # 2**30 * 2 cells is one more than int32 codes hold; nothing is built
        rng = np.random.default_rng(131)
        t = table({f"V{i}": rng.integers(0, 2, 20) for i in range(32)})
        ev = DecomposableScore(t, "AIC")
        parents = [f"V{i}" for i in range(1, n_parents + 1)]
        with pytest.raises(ValueError, match=r"'V0'.*'V1'.*'V%d'" % n_parents):
            ev.local("V0", parents)
        assert ev._parent_codes == {0: (1, None)}
        assert ev._parent_code_bytes == 0


class TestParentCodeMemo:
    """Parent configuration codes are memoized per scorer, over its kept rows."""

    def test_scorers_with_different_weights_keep_their_own_codes(self):
        rng = np.random.default_rng(137)
        for _ in range(10):
            t = random_table(rng)
            k = len(t.variables)
            draws = [rng.integers(0, t.n_rows, t.n_rows) for _ in range(2)]
            evs = [DecomposableScore(t, "BIC", weights=np.bincount(idx, minlength=t.n_rows))
                   for idx in draws]
            takes = [rows(t, idx) for idx in draws]
            for _ in range(12):
                child = int(rng.integers(k))
                mask = int(rng.integers(1 << k)) & ~(1 << child)
                names = [t.variables[i].name for i in range(k) if mask >> i & 1]
                for ev, taken in zip(evs, takes):  # interleaved on one parent mask
                    want = reference_local(taken, t.variables[child].name, names, "BIC")
                    assert ev.local(child, mask) == want

    def test_tiny_budget_leaves_a_faithful_search_unchanged(self, monkeypatch):
        rng = np.random.default_rng(139)
        net = random_net(rng, 9, p_arc=0.5, concentration=0.5)
        data = sample(net, 600, seed=139)
        w = np.bincount(rng.integers(0, data.n_rows, data.n_rows), minlength=data.n_rows)
        config = TabuConfig(tenure=10, max_iterations=1000, stall_limit=100, seed=139)

        def run():
            log = TabuLog()
            dag = tabu_search(data, "AIC", config=config, log=log, weights=w)
            return dag.parents, log.best_scores, log.iterations, log.cache_misses

        want = run()
        budget = 3 * 4 * int((w > 0).sum())  # three int32 codes over the kept rows
        monkeypatch.setattr(scores, "_PARENT_CODE_BYTES", budget)
        seen, local = [], DecomposableScore.local

        def checked(self, variable, parents):
            value = local(self, variable, parents)
            assert self._parent_code_bytes <= budget
            seen.append(parents not in self._parent_codes)
            return value

        monkeypatch.setattr(DecomposableScore, "local", checked)
        assert run() == want
        assert any(seen)  # the budget bound: some parent mask was not kept
