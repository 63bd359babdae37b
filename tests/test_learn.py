"""Structure learning: tabu search, bootstrap strengths, threshold, consensus."""

import concurrent.futures
import multiprocessing
import os
import pickle

import numpy as np
import pytest

import graphutil
from oracles import score
from beliefnet.data import DataTable
from beliefnet.errors import (
    BootstrapError,
    EmptyStrengths,
    UnassignedVariable,
    UnknownLevel,
    UnknownVariable,
)
from beliefnet.inference import sample
from beliefnet.learn import (
    POOL_MIN_REPLICATES,
    ArcStrengthTable,
    TabuConfig,
    TabuLog,
    averaged_network,
    bootstrap_strengths,
    bootstrap_workers,
    l1_threshold,
    optimal_threshold,
    tabu_search,
    tiers_to_blacklist,
)
from beliefnet.model import CategoricalVariable, Dag, TierSpec
from beliefnet.modelio import load

FAST = TabuConfig(tenure=5, max_iterations=200, stall_limit=10)


def binary_table(cols):
    variables = [
        CategoricalVariable(name, ("v0", "v1")) for name in cols
    ]
    return DataTable(variables, np.stack(list(cols.values()), axis=1).astype(np.int32))


def dependent_pair(n=1000, flip=0.05, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, 2, n)
    b = np.where(rng.random(n) < flip, 1 - a, a)
    return binary_table({"A": a, "B": b})


def replicate_weights(data, seed, replicate):
    """The row multiplicities that bootstrap replicate ``replicate`` searches with."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(replicate,)))
    return np.bincount(rng.integers(0, data.n_rows, data.n_rows), minlength=data.n_rows)


# pool workers see a search patched in the parent only when they are forked;
# allow_none keeps the check from fixing the start method for the whole test run
START_METHOD = (
    multiprocessing.get_start_method(allow_none=True)
    or multiprocessing.get_all_start_methods()[0]
)
needs_fork = pytest.mark.skipif(START_METHOD != "fork", reason="needs fork-started workers")
# the fewest replicates that 2 workers get a pool for
POOL_B = 2 * POOL_MIN_REPLICATES


@pytest.fixture
def pools(monkeypatch):
    """Worker counts of the process pools bootstrap_strengths starts."""
    started = []

    class Recorded(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    return started


class TestTiersToBlacklist:
    def test_two_singleton_tiers(self):
        spec = TierSpec((("A",), ("B",)))
        cons = tiers_to_blacklist(spec, ["A", "B"])
        assert cons == {("B", "A")}

    def test_three_tiers_of_two(self):
        spec = TierSpec((("A", "B"), ("C", "D"), ("E", "F")))
        cons = tiers_to_blacklist(spec, list("ABCDEF"))
        assert len(cons) == 12
        assert ("C", "A") in cons
        assert ("E", "D") in cons
        assert ("A", "C") not in cons

    def test_unassigned_variable(self):
        spec = TierSpec((("A",),))
        with pytest.raises(UnassignedVariable):
            tiers_to_blacklist(spec, ["A", "B"])


@pytest.mark.parametrize("field", ["tenure", "max_iterations", "stall_limit"])
def test_tabu_config_refuses_a_non_positive_setting(field):
    with pytest.raises(ValueError, match=f"{field} must be positive"):
        TabuConfig(**{field: 0})


class TestTabuSearch:
    def test_constraint_on_an_unknown_variable(self):
        with pytest.raises(UnknownVariable, match="Z"):
            tabu_search(dependent_pair(n=50), constraints={("A", "Z")}, config=FAST)

    def test_strong_dependence_learns_single_arc(self):
        data = dependent_pair(seed=1)
        dag = tabu_search(data, config=FAST)
        assert len(dag.arcs()) == 1
        arc = dag.arcs()[0]
        assert set(arc) == {"A", "B"}
        # both orientations score identically: the learned graph must beat
        # the empty graph and match the best single-arc graph
        best = max(
            score(Dag(("A", "B"), {"B": ("A",)}), data),
            score(Dag(("A", "B"), {"A": ("B",)}), data),
        )
        assert score(dag, data) == pytest.approx(best, abs=1e-9)

    def test_independent_columns_empty_graph(self):
        rng = np.random.default_rng(3)
        data = binary_table(
            {"A": rng.integers(0, 2, 800), "B": rng.integers(0, 2, 800)}
        )
        dag = tabu_search(data, config=FAST)
        assert dag.arcs() == []

    def test_blacklist_respected(self):
        data = dependent_pair(seed=5)
        cons = frozenset([("A", "B")])
        dag = tabu_search(data, constraints=cons, config=FAST)
        assert ("A", "B") not in dag.arcs()

    def test_search_ignores_seed(self):
        rng = np.random.default_rng(11)
        cols = {f"V{i}": rng.integers(0, 2, 400) for i in range(5)}
        data = binary_table(cols)
        runs = []
        for seed in (9, 10):
            log = TabuLog()
            cfg = TabuConfig(tenure=5, max_iterations=100, stall_limit=10, seed=seed)
            dag = tabu_search(data, config=cfg, log=log)
            runs.append((dag.parents, vars(log)))
        assert runs[0] == runs[1]

    def test_best_seen_monotone(self):
        data = sample(load("fixtures/chain6.bn.yaml"), 2000, seed=13)
        log = TabuLog()
        tabu_search(data, config=FAST, log=log)
        assert all(b >= a - 1e-12 for a, b in zip(log.best_scores, log.best_scores[1:]))

    def test_local_optimality(self):
        data = sample(load("fixtures/chain6.bn.yaml"), 1000, seed=17)
        dag = tabu_search(data, config=FAST)
        base = score(dag, data)
        # no single legal move improves the returned graph
        nodes = list(dag.nodes)
        for a in nodes:
            for b in nodes:
                if a == b:
                    continue
                if a not in dag.parents[b]:
                    if b in dag.ancestors(a):
                        continue
                    grown = Dag(nodes, {**dag.parents, b: dag.parents[b] + (a,)})
                    assert score(grown, data) <= base + 1e-6
                else:
                    shrunk = Dag(
                        nodes,
                        {**dag.parents, b: tuple(p for p in dag.parents[b] if p != a)},
                    )
                    assert score(shrunk, data) <= base + 1e-6

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_capped_walk_returns_its_best_seen_dag(self, k):
        # the first moves each add an arc and improve the score, so a walk
        # stopped after k of them returns the k-arc DAG it ends on, which is
        # not locally optimal (the chain has 5 arcs)
        data = sample(load("fixtures/chain6.bn.yaml"), 1000, seed=17)
        log = TabuLog()
        cfg = TabuConfig(tenure=5, max_iterations=k, stall_limit=10)
        dag = tabu_search(data, config=cfg, log=log)
        assert len(dag.arcs()) == k
        assert log.iterations == len(log.best_scores) == k

    def test_chain_recovery(self):
        truth = load("fixtures/chain6.bn.yaml")
        true_pattern = graphutil.cpdag(truth.dag)
        hits = 0
        for seed in range(5):
            data = sample(truth, 20_000, seed=300 + seed)
            learned = tabu_search(data, config=FAST)
            pattern = graphutil.cpdag(learned)
            same_skeleton = graphutil.skeleton_of(pattern) == graphutil.skeleton_of(
                true_pattern
            )
            if same_skeleton and graphutil.shd(pattern, true_pattern, truth.dag.nodes) <= 2:
                hits += 1
        assert hits >= 4


class TestBootstrap:
    def test_single_replicate_strengths_are_binary(self):
        data = dependent_pair(n=300, seed=19)
        table = bootstrap_strengths(data, b=1, config=FAST, seed=1)
        for a, b in table.pairs():
            assert table.strength(a, b) in (0.0, 1.0)

    def test_strong_arc_high_strength(self):
        data = dependent_pair(n=500, seed=23)
        table = bootstrap_strengths(data, b=40, config=FAST, seed=2)
        assert table.strength("A", "B") >= 0.8

    def test_determinism_and_seed_sensitivity(self):
        data = dependent_pair(n=200, flip=0.4, seed=29)
        t1 = bootstrap_strengths(data, b=25, config=FAST, seed=3)
        t2 = bootstrap_strengths(data, b=25, config=FAST, seed=3)
        t3 = bootstrap_strengths(data, b=25, config=FAST, seed=4)
        assert t1.dir_counts == t2.dir_counts
        assert t1.dir_counts != t3.dir_counts

    def test_parallel_equals_serial(self, pools):
        data = dependent_pair(n=200, flip=0.3, seed=31)
        serial = bootstrap_strengths(data, b=12, config=FAST, seed=5, n_jobs=1)
        parallel = bootstrap_strengths(data, b=12, config=FAST, seed=5, n_jobs=2)
        assert serial.dir_counts == parallel.dir_counts
        assert pools == [2]

    def test_small_bootstrap_runs_in_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        data = dependent_pair(n=200, flip=0.3, seed=31)
        serial = bootstrap_strengths(data, b=POOL_B - 1, config=FAST, seed=5, n_jobs=1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        small = bootstrap_strengths(data, b=POOL_B - 1, config=FAST, seed=5, n_jobs=2)
        assert small.dir_counts == serial.dir_counts

    @pytest.mark.parametrize("b, n_jobs, workers", [
        (1, 1, 1), (10_000, 1, 1),
        (POOL_B - 1, 2, 1), (POOL_B, 2, 2),
        (3 * POOL_MIN_REPLICATES - 1, 3, 1), (3 * POOL_MIN_REPLICATES, 3, 3),
    ])
    def test_pool_only_when_every_worker_gets_enough_replicates(self, b, n_jobs, workers):
        assert bootstrap_workers(b, n_jobs) == workers

    def test_symmetry_and_direction_sum(self):
        data = sample(load("fixtures/chain6.bn.yaml"), 400, seed=37)
        table = bootstrap_strengths(data, b=15, config=FAST, seed=6)
        for a, b in table.pairs():
            assert table.strength(a, b) == table.strength(b, a)
            assert table.direction(a, b) + table.direction(b, a) == pytest.approx(1.0)

    def test_blacklisted_arcs_never_appear(self):
        truth = load("fixtures/chain6.bn.yaml")
        data = sample(truth, 500, seed=41)
        tiers = TierSpec((("N0", "N1", "N2"), ("N3", "N4", "N5")))
        cons = tiers_to_blacklist(tiers, [v.name for v in truth.variables])
        table = bootstrap_strengths(data, b=20, config=FAST, constraints=cons, seed=7)
        for frm, to in cons:
            assert table.arc_frequency(frm, to) == 0.0

    def test_invalid_replicate_count(self):
        data = dependent_pair(n=50, seed=43)
        with pytest.raises(ValueError):
            bootstrap_strengths(data, b=0, config=FAST, seed=8)

    @pytest.mark.parametrize("n_jobs", [0, -1])
    def test_invalid_worker_count(self, n_jobs):
        data = dependent_pair(n=50, seed=43)
        with pytest.raises(ValueError, match="n_jobs must be >= 1"):
            bootstrap_strengths(data, b=POOL_B, config=FAST, seed=8, n_jobs=n_jobs)

    def test_failing_replicate_reports_index(self, monkeypatch):
        import beliefnet.learn as learn_mod

        data = dependent_pair(n=50, seed=47)
        real = learn_mod.tabu_search
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 3:
                raise RuntimeError("replicate blew up")
            return real(*args, **kwargs)

        monkeypatch.setattr(learn_mod, "tabu_search", flaky)
        with pytest.raises(BootstrapError) as exc:
            bootstrap_strengths(data, b=5, config=FAST, seed=9)
        assert exc.value.replicate == 2  # zero-based, matches sub-seed derivation
        assert "blew up" in str(exc.value)

    @needs_fork
    def test_failing_replicate_mid_chunk_reports_index_with_workers(self, monkeypatch, pools):
        import beliefnet.learn as learn_mod

        data = dependent_pair(n=60, seed=53)
        seed, failing = 11, 30  # b=200, 2 workers: chunks of 25, so 30 is mid-chunk
        bad_weights = replicate_weights(data, seed, failing)

        def flaky(data, weights, **kwargs):
            if np.array_equal(weights, bad_weights):
                raise RuntimeError("replicate blew up")
            return Dag(tuple(v.name for v in data.variables), {})

        monkeypatch.setattr(learn_mod, "tabu_search", flaky)
        with pytest.raises(BootstrapError) as exc:
            bootstrap_strengths(data, b=200, config=FAST, seed=seed, n_jobs=2)
        assert exc.value.replicate == failing
        assert "blew up" in str(exc.value)
        assert pools == [2]

    @needs_fork
    def test_crashed_worker_raises_bootstrap_error(self, monkeypatch, pools):
        import beliefnet.learn as learn_mod

        data = dependent_pair(n=60, seed=59)
        seed, failing = 12, 13
        bad_weights = replicate_weights(data, seed, failing)

        def crashing(data, weights, **kwargs):
            if np.array_equal(weights, bad_weights):
                os._exit(1)
            return Dag(tuple(v.name for v in data.variables), {})

        monkeypatch.setattr(learn_mod, "tabu_search", crashing)
        with pytest.raises(BootstrapError) as exc:
            bootstrap_strengths(data, b=40, config=FAST, seed=seed, n_jobs=2)
        assert exc.value.replicate <= failing
        assert pools == [2]

    @needs_fork
    def test_worker_error_arrives_with_its_cause(self, monkeypatch, pools):
        import beliefnet.learn as learn_mod

        data = dependent_pair(n=60, seed=61)
        seed, failing = 14, 5
        bad_weights = replicate_weights(data, seed, failing)

        def flaky(data, weights, **kwargs):
            if np.array_equal(weights, bad_weights):
                raise UnknownLevel("A", "v9")
            return Dag(tuple(v.name for v in data.variables), {})

        monkeypatch.setattr(learn_mod, "tabu_search", flaky)
        with pytest.raises(BootstrapError) as exc:
            bootstrap_strengths(data, b=8, config=FAST, seed=seed, n_jobs=2)
        assert exc.value.replicate == failing
        cause = exc.value.cause
        assert isinstance(cause, UnknownLevel)
        assert (cause.variable, cause.level) == ("A", "v9")
        assert "has no level 'v9'" in str(exc.value)
        assert pools == [2]

    def test_bootstrap_error_survives_pickling(self):
        err = pickle.loads(pickle.dumps(BootstrapError(3, RuntimeError("x"))))
        assert isinstance(err, BootstrapError)
        assert err.replicate == 3
        assert str(err) == "bootstrap replicate 3 failed: x"


def brute_force_l1_partition(values):
    """Grid-integrated L1 objective; returns the significant subset."""
    values = np.asarray(values, dtype=float)
    grid = np.linspace(0.0, 1.0, 200_001)
    cdf = (values[None, :] <= grid[:, None]).mean(axis=1)
    best_obj, best_sig = np.inf, None
    distinct = sorted(set(values))
    cands = []
    positive = [v for v in distinct if v > 0]
    for v in positive:
        below = [w for w in distinct if w < v]
        prev = below[-1] if below else 0.0
        cands.append((prev + v) / 2)
    if distinct[-1] < 1.0:
        cands.append((distinct[-1] + 1.0) / 2)
    for t in cands:
        c = 1.0 - (values >= t).mean()
        obj = np.trapezoid(np.abs(cdf - c), grid)
        if obj < best_obj - 1e-9:
            best_obj, best_sig = obj, tuple(sorted(v for v in values if v >= t))
    return best_sig


class TestThreshold:
    def test_separable_case(self):
        t = l1_threshold([1.0, 1.0, 0.0])
        assert 0.0 < t <= 1.0
        assert [s for s in (1.0, 1.0, 0.0) if s >= t] == [1.0, 1.0]

    def test_partition_matches_brute_force(self):
        values = [0.9, 0.85, 0.1, 0.05]
        t = l1_threshold(values)
        chosen = tuple(sorted(v for v in values if v >= t))
        assert chosen == (0.85, 0.9)
        assert chosen == brute_force_l1_partition(values)

    def test_random_tables_match_brute_force(self):
        rng = np.random.default_rng(47)
        for _ in range(25):
            values = np.round(rng.random(rng.integers(3, 12)), 3)
            if values.max() <= 0:
                continue
            t = l1_threshold(values)
            chosen = tuple(sorted(v for v in values if v >= t))
            assert chosen == brute_force_l1_partition(values)

    def test_degenerate_all_equal(self):
        # all-or-nothing; the tie-break picks the smaller t, so all arcs stay
        t = l1_threshold([0.5, 0.5, 0.5])
        assert t < 0.5
        assert [s for s in (0.5,) * 3 if s >= t] == [0.5] * 3

    def test_empty(self):
        with pytest.raises(EmptyStrengths):
            l1_threshold([0.0, 0.0])
        with pytest.raises(EmptyStrengths):
            l1_threshold([])

    def test_table_wrapper_includes_zero_pairs(self):
        table = ArcStrengthTable(("A", "B", "C"), 10, {("A", "B"): 10})
        assert sorted(table.all_pair_strengths()) == [0.0, 0.0, 1.0]
        t = optimal_threshold(table)
        assert table.strength("A", "B") >= t


class TestArcStrengthTable:
    def test_unseen_pair_has_no_direction(self):
        table = ArcStrengthTable(("A", "B", "C"), 10, {("A", "B"): 4})
        assert table.strength("A", "C") == 0.0
        assert table.direction("A", "C") == table.direction("C", "A") == 0.0

    def test_refuses_no_replicates_or_an_unknown_arc(self):
        with pytest.raises(ValueError, match="at least one replicate"):
            ArcStrengthTable(("A", "B"), 0, {})
        with pytest.raises(UnknownVariable, match="Z"):
            ArcStrengthTable(("A", "B"), 10, {("A", "Z"): 1})


class TestAveragedNetwork:
    def test_single_arc_majority_direction(self):
        table = ArcStrengthTable(("A", "B"), 10, {("A", "B"): 9, ("B", "A"): 1})
        dag = averaged_network(table, 0.5)
        assert dag.arcs() == [("A", "B")]

    def test_minority_direction_flipped(self):
        table = ArcStrengthTable(("A", "B"), 10, {("A", "B"): 2, ("B", "A"): 8})
        dag = averaged_network(table, 0.5)
        assert dag.arcs() == [("B", "A")]

    def test_cycle_weakest_skipped(self):
        table = ArcStrengthTable(
            ("A", "B", "C"),
            100,
            {("A", "B"): 95, ("B", "C"): 92, ("C", "A"): 90},
        )
        skipped = []
        dag = averaged_network(table, 0.5, skipped=skipped)
        assert set(dag.arcs()) == {("A", "B"), ("B", "C")}
        assert skipped == [("C", "A", 0.9, "cycle")]

    def test_forbidden_arc_skipped_and_logged(self):
        table = ArcStrengthTable(("A", "B"), 10, {("A", "B"): 10})
        skipped = []
        dag = averaged_network(
            table, 0.5, constraints=frozenset([("A", "B")]), skipped=skipped
        )
        assert dag.arcs() == []
        assert skipped[0][3] == "forbidden"

    def test_threshold_bounds(self):
        table = ArcStrengthTable(("A", "B"), 10, {("A", "B"): 10})
        with pytest.raises(ValueError):
            averaged_network(table, 0.0)

    def test_adversarial_random_tables_acyclic_and_constrained(self):
        rng = np.random.default_rng(53)
        for _ in range(150):
            n = int(rng.integers(3, 7))
            names = tuple(f"X{i}" for i in range(n))
            b = 100
            dir_counts = {}
            for i in range(n):
                for j in range(n):
                    if i != j and rng.random() < 0.5:
                        dir_counts[(names[i], names[j])] = int(rng.integers(1, 60))
            # keep pair totals <= b
            for i in range(n):
                for j in range(i + 1, n):
                    a, c = names[i], names[j]
                    total = dir_counts.get((a, c), 0) + dir_counts.get((c, a), 0)
                    if total > b:
                        dir_counts[(a, c)] = max(
                            0, dir_counts.get((a, c), 0) - (total - b)
                        )
            dir_counts = {k: v for k, v in dir_counts.items() if v}
            if not dir_counts:
                continue
            table = ArcStrengthTable(names, b, dir_counts)
            n_tiers = int(rng.integers(1, 4))
            assign = rng.integers(0, n_tiers, n)
            tiers = [
                tuple(names[i] for i in range(n) if assign[i] == t)
                for t in range(n_tiers)
            ]
            tiers = [t for t in tiers if t]
            cons = tiers_to_blacklist(TierSpec(tuple(tiers)), names)
            t = optimal_threshold(table)
            dag = averaged_network(table, t, constraints=cons)  # must not raise
            assert not (set(dag.arcs()) & cons)

    def test_consensus_recovers_generator_skeleton(self):
        data = dependent_pair(n=500, seed=59)
        table = bootstrap_strengths(data, b=30, config=FAST, seed=9)
        t = optimal_threshold(table)
        dag = averaged_network(table, t)
        assert {frozenset(a) for a in dag.arcs()} == {frozenset(("A", "B"))}
