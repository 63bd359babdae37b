"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints (and registers) a single "ACCEPTANCE n: PASS/FAIL" line;
the conftest terminal hook echoes the collected lines after the run.
Criterion 10 needs the restricted GESIS survey file and skips unless
BELIEFNET_GESIS_CSV points at it.
"""

import itertools
import math
import os
import time

import numpy as np
import pytest

import graphutil
import oracles
from conftest import record_acceptance
from netgen import random_evidence, random_net
from beliefnet.analysis import (
    CptParameterId,
    perturb_parameter,
    sensitivity_slope,
    sobol_first_order,
    tornado,
)
from beliefnet.cli import main as cli_main
from beliefnet.data import DataTable, counts
from beliefnet.inference import fit_bayes, posterior, sample
from beliefnet.learn import (
    ArcStrengthTable,
    TabuConfig,
    averaged_network,
    bootstrap_strengths,
    optimal_threshold,
    tabu_search,
    tiers_to_blacklist,
)
from beliefnet.model import (
    CategoricalVariable,
    Cpt,
    Dag,
    FittedNetwork,
    TierSpec,
    d_separated,
    joint_probability,
)
from beliefnet.modelio import load as load_model
from beliefnet.scores import score

FAST = TabuConfig(tenure=5, max_iterations=300, stall_limit=10, restarts=1)


def _report(num, desc, ok, detail=""):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    record_acceptance(line)
    assert ok, line


def _suite_nets(n_nets=200, seed=1202):
    rng = np.random.default_rng(seed)
    for _ in range(n_nets):
        n = int(rng.integers(3, 11))
        net = random_net(rng, n, min_levels=2, max_levels=4, p_arc=0.35)
        target = net.variables[int(rng.integers(n))].name
        evidence = random_evidence(rng, net, max_vars=3, exclude=(target,))
        yield net, target, evidence


def test_criterion_1_and_2_inference_oracle_and_normalization():
    t0 = time.monotonic()
    worst_post = worst_pe = worst_sum = worst_joint = 0.0
    joint_checked = 0
    for net, target, evidence in _suite_nets():
        got = posterior(net, target, evidence)
        want_dist, want_pe = oracles.posterior(net, target, evidence)
        worst_post = max(worst_post, float(np.abs(got.distribution - want_dist).max()))
        worst_pe = max(worst_pe, abs(got.evidence_probability - want_pe))
        worst_sum = max(worst_sum, abs(float(got.distribution.sum()) - 1.0))
        cards = [v.r for v in net.variables]
        if math.prod(cards) <= 4096:  # <= 12 binary-equivalent variables
            total = 0.0
            for combo in itertools.product(*(v.levels for v in net.variables)):
                total += joint_probability(
                    net, dict(zip((v.name for v in net.variables), combo))
                )
            worst_joint = max(worst_joint, abs(total - 1.0))
            joint_checked += 1
    elapsed = time.monotonic() - t0
    _report(
        1,
        "posterior matches full-joint enumeration on 200 random nets within 1e-9, "
        "runtime < 30 s",
        worst_post < 1e-9 and worst_pe < 1e-9 and elapsed < 30,
        f"max dist err {worst_post:.2e}, max P(e) err {worst_pe:.2e}, {elapsed:.1f}s",
    )
    _report(
        2,
        "joint_probability sums to 1 and posteriors sum to 1 within 1e-9",
        worst_joint < 1e-9 and worst_sum < 1e-9,
        f"{joint_checked} full-enumeration nets, max joint err {worst_joint:.2e}, "
        f"max posterior sum err {worst_sum:.2e}",
    )


def test_criterion_3_fit_bayes_closed_form():
    rng = np.random.default_rng(1203)
    worst = 0.0
    zero_rows_uniform = True
    for _ in range(1000):
        r = int(rng.integers(2, 5))
        q_levels = int(rng.integers(2, 4))
        child = CategoricalVariable("X", tuple(f"x{k}" for k in range(r)))
        parent = CategoricalVariable("P", tuple(f"p{k}" for k in range(q_levels)))
        n = int(rng.integers(0, 120))
        codes = np.stack(
            [rng.integers(0, r, n), rng.integers(0, q_levels, n)], axis=1
        ).astype(np.int32)
        data = DataTable((child, parent), codes)
        net = fit_bayes(Dag(("X", "P"), {"X": ("P",)}), data, alpha=1.0)
        ct = counts(data, "X", ["P"])
        # independent recomputation of (N_ijk + 1) / (N_ij + r)
        expected = np.empty((q_levels, r))
        for j in range(q_levels):
            for k in range(r):
                expected[j, k] = (ct.counts[j, k] + 1.0) / (ct.n_ij[j] + r)
        worst = max(worst, float(np.abs(net.cpts["X"].table - expected).max()))
        for j in range(q_levels):
            if ct.n_ij[j] == 0 and not np.allclose(
                net.cpts["X"].table[j], 1.0 / r, atol=1e-15
            ):
                zero_rows_uniform = False
    _report(
        3,
        "fit_bayes reproduces (N_ijk+1)/(N_ij+r_i) exactly on 1000 random tables, "
        "empty rows uniform",
        worst <= 1e-15 and zero_rows_uniform,
        f"max abs err {worst:.2e}",
    )


def _brute_force_aic(net_vars, codes, parents_map):
    """Independent single-pass AIC: dict tallies, explicit penalty."""
    cards = {v.name: v.r for v in net_vars}
    col = {v.name: i for i, v in enumerate(net_vars)}
    total = 0.0
    d = 0
    for v in net_vars:
        ps = parents_map.get(v.name, ())
        tally = {}
        group = {}
        for row in codes:
            key = tuple(row[col[p]] for p in ps)
            tally[(key, row[col[v.name]])] = tally.get((key, row[col[v.name]]), 0) + 1
            group[key] = group.get(key, 0) + 1
        for (key, _k), n_ijk in tally.items():
            total += n_ijk * math.log(n_ijk / group[key])
        q = 1
        for p in ps:
            q *= cards[p]
        d += q * (cards[v.name] - 1)
    return total - d


def test_criterion_4_score_correctness():
    rng = np.random.default_rng(1204)
    worst = 0.0
    for _ in range(20):
        variables = tuple(
            CategoricalVariable(f"V{i}", tuple(f"l{k}" for k in range(int(rng.integers(2, 4)))))
            for i in range(4)
        )
        codes = np.stack(
            [rng.integers(0, v.r, 300) for v in variables], axis=1
        ).astype(np.int32)
        data = DataTable(variables, codes)
        parents_map = {"V1": ("V0",), "V2": ("V0", "V1"), "V3": ("V2",)}
        dag = Dag(tuple(v.name for v in variables), parents_map)
        got = score(dag, data, "AIC")
        want = _brute_force_aic(variables, codes, parents_map)
        worst = max(worst, abs(got - want))

    # independent 5-level columns: the arc's 16-parameter penalty dominates
    # the chi-square likelihood gain in ~99% of resamples
    decreases = 0
    for trial in range(100):
        trial_rng = np.random.default_rng(52000 + trial)
        a = CategoricalVariable("A", tuple(f"a{k}" for k in range(5)))
        b = CategoricalVariable("B", tuple(f"b{k}" for k in range(5)))
        codes = np.stack(
            [trial_rng.integers(0, 5, 1000), trial_rng.integers(0, 5, 1000)], axis=1
        ).astype(np.int32)
        data = DataTable((a, b), codes)
        empty = score(Dag(("A", "B")), data, "AIC")
        with_arc = score(Dag(("A", "B"), {"B": ("A",)}), data, "AIC")
        if with_arc < empty:
            decreases += 1
    _report(
        4,
        "AIC matches independent recomputation within 1e-9; spurious arc lowers "
        "AIC in >= 95/100 independent-column trials",
        worst < 1e-9 and decreases >= 95,
        f"max err {worst:.2e}, decreases {decreases}/100",
    )


def test_criterion_5_structure_recovery():
    truth = load_model("fixtures/chain6.bn.yaml")
    true_pattern = graphutil.cpdag(truth.dag)
    t0 = time.monotonic()
    hits = 0
    for seed in range(20):
        data = sample(truth, 20_000, seed=7000 + seed)
        learned = tabu_search(data, score="AIC", config=FAST)
        pattern = graphutil.cpdag(learned)
        if graphutil.shd(pattern, true_pattern, truth.dag.nodes) <= 2:
            hits += 1
    elapsed = time.monotonic() - t0
    _report(
        5,
        "tabu+AIC recovers the 6-node generator CPDAG with SHD <= 2 in >= 18/20 "
        "seeds, < 60 s",
        hits >= 18 and elapsed < 60,
        f"hits {hits}/20, {elapsed:.1f}s",
    )


def test_criterion_6_bootstrap_consensus():
    truth = load_model("fixtures/chain6.bn.yaml")
    data = sample(truth, 20_000, seed=7777)
    strengths = bootstrap_strengths(
        data, b=200, score="AIC", config=FAST, seed=99, n_jobs=2
    )
    true_arcs = truth.dag.arcs()
    min_strength = min(strengths.strength(a, b) for a, b in true_arcs)
    threshold = optimal_threshold(strengths)
    consensus = averaged_network(strengths, threshold)
    acyclic = True  # Dag construction would have raised otherwise

    rng = np.random.default_rng(1206)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(3, 7))
        names = tuple(f"X{i}" for i in range(n))
        dir_counts = {}
        for i in range(n):
            for j in range(i + 1, n):
                total = int(rng.integers(0, 101))
                if total == 0:
                    continue
                fwd = int(rng.integers(0, total + 1))
                if fwd:
                    dir_counts[(names[i], names[j])] = fwd
                if total - fwd:
                    dir_counts[(names[j], names[i])] = total - fwd
        if not dir_counts:
            continue
        table = ArcStrengthTable(names, 100, dir_counts)
        n_tiers = int(rng.integers(1, 4))
        assign = rng.integers(0, n_tiers, n)
        tiers = [
            tuple(names[i] for i in range(n) if assign[i] == t) for t in range(n_tiers)
        ]
        cons = tiers_to_blacklist(TierSpec(tuple(t for t in tiers if t)), names)
        try:
            dag = averaged_network(table, optimal_threshold(table), constraints=cons)
        except Exception:
            violations += 1
            continue
        if set(dag.arcs()) & cons.forbidden:
            violations += 1
    _report(
        6,
        "every true arc has bootstrap strength >= 0.8 (B=200); consensus acyclic; "
        "no blacklisted arc in 1000 adversarial averaged runs",
        min_strength >= 0.8 and acyclic and violations == 0,
        f"min true-arc strength {min_strength:.3f}, threshold {threshold:.3f}, "
        f"violations {violations}",
    )


def test_criterion_7_sobol_correctness():
    copy = FittedNetwork(
        (
            CategoricalVariable("X", ("x0", "x1")),
            CategoricalVariable("Y", ("y0", "y1")),
        ),
        Dag(("X", "Y"), {"Y": ("X",)}),
        {
            "X": Cpt("X", (), [[0.35, 0.65]]),
            "Y": Cpt("Y", ("X",), [[1.0, 0.0], [0.0, 1.0]]),
        },
    )
    copy_ok = abs(sobol_first_order(copy, "Y", "X").aggregate - 1.0) <= 1e-9

    rng = np.random.default_rng(1207)
    worst = 0.0
    bounds_ok = True
    dsep_ok = True
    checked = 0
    while checked < 50:
        net = random_net(rng, 5)
        names = [v.name for v in net.variables]
        y, x = (names[int(i)] for i in rng.choice(5, 2, replace=False))
        res = sobol_first_order(net, y, x)
        per_state, aggregate = oracles.sobol_first_order(net, y, x)
        worst = max(
            worst,
            float(np.abs(res.per_state - per_state).max()),
            abs(res.aggregate - aggregate),
        )
        if not (-1e-9 <= res.aggregate <= 1 + 1e-9) or np.any(
            res.per_state < -1e-9
        ) or np.any(res.per_state > 1 + 1e-9):
            bounds_ok = False
        if d_separated(net.dag, x, y, ()) and res.aggregate != 0.0:
            dsep_ok = False
        checked += 1
    _report(
        7,
        "Sobol: copy net S=1, d-separated S=0, 50 random nets match enumeration "
        "within 1e-9, indices within [0, 1]",
        copy_ok and dsep_ok and bounds_ok and worst < 1e-9,
        f"max err {worst:.2e}",
    )


def test_criterion_8_sensitivity_correctness():
    rng = np.random.default_rng(1208)
    worst_fd = 0.0
    worst_col = 0.0
    worst_bar = 0.0
    checked = 0
    while checked < 500:
        net = random_net(rng, int(rng.integers(3, 6)))
        names = [v.name for v in net.variables]
        target = names[int(rng.integers(len(names)))]
        t_var = net.variable(target)
        event = (target, t_var.levels[int(rng.integers(t_var.r))])
        p_name = names[int(rng.integers(len(names)))]
        cpt = net.cpts[p_name]
        param = CptParameterId(
            p_name, int(rng.integers(cpt.q)), int(rng.integers(cpt.r))
        )
        theta = float(cpt.table[param.config, param.state])
        eps = 1e-4
        if theta - eps < 0.0 or theta + eps > 1.0:
            continue
        slope = sensitivity_slope(net, event, param)
        lo = oracles.posterior(perturb_parameter(net, param, theta - eps), target)[0][
            t_var.level_index(event[1])
        ]
        hi = oracles.posterior(perturb_parameter(net, param, theta + eps), target)[0][
            t_var.level_index(event[1])
        ]
        worst_fd = max(worst_fd, abs(slope - (hi - lo) / (2 * eps)))

        if checked < 100:
            h1 = (1.0 - theta) / 3
            h2 = 2 * (1.0 - theta) / 3
            p0 = posterior(net, target)[event[1]]
            p1 = posterior(perturb_parameter(net, param, theta + h1), target)[event[1]]
            p2 = posterior(perturb_parameter(net, param, theta + h2), target)[event[1]]
            worst_col = max(worst_col, abs((p1 - p0) / h1 - (p2 - p0) / h2))
        checked += 1

    bar_net = random_net(np.random.default_rng(4242), 5)
    names = [v.name for v in bar_net.variables]
    target = names[-1]
    event = (target, bar_net.variable(target).levels[0])
    delta = 0.05
    for bar in tornado(bar_net, event, delta=delta):
        theta = float(
            bar_net.cpts[bar.param.variable].table[bar.param.config, bar.param.state]
        )
        if 1.0 - theta == 0.0:
            continue
        slope = sensitivity_slope(bar_net, event, bar.param)
        worst_bar = max(
            worst_bar,
            abs(bar.increase.shift - slope * bar.increase.delta),
            abs(bar.decrease.shift + slope * bar.decrease.delta),
        )
    _report(
        8,
        "gradient slopes match central differences (1e-6) on 500 triples; "
        "three-point collinearity 1e-10; tornado shifts = slope x delta (1e-9)",
        worst_fd < 1e-6 and worst_col < 1e-10 and worst_bar < 1e-9,
        f"fd {worst_fd:.2e}, collinearity {worst_col:.2e}, bars {worst_bar:.2e}",
    )


def _run_pipeline(root, workers):
    args = [
        "prep", "--raw", "fixtures/synthetic_survey.csv",
        "--recode", "fixtures/prep.yaml", "--themes", "fixtures/themes.yaml",
        "--workspace", str(root), "--name", "survey",
    ]
    assert cli_main(args) == 0
    assert cli_main(
        [
            "learn", "--data", str(root / "data" / "survey_full.csv"),
            "--dict", str(root / "data" / "survey_full.dict.yaml"),
            "--tiers", "fixtures/tiers_full.yaml",
            "--config", "fixtures/learn_fast.yaml",
            "--seed", "20230626", "--workers", str(workers),
            "--workspace", str(root), "--name", "full",
        ]
    ) == 0
    model = str(root / "models" / "full.bn.yaml")
    for cmd, cfg in (
        ("sobol", "fixtures/sobol.yaml"),
        ("scenario", "fixtures/scenarios.yaml"),
        ("sensitivity", "fixtures/sensitivity.yaml"),
    ):
        assert cli_main(
            [
                cmd, "--model", model, "--config", cfg, "--workspace", str(root),
                "--name", "rep", "--workers", str(workers), "--no-timestamp",
            ]
        ) == 0


def _artifact_bytes(root):
    out = {}
    for sub in ("data", "models", "strengths", "reports"):
        base = root / sub
        for path in sorted(base.rglob("*")):
            if path.suffix in (".csv", ".yaml", ".svg", ".dot") and "manifest" not in path.name:
                out[str(path.relative_to(root))] = path.read_bytes()
    return out


@pytest.mark.slow
def test_criterion_9_pipeline_determinism(tmp_path):
    runs = {}
    for label, workers in (("a", 1), ("b", 1), ("c", 2)):
        root = tmp_path / label
        _run_pipeline(root, workers)
        runs[label] = _artifact_bytes(root)
    same_names = set(runs["a"]) == set(runs["b"]) == set(runs["c"])
    identical = same_names and all(
        runs["a"][k] == runs["b"][k] == runs["c"][k] for k in runs["a"]
    )
    _report(
        9,
        "prep -> learn (B=200, fixed seed) -> sobol/scenario/sensitivity is "
        "byte-identical across two runs and across 1 vs 2 workers",
        identical,
        f"{len(runs['a'])} artifacts compared",
    )


GESIS_ENV = "BELIEFNET_GESIS_CSV"


def test_criterion_10_conditional_paper_reproduction(tmp_path):
    path = os.environ.get(GESIS_ENV)
    if not path:
        line = (
            "ACCEPTANCE 10: SKIP - conditional paper reproduction "
            f"(set {GESIS_ENV} to the ZA7929-equivalent CSV to run)"
        )
        print(line)
        record_acceptance(line)
        pytest.skip(f"{GESIS_ENV} not set; the GESIS survey file is access-restricted")
    b = int(os.environ.get("BELIEFNET_GESIS_BOOTSTRAP", "200"))
    prep_cfg = os.environ.get("BELIEFNET_GESIS_PREP", "configs/gesis/prep.yaml")
    root = tmp_path / "gesis"
    assert cli_main(
        [
            "prep", "--raw", path, "--recode", prep_cfg, "--no-split",
            "--workspace", str(root), "--name", "gesis",
        ]
    ) == 0
    assert cli_main(
        [
            "learn", "--data", str(root / "data" / "gesis_full.csv"),
            "--dict", str(root / "data" / "gesis_full.dict.yaml"),
            "--tiers", "configs/gesis/tiers.yaml",
            "--config", "configs/gesis/learn.yaml", "--bootstrap", str(b),
            "--seed", "20230626", "--workers", "2",
            "--workspace", str(root), "--name", "full",
        ]
    ) == 0
    net = load_model(root / "models" / "full.bn.yaml")
    develop = posterior(net, "DevelopAI")
    aireg = posterior(net, "AIRegulations")
    heard = posterior(net, "HeardEURegulation")
    sobol = sobol_first_order(net, "HeardEURegulation", "InterestAI").aggregate * 100
    ok = (
        abs(develop["Both"] - 0.2143) <= 0.005
        and abs(develop["Opportunity"] - 0.3666) <= 0.005
        and abs(develop["Risk"] - 0.4191) <= 0.005
        and abs(aireg["Yes"] - 0.9004) <= 0.005
        and abs(heard["Yes"] - 0.2259) <= 0.005
        and abs(sobol - 70.0) <= 3.0
    )
    _report(
        10,
        "baselines and InterestAI->HeardEURegulation Sobol match the published "
        "values (encoding caveat recorded)",
        ok,
        f"DevelopAI=({develop['Both']:.4f},{develop['Opportunity']:.4f},"
        f"{develop['Risk']:.4f}), AIReg yes={aireg['Yes']:.4f}, "
        f"HeardEU yes={heard['Yes']:.4f}, sobol={sobol:.1f}%",
    )
