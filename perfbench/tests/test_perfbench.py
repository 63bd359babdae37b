"""Tests of the benchmark itself (not collected by the package's test suite).

    PYTHONPATH=src python -m pytest -q perfbench/tests

Tiny runs of every workload must print every metric BENCHMARK.json names,
with its unit, and pass their checks; every oracle must reject a planted
wrong answer; and the benchmark must fail without printing a result when the
checkout holds nothing but the benchmark.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
from beliefnet import analysis, inference, modelio  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
MODEL = os.path.join(BENCH, "data", "fixture_full.bn.yaml")


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300, env=env)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    detail = json.loads(done.stdout.splitlines()[-2])["perfbench"]
    assert detail["provenance"]["nproc"] >= 1
    assert detail["errors"] == []


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


# -- oracles reject planted wrong answers -------------------------------------
TIERS = {"A": (0, True), "B": (1, True), "C": (1, True)}


def test_dag_oracle():
    assert checks.dag_errors([("A", "B"), ("B", "C")], "ABC", TIERS, "ok") == []
    assert checks.dag_errors([("B", "C"), ("C", "B")], "ABC", TIERS, "cycle")
    assert checks.dag_errors([("B", "A")], "ABC", TIERS, "tier")
    assert checks.dag_errors([("A", "Z")], "ABC", TIERS, "unknown")


def test_tally_digest_tracks_arcs():
    reps = [("full", 0, (("A", "B"),))]
    assert checks.tally_digest(reps) == checks.tally_digest(list(reps))
    assert checks.tally_digest(reps) != checks.tally_digest([("full", 0, (("B", "A"),))])


@pytest.fixture(scope="module")
def sensitivity_case():
    net = modelio.load(MODEL)
    event = ("InterestAI", "Strongly")
    bars = analysis.tornado(net, event, delta=0.1)
    influence = analysis.node_influence(net, event)
    return net, event, bars, influence


def _tornado_errors(net, event, bars, influence):
    return checks.tornado_errors(
        net, event, 0.1, bars, influence, [b.param for b in bars],
        inference.posterior, analysis.perturb_parameter,
    )


def test_tornado_oracle_accepts_the_library(sensitivity_case):
    assert _tornado_errors(*sensitivity_case) == []


def test_tornado_oracle_rejects_shifted_bar(sensitivity_case):
    net, event, bars, influence = sensitivity_case
    bad = list(bars)
    bar = bad[5]
    bad[5] = dataclasses.replace(
        bar, increase=dataclasses.replace(bar.increase, shift=bar.increase.shift + 1e-6)
    )
    assert _tornado_errors(net, event, bad, influence)


def test_tornado_oracle_rejects_missing_bar(sensitivity_case):
    net, event, bars, influence = sensitivity_case
    assert _tornado_errors(net, event, bars[1:], influence)


def test_influence_oracle_rejects_nonzero_off_ancestry(sensitivity_case):
    net, event, bars, influence = sensitivity_case
    bad = dict(influence, AIRegulations=1e-6)
    assert _tornado_errors(net, event, bars, bad)


def test_posterior_oracle():
    net = modelio.load(MODEL)
    target, evidence = "HeardEURegulation", {"Age": "60+", "MediaAI": "No"}
    result = inference.posterior(net, target, evidence)
    order = checks.oracle_order(net, target, evidence, result.elimination_order)
    assert sorted(order) == sorted(result.elimination_order)
    assert order != list(result.elimination_order)
    reference = inference.posterior(net, target, evidence, order=order).distribution
    dist = result.distribution
    assert checks.posterior_errors("ok", dist, reference) == []
    shifted = dist.copy()
    shifted[0] += 1e-6
    assert checks.posterior_errors("shifted", shifted, reference)
    moved = dist.copy()
    moved[0] += 1e-6
    moved[1] -= 1e-6  # still sums to 1
    assert checks.posterior_errors("moved", moved, reference)


def test_oracle_order_avoids_wide_reversals():
    import numpy as np
    import workloads

    net = workloads.random_network(np.random.default_rng(5), 40, "R")
    target = net.dag.nodes[-1]
    order = inference.posterior(net, target).elimination_order
    alt = checks.oracle_order(net, target, {}, order, cap=1)
    assert sorted(alt) == sorted(order)


def test_pipeline_oracle():
    expected = ["models/full.bn.yaml", "reports/a.csv"]
    assert checks.pipeline_errors("ok", {"prep": 0}, set(expected), expected) == []
    assert checks.pipeline_errors("rc", {"prep": 2}, set(expected), expected)
    assert checks.pipeline_errors("missing", {"prep": 0}, {"reports/a.csv"}, expected)


def test_speedometer_scales_by_the_sampled_speed():
    import signal
    import time

    import speed

    meter = speed.Speedometer()
    meter.samples, meter.spent = [2 * speed.REFERENCE_S], 1.0
    mark = (0, 1.0)
    meter.samples.append(4 * speed.REFERENCE_S)  # a sample taken during the job
    meter.spent = 1.25
    own, reference = meter.job(mark, 2.25)
    assert own == pytest.approx(2.0)
    assert reference == pytest.approx(2.0 * (1 / 2 + 1 / 4) / 2)

    before = signal.getsignal(signal.SIGPROF)
    with meter.running():
        end = time.process_time() + 3 * speed.INTERVAL_S
        while time.process_time() < end:
            pass
    assert len(meter.samples) > 2
    assert signal.getsignal(signal.SIGPROF) == before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
