"""The tabu search against its goldens and against the slow reference search;
the CLI pipeline's artifacts against theirs."""

import importlib.util
import os

import numpy as np
import pytest

import reference_search
from beliefnet import reports
from beliefnet.data import DataTable
from beliefnet.inference import sample
from beliefnet.learn import Constraints, TabuConfig, TabuLog, tabu_search, tiers_to_blacklist
from beliefnet.model import CategoricalVariable, TierSpec
from netgen import random_net

ROOT = os.path.join(os.path.dirname(__file__), "..")


def _make_goldens():
    path = os.path.join(ROOT, "scripts", "make_goldens.py")
    spec = importlib.util.spec_from_file_location("make_goldens", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_search_goldens_byte_identical(tmp_path):
    goldens = _make_goldens()
    with open(goldens.SEARCH_GOLDENS, encoding="utf-8") as fh:
        want = fh.read()
    got = goldens.dump_goldens(goldens.search_goldens(str(tmp_path / "ws")))
    assert got == want, "search results moved; rerun scripts/make_goldens.py --search only if intended"


def test_pipeline_goldens_byte_identical(tmp_path):
    goldens = _make_goldens()
    with open(goldens.PIPELINE_GOLDENS, encoding="utf-8") as fh:
        want = fh.read()
    got = goldens.dump_goldens(goldens.pipeline_goldens(str(tmp_path)))
    assert got == want, "artifact bytes moved; rerun scripts/make_goldens.py --pipeline only if intended"


def test_pipeline_writes_every_file_once_through_write_text(tmp_path, monkeypatch):
    written, write_text = [], reports.write_text

    def record(path, content):
        written.append(os.path.realpath(path))
        write_text(path, content)

    monkeypatch.setattr(reports, "write_text", record)
    _make_goldens().pipeline_goldens(str(tmp_path))
    left = [os.path.realpath(os.path.join(base, name))
            for base, _, files in os.walk(tmp_path / "ws") for name in files]
    assert sum("manifest" in path for path in left) == 7
    assert sorted(written) == sorted(left)


def _random_table(rng):
    net = random_net(rng, int(rng.integers(4, 8)), p_arc=0.5, concentration=0.5)
    data = sample(net, int(rng.integers(150, 600)), seed=int(rng.integers(1 << 30)))
    if rng.random() < 0.5:
        # an exact copy of a column makes equal-score candidates, so the
        # enumeration-order tie rule decides between them
        j = int(rng.integers(len(data.variables)))
        var = data.variables[j]
        copy = CategoricalVariable(var.name + "_copy", var.levels)
        codes = np.concatenate([data.codes, data.codes[:, j:j + 1]], axis=1)
        data = DataTable(data.variables + (copy,), codes)
    return data


def _random_tiers(rng, names):
    n_tiers = int(rng.integers(2, 4))
    assign = rng.integers(0, n_tiers, len(names))
    tiers = tuple(
        tuple(n for n, t in zip(names, assign) if t == k) for k in range(n_tiers)
    )
    tiers = tuple(t for t in tiers if t)
    within = tuple(bool(rng.random() < 0.8) for _ in tiers)
    return tiers_to_blacklist(TierSpec(tiers, within_tier_edges=within), names)


def _run(search, data, constraints, config, **kwargs):
    log = TabuLog()
    dag = search(data, constraints=constraints, config=config, log=log, **kwargs)
    return dag.parents, log.best_scores, log.iterations, log.restarts, log.cache_misses


@pytest.mark.parametrize("case", ["plain", "tiers", "restarts", "required", "weighted"])
def test_matches_full_rescan_reference(case):
    rng = np.random.default_rng(
        {"plain": 61, "tiers": 67, "restarts": 71, "required": 73, "weighted": 79}[case]
    )
    for _ in range(6):
        data = _random_table(rng)
        names = [v.name for v in data.variables]
        constraints = None
        if case in ("tiers", "weighted"):
            constraints = _random_tiers(rng, names)
        elif case == "required":
            a, b = sorted(rng.choice(len(names), 2, replace=False))
            constraints = Constraints(
                forbidden=[(names[-1], names[0])], required=[(names[a], names[b])]
            )
        config = TabuConfig(
            tenure=int(rng.integers(2, 8)),
            max_iterations=200,
            stall_limit=int(rng.integers(3, 20)),
            restarts=3 if case == "restarts" else 1,
            seed=int(rng.integers(1 << 20)),
        )
        if case == "weighted":
            # a bootstrap replicate: the original rows with their draw counts
            idx = rng.integers(0, data.n_rows, data.n_rows)
            weights = np.bincount(idx, minlength=data.n_rows)
            fast = _run(tabu_search, data, constraints, config, weights=weights)
            slow = _run(reference_search.tabu_search, data.take(idx), constraints, config)
        else:
            fast = _run(tabu_search, data, constraints, config)
            slow = _run(reference_search.tabu_search, data, constraints, config)
        assert fast == slow

