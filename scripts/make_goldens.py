#!/usr/bin/env python3
"""Regenerate the golden files in fixtures/ (deterministic).

With no option it writes the hand-built model files. With ``--search`` it
writes ``fixtures/search_goldens.json``: bootstrap arc tallies and one
faithful-settings tabu search on the fixture's full and risk tables. Those
goldens pin the search's exact move sequence, so regenerate them only when a
change to the search is meant to change its results. With ``--pipeline`` it
writes ``fixtures/pipeline_goldens.json``: the sha256 of every artifact but
the manifests of one CLI run over the fixture (prep, learn, query, sobol,
scenario, sensitivity, export), which pins the bytes the file writers emit.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from beliefnet import cli, configio
from beliefnet.data import load_datatable
from beliefnet.learn import (
    TabuConfig,
    TabuLog,
    bootstrap_strengths,
    tabu_search,
    tiers_to_blacklist,
)
from beliefnet.model import CategoricalVariable, Cpt, Dag, FittedNetwork
from beliefnet.modelio import save

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
SEARCH_GOLDENS = os.path.join(FIXTURES, "search_goldens.json")
SEARCH_SEED = 42
SEARCH_B = 16  # replicates per table: small enough for the tier-1 suite
PIPELINE_GOLDENS = os.path.join(FIXTURES, "pipeline_goldens.json")
PIPELINE_SEED = 20230626
PIPELINE_B = 6


def mini_net():
    """Textbook sprinkler net: small, hand-set, easy to eyeball in the file."""
    variables = (
        CategoricalVariable("Rain", ("no", "yes")),
        CategoricalVariable("Sprinkler", ("off", "on")),
        CategoricalVariable("WetGrass", ("dry", "wet")),
    )
    dag = Dag(
        ("Rain", "Sprinkler", "WetGrass"),
        {"Sprinkler": ("Rain",), "WetGrass": ("Rain", "Sprinkler")},
    )
    cpts = {
        "Rain": Cpt("Rain", (), [[0.8, 0.2]]),
        "Sprinkler": Cpt("Sprinkler", ("Rain",), [[0.6, 0.4], [0.99, 0.01]]),
        "WetGrass": Cpt(
            "WetGrass",
            ("Rain", "Sprinkler"),
            [[1.0, 0.0], [0.1, 0.9], [0.2, 0.8], [0.01, 0.99]],
        ),
    }
    return FittedNetwork(
        variables, dag, cpts, metadata={"score": "hand-built", "seed": "0"}
    )


def chain6_net():
    """Six-node chain with strong links; the structure-recovery generator.

    Four-level nodes keep the AIC penalty for a spurious extra parent high
    (36 free parameters), so recovery is stable at the 20k-row test scale.
    """
    cards = [4, 4, 4, 4, 4, 4]
    names = [f"N{i}" for i in range(6)]
    variables = tuple(
        CategoricalVariable(n, tuple(f"s{k}" for k in range(c)))
        for n, c in zip(names, cards)
    )
    dag = Dag(tuple(names), {names[i]: (names[i - 1],) for i in range(1, 6)})
    rng = np.random.default_rng(606)
    cpts = {names[0]: Cpt(names[0], (), [[0.4, 0.3, 0.2, 0.1]])}
    for i in range(1, 6):
        q, r = cards[i - 1], cards[i]
        rows = np.full((q, r), 0.2 / (r - 1))
        for j in range(q):
            rows[j, j % r] = 0.8
        # nudge rows apart so no two parent levels are interchangeable
        rows = rows + rng.dirichlet([1] * r, size=q) * 0.08
        rows = rows / rows.sum(axis=1, keepdims=True)
        cpts[names[i]] = Cpt(names[i], (names[i - 1],), rows)
    return FittedNetwork(
        variables, dag, cpts, metadata={"score": "hand-built", "seed": "606"}
    )


def fixture_tables(workdir):
    """{kind: (DataTable, forbidden arcs)} for the fixture's full and risk tables.

    The tables come from the CLI ``prep`` stage run into ``workdir``; the
    forbidden arcs are the frozensets ``tiers_to_blacklist`` builds from the
    matching tier files.
    """
    fixture = lambda name: os.path.join(FIXTURES, name)  # noqa: E731
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([
            "prep", "--raw", fixture("synthetic_survey.csv"),
            "--recode", fixture("prep.yaml"), "--themes", fixture("themes.yaml"),
            "--name", "survey", "--workspace", workdir,
        ])
    if code != 0:
        raise RuntimeError(f"prep failed with exit code {code}")
    out = {}
    for kind in ("full", "risk"):
        stem = os.path.join(workdir, "data", f"survey_{kind}")
        data = load_datatable(stem + ".csv", stem + ".dict.yaml")
        tiers = configio.load_tier_config(fixture(f"tiers_{kind}.yaml"))
        out[kind] = (data, tiers_to_blacklist(tiers, [v.name for v in data.variables]))
    return out


def search_goldens(workdir):
    """The search results pinned by fixtures/search_goldens.json."""
    *_, fast = configio.load_learn_config(os.path.join(FIXTURES, "learn_fast.yaml"))
    fast = dataclasses.replace(fast, seed=SEARCH_SEED)
    doc = {"seed": SEARCH_SEED, "bootstrap_b": SEARCH_B, "bootstrap": {}}
    tables = fixture_tables(workdir)
    for kind, (data, constraints) in tables.items():
        strengths = bootstrap_strengths(
            data, b=SEARCH_B, constraints=constraints, config=fast, seed=SEARCH_SEED
        )
        doc["bootstrap"][kind] = {
            f"{a} -> {b}": n for (a, b), n in strengths.dir_counts.items()
        }
    data, constraints = tables["risk"]
    log = TabuLog()
    faithful = TabuConfig(tenure=10, max_iterations=1000, stall_limit=100, seed=SEARCH_SEED)
    dag = tabu_search(data, constraints=constraints, config=faithful, log=log)
    doc["tabu_risk_faithful"] = {
        "arcs": [f"{a} -> {b}" for a, b in dag.arcs()],
        "iterations": log.iterations,
        "cache_misses": log.cache_misses,
        "best_scores": log.best_scores,
    }
    return doc


def _quiet_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"beliefnet {argv[0]} failed with exit code {code}")


def pipeline_goldens(workdir):
    """{artifact path: sha256} for one fixture run of every CLI stage into
    ``workdir``/ws.

    Manifests hold timings and are left out; every listed file is
    deterministic. Sensitivity and export shade InterestAI=Strongly, which
    has few ancestors, so the run stays a few seconds long.
    """
    fixture = lambda name: os.path.join(FIXTURES, name)  # noqa: E731
    workspace = os.path.join(workdir, "ws")
    ws = ["--workspace", workspace]
    data = os.path.join(workspace, "data", "survey_full")
    model = os.path.join(workspace, "models", "full.bn.yaml")
    configs = {cmd: fixture(f"{cmd}.yaml") for cmd in ("query", "sobol", "scenarios")}
    configs["sensitivity"] = os.path.join(workdir, "sensitivity.yaml")
    with open(configs["sensitivity"], "w", encoding="utf-8") as fh:
        fh.write("format: beliefnet-sensitivity\nversion: 1\n"
                 "target: {variable: InterestAI, state: Strongly}\ndelta: 0.1\n")
    _quiet_cli(["prep", "--raw", fixture("synthetic_survey.csv"), "--recode",
                fixture("prep.yaml"), "--themes", fixture("themes.yaml"),
                "--name", "survey"] + ws)
    _quiet_cli(["learn", "--data", data + ".csv", "--dict", data + ".dict.yaml",
                "--tiers", fixture("tiers_full.yaml"), "--config", fixture("learn_fast.yaml"),
                "--bootstrap", str(PIPELINE_B), "--seed", str(PIPELINE_SEED),
                "--name", "full"] + ws)
    for cmd, config in (("query", configs["query"]), ("sobol", configs["sobol"]),
                        ("scenario", configs["scenarios"]),
                        ("sensitivity", configs["sensitivity"])):
        _quiet_cli([cmd, "--model", model, "--config", config, "--name", "rep"] + ws)
    _quiet_cli(["export", "--model", model, "--influence", "InterestAI=Strongly",
                "--name", "shaded"] + ws)
    digests = {}
    for base, _, files in os.walk(workspace):
        for name in files:
            if "manifest" in name:
                continue
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                rel = os.path.relpath(path, workspace).replace(os.sep, "/")
                digests[rel] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def dump_goldens(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group()
    which.add_argument("--search", action="store_true",
                       help="write fixtures/search_goldens.json instead of the model files")
    which.add_argument("--pipeline", action="store_true",
                       help="write fixtures/pipeline_goldens.json instead of the model files")
    args = parser.parse_args(argv)
    os.makedirs(FIXTURES, exist_ok=True)
    if args.search or args.pipeline:
        make, path = (search_goldens, SEARCH_GOLDENS) if args.search else (
            pipeline_goldens, PIPELINE_GOLDENS)
        with tempfile.TemporaryDirectory() as work:
            text = dump_goldens(make(work))
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        print(f"wrote fixtures/{os.path.basename(path)}")
        return
    save(mini_net(), os.path.join(FIXTURES, "mini.bn.yaml"))
    save(chain6_net(), os.path.join(FIXTURES, "chain6.bn.yaml"))
    print("wrote fixtures/mini.bn.yaml and fixtures/chain6.bn.yaml")


if __name__ == "__main__":
    main()
