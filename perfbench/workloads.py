"""The four benchmark workloads.

A workload builds its inputs from the seed in ``setup`` (called several
times; the runner reports the median), warms up once, then runs numbered
jobs. Each job times its operations through the recorder (one bootstrap
replicate, one sensitivity analysis, one query, one CLI stage) and returns what the
oracles in ``checks`` need. Library calls go through module attributes
(``learn.bootstrap_strengths``, not a local alias) so the traced run can
wrap them.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import shutil
import time

import numpy as np
import yaml

import checks
from stats import median, percentile
from tracing import CLI_STAGES
from beliefnet import analysis, cli, configio, inference, learn, modelio
from beliefnet.data import load_datatable
from beliefnet.model import CategoricalVariable, Cpt, Dag, FittedNetwork

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_MODEL = os.path.join(HERE, "data", "fixture_full.bn.yaml")


class MissingInput(Exception):
    pass


def _quiet_cli(argv):
    """Run one CLI command in-process with its console output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"beliefnet {argv[0]} exited {rc}: {sink.getvalue().strip()}")
    return rc


class Workload:
    def __init__(self, root, seed, scale):
        self.root = root
        self.seed = seed
        self.tiny = scale == "tiny"
        self.work = os.path.join(root, ".perfbench_work", f"{self.name}-{os.getpid()}")
        for path in self.required():
            if not os.path.exists(path):
                raise MissingInput(f"missing input {path}")
        os.makedirs(self.work, exist_ok=True)

    def fixture(self, name):
        return os.path.join(self.root, "fixtures", name)

    def required(self):
        return [REFERENCE_MODEL]

    def warmup(self):
        pass

    def after_job(self, j, output):
        pass

    def minfill_sample(self):
        return []

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's workspace
            os.rmdir(os.path.dirname(self.work))


def _prep_tables(work, fixture):
    """The fixture survey prepared by the CLI ``prep`` stage; {kind: DataTable}."""
    shutil.rmtree(work, ignore_errors=True)
    _quiet_cli([
        "prep", "--raw", fixture("synthetic_survey.csv"), "--recode", fixture("prep.yaml"),
        "--themes", fixture("themes.yaml"), "--name", "survey", "--workspace", work,
    ])
    out = {}
    for kind in ("full", "risk"):
        stem = os.path.join(work, "data", f"survey_{kind}")
        out[kind] = load_datatable(stem + ".csv", stem + ".dict.yaml")
    return out


class LearnBootstrap(Workload):
    """Bootstrap structure learning on the fixture's full and risk tables.

    A job runs K single-replicate ``bootstrap_strengths`` calls per table at
    the faithful tabu settings of ``configs/gesis/learn.yaml`` (tenure 10,
    max 1000 iterations, stall 100), then the consensus network of those K
    replicates. One operation is one replicate.
    """

    name = "learn-bootstrap"

    def required(self):
        return [self.fixture(n) for n in (
            "synthetic_survey.csv", "prep.yaml", "themes.yaml", "tiers_full.yaml", "tiers_risk.yaml"
        )]

    def setup(self):
        self.k = 1 if self.tiny else 2  # replicates per table per job
        tables = _prep_tables(os.path.join(self.work, "prep"), self.fixture)
        self.tables = []
        for kind in ("full", "risk"):
            data = tables[kind]
            names = [v.name for v in data.variables]
            tier_path = self.fixture(f"tiers_{kind}.yaml")
            constraints = learn.tiers_to_blacklist(configio.load_tier_config(tier_path), names)
            self.tables.append((kind, data, names, constraints, checks.tier_table(tier_path)))

    def tabu(self, seed):
        if self.tiny:
            return learn.TabuConfig(tenure=10, max_iterations=400, stall_limit=15, seed=seed)
        return learn.TabuConfig(tenure=10, max_iterations=1000, stall_limit=100, seed=seed)

    def replicate_seed(self, j, k):
        return (self.seed << 24) | (j << 10) | k

    def warmup(self):
        for kind, data, names, constraints, _ in self.tables:
            learn.bootstrap_strengths(data, b=1, constraints=constraints,
                                      config=self.tabu(0), seed=2**40)

    def job(self, j, rec):
        out = []
        for kind, data, names, constraints, _ in self.tables:
            tally, reps = {}, []
            for k in range(self.k):
                seed = self.replicate_seed(j, k)
                table = rec.op(
                    "op.replicate", learn.bootstrap_strengths, data, b=1, score="AIC",
                    constraints=constraints, config=self.tabu(seed), seed=seed,
                )
                arcs = tuple(
                    (a, b) for a in names for b in names
                    if a != b and table.arc_frequency(a, b) > 0.0
                )
                for arc in arcs:
                    tally[arc] = tally.get(arc, 0) + 1
                reps.append(arcs)
            strengths = learn.ArcStrengthTable(names, self.k, tally)
            threshold = learn.optimal_threshold(strengths)
            consensus = learn.averaged_network(strengths, threshold, names, constraints)
            out.append((kind, reps, tuple(consensus.arcs())))
        return out

    def check(self, outputs):
        errors = []
        tiers = {kind: (names, tier) for kind, _, names, _, tier in self.tables}
        for j, job in enumerate(outputs):
            for kind, reps, consensus in job:
                names, tier = tiers[kind]
                for k, arcs in enumerate(reps):
                    errors += checks.dag_errors(arcs, names, tier, f"job {j} {kind} replicate {k}")
                errors += checks.dag_errors(consensus, names, tier, f"job {j} {kind} consensus")
        if outputs:
            self.digest = checks.tally_digest(
                [(kind, k, arcs) for kind, reps, _ in outputs[0] for k, arcs in enumerate(reps)]
            )
        return errors

    def named_metrics(self, jobs, ops):
        # operations run K per table, tables in turn
        split = {
            kind: [t for n, t in enumerate(ops) if (n // self.k) % len(self.tables) == i]
            for i, (kind, *_) in enumerate(self.tables)
        }
        named = {
            "learn_s": median(jobs),
            "replicate_p50_ms": percentile(ops, 50) * 1e3,
            "replicate_p90_ms": percentile(ops, 90) * 1e3,
            "replicates": len(ops),
            "replicates_per_table_per_job": self.k,
            "arc_tally_sha256_job0": getattr(self, "digest", None),
        }
        for kind, times in split.items():
            named[f"replicate_{kind}_p50_ms"] = percentile(times, 50) * 1e3
        return named


class Sensitivity(Workload):
    """``tornado`` + ``node_influence`` for HeardEURegulation=No (delta 0.1).

    The model is the fixture model kept with the benchmark (learned at seed
    42 with ``fixtures/learn_fast.yaml``: B=200, 33 arcs, 1082 tornado bars),
    so set-up only loads it. The seed picks the parameters the oracle
    re-derives. One operation is the pair of calls, as the CLI's sensitivity
    stage makes them.
    """

    name = "sensitivity"

    def setup(self):
        self.net = modelio.load(REFERENCE_MODEL)
        # tiny: an event with 4 ancestors and 66 parameters
        self.event = ("InterestAI", "Strongly") if self.tiny else ("HeardEURegulation", "No")
        self.delta = 0.1
        self.split = []  # (tornado s, node_influence s) per job

    def warmup(self):
        variable = self.event[0]
        parent = max(self.net.dag.parents[variable], key=lambda p: self.net.cpts[p].table.size)
        analysis.tornado(self.net, self.event, nodes=[parent], delta=self.delta)

    def analyse(self):
        t0 = time.perf_counter()
        bars = analysis.tornado(self.net, self.event, delta=self.delta)
        t1 = time.perf_counter()
        influence = analysis.node_influence(self.net, self.event)
        self.split.append((t1 - t0, time.perf_counter() - t1))
        return bars, influence

    def job(self, j, rec):
        return rec.op("op.sensitivity", self.analyse)

    def check(self, outputs):
        if not outputs:
            return []
        bars, influence = outputs[0]
        rng = random.Random(self.seed)
        params = sorted(b.param for b in bars)
        sample = params if self.tiny else rng.sample(params, min(64, len(params)))
        errors = checks.tornado_errors(
            self.net, self.event, self.delta, bars, influence, sample,
            inference.posterior, analysis.perturb_parameter,
        )

        def key(out):
            return ([(b.param, b.increase, b.decrease) for b in out[0]], out[1])

        first = key(outputs[0])
        errors += [f"job {j}: output differs from job 0"
                   for j, out in enumerate(outputs[1:], 1) if key(out) != first]
        self.bars = len(bars)
        return errors

    def named_metrics(self, jobs, ops):
        return {
            "sensitivity_s": median(jobs),
            "tornado_s": median([t for t, _ in self.split[:len(ops)]]),
            "node_influence_s": median([n for _, n in self.split[:len(ops)]]),
            "bars": getattr(self, "bars", None),
        }

    def minfill_sample(self):
        return [(self.net, self.event[0], {})]


def random_network(rng, n_nodes, prefix, window=8, max_parents=4, levels=(2, 5)):
    """A random discrete network: nodes in a chain order, each with up to
    ``max_parents`` parents among the ``window`` nodes before it, 2-5 levels
    and Dirichlet(1) CPT rows."""
    names = [f"{prefix}{i:02d}" for i in range(n_nodes)]
    cards = [int(c) for c in rng.integers(levels[0], levels[1] + 1, size=n_nodes)]
    parents = {}
    for i, name in enumerate(names):
        pool = list(range(max(0, i - window), i))
        m = int(rng.integers(0, min(max_parents, len(pool)) + 1))
        chosen = sorted(int(c) for c in rng.choice(pool, size=m, replace=False)) if m else []
        parents[name] = tuple(names[c] for c in chosen)
    variables = [
        CategoricalVariable(name, tuple(f"s{k}" for k in range(cards[i])))
        for i, name in enumerate(names)
    ]
    card = dict(zip(names, cards))
    cpts = {}
    for i, name in enumerate(names):
        q = int(np.prod([card[p] for p in parents[name]], dtype=np.int64))
        cpts[name] = Cpt(name, parents[name], rng.dirichlet(np.ones(cards[i]), size=q))
    return FittedNetwork(variables, Dag(tuple(names), parents), cpts)


class QueryMix(Workload):
    """Closed loop, one client: a seeded stream of ``posterior`` queries.

    Each query has 0-6 random evidence variables. Queries alternate between
    the fixture model and one of 64 40-node random networks generated from
    the seed (many networks, so one unlucky structure does not set a run's
    figures). One operation is one query; a job is a batch of 100 queries.
    """

    name = "query-mix"
    RANDOM_NETS = 64

    def setup(self):
        rng = np.random.default_rng([self.seed, 7])
        n_nodes = 12 if self.tiny else 40
        self.batch = 20 if self.tiny else 100
        self.nets = [("fixture", modelio.load(REFERENCE_MODEL))] + [
            (f"random{i}", random_network(rng, n_nodes, f"R{i}_"))
            for i in range(self.RANDOM_NETS)
        ]

    def queries(self, j):
        rng = np.random.default_rng([self.seed, j])
        out = []
        for i in range(self.batch):
            # even queries go to the fixture model, odd ones to a random network
            key, net = self.nets[0 if i % 2 == 0 else 1 + int(rng.integers(0, self.RANDOM_NETS))]
            names = [v.name for v in net.variables]
            target = names[int(rng.integers(0, len(names)))]
            others = [n for n in names if n != target]
            k = int(rng.integers(0, 7))
            evidence = {}
            for pos in rng.choice(len(others), size=k, replace=False):
                var = net.variable(others[int(pos)])
                evidence[var.name] = var.levels[int(rng.integers(0, var.r))]
            out.append((key, net, target, evidence))
        return out

    def warmup(self):
        for _, net, target, evidence in self.queries(10**6):
            inference.posterior(net, target, evidence)

    def job(self, j, rec):
        out = []
        for key, net, target, evidence in self.queries(j):
            result = rec.op("op.query", inference.posterior, net, target, evidence)
            out.append((key, net, target, evidence, result.distribution, result.elimination_order))
        return out

    def check(self, outputs):
        errors = []
        rng = random.Random(self.seed)
        later = [(j, i) for j in range(1, len(outputs)) for i in range(len(outputs[j]))]
        recheck = set(rng.sample(later, min(32, len(later))))
        for j, job in enumerate(outputs):
            for i, (key, net, target, evidence, dist, order) in enumerate(job):
                reference = None
                if j == 0 or (j, i) in recheck:
                    alt = checks.oracle_order(net, target, evidence, order)
                    reference = inference.posterior(net, target, evidence, order=alt).distribution
                errors += checks.posterior_errors(f"job {j} query {i} ({key})", dist, reference)
        return errors

    def named_metrics(self, jobs, ops):
        keys = [q[0] for j in range(len(jobs)) for q in self.queries(j)][:len(ops)]
        fixture = [t for k, t in zip(keys, ops) if k == "fixture"]
        rand = [t for k, t in zip(keys, ops) if k != "fixture"]
        named = {
            "query_p50_ms": percentile(ops, 50) * 1e3,
            "query_p99_ms": percentile(ops, 99) * 1e3,
            "queries_per_s": len(ops) / sum(jobs),
            "queries": len(ops),
        }
        for label, xs in (("fixture", fixture), ("random", rand)):
            if xs:
                named[f"query_{label}_p50_ms"] = percentile(xs, 50) * 1e3
                named[f"query_{label}_p99_ms"] = percentile(xs, 99) * 1e3
        return named

    def minfill_sample(self):
        return [(net, target, ev) for _, net, target, ev in self.queries(0)[:12]]


class CliPipeline(Workload):
    """The README walkthrough through ``beliefnet.cli.main``, in-process.

    Each job runs prep, learn (small B, ``--workers 2``), query, sobol,
    scenario, sensitivity and export into a fresh workspace. The raw survey
    is the fixture with its rows shuffled by the seed, and learn uses the
    seed. The analysis stages read the fixture model kept with the
    benchmark, and sensitivity/export shade InterestAI=Strongly (4 ancestors),
    so their cost does not depend on what a small bootstrap learned and the
    I/O, manifest and pool layers are a visible share. One operation is one
    CLI stage.
    """

    name = "cli-pipeline"
    EVENT = ("InterestAI", "Strongly")

    def required(self):
        return super().required() + [self.fixture(n) for n in (
            "synthetic_survey.csv", "prep.yaml", "themes.yaml", "tiers_full.yaml",
            "learn_fast.yaml", "query.yaml", "sobol.yaml", "scenarios.yaml",
        )]

    def setup(self):
        self.inputs = os.path.join(self.work, "inputs")
        os.makedirs(self.inputs, exist_ok=True)
        with open(self.fixture("synthetic_survey.csv"), encoding="utf-8") as fh:
            header, *rows = fh.read().splitlines()
        random.Random(self.seed).shuffle(rows)
        with open(os.path.join(self.inputs, "survey.csv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join([header, *rows]) + "\n")
        with open(os.path.join(self.inputs, "sensitivity.yaml"), "w", encoding="utf-8") as fh:
            fh.write(
                "format: beliefnet-sensitivity\nversion: 1\n"
                f"target:\n  variable: {self.EVENT[0]}\n  state: \"{self.EVENT[1]}\"\n"
                "nodes: auto\ndelta: 0.1\n"
            )
        self.model = os.path.join(self.inputs, "reference.bn.yaml")
        shutil.copyfile(REFERENCE_MODEL, self.model)
        self.expected = self._expected()
        self.net = modelio.load(self.model)

    def _expected(self):
        with open(self.fixture("query.yaml"), encoding="utf-8") as fh:
            query_targets = [t["target"] for t in yaml.safe_load(fh)["tables"]]
        with open(self.fixture("scenarios.yaml"), encoding="utf-8") as fh:
            scenario_targets = yaml.safe_load(fh)["targets"]
        paths = [f"data/survey_{k}{ext}" for k in ("full", "risk", "opportunity")
                 for ext in (".csv", ".dict.yaml")]
        paths += ["data/survey.audit.yaml", "data/survey.manifest.yaml",
                  "models/full.bn.yaml", "models/full.manifest.yaml",
                  "strengths/full_strengths.csv", "reports/rep_query.manifest.yaml",
                  "reports/rep_sobol.csv", "reports/rep_sobol.txt",
                  "reports/rep_sobol.manifest.yaml", "reports/rep_scenario.txt",
                  "reports/rep_scenario.manifest.yaml", "reports/rep_tornado.csv",
                  "reports/rep_tornado.txt", "reports/rep_tornado.svg",
                  "reports/rep_influence.dot", "reports/rep_sensitivity.manifest.yaml",
                  "reports/shaded.dot", "reports/shaded_export.manifest.yaml"]
        paths += [f"reports/rep_query_{t}.csv" for t in query_targets]
        paths += [f"reports/rep_scenario_{t}{ext}" for t in scenario_targets
                  for ext in (".csv", ".svg")]
        return sorted(paths)

    def stages(self, ws, j):
        f, model = self.fixture, self.model
        data = os.path.join(ws, "data", "survey_full")
        b = "2" if self.tiny else "6"
        return [
            ("prep", ["prep", "--raw", os.path.join(self.inputs, "survey.csv"),
                      "--recode", f("prep.yaml"), "--themes", f("themes.yaml"), "--name", "survey"]),
            ("learn", ["learn", "--data", data + ".csv", "--dict", data + ".dict.yaml",
                       "--tiers", f("tiers_full.yaml"), "--config", f("learn_fast.yaml"),
                       "--bootstrap", b, "--seed", str(self.seed * 1000 + j),
                       "--workers", "2", "--name", "full"]),
            ("query", ["query", "--model", model, "--config", f("query.yaml"), "--name", "rep"]),
            ("sobol", ["sobol", "--model", model, "--config", f("sobol.yaml"), "--name", "rep",
                       "--workers", "2"]),
            ("scenario", ["scenario", "--model", model, "--config", f("scenarios.yaml"),
                          "--name", "rep"]),
            ("sensitivity", ["sensitivity", "--model", model, "--config",
                             os.path.join(self.inputs, "sensitivity.yaml"), "--name", "rep",
                             "--workers", "2"]),
            ("export", ["export", "--model", model, "--influence", "=".join(self.EVENT),
                        "--name", "shaded"]),
        ]

    def warmup(self):
        ws = os.path.join(self.work, "warmup")
        for _, argv in self.stages(ws, 0):
            _quiet_cli(argv + ["--workspace", ws])
        shutil.rmtree(ws)

    def job(self, j, rec):
        ws = os.path.join(self.work, f"ws{j}")
        codes = {}
        for stage, argv in self.stages(ws, j):
            codes[stage] = rec.op(f"cli.{stage}", _quiet_cli, argv + ["--workspace", ws])
        return {"codes": codes}

    def after_job(self, j, output):
        ws = os.path.join(self.work, f"ws{j}")
        if not isinstance(output, Exception):
            output["present"] = checks.artifacts(ws)
        shutil.rmtree(ws, ignore_errors=True)

    def check(self, outputs):
        errors = []
        for j, out in enumerate(outputs):
            errors += checks.pipeline_errors(
                f"job {j}", out["codes"], out["present"], self.expected
            )
        return errors

    def named_metrics(self, jobs, ops):
        named = {"pipeline_s": median(jobs)}
        for i, stage in enumerate(CLI_STAGES):  # the order of stages()
            named[f"{stage}_s"] = median(ops[i::len(CLI_STAGES)])
        return named

    def minfill_sample(self):
        return [(self.net, self.EVENT[0], {})]


WORKLOADS = {w.name: w for w in (LearnBootstrap, Sensitivity, QueryMix, CliPipeline)}
