"""Spans around the layer boundaries of beliefnet, installed from outside.

Each wrapper replaces the name a caller looks up (a module attribute such as
``beliefnet.analysis.posterior`` or a method such as ``Factor.multiply``) and
restores it on exit, so ``src/`` is never edited. A wrapper records its
name, start, end, parent span and the job (request) it ran in. Hot leaf
calls (``counts``, ``DecomposableScore.local``, ``Factor.multiply``,
``DataTable.take``, ``FittedNetwork.with_cpt``) are aggregated into counts
and times instead of one record each, which keeps the memory bounded; they
still charge their time to the enclosing span. Self time is a span's
duration minus the time its direct children cover (all calls are on one
thread, so children never overlap).

Spans stay in memory and are written once, at the end of the run. Worker
processes forked by a pool run the original functions: their work shows up
as the parent's waiting time (``cli.pool_wait_s``).
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import json
import os
import time

from stats import median

# per-layer metrics reported by a traced run, in BENCHMARK.json order;
# counts and times are per job of the traced window
PER_LAYER = {
    "data.counts.calls": "count",
    "data.counts.s": "s",
    "data.take.s": "s",
    "data.prep.s": "s",
    "data.table_io.s": "s",
    "scores.local.calls": "count",
    "scores.local.s": "s",
    "scores.cache_hits": "count",
    "scores.cache_lookups": "count",
    "scores.cache_hit_ratio": "ratio",
    "scores.hit_us": "us",
    "scores.miss_us": "us",
    "learn.tabu_search.calls": "count",
    "learn.tabu_search.self_s": "s",
    "learn.iterations_p50": "count",
    "learn.iteration_ms": "ms",
    "learn.consensus.s": "s",
    "inference.posterior.calls": "count",
    "inference.posterior.self_s": "s",
    "inference.minfill.s": "s",
    "inference.multiply.calls": "count",
    "inference.multiply.s": "s",
    "inference.max_factor_cells": "cells",
    "model.with_cpt.calls": "count",
    "analysis.tornado.s": "s",
    "analysis.node_influence.s": "s",
    "analysis.ve_runs": "count",
    "analysis.sobol_matrix.s": "s",
    "analysis.scenarios.s": "s",
    "modelio.load.s": "s",
    "modelio.save.s": "s",
    "modelio.export_dot.s": "s",
    "configio.load.s": "s",
    "reports.write.s": "s",
    "reports.bytes": "bytes",
    "charts.svg.s": "s",
    "cli.prep.s": "s",
    "cli.learn.s": "s",
    "cli.query.s": "s",
    "cli.sobol.s": "s",
    "cli.scenario.s": "s",
    "cli.sensitivity.s": "s",
    "cli.export.s": "s",
    "cli.self_s": "s",
    "cli.pool_wait_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.jobs": "count",
    "trace.spans": "count",
}

CLI_STAGES = ("prep", "learn", "query", "sobol", "scenario", "sensitivity", "export")

SPAN, AGG = "span", "agg"

_CURRENT = []  # the installed tracer; forked children switch it off
_FORK_HOOK = []


def _stop_in_child():
    for tracer in _CURRENT:
        tracer.active = False


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.active = False
        self.req = None  # the job index the current spans belong to
        self.stack = []  # open frames: [child seconds, span id]
        self.spans = []  # (id, parent id, name, start, end, req)
        self.totals = {}  # name -> [calls, seconds, self seconds]
        self.counters = {
            "hits": 0, "misses": 0, "hit_s": 0.0, "miss_s": 0.0,
            "iterations": [], "ve_runs": 0, "max_cells": 0,
            "report_bytes": 0, "pool_wait_s": 0.0,
        }
        self.missing = []  # names not found in this version of beliefnet
        self._ids = itertools.count(1)

    # -- recording -------------------------------------------------------
    def _invoke(self, name, kind, fn, args, kwargs, hook):
        if not self.active:
            return fn(*args, **kwargs)
        stack = self.stack
        parent = stack[-1] if stack else None
        frame = [0.0, next(self._ids) if kind is SPAN else None]
        ctx = hook.before(args, kwargs) if hook is not None else None
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            dur = end - start
            if parent is not None:
                parent[0] += dur
            tot = self.totals.get(name)
            if tot is None:
                tot = self.totals[name] = [0, 0.0, 0.0]
            tot[0] += 1
            tot[1] += dur
            tot[2] += dur - frame[0]
            if kind is SPAN:
                self.spans.append(
                    (frame[1], parent[1] if parent else None, name, start, end, self.req)
                )
        if hook is not None:
            hook.after(self, ctx, args, kwargs, result, dur, dur - frame[0])
        return result

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (used for jobs and operations)."""
        return self._invoke(name, SPAN, fn, args, kwargs, None)

    def wrap(self, name, kind, fn, hook=None):
        invoke = self._invoke

        def wrapper(*args, **kwargs):
            return invoke(name, kind, fn, args, kwargs, hook)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # -- installation ----------------------------------------------------
    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper, trace inside the block, restore on exit."""
        if not _FORK_HOOK:
            os.register_at_fork(after_in_child=_stop_in_child)
            _FORK_HOOK.append(True)
        undo = []
        try:
            for module_name, attr, name, kind, hook in _targets():
                owner, leaf = _resolve(module_name, attr)
                if owner is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
                setattr(owner, leaf, self.wrap(name, kind, original, hook))
                undo.append((owner, leaf, original))
            _CURRENT.append(self)
            self.active = True
            yield self
        finally:
            self.active = False
            if self in _CURRENT:
                _CURRENT.remove(self)
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

    # -- reporting -------------------------------------------------------
    def _tot(self, name):
        return self.totals.get(name, (0, 0.0, 0.0))

    def layer_metrics(self, n_jobs, minfill_per_call):
        """Per-job layer figures over the traced window (see PER_LAYER)."""
        c = self.counters
        per = 1.0 / max(n_jobs, 1)

        def calls(name):
            return self._tot(name)[0] * per

        def secs(name):
            return self._tot(name)[1] * per

        def self_s(name):
            return self._tot(name)[2] * per

        lookups = c["hits"] + c["misses"]
        iterations = c["iterations"]
        tabu_calls, tabu_s, _ = self._tot("learn.tabu_search")
        posterior_calls = calls("inference.posterior")
        out = {
            "data.counts.calls": calls("data.counts"),
            "data.counts.s": secs("data.counts"),
            "data.take.s": secs("data.take"),
            "data.prep.s": secs("data.prep"),
            "data.table_io.s": secs("data.table_io"),
            "scores.local.calls": calls("scores.local"),
            "scores.local.s": secs("scores.local"),
            "scores.cache_hits": c["hits"] * per,
            "scores.cache_lookups": lookups * per,
            "scores.cache_hit_ratio": c["hits"] / lookups if lookups else 0.0,
            "scores.hit_us": c["hit_s"] / c["hits"] * 1e6 if c["hits"] else 0.0,
            "scores.miss_us": c["miss_s"] / c["misses"] * 1e6 if c["misses"] else 0.0,
            "learn.tabu_search.calls": tabu_calls * per,
            "learn.tabu_search.self_s": self_s("learn.tabu_search"),
            "learn.iterations_p50": median(iterations) if iterations else 0.0,
            "learn.iteration_ms": tabu_s / sum(iterations) * 1e3 if sum(iterations) else 0.0,
            "learn.consensus.s": secs("learn.consensus"),
            "inference.posterior.calls": posterior_calls,
            "inference.posterior.self_s": self_s("inference.posterior"),
            "inference.minfill.s": minfill_per_call * posterior_calls,
            "inference.multiply.calls": calls("inference.multiply"),
            "inference.multiply.s": secs("inference.multiply"),
            "inference.max_factor_cells": c["max_cells"],
            "model.with_cpt.calls": calls("model.with_cpt"),
            "analysis.tornado.s": secs("analysis.tornado"),
            "analysis.node_influence.s": secs("analysis.node_influence"),
            "analysis.ve_runs": c["ve_runs"] * per,
            "analysis.sobol_matrix.s": secs("analysis.sobol_matrix"),
            "analysis.scenarios.s": secs("analysis.scenarios"),
            "modelio.load.s": secs("modelio.load"),
            "modelio.save.s": secs("modelio.save"),
            "modelio.export_dot.s": secs("modelio.export_dot"),
            "configio.load.s": secs("configio.load"),
            "reports.write.s": secs("reports.write"),
            "reports.bytes": c["report_bytes"] * per,
            "charts.svg.s": secs("charts.svg"),
            "cli.self_s": sum(self_s(f"cli.{s}") for s in CLI_STAGES),
            "cli.pool_wait_s": c["pool_wait_s"] * per,
            "trace.spans": len(self.spans),
        }
        for stage in CLI_STAGES:
            out[f"cli.{stage}.s"] = secs(f"cli.{stage}")
        return out

    def summary(self):
        return {
            name: {"calls": t[0], "s": t[1], "self_s": t[2]}
            for name, t in sorted(self.totals.items())
        }

    def write(self, path):
        """Write the spans (one JSON object a line) and the per-name totals."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, req in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "req": req, "id": sid, "parent": parent,
                    "name": name, "start": start, "end": end,
                }) + "\n")
            fh.write(json.dumps({
                "run": self.run_id, "totals": self.summary(), "missing": self.missing,
            }) + "\n")


def _resolve(module_name, attr):
    """(owner, leaf) for ``module.attr`` or ``module.Class.method``; None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None
    if isinstance(owner, type):
        return (owner, leaf) if leaf in owner.__dict__ else (None, None)
    return (owner, leaf) if callable(getattr(owner, leaf, None)) else (None, None)


# -- hooks: extra counts taken at a boundary ---------------------------------
class _ScoreHook:
    """Classifies DecomposableScore.local calls as cache hits or misses."""

    @staticmethod
    def before(args, kwargs):
        cache = getattr(args[0], "cache", None)
        return None if cache is None else (cache, cache.hits)

    @staticmethod
    def after(tracer, ctx, args, kwargs, result, dur, self_dur):
        if ctx is None:
            return
        cache, hits = ctx
        c = tracer.counters
        if cache.hits > hits:
            c["hits"] += 1
            c["hit_s"] += dur
        else:
            c["misses"] += 1
            c["miss_s"] += dur


class _TabuHook:
    """Passes a TabuLog into tabu_search when the caller gave none."""

    @staticmethod
    def before(args, kwargs):
        if kwargs.get("log") is None and len(args) < 5:
            from beliefnet.learn import TabuLog

            kwargs["log"] = TabuLog()
        return kwargs.get("log")

    @staticmethod
    def after(tracer, log, args, kwargs, result, dur, self_dur):
        if log is not None:
            tracer.counters["iterations"].append(log.iterations)


class _MultiplyHook:
    before = staticmethod(lambda args, kwargs: None)

    @staticmethod
    def after(tracer, ctx, args, kwargs, result, dur, self_dur):
        cells = result.values.size
        if cells > tracer.counters["max_cells"]:
            tracer.counters["max_cells"] = cells


class _VeHook:
    """Counts the VE runs made by the analysis layer."""

    before = staticmethod(lambda args, kwargs: None)

    @staticmethod
    def after(tracer, ctx, args, kwargs, result, dur, self_dur):
        tracer.counters["ve_runs"] += 1


class _PoolHook:
    """A call given n_jobs > 1 waits on worker processes for its self time."""

    before = staticmethod(lambda args, kwargs: None)

    @staticmethod
    def after(tracer, ctx, args, kwargs, result, dur, self_dur):
        if kwargs.get("n_jobs", 1) > 1:
            tracer.counters["pool_wait_s"] += self_dur


class _BytesHook:
    """Adds the size of the file a reports.write_* call produced."""

    before = staticmethod(lambda args, kwargs: None)

    @staticmethod
    def after(tracer, ctx, args, kwargs, result, dur, self_dur):
        path = args[0] if args else kwargs.get("path")
        try:
            tracer.counters["report_bytes"] += os.path.getsize(path)
        except (OSError, TypeError):
            pass


def _module_functions(module_name, prefix):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    return sorted(
        n for n in vars(module)
        if n.startswith(prefix) and callable(getattr(module, n))
        and getattr(getattr(module, n), "__module__", None) == module_name
    )


def _targets():
    """(module, attribute, span name, kind, hook) for every wrapped boundary."""
    bn, cli = "beliefnet", "beliefnet.cli"
    t = [
        (f"{bn}.scores", "counts", "data.counts", AGG, None),
        (f"{bn}.inference", "counts", "data.counts", AGG, None),
        (f"{bn}.data", "DataTable.take", "data.take", AGG, None),
        (f"{bn}.scores", "DecomposableScore.local", "scores.local", AGG, _ScoreHook),
        (f"{bn}.learn", "tabu_search", "learn.tabu_search", SPAN, _TabuHook),
        (cli, "tabu_search", "learn.tabu_search", SPAN, _TabuHook),
        (f"{bn}.learn", "bootstrap_strengths", "learn.bootstrap", SPAN, _PoolHook),
        (cli, "bootstrap_strengths", "learn.bootstrap", SPAN, _PoolHook),
        (f"{bn}.inference", "posterior", "inference.posterior", SPAN, None),
        (f"{bn}.analysis", "posterior", "inference.posterior", SPAN, _VeHook),
        (cli, "posterior", "inference.posterior", SPAN, None),
        (f"{bn}.inference", "Factor.multiply", "inference.multiply", AGG, _MultiplyHook),
        (cli, "fit_bayes", "inference.fit", SPAN, None),
        (f"{bn}.model", "FittedNetwork.with_cpt", "model.with_cpt", AGG, None),
        (f"{bn}.analysis", "tornado", "analysis.tornado", SPAN, _PoolHook),
        (f"{bn}.analysis", "node_influence", "analysis.node_influence", SPAN, None),
        (f"{bn}.analysis", "sobol_matrix", "analysis.sobol_matrix", SPAN, _PoolHook),
        (f"{bn}.analysis", "scenario_posteriors", "analysis.scenarios", SPAN, None),
        (f"{bn}.modelio", "load", "modelio.load", SPAN, None),
        (cli, "load_model", "modelio.load", SPAN, None),
        (cli, "save_model", "modelio.save", SPAN, None),
        (cli, "export_dot", "modelio.export_dot", SPAN, None),
        (f"{bn}.charts", "scenario_bars_svg", "charts.svg", SPAN, None),
        (f"{bn}.charts", "tornado_svg", "charts.svg", SPAN, None),
    ]
    for learn_name in ("optimal_threshold", "averaged_network"):
        t.append((f"{bn}.learn", learn_name, "learn.consensus", SPAN, None))
        t.append((cli, learn_name, "learn.consensus", SPAN, None))
    for prep in ("load_csv", "recode", "collapse_rare", "group_themes",
                 "split_population", "drop_incomplete"):
        t.append((cli, prep, "data.prep", SPAN, None))
    for io_name in ("save_datatable", "load_datatable"):
        t.append((cli, io_name, "data.table_io", SPAN, None))
    for name in _module_functions(f"{bn}.configio", "load_"):
        t.append((f"{bn}.configio", name, "configio.load", SPAN, None))
    for name in _module_functions(f"{bn}.reports", "write_"):
        t.append((f"{bn}.reports", name, "reports.write", SPAN, _BytesHook))
    return t


def minfill_per_call(samples, reps=5):
    """Seconds the default elimination ordering adds to one ``posterior``.

    For each (net, target, evidence) sample, ``posterior`` with its default
    (min-fill) order is timed against ``posterior`` given that same order via
    ``order=``; the difference of the medians, averaged over the samples.
    Runs with every wrapper removed.
    """
    from beliefnet.inference import posterior

    diffs = []
    for net, target, evidence in samples:
        order = posterior(net, target, evidence).elimination_order
        default, given = [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            posterior(net, target, evidence)
            t1 = time.perf_counter()
            posterior(net, target, evidence, order=order)
            t2 = time.perf_counter()
            default.append(t1 - t0)
            given.append(t2 - t1)
        diffs.append(median(default) - median(given))
    return sum(diffs) / len(diffs) if diffs else 0.0
