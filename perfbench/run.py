#!/usr/bin/env python3
"""beliefnet benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a beliefnet checkout; the package is imported from
``src/`` of that checkout. The package is imported (its third-party
dependencies first, untimed), the workload is set up several times
(``setup_s`` is the import plus the median set-up), warmed up,
then run job after job until ``--seconds`` have passed. The outputs are checked against oracles that do not use the timed
path. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the named per-workload figures and the run's provenance.

``--trace 0`` reports the end-to-end metrics with no tracing installed.
While the package is imported, set up and run, a speedometer (``speed.py``)
samples the speed of the CPU; ``setup_s`` and ``job_ref_s`` (the median
job time) are scaled to its reference speed, and the wall times are on the
detail line. ``--trace 1`` spends half the time untraced and half traced,
reports the per-layer metrics (per job) and the tracing overhead, and writes
the spans to ``.perfbench_out/``. ``--scale tiny`` shrinks every job for the
benchmark's own tests.

The exit code is 0 when every operation succeeded and every check passed,
1 when not, and 2 when the checkout lacks the package or its fixtures.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPS = 5
# beliefnet's third-party imports. They load before the set-up clock starts:
# their load time is not beliefnet's, and on a shared host it moved by a
# quarter between two sets of runs that a CPU-speed scale did not follow.
DEPENDENCIES = ("numpy", "scipy.special", "yaml")

sys.path.insert(0, HERE)
import tracing  # noqa: E402 - stdlib only; beliefnet is imported, timed, in main
from speed import Speedometer  # noqa: E402
from stats import median, percentile  # noqa: E402

# the end-to-end metrics a run reports, in BENCHMARK.json order
END_TO_END = {
    "setup_s": "s",
    "job_ref_s": "s",
    "peak_rss_mb": "MB",
}


def peak_rss_mb():
    """Largest peak RSS among this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is in KiB on Linux


def _git(*args):
    import subprocess

    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(load_start):
    import numpy
    import scipy

    nproc = len(os.sched_getaffinity(0))
    load_end = os.getloadavg()
    sha = _git("rev-parse", "HEAD") if os.path.isdir(os.path.join(ROOT, ".git")) else None
    dirty = None
    if sha is not None:
        status = _git("status", "--porcelain", "--untracked-files=no")
        dirty = None if status is None else bool(status)
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
        "loadavg_start": list(load_start),
        "loadavg_end": list(load_end),
        "overloaded": max(max(load_start), max(load_end)) > nproc,
    }


class Recorder:
    """Times operations; opens a span per operation while tracing."""

    def __init__(self):
        self.ops = []  # seconds per operation, failed ones included
        self.attempted = 0
        self.failed = 0
        self.tracer = None
        self.speed = None  # a running Speedometer, whose samples are not timed

    def op(self, name, fn, *args, **kwargs):
        tracer = self.tracer
        self.attempted += 1
        sampled = self.speed.spent if self.speed is not None else 0.0
        start = time.perf_counter()
        try:
            if tracer is not None:
                return tracer.call(name, fn, *args, **kwargs)
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise
        finally:
            elapsed = time.perf_counter() - start
            if self.speed is not None:
                elapsed -= self.speed.spent - sampled
            self.ops.append(elapsed)


def _window(workload, recorder, seconds, first_job, jobs, outputs, speed=None, ref=None):
    """Run jobs until ``seconds`` have passed; at least one job runs.

    With a running speedometer, each job's own time goes to ``jobs`` and its
    reference time to ``ref``; without one, its wall time goes to ``jobs``.
    """
    deadline = time.perf_counter() + seconds
    j = first_job
    while True:
        failed_before = recorder.failed
        mark = speed.mark() if speed is not None else None
        start = time.perf_counter()
        try:
            if recorder.tracer is not None:
                recorder.tracer.req = j
                outputs.append(recorder.tracer.call("job", workload.job, j, recorder))
            else:
                outputs.append(workload.job(j, recorder))
        except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
            outputs.append(exc)
            sys.stderr.write(f"perfbench: job {j} failed: {exc!r}\n")
            if recorder.failed == failed_before:  # raised outside any operation
                recorder.attempted += 1
                recorder.failed += 1
        wall = time.perf_counter() - start
        if speed is None:
            jobs.append(wall)
        else:
            own, reference = speed.job(mark, wall)
            jobs.append(own)
            ref.append(reference)
        workload.after_job(j, outputs[-1])
        j += 1
        if time.perf_counter() >= deadline:
            return j


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "beliefnet", "__init__.py")):
        sys.stderr.write(f"perfbench: no beliefnet package under {src}\n")
        return 2
    load_start = os.getloadavg()
    sys.path.insert(0, src)
    for name in DEPENDENCIES:
        importlib.import_module(name)
    setup_speed = Speedometer()
    # timed: the import is part of set-up
    package, import_s, import_ref_s = setup_speed.timed(
        lambda: importlib.import_module("beliefnet.cli")
    )
    if os.path.dirname(os.path.abspath(package.__file__)) != os.path.join(src, "beliefnet"):
        sys.stderr.write("perfbench: imported beliefnet from outside the checkout\n")
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, args.seed, args.scale)
    except workloads.MissingInput as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 2

    try:
        return _run(args, workload, setup_speed, (import_s, import_ref_s), load_start)
    finally:
        workload.close()


def _run(args, workload, setup_speed, import_times, load_start):
    setups, setup_refs = [], []
    for _ in range(SETUP_REPS):
        _, own, ref = setup_speed.timed(workload.setup)
        setups.append(own)
        setup_refs.append(ref)
    import_s, import_ref_s = import_times
    t0 = time.perf_counter()
    workload.warmup()
    warmup_s = time.perf_counter() - t0

    recorder = Recorder()
    jobs, ref_jobs, outputs = [], [], []
    seconds = args.seconds / 2 if args.trace else args.seconds
    speed = recorder.speed = Speedometer()
    t0 = time.perf_counter()
    with speed.running():
        next_job = _window(workload, recorder, seconds, 0, jobs, outputs, speed, ref_jobs)
    window_s = time.perf_counter() - t0 - speed.spent
    recorder.speed = None
    untraced_ops = list(recorder.ops)

    layer = None
    if args.trace:
        tracer = tracing.Tracer(f"{args.workload}-seed{args.seed}")
        traced_jobs = []
        recorder.tracer = tracer
        with tracer.installed():
            _window(workload, recorder, seconds, next_job, traced_jobs, outputs)
        recorder.tracer = None
        minfill = tracing.minfill_per_call(workload.minfill_sample())
        layer = tracer.layer_metrics(len(traced_jobs), minfill)
        layer["trace.overhead_s"] = median(traced_jobs) - median(jobs)
        layer["trace.overhead_ratio"] = layer["trace.overhead_s"] / median(jobs)
        layer["trace.jobs"] = len(traced_jobs)
        out_dir = os.path.join(ROOT, ".perfbench_out")
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))

    rss_mb = peak_rss_mb()  # before the oracles, which are not the program
    errors = [f"{recorder.failed} operation(s) raised"] if recorder.failed else []
    errors += workload.check([o for o in outputs if not isinstance(o, Exception)])
    correct = not errors

    # only setup_s, job_ref_s and peak_rss_mb are gated (END_TO_END); the
    # wall times, operation percentiles and the rate are on the detail line,
    # because the speed of a shared vCPU moves them between identical runs by
    # more than the largest bound an end-to-end metric may have (speed.py)
    figures = {
        "setup_s": import_ref_s + median(setup_refs),
        "setup_wall_s": import_s + median(setups),
        "job_ref_s": median(ref_jobs),
        "job_s": median(jobs),
        "op_p50_ms": percentile(untraced_ops, 50) * 1e3,
        "op_p90_ms": percentile(untraced_ops, 90) * 1e3,
        "ops_per_s": len(untraced_ops) / window_s,
        "peak_rss_mb": rss_mb,
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "import_s": import_s,
        "setup_reps_s": setups,
        "warmup_s": warmup_s,
        "jobs": len(jobs),
        "job_times_s": jobs,
        "job_ref_times_s": ref_jobs,
        "speed_samples": len(speed.samples),
        "speed_sample_p50_ms": percentile(speed.samples, 50) * 1e3,
        "speed_sampling_s": speed.spent,
        "ops": len(untraced_ops),
        "figures": figures,
        "named": workload.named_metrics(jobs, untraced_ops),
        "errors": errors,
        "provenance": provenance(load_start),
        "elapsed_s": time.perf_counter() - _STARTED,
    }
    print(json.dumps({"perfbench": detail}, sort_keys=True))
    if layer is not None:
        reported = {
            name: {"value": layer[name], "unit": unit}
            for name, unit in tracing.PER_LAYER.items()
        }
    else:
        reported = {
            name: {"value": figures[name], "unit": unit}
            for name, unit in END_TO_END.items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": recorder.attempted,
        "failed": recorder.failed,
        "metrics": reported,
    }))
    for line in errors:
        sys.stderr.write(f"perfbench: check failed: {line}\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
