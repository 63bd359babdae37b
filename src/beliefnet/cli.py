"""beliefnet command line: prep, learn, query, sobol, scenario, sensitivity, export.

Every artifact-producing command runs inside a workspace (data/, models/,
strengths/, reports/) and takes an exclusive lock file. Before its first
write it checks every output it will list, and refuses to run if any exists
unless --force is given. It ends by writing one manifest next to its
primary output.
Exit codes: 0 success, 1 usage error, 2 data/model error (a BeliefnetError
or an OSError). Any other exception is a bug and is not caught.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import os
import secrets
import sys
import time

from . import __version__, _yamlio, analysis, configio, charts, reports
from .data import (
    collapse_rare,
    drop_incomplete,
    group_themes,
    load_csv,
    load_datatable,
    recode,
    save_datatable,
    split_population,
)
from .errors import BeliefnetError, MalformedFile, UnmappedToken, WorkspaceError
from .inference import fit_bayes, posterior
from .learn import (
    averaged_network,
    bootstrap_strengths,
    bootstrap_workers,
    optimal_threshold,
    tiers_to_blacklist,
)
from .modelio import export_dot, load as load_model, save as save_model

EXIT_OK, EXIT_USAGE, EXIT_DATA = 0, 1, 2
WORKSPACE_ENV = "BELIEFNET_WORKSPACE"
LOCK_NAME = ".beliefnet.lock"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _fingerprint(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _Run:
    """One command's run in its workspace: the lock it holds, its start time,
    the outputs it claimed, the extras it recorded, and the manifest that
    lists them."""

    def __init__(self, args):
        self.args = args
        self.root = os.path.abspath(args.workspace)
        self._lock = os.path.join(self.root, LOCK_NAME)
        self.outputs = []
        self.extra = {}

    def __enter__(self):
        for d in ("data", "models", "strengths", "reports"):
            os.makedirs(os.path.join(self.root, d), exist_ok=True)
        try:
            fd = os.open(self._lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise WorkspaceError(
                f"workspace {self.root} is locked by {self._lock_holder()} "
                f"(remove {self._lock} if that command is gone)"
            ) from None
        os.write(fd, str(os.getpid()).encode())
        os.close(fd)
        self.clock = time.monotonic()
        self.started = datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        )
        return self

    def _lock_holder(self) -> str:
        """Who holds the lock: the recorded PID and whether it still runs."""
        try:
            with open(self._lock, encoding="utf-8") as fh:
                pid = int(fh.read().strip())
        except (OSError, ValueError):
            return "another command"
        if pid <= 0 or os.name != "posix":  # kill(pid, 0) only probes on POSIX
            return f"process {pid}"
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return f"process {pid}, which is no longer running"
        except OSError:  # e.g. EPERM: it exists but belongs to another user
            pass
        return f"process {pid}, which is still running"

    def __exit__(self, *exc):
        try:
            os.unlink(self._lock)
        except FileNotFoundError:
            pass
        return False

    def claim(self, directory, name) -> str:
        """The workspace path ``directory/name``, recorded as an output; an
        existing file is refused unless --force, and one claimed before in
        this run always is."""
        path = os.path.join(self.root, directory, name)
        if path in self.outputs:
            raise WorkspaceError(f"refusing to write {path} twice in one run")
        if os.path.exists(path) and not self.args.force:
            raise WorkspaceError(f"refusing to overwrite {path} (pass --force to allow)")
        self.outputs.append(path)
        return path

    def finish(self):
        """Write the manifest: prep's beside its tables, learn's beside its
        model, and every other command's among the reports."""
        args = self.args
        doc = {
            "format": "beliefnet-manifest",
            "version": 1,
            "command": args.command,
            "tool_version": __version__,
            "config": {
                k: v
                for k, v in sorted(vars(args).items())
                if isinstance(v, (str, int, float, bool, type(None)))
            },
            "inputs": {p: _fingerprint(p) for n in args.inputs if (p := getattr(args, n))},
            "outputs": self.outputs,
            "extra": self.extra,
            "timing": {
                "started_utc": self.started,
                "elapsed_seconds": round(time.monotonic() - self.clock, 3),
            },
        }
        directory = {"prep": "data", "learn": "models"}.get(args.command)
        stem = args.name if directory else f"{args.name}_{args.command}"
        path = os.path.join(self.root, directory or "reports", stem + ".manifest.yaml")
        reports.write_text(path, _yamlio.dump(doc))


def cmd_prep(args, run: _Run):
    variables, missing_threshold, framing, models = configio.load_prep_config(args.recode)
    themes = configio.load_theme_config(args.themes) if args.themes else []
    columns = {v.name for v in variables}
    for i, theme in enumerate(themes):
        if unknown := [m for m in theme.members if m not in columns]:
            raise MalformedFile(args.themes, f"themes[{i}].members", f"unknown variables {unknown}")
    # a theme column joins the columns its members leave, under a new name
    columns -= {m for t in themes for m in t.members}
    for i, theme in enumerate(themes):
        if theme.name in columns:
            raise MalformedFile(args.themes, f"themes[{i}].name",
                                f"{theme.name!r} is already a column of the table")
        columns.add(theme.name)
    for kind, wanted in models.items():
        if missing := [n for n in wanted if n not in columns]:
            raise MalformedFile(args.recode, f"models.{kind}", f"unknown variables {missing}")
    if {"risk", "opportunity"} & models.keys() and framing not in columns:
        raise MalformedFile(args.recode, "framing", f"unknown variable {framing!r}")
    raw = load_csv(args.raw, required_columns=[v.source for v in variables])
    try:
        table = recode(raw, variables)
    except UnmappedToken as exc:  # name the raw file and the first row holding the token
        raise MalformedFile(args.raw, f"row {exc.row}", str(exc)) from None
    try:
        table, collapsed = collapse_rare(table, missing_threshold)
    except ValueError as exc:  # fewer than 2 levels reach the threshold
        raise MalformedFile(args.recode, "missing_threshold", str(exc)) from None
    audit = {"raw_rows": raw.n_rows, "recoded_rows": table.n_rows, "collapsed_levels": collapsed}

    table = group_themes(table, themes)

    tables = {"full": table}
    if {"risk", "opportunity"} & models.keys():
        tables["risk"], tables["opportunity"] = split_population(table, framing)
    finals, paths = {}, {}
    for kind, wanted in models.items():
        finals[kind] = drop_incomplete(tables[kind].select(wanted))
        paths[kind] = (run.claim("data", f"{args.name}_{kind}.csv"),
                       run.claim("data", f"{args.name}_{kind}.dict.yaml"))
    audit_path = run.claim("data", f"{args.name}.audit.yaml")

    audit["tables"] = {}
    for kind, final in finals.items():
        save_datatable(final, *paths[kind])
        audit["tables"][kind] = {
            "rows_before_drop": tables[kind].n_rows,
            "rows": final.n_rows,
            "variables": len(final.variables),
        }

    reports.write_text(
        audit_path, _yamlio.dump({"format": "beliefnet-audit", "version": 1, **audit})
    )
    for kind, stats in audit["tables"].items():
        print(f"{kind}: {stats['rows']} rows x {stats['variables']} variables")


def cmd_learn(args, run: _Run):
    data = load_datatable(args.data, args.dict)
    missing = data.missing_mask()
    if missing.any():
        row = int(missing.any(axis=1).argmax())
        name = data.variables[int(missing[row].argmax())].name
        raise MalformedFile(args.data, f"row {row + 1}",
                            f"{name!r} is missing; learn needs complete rows")
    score, alpha, bootstrap, tabu = configio.load_learn_config(args.config)
    seed = secrets.randbits(31) if args.seed is None else args.seed
    b = bootstrap if args.bootstrap is None else args.bootstrap
    model_path = run.claim("models", f"{args.name}.bn.yaml")
    strengths_path = run.claim("strengths", f"{args.name}_strengths.csv")
    constraints = None
    if args.tiers:
        tiers = configio.load_tier_config(args.tiers)
        constraints = tiers_to_blacklist(tiers, [v.name for v in data.variables])

    strengths = bootstrap_strengths(
        data,
        b=b,
        score=score,
        constraints=constraints,
        config=tabu,
        seed=seed,
        n_jobs=args.workers,
    )
    threshold = optimal_threshold(strengths)
    skipped = []
    dag = averaged_network(
        strengths,
        threshold,
        [v.name for v in data.variables],
        constraints,
        skipped=skipped,
    )
    reports.write_strengths_csv(strengths_path, strengths)
    run.extra = {
        "seed": seed,
        "bootstrap": b,
        "bootstrap_workers": bootstrap_workers(b, args.workers),
        "score": score,
        "alpha": alpha,
        "threshold": threshold,
        "skipped_edges": [list(s) for s in skipped],
    }

    net = fit_bayes(dag, data, alpha=alpha)
    net.metadata.update(
        {
            "seed": seed,
            "score": score,
            "bootstrap": b,
            "threshold": threshold,
            "tool_version": __version__,
        }
    )
    save_model(net, model_path)
    print(f"learned {len(dag.arcs())} arcs (B={b}, threshold={threshold})")


def cmd_query(args, run: _Run):
    net = load_model(args.model)
    query_tables = configio.load_query_config(args.config)
    paths = [run.claim("reports", f"{args.name}_query_{target}.csv") for target, _ in query_tables]
    # every table is computed before the first is written, so a bad table
    # leaves no report behind
    tables = [
        (net.variable(target).levels, posterior(net, target), [
            (sweep, [posterior(net, target, {sweep: level})
                     for level in net.variable(sweep).levels])
            for sweep in sweeps
        ])
        for target, sweeps in query_tables
    ]
    for path, table in zip(paths, tables):
        reports.write_query_csv(path, *table)
    print(f"wrote {len(paths)} conditional table(s)")


def cmd_sobol(args, run: _Run):
    csv_path = run.claim("reports", f"{args.name}_sobol.csv")
    txt_path = run.claim("reports", f"{args.name}_sobol.txt")
    net = load_model(args.model)
    matrix = analysis.sobol_matrix(net, *configio.load_sobol_config(args.config))
    reports.write_sobol(csv_path, txt_path, matrix)
    print(f"wrote sobol matrix: {len(matrix.inputs)} inputs x {len(matrix.targets)} targets")


def cmd_scenario(args, run: _Run):
    net = load_model(args.model)
    targets, scenarios = configio.load_scenario_config(args.config)
    csv_paths = {t: run.claim("reports", f"{args.name}_scenario_{t}.csv") for t in targets}
    txt_path = run.claim("reports", f"{args.name}_scenario.txt")
    svg_paths = [run.claim("reports", f"{args.name}_scenario_{t}.svg") for t in targets]
    results = analysis.scenario_posteriors(net, scenarios, targets)
    levels = {t: net.variable(t).levels for t in targets}
    # all CSVs land before any SVG is attempted
    reports.write_scenarios(csv_paths, txt_path, levels, results)
    for path, target in zip(svg_paths, targets):
        svg = charts.scenario_bars_svg(
            target,
            levels[target],
            [r.name for r in results],
            [r.posteriors[target].distribution for r in results],
        )
        reports.write_text(path, svg)
    print(f"wrote {len(scenarios)} scenarios x {len(targets)} targets")


def cmd_sensitivity(args, run: _Run):
    csv_path = run.claim("reports", f"{args.name}_tornado.csv")
    txt_path = run.claim("reports", f"{args.name}_tornado.txt")
    dot_path = run.claim("reports", f"{args.name}_influence.dot")
    svg_path = run.claim("reports", f"{args.name}_tornado.svg")
    net = load_model(args.model)
    event, delta = configio.load_sensitivity_config(args.config)
    run.extra = {"delta": delta}
    bars = analysis.tornado(net, event, delta=delta)
    labels = [analysis.param_label(net, bar.param) for bar in bars]
    reports.write_tornado(csv_path, txt_path, bars, labels, event, delta)
    influence = analysis.node_influence(net, event)
    reports.write_text(
        dot_path, export_dot(net.dag, analysis.influence_colors(influence))
    )
    reports.write_text(svg_path, charts.tornado_svg(bars, labels, event, delta))
    print(f"wrote {len(bars)} tornado bars")


def cmd_export(args, run: _Run):
    dot_path = run.claim("reports", f"{args.name}.dot")
    net = load_model(args.model)
    colors = None
    if args.influence:
        variable, _, state = args.influence.partition("=")
        if not state:
            raise MalformedFile("<cli>", "--influence", "expected VARIABLE=STATE")
        colors = analysis.influence_colors(
            analysis.node_influence(net, (variable, state))
        )
    reports.write_text(dot_path, export_dot(net.dag, colors))
    print(f"wrote {dot_path}")


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _stem(text):
    """A ``--name``: a file name, so every output stays in the workspace."""
    if text in ("", ".", "..") or os.sep in text or (os.altsep and os.altsep in text):
        raise argparse.ArgumentTypeError("must be a file name, without a directory part")
    return text


def _add_common(sub, name_default):
    sub.add_argument(
        "--workspace",
        default=os.environ.get(WORKSPACE_ENV, "workspace"),
        help=f"workspace directory (default: ${WORKSPACE_ENV} or ./workspace)",
    )
    sub.add_argument("--name", type=_stem, default=name_default,
                     help="output name stem: a file name, without a directory part")
    sub.add_argument("--force", action="store_true", help="allow overwriting outputs")
    sub.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="most worker processes for the learn bootstrap, which runs in-process "
        "when it has too few replicates to pay for a pool; other commands run serially",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="beliefnet", description=__doc__)
    parser.add_argument("--version", action="version", version=f"beliefnet {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("prep", help="recode a raw survey CSV into the configured tables")
    p.add_argument("--raw", required=True)
    p.add_argument("--recode", required=True, help="beliefnet-prep config")
    p.add_argument("--themes", default=None, help="beliefnet-themes config")
    _add_common(p, "survey")
    p.set_defaults(func=cmd_prep, inputs=("raw", "recode", "themes"))

    p = commands.add_parser("learn", help="bootstrapped structure learning + fit")
    p.add_argument("--data", required=True, help="encoded table CSV")
    p.add_argument("--dict", required=True, help="variable dictionary YAML")
    p.add_argument("--tiers", default=None, help="beliefnet-tiers config")
    p.add_argument("--config", default=None, help="beliefnet-learn config")
    p.add_argument("--bootstrap", type=_positive_int, default=None,
                   help="replicates (overrides config)")
    p.add_argument("--seed", type=int, default=None, help="bootstrap seed (default: random)")
    _add_common(p, "model")
    p.set_defaults(func=cmd_learn, inputs=("data", "dict", "tiers", "config"))

    for command, func, text, config in (
        ("query", cmd_query, "conditional probability tables", "query"),
        ("sobol", cmd_sobol, "first-order Sobol index matrix", "sobol"),
        ("scenario", cmd_scenario, "multi-evidence scenario posteriors", "scenarios"),
        ("sensitivity", cmd_sensitivity, "CPT perturbation tornado + influence", "sensitivity"),
    ):
        p = commands.add_parser(command, help=text)
        p.add_argument("--model", required=True)
        p.add_argument("--config", required=True, help=f"beliefnet-{config} config")
        _add_common(p, "report")
        p.set_defaults(func=func, inputs=("model", "config"))

    p = commands.add_parser("export", help="Graphviz DOT export")
    p.add_argument("--model", required=True)
    p.add_argument("--influence", default=None, metavar="VARIABLE=STATE",
                   help="shade nodes by sensitivity to this event")
    _add_common(p, "graph")
    p.set_defaults(func=cmd_export, inputs=("model",))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with _Run(args) as run:
            args.func(args, run)
            run.finish()
    except (BeliefnetError, OSError) as exc:
        sys.stderr.write(f"beliefnet: error: {exc}\n")
        return EXIT_DATA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
