"""Print every executable line of src/beliefnet that the tier-1 tests do not
reach, then the total; or, with --walkthrough, every function of
src/beliefnet that the README's seven CLI stages never enter.

    PYTHONPATH=src python scripts/line_reach.py [pytest arguments]
    PYTHONPATH=src python scripts/line_reach.py --walkthrough

It needs no coverage package: pytest runs in this process under a
``sys.settrace`` tracer that records lines only in frames whose code lives
in src/beliefnet. A file's executable lines are the line numbers its code
objects map instructions to (``co_lines``), so comments, blank lines and
docstrings do not count. Process-pool workers (``bootstrap_strengths`` with
more than one worker) are not recorded: a line that only a worker runs is
reported as unreached, so the count is an upper bound.

Under the tracer tier-1 runs about three times slower than without it, so
this is a report, not a test. It exits with pytest's status; the number of
unreached lines never fails it. ``KEPT`` lists the lines that stay
unreached on purpose, each with its reason.

``--walkthrough`` runs the README walkthrough (prep, learn, query, sobol,
scenario, sensitivity, export) in this process on the bundled fixture, with
one worker and an 8-replicate bootstrap, into a temporary workspace, under a
``sys.setprofile`` hook that records each function call. It lists the named
functions (not lambdas, comprehensions or module bodies) that no stage
enters: the error paths, and what only the library or a script calls. It
exits 1 if a stage fails; the length of the list never fails it.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import os
import sys
import tempfile
import threading

import pytest  # imports no beliefnet module, so every one loads under the tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "beliefnet")

# (file, stripped source line) -> why no test reaches it
KEPT = {
    ("_yamlio.py", "Loader, Dumper = loader(yaml.SafeLoader), yaml.SafeDumper"):
        "the pure-Python YAML fallback for a PyYAML built without libyaml; "
        "the installed PyYAML has libyaml, so the branch cannot run here",
    ("cli.py", "sys.exit(main())"):
        "the `python -m beliefnet.cli` guard; the tests call main() directly "
        "and the console script imports main",
}


def package_files():
    """(file name, path, code objects, source lines) of every module in
    src/beliefnet, read now, so a file edited while the run goes on is
    reported as it ran."""
    out = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        codes, todo = [], [compile(source, path, "exec")]
        while todo:
            codes.append(todo.pop())
            todo.extend(c for c in codes[-1].co_consts if hasattr(c, "co_lines"))
        out.append((name, path, codes, source.splitlines()))
    return out


def run_traced(pytest_args):
    """pytest's exit status and the set of (file, line) the run reached in
    src/beliefnet."""
    prefix = PACKAGE + os.sep
    reached = set()
    add = reached.add

    def local(frame, event, arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        add((filename, frame.f_lineno))
        return local

    threading.settrace(calls)
    sys.settrace(calls)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), reached


def walkthrough():
    """Run the seven README stages under a profile hook; print every named
    src/beliefnet function none of them enters. 0, or 1 if a stage fails."""
    files = package_files()
    prefix = PACKAGE + os.sep
    entered = set()
    add = entered.add

    def calls(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(prefix):
            add((code.co_filename, code.co_firstlineno, code.co_name))

    def fixture(name):
        return os.path.join(ROOT, "fixtures", name)

    with tempfile.TemporaryDirectory() as ws:
        model = os.path.join(ws, "models", "full.bn.yaml")
        stages = [
            ["prep", "--raw", fixture("synthetic_survey.csv"), "--recode", fixture("prep.yaml"),
             "--themes", fixture("themes.yaml"), "--name", "survey"],
            ["learn", "--data", os.path.join(ws, "data", "survey_full.csv"),
             "--dict", os.path.join(ws, "data", "survey_full.dict.yaml"),
             "--tiers", fixture("tiers_full.yaml"), "--config", fixture("learn_fast.yaml"),
             "--bootstrap", "8", "--seed", "42", "--workers", "1", "--name", "full"],
            ["query", "--model", model, "--config", fixture("query.yaml"), "--name", "rep"],
            ["sobol", "--model", model, "--config", fixture("sobol.yaml"), "--name", "rep"],
            ["scenario", "--model", model, "--config", fixture("scenarios.yaml"), "--name", "rep"],
            ["sensitivity", "--model", model, "--config", fixture("sensitivity.yaml"),
             "--name", "rep"],
            ["export", "--model", model, "--influence", "HeardEURegulation=No",
             "--name", "shaded"],
        ]
        threading.setprofile(calls)
        sys.setprofile(calls)
        try:
            from beliefnet.cli import main as cli_main  # what runs at import counts

            for argv in stages:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main([*argv, "--workspace", ws])
                if code != 0:
                    print(f"beliefnet {argv[0]} exited {code}", file=sys.stderr)
                    return 1
        finally:
            sys.setprofile(None)
            threading.setprofile(None)

    total = never = 0
    for name, path, codes, _ in files:
        for code in sorted(codes, key=lambda c: c.co_firstlineno):
            # a function, not a class body, a lambda, a comprehension or the module
            if code.co_name.startswith("<") or not code.co_flags & inspect.CO_OPTIMIZED:
                continue
            total += 1
            if (path, code.co_firstlineno, code.co_name) not in entered:
                never += 1
                print(f"src/beliefnet/{name}:{code.co_firstlineno}: "
                      f"{getattr(code, 'co_qualname', code.co_name)}")
    print(f"never entered: {never} of {total} functions (the README walkthrough, one worker)")
    return 0


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if "--walkthrough" in args:
        if len(args) > 1:
            sys.exit("line_reach.py: --walkthrough takes no other argument")
        return walkthrough()
    files = package_files()
    status, reached = run_traced(["-q", "-p", "no:cacheprovider", *args])
    total = unreached = 0
    print()
    for name, path, codes, text in files:
        lines = {line for code in codes for _, _, line in code.co_lines() if line is not None}
        total += len(lines)
        for line in sorted(lines):
            if (path, line) in reached:
                continue
            unreached += 1
            source = text[line - 1].strip()
            reason = KEPT.get((name, source))
            tail = f"    # kept: {reason}" if reason else ""
            print(f"src/beliefnet/{name}:{line}: {source}{tail}")
    print(f"unreached: {unreached} of {total} executable lines "
          "(process-pool workers untraced)")
    return status


if __name__ == "__main__":
    sys.exit(main())
