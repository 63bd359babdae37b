"""Print every executable line of src/beliefnet that the tier-1 tests do not
reach, then the total.

    PYTHONPATH=src python scripts/line_reach.py [pytest arguments]

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
"""

from __future__ import annotations

import os
import sys
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


def executable_lines(path):
    """The line numbers that any code object compiled from ``path`` maps an
    instruction to."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    lines, todo = set(), [compile(source, path, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines, source.splitlines()


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


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    status, reached = run_traced(["-q", "-p", "no:cacheprovider", *args])
    total = unreached = 0
    print()
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        lines, text = executable_lines(path)
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
