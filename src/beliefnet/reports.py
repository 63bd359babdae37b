"""CSV and text report writers.

CSV numbers carry 12 significant digits (loss-free for reloading at that
precision); text reports round to 4 decimals for reading side by side with
published tables. All writers emit LF newlines and fixed column orders so
identical inputs produce identical bytes. Every beliefnet file, models and
data tables included, reaches disk through ``write_text``.
"""

from __future__ import annotations

import csv
import io
import itertools
import os

DASH = "--"


def fmt(x) -> str:
    return f"{float(x):.12g}"


def fmt4(x) -> str:
    return f"{float(x):.4f}"


def write_query_csv(path, levels, baseline, blocks) -> None:
    """Conditional-probability layout: baseline row, then per-evidence blocks.

    ``blocks`` is a list of (sweep variable, [QueryResult per level]).
    """
    write_csv(path, ["evidence_variable", "evidence_value", *levels], [
        ["Baseline", "", *map(fmt, baseline.distribution)],
        *([sweep, row.evidence[sweep], *map(fmt, row.distribution)]
          for sweep, rows in blocks for row in rows),
    ])


def read_query_csv(path):
    """Reload a query CSV: (levels, [(evidence_variable, evidence_value, probs)])."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header, *rows = csv.reader(fh)
    return tuple(header[2:]), [(r[0], r[1], [float(x) for x in r[2:]]) for r in rows]


def write_sobol_csv(path, matrix) -> None:
    write_csv(path, ["input", *matrix.targets], (
        [name, *(DASH if (v := matrix.value(name, t)) is None else fmt(v) for t in matrix.targets)]
        for name in matrix.inputs
    ))


def write_scenario_csv(path, target, levels, results) -> None:
    write_csv(path, ["scenario", "evidence_probability", *levels], (
        [res.name, fmt(res.evidence_probability), *map(fmt, res.posteriors[target].distribution)]
        for res in results
    ))


def write_strengths_csv(path, table) -> None:
    write_csv(path, ["from", "to", "strength", "direction", "arc_frequency"], (
        [frm, to, fmt(table.strength(frm, to)), fmt(table.direction(frm, to)),
         fmt(table.arc_frequency(frm, to))]
        for a, b in table.pairs()
        for frm, to in ((a, b), (b, a))
    ))


def write_tornado_csv(path, bars, event, delta) -> None:
    variable, state = event
    write_csv(path, ["target_variable", "target_state", "requested_delta", "parameter_variable",
                     "parent_config", "parameter_state", "label", "up_delta", "up_shift",
                     "down_delta", "down_shift", "magnitude"], (
        [variable, state, fmt(delta),
         bar.param.variable, bar.param.config, bar.param.state, bar.label,
         fmt(bar.increase.delta), fmt(bar.increase.shift),
         fmt(bar.decrease.delta), fmt(bar.decrease.shift), fmt(bar.magnitude)]
        for bar in bars
    ))


def text_table(title, header, rows) -> str:
    """Aligned monospace table with 4-decimal numbers."""
    rendered = [
        [fmt4(c) if isinstance(c, float) else str(c) for c in row] for row in rows
    ]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rendered)) if rendered else len(header[i])
        for i in range(len(header))
    ]
    lines = [title, "", "  ".join(h.ljust(w) for h, w in zip(header, widths)),
             "  ".join("-" * w for w in widths)]
    lines += ("  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rendered)
    return "\n".join(lines) + "\n"


def write_csv(path, header, rows) -> None:
    """``header`` then ``rows`` as CSV records ending in LF, through write_text."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(itertools.chain([header], rows))
    write_text(path, buf.getvalue())


def write_text(path, content) -> None:
    """``content`` as UTF-8 with LF newlines, written to ``<path>.<pid>.tmp``
    and moved over ``path`` once on disk: a failed write leaves the old file
    or none (a killed one may also leave the tmp)."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="\n")  # mode follows the umask
    try:
        with fh:
            fh.write(content)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
