"""CSV and text report writers.

CSV numbers carry 12 significant digits (loss-free for reloading at that
precision); text reports round to 4 decimals for reading side by side with
published tables. Each report's rows are built once, with its numbers left
as floats: ``_write_report_csv`` writes them through ``fmt``, the one place a
report-CSV number is formatted, and ``text_table`` to 4 decimals; any other
cell is written as given. All writers emit LF newlines and fixed column
orders so identical inputs produce identical bytes. Every beliefnet file,
models and data tables included, reaches disk through ``write_text``.
"""

from __future__ import annotations

import csv
import io
import itertools
import os


def fmt(x) -> str:
    return f"{float(x):.12g}"


def write_query_csv(path, levels, baseline, blocks) -> None:
    """Conditional-probability layout: baseline row, then per-evidence blocks.

    ``blocks`` is a list of (sweep variable, [QueryResult per level]).
    """
    _write_report_csv(path, ["evidence_variable", "evidence_value", *levels], [
        ["Baseline", "", *baseline.distribution],
        *([sweep, row.evidence[sweep], *row.distribution]
          for sweep, rows in blocks for row in rows),
    ])


def write_sobol(csv_path, txt_path, matrix) -> None:
    """The Sobol matrix as CSV and as a text table of the same rows."""
    header = ["input", *matrix.targets]
    rows = [[name, *("--" if (v := matrix.value(name, t)) is None else v for t in matrix.targets)]
            for name in matrix.inputs]
    _write_report_csv(csv_path, header, rows)
    write_text(txt_path, text_table("First-order Sobol indices (% of output variance)",
                                    header, rows))


def write_scenarios(csv_paths, txt_path, levels, results) -> None:
    """Each target's rows of scenario posteriors, as its CSV ``csv_paths[target]``
    and then all together as the sections of one text report; ``levels``
    maps each target to its levels."""
    sections = []
    for target, path in csv_paths.items():
        rows = [[r.name, r.evidence_probability, *r.posteriors[target].distribution]
                for r in results]
        _write_report_csv(path, ["scenario", "evidence_probability", *levels[target]], rows)
        sections.append(text_table(f"Scenario posteriors for {target}",
                                   ["scenario", "P(evidence)", *levels[target]], rows))
    write_text(txt_path, "\n".join(sections))


def write_strengths_csv(path, table) -> None:
    _write_report_csv(path, ["from", "to", "strength", "direction", "arc_frequency"], (
        [frm, to, table.strength(frm, to), table.direction(frm, to), table.arc_frequency(frm, to)]
        for a, b in table.pairs()
        for frm, to in ((a, b), (b, a))
    ))


def write_tornado(csv_path, txt_path, bars, event, delta) -> None:
    """One row per bar as CSV; its label, shifts and magnitude as a text table."""
    variable, state = event
    rows = [
        [variable, state, delta,
         bar.param.variable, bar.param.config, bar.param.state, bar.label,
         bar.increase.delta, bar.increase.shift,
         bar.decrease.delta, bar.decrease.shift, bar.magnitude]
        for bar in bars
    ]
    _write_report_csv(csv_path, ["target_variable", "target_state", "requested_delta",
                                 "parameter_variable", "parent_config", "parameter_state",
                                 "label", "up_delta", "up_shift", "down_delta", "down_shift",
                                 "magnitude"], rows)
    write_text(txt_path, text_table(f"Tornado for {variable}={state} (delta={delta:g})",
                                    ["parameter", "up_shift", "down_shift", "magnitude"],
                                    [[r[6], r[8], r[10], r[11]] for r in rows]))


def text_table(title, header, rows) -> str:
    """Aligned monospace table with 4-decimal numbers."""
    rendered = [
        [f"{c:.4f}" if isinstance(c, float) else str(c) for c in row] for row in rows
    ]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rendered)) if rendered else len(header[i])
        for i in range(len(header))
    ]
    lines = [title, "", "  ".join(h.ljust(w) for h, w in zip(header, widths)),
             "  ".join("-" * w for w in widths)]
    lines += ("  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in rendered)
    return "\n".join(lines) + "\n"


def _write_report_csv(path, header, rows) -> None:
    """``write_csv`` with every float cell, numpy.float64 included, written by ``fmt``."""
    write_csv(path, header, ([fmt(c) if isinstance(c, float) else c for c in row] for row in rows))


def write_csv(path, header, rows) -> None:
    """``header`` then ``rows`` as CSV records ending in LF, through write_text."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(itertools.chain([header], rows))
    write_text(path, buf.getvalue())


def write_text(path, content) -> None:
    """``content`` as UTF-8 with LF newlines, written to ``<path>.<pid>.tmp``
    and moved over ``path`` once on disk: a failed write leaves the old file
    or none (a killed one may also leave the tmp, which the next write of
    ``path`` under the same pid removes)."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fh = open(tmp, "x", encoding="utf-8", newline="\n")  # mode follows the umask
    except FileExistsError:
        # only this process can own the name and it writes one file at a
        # time, so the tmp is left by a killed process that had this pid
        os.unlink(tmp)
        fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            fh.write(content)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
