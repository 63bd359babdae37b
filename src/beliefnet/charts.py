"""Hand-emitted SVG charts: scenario bar groups and tornado diagrams.

No plotting stack: the files are deterministic, self-contained XML with no
external references and no run-varying field.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

PALETTE = (
    "#4c72b0", "#dd8452", "#55a868", "#c44e52", "#8172b3",
    "#937860", "#da8bc3", "#8c8c8c", "#ccb974", "#64b5cd",
    "#5f9e6e", "#b55d60",
)
GREEN = "#55a868"
RED = "#c44e52"
FONT = "font-family:Helvetica,Arial,sans-serif"
MAX_BARS = 40  # tornado rows drawn; the CSV report carries the full set


def _svg_root(width, height):
    return ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": str(width),
            "height": str(height),
            "viewBox": f"0 0 {width} {height}",
        },
    )


def _text(parent, x, y, content, size=11, anchor="start"):
    el = ET.SubElement(
        parent,
        "text",
        {
            "x": f"{x:.1f}",
            "y": f"{y:.1f}",
            "text-anchor": anchor,
            "style": f"{FONT};font-size:{size}px",
        },
    )
    el.text = str(content)
    return el


def _rect(parent, x, y, w, h, fill):
    ET.SubElement(
        parent,
        "rect",
        {
            "x": f"{x:.2f}",
            "y": f"{y:.2f}",
            "width": f"{max(w, 0):.2f}",
            "height": f"{max(h, 0):.2f}",
            "fill": fill,
        },
    )


def _line(parent, x1, y1, x2, y2, stroke="#333333", width=1.0):
    ET.SubElement(
        parent,
        "line",
        {
            "x1": f"{x1:.2f}",
            "y1": f"{y1:.2f}",
            "x2": f"{x2:.2f}",
            "y2": f"{y2:.2f}",
            "stroke": stroke,
            "stroke-width": str(width),
        },
    )


def _render(root) -> str:
    return ET.tostring(root, encoding="unicode") + "\n"


def scenario_bars_svg(target, levels, scenario_names, probabilities) -> str:
    """Grouped bars: one group per target level, one bar per scenario.

    ``probabilities[s][k]`` is P(level k | scenario s).
    """
    levels = list(levels)
    scenario_names = list(scenario_names)
    n_groups, n_bars = len(levels), len(scenario_names)
    bar_w = 14
    gap = 26
    group_w = n_bars * bar_w + gap
    margin_l, margin_t, margin_b = 52, 40, 46
    plot_h = 240
    legend_w = 16 + 10 * max((len(s) for s in scenario_names), default=4)
    width = margin_l + n_groups * group_w + 30 + legend_w
    height = margin_t + plot_h + margin_b
    root = _svg_root(width, height)
    _text(root, margin_l, 20, f"Posterior of {target} by scenario", size=14)

    def y_of(p):
        return margin_t + plot_h * (1.0 - p)

    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y_of(tick)
        _line(root, margin_l, y, margin_l + n_groups * group_w, y, "#dddddd", 0.7)
        _text(root, margin_l - 6, y + 3.5, f"{tick:g}", size=10, anchor="end")
    _line(root, margin_l, margin_t, margin_l, margin_t + plot_h)
    _line(root, margin_l, margin_t + plot_h, margin_l + n_groups * group_w, margin_t + plot_h)

    for g, level in enumerate(levels):
        x0 = margin_l + g * group_w + gap / 2
        for s in range(n_bars):
            p = float(probabilities[s][g])
            color = PALETTE[s % len(PALETTE)]
            _rect(root, x0 + s * bar_w, y_of(p), bar_w - 2, plot_h * p, color)
        _text(
            root,
            x0 + (n_bars * bar_w) / 2,
            margin_t + plot_h + 16,
            level,
            size=11,
            anchor="middle",
        )

    lx = margin_l + n_groups * group_w + 24
    for s, name in enumerate(scenario_names):
        ly = margin_t + 16 * s
        _rect(root, lx, ly, 10, 10, PALETTE[s % len(PALETTE)])
        _text(root, lx + 14, ly + 9, name, size=10)
    return _render(root)


def tornado_svg(bars, event, delta) -> str:
    """Horizontal tornado for the ``(variable, state)`` event: per bar,
    green = increase shift, red = decrease.

    ``bars`` come pre-sorted by magnitude (the tornado() contract); shifts
    are signed P(event) changes drawn from a common zero axis. Only the top
    MAX_BARS rows are drawn; the CSV report carries the full set.
    """
    bars = list(bars)
    total = len(bars)
    bars = bars[:MAX_BARS]
    row_h = 20
    margin_t, margin_b = 56, 30
    label_w = 16 + 7 * max((len(b.label) for b in bars), default=10)
    plot_w = 360
    width = label_w + plot_w + 40
    height = margin_t + row_h * len(bars) + margin_b
    root = _svg_root(width, height)
    title = f"Tornado for {event[0]}={event[1]} (delta={delta:g})"
    if len(bars) < total:
        title += f" - top {len(bars)} of {total}"
    _text(root, 12, 20, title, size=14)
    _rect(root, 12, 30, 10, 10, GREEN)
    _text(root, 26, 39, "parameter increase", size=10)
    _rect(root, 150, 30, 10, 10, RED)
    _text(root, 164, 39, "parameter decrease", size=10)

    top = max((b.magnitude for b in bars), default=0.0) or 1.0
    x_zero = label_w + plot_w / 2

    def dx(shift):
        return (shift / top) * (plot_w / 2 - 6)

    _line(root, x_zero, margin_t - 6, x_zero, margin_t + row_h * len(bars), "#999999")
    _text(root, x_zero, margin_t - 10, "0", size=9, anchor="middle")
    _text(
        root,
        label_w + plot_w,
        margin_t - 10,
        f"+{top:.3g}",
        size=9,
        anchor="end",
    )

    for i, bar in enumerate(bars):
        y = margin_t + i * row_h
        _text(root, label_w - 6, y + 12, bar.label, size=9, anchor="end")
        for shift, color, lane in (
            (bar.increase.shift, GREEN, 0),
            (bar.decrease.shift, RED, 1),
        ):
            w = dx(shift)
            x = x_zero + min(w, 0.0)
            _rect(root, x, y + 2 + lane * 8, abs(w), 6, color)
    return _render(root)
