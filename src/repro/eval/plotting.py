"""Dependency-free SVG scatter plots for Figures 1 and 2.

No matplotlib exists in this environment, so the figure benches emit SVG
directly: :func:`scatter_svg` renders one panel (x = ASR %, y = ACC or RA %)
with one marker shape/colour per defense plus a legend, matching the
layout of the paper's Figures 1-2.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["scatter_svg", "figure_svg", "line_svg", "pruning_history_svg"]

# Colour-blind-safe categorical palette (Okabe-Ito).
_PALETTE = [
    "#0072B2", "#E69F00", "#009E73", "#D55E00",
    "#CC79A7", "#56B4E9", "#F0E442", "#000000",
]
_MARKERS = ("circle", "square", "diamond", "triangle", "cross", "circle_open", "square_open", "star")

Point = Tuple[float, float]
Series = Dict[str, Dict[str, List[Point]]]


def _marker_svg(shape: str, x: float, y: float, colour: str, size: float = 4.0) -> str:
    if shape == "circle":
        return f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{size}" fill="{colour}"/>'
    if shape == "circle_open":
        return (
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{size}" fill="none" '
            f'stroke="{colour}" stroke-width="1.5"/>'
        )
    if shape == "square":
        return (
            f'<rect x="{x - size:.1f}" y="{y - size:.1f}" width="{2 * size}" '
            f'height="{2 * size}" fill="{colour}"/>'
        )
    if shape == "square_open":
        return (
            f'<rect x="{x - size:.1f}" y="{y - size:.1f}" width="{2 * size}" '
            f'height="{2 * size}" fill="none" stroke="{colour}" stroke-width="1.5"/>'
        )
    if shape == "diamond":
        pts = f"{x},{y - size} {x + size},{y} {x},{y + size} {x - size},{y}"
        return f'<polygon points="{pts}" fill="{colour}"/>'
    if shape == "triangle":
        pts = f"{x},{y - size} {x + size},{y + size} {x - size},{y + size}"
        return f'<polygon points="{pts}" fill="{colour}"/>'
    if shape == "cross":
        return (
            f'<path d="M {x - size} {y - size} L {x + size} {y + size} '
            f'M {x - size} {y + size} L {x + size} {y - size}" '
            f'stroke="{colour}" stroke-width="2"/>'
        )
    if shape == "star":
        pts = f"{x},{y - size} {x + size * 0.3},{y - size * 0.3} {x + size},{y} " \
              f"{x + size * 0.3},{y + size * 0.3} {x},{y + size} {x - size * 0.3},{y + size * 0.3} " \
              f"{x - size},{y} {x - size * 0.3},{y - size * 0.3}"
        return f'<polygon points="{pts}" fill="{colour}"/>'
    raise ValueError(f"unknown marker {shape!r}")


def scatter_svg(
    series: Series,
    which: str = "acc_vs_asr",
    title: str = "",
    width: int = 420,
    height: int = 320,
) -> str:
    """Render one scatter panel as an SVG document string.

    ``series`` is the output of :func:`repro.eval.reporting.scatter_series`:
    per-defense point lists in percent, x = ASR, y = ACC or RA.
    """
    if which not in ("acc_vs_asr", "ra_vs_asr"):
        raise ValueError(f"unknown series {which!r}")
    margin_left, margin_bottom, margin_top, margin_right = 48, 40, 28, 120
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom

    def sx(value: float) -> float:
        return margin_left + value / 100.0 * plot_w

    def sy(value: float) -> float:
        return margin_top + (100.0 - value) / 100.0 * plot_h

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{margin_left + plot_w / 2}" y="16" text-anchor="middle" '
            f'font-size="13">{title}</text>'
        )
    # Axes + gridlines every 20 %.
    for tick in range(0, 101, 20):
        parts.append(
            f'<line x1="{sx(tick):.1f}" y1="{sy(0):.1f}" x2="{sx(tick):.1f}" '
            f'y2="{sy(100):.1f}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<line x1="{sx(0):.1f}" y1="{sy(tick):.1f}" x2="{sx(100):.1f}" '
            f'y2="{sy(tick):.1f}" stroke="#dddddd"/>'
        )
        parts.append(
            f'<text x="{sx(tick):.1f}" y="{sy(0) + 16:.1f}" text-anchor="middle">{tick}</text>'
        )
        parts.append(
            f'<text x="{sx(0) - 8:.1f}" y="{sy(tick) + 4:.1f}" text-anchor="end">{tick}</text>'
        )
    parts.append(
        f'<rect x="{sx(0):.1f}" y="{sy(100):.1f}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333"/>'
    )
    y_label = "ACC (%)" if which == "acc_vs_asr" else "RA (%)"
    parts.append(
        f'<text x="{sx(50):.1f}" y="{height - 6}" text-anchor="middle">ASR (%)</text>'
    )
    parts.append(
        f'<text x="14" y="{sy(50):.1f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {sy(50):.1f})">{y_label}</text>'
    )

    # Points + legend.
    legend_y = margin_top + 6
    for index, (defense, entry) in enumerate(sorted(series.items())):
        colour = _PALETTE[index % len(_PALETTE)]
        shape = _MARKERS[index % len(_MARKERS)]
        for x, y in entry[which]:
            parts.append(_marker_svg(shape, sx(x), sy(y), colour))
        lx = width - margin_right + 12
        parts.append(_marker_svg(shape, lx, legend_y, colour))
        parts.append(f'<text x="{lx + 10}" y="{legend_y + 4}">{defense}</text>')
        legend_y += 18
    parts.append("</svg>")
    return "\n".join(parts)


def line_svg(
    series: Dict[str, List[float]],
    title: str = "",
    x_label: str = "round",
    y_label: str = "value",
    width: int = 420,
    height: int = 280,
) -> str:
    """Render named line series (e.g. per-epoch losses) as an SVG document.

    The y-axis auto-scales to the data range; x is the 0-based index.
    """
    if not series or all(len(v) == 0 for v in series.values()):
        raise ValueError("line_svg needs at least one non-empty series")
    margin_left, margin_bottom, margin_top, margin_right = 52, 40, 28, 120
    plot_w = width - margin_left - margin_right
    plot_h = height - margin_top - margin_bottom
    all_values = [v for values in series.values() for v in values]
    y_min, y_max = min(all_values), max(all_values)
    if y_max == y_min:
        y_max = y_min + 1.0
    x_max = max(len(v) for v in series.values()) - 1
    x_max = max(x_max, 1)

    def sx(i: float) -> float:
        return margin_left + i / x_max * plot_w

    def sy(v: float) -> float:
        return margin_top + (y_max - v) / (y_max - y_min) * plot_h

    parts: List[str] = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{margin_left + plot_w / 2}" y="16" text-anchor="middle" '
            f'font-size="13">{title}</text>'
        )
    parts.append(
        f'<rect x="{margin_left}" y="{margin_top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333333"/>'
    )
    for frac in (0.0, 0.5, 1.0):
        value = y_min + frac * (y_max - y_min)
        parts.append(
            f'<text x="{margin_left - 6}" y="{sy(value) + 4:.1f}" text-anchor="end">'
            f"{value:.3g}</text>"
        )
    parts.append(
        f'<text x="{margin_left + plot_w / 2}" y="{height - 8}" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="16" y="{margin_top + plot_h / 2}" text-anchor="middle" '
        f'transform="rotate(-90 16 {margin_top + plot_h / 2})">{y_label}</text>'
    )
    legend_y = margin_top + 6
    for index, (name, values) in enumerate(sorted(series.items())):
        if not values:
            continue
        colour = _PALETTE[index % len(_PALETTE)]
        points = " ".join(f"{sx(i):.1f},{sy(v):.1f}" for i, v in enumerate(values))
        parts.append(
            f'<polyline points="{points}" fill="none" stroke="{colour}" stroke-width="1.8"/>'
        )
        lx = width - margin_right + 12
        parts.append(
            f'<line x1="{lx}" y1="{legend_y}" x2="{lx + 14}" y2="{legend_y}" '
            f'stroke="{colour}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 18}" y="{legend_y + 4}">{name}</text>')
        legend_y += 18
    parts.append("</svg>")
    return "\n".join(parts)


def pruning_history_svg(history, title: str = "Pruning history") -> str:
    """Plot a :class:`repro.core.PruningHistory`: loss and accuracy per round."""
    rounds = [r for r in history.rounds if not r.rolled_back]
    if not rounds:
        raise ValueError("history has no effective pruning rounds")
    return line_svg(
        {
            "val unlearning loss": [r.val_unlearning_loss for r in rounds],
            "val accuracy x100": [r.val_accuracy * 100 for r in rounds],
        },
        title=title,
        x_label="pruning round",
        y_label="value",
    )


def figure_svg(series: Series, title: str = "") -> str:
    """Render the paper's two-panel layout (ACC-vs-ASR above RA-vs-ASR)."""
    top = scatter_svg(series, "acc_vs_asr", title=f"{title} — ACC vs ASR" if title else "")
    bottom = scatter_svg(series, "ra_vs_asr", title=f"{title} — RA vs ASR" if title else "")
    # Stack the two standalone documents into one by nesting.
    inner_top = top.replace('<svg xmlns="http://www.w3.org/2000/svg"', '<svg y="0"', 1)
    inner_bottom = bottom.replace('<svg xmlns="http://www.w3.org/2000/svg"', '<svg y="320"', 1)
    return (
        '<svg xmlns="http://www.w3.org/2000/svg" width="420" height="640" '
        'viewBox="0 0 420 640">\n' + inner_top + "\n" + inner_bottom + "\n</svg>"
    )
