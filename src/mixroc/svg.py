"""Tiny dependency-free SVG emitters for histograms and ROC overlays.

Plots are a presentation convenience only; every number a test or a
report relies on comes from the JSON/CSV outputs, never from here.
"""

from __future__ import annotations

import numpy as np

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 55

PALETTE = {
    "empirical": "#333333",
    "binormal": "#c04040",
    "mg": "#2060c0",
    "band": "#9ec3e8",
    "histogram": "#5b8db8",
}


def _num(v: float) -> str:
    return f"{v:.2f}".rstrip("0").rstrip(".")


class _Canvas:
    """Maps data coordinates to SVG pixels inside the margins."""

    def __init__(self, x_lo, x_hi, y_lo, y_hi):
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi
        self.parts: list[str] = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        ]

    def px(self, x: float) -> float:
        # on quarters, exact for normal floats, so a span beyond the largest float stays finite
        frac = (x / 4 - self.x_lo / 4) / (self.x_hi / 4 - self.x_lo / 4)
        return MARGIN_L + frac * (WIDTH - MARGIN_L - MARGIN_R)

    def py(self, y: float) -> float:
        frac = (y - self.y_lo) / (self.y_hi - self.y_lo)
        return HEIGHT - MARGIN_B - frac * (HEIGHT - MARGIN_T - MARGIN_B)

    def add(self, fragment: str) -> None:
        self.parts.append(fragment)

    def title(self, text: str) -> None:
        self.add(
            f'<text x="{WIDTH / 2:.1f}" y="24" font-family="sans-serif" font-size="16" '
            f'text-anchor="middle">{text}</text>'
        )

    def axes(self, x_label: str, y_label: str, x_ticks, y_ticks) -> None:
        x0, y0 = MARGIN_L, HEIGHT - MARGIN_B
        x1, y1 = WIDTH - MARGIN_R, MARGIN_T
        self.add(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
        self.add(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
        for t in x_ticks:
            px = self.px(t)
            self.add(f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y0 + 5}" stroke="black"/>')
            self.add(
                f'<text x="{px:.1f}" y="{y0 + 20}" font-family="sans-serif" font-size="12" '
                f'text-anchor="middle">{_num(t)}</text>'
            )
        for t in y_ticks:
            py = self.py(t)
            self.add(f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="black"/>')
            self.add(
                f'<text x="{x0 - 9}" y="{py + 4:.1f}" font-family="sans-serif" font-size="12" '
                f'text-anchor="end">{_num(t)}</text>'
            )
        self.add(
            f'<text x="{(x0 + x1) / 2:.1f}" y="{HEIGHT - 12}" font-family="sans-serif" '
            f'font-size="13" text-anchor="middle">{x_label}</text>'
        )
        self.add(
            f'<text x="18" y="{(y0 + y1) / 2:.1f}" font-family="sans-serif" font-size="13" '
            f'text-anchor="middle" transform="rotate(-90 18 {(y0 + y1) / 2:.1f})">{y_label}</text>'
        )

    def polyline(self, xs, ys, color: str, width: float = 1.6, dash: str | None = None) -> None:
        pts = " ".join(f"{self.px(x):.2f},{self.py(y):.2f}" for x, y in zip(xs, ys))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.add(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"{dash_attr}/>')

    def polygon(self, xs, ys, color: str, opacity: float = 0.45) -> None:
        pts = " ".join(f"{self.px(x):.2f},{self.py(y):.2f}" for x, y in zip(xs, ys))
        self.add(f'<polygon points="{pts}" fill="{color}" fill-opacity="{opacity}" stroke="none"/>')

    def legend(self, entries) -> None:
        x = MARGIN_L + 16
        y = HEIGHT - MARGIN_B - 16 - 18 * len(entries)
        for label, color, dash in entries:
            dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
            self.add(f'<line x1="{x}" y1="{y - 4}" x2="{x + 28}" y2="{y - 4}" stroke="{color}" stroke-width="2"{dash_attr}/>')
            self.add(
                f'<text x="{x + 34}" y="{y}" font-family="sans-serif" font-size="12">{label}</text>'
            )
            y += 18

    def render(self) -> str:
        return "\n".join(self.parts + ["</svg>"])


def _bin_edges(scores: np.ndarray, bins: int) -> np.ndarray:
    """The edges `np.histogram(scores, bins)` uses, merged where they would repeat.

    A range of a few ulps holds fewer than `bins` distinct edges, and above
    2**53 numpy's ±0.5 widening of a zero range is no widening; `np.histogram`
    raises on both, while these edges give as many bins as the range holds.
    """
    lo, hi = float(scores.min()), float(scores.max())
    if lo == hi:  # numpy's widening, by at least one float each way
        lo = min(lo - 0.5, np.nextafter(lo, -np.inf))
        hi = max(hi + 0.5, np.nextafter(hi, np.inf))
    edges = np.linspace(lo / 4, hi / 4, bins + 1) * 4  # quarters, as in `_Canvas.px`
    edges[[0, -1]] = lo, hi  # a quarter rounds below 2**-1020
    return np.unique(edges)


def histogram_svg(scores, title: str) -> str:
    """Density-scaled 30-bin histogram of one population's scores.

    A range too narrow for 30 distinct bin edges gets fewer bins. A density
    axis that leaves the float range raises :class:`ValueError`.
    """
    scores = np.asarray(scores, dtype=float)
    counts, edges = np.histogram(scores, bins=_bin_edges(scores, 30))
    with np.errstate(over="ignore"):  # scores a few subnormals apart, or n * bin width > 1e308
        density = counts / (counts.sum() * np.diff(edges))
        top = float(density.max()) * 1.08
    if not 0.0 < top < np.inf:
        raise ValueError(f"{title}: the density of the span {scores.min():.3g} to "
                         f"{scores.max():.3g} leaves the float range; rescale the scores")
    canvas = _Canvas(float(edges[0]), float(edges[-1]), 0.0, top)
    canvas.title(title)
    for d, lo, hi in zip(density, edges[:-1], edges[1:]):
        if d <= 0:
            continue
        x0, x1 = canvas.px(lo), canvas.px(hi)
        y0, y1 = canvas.py(0.0), canvas.py(float(d))
        canvas.add(
            f'<rect x="{x0:.2f}" y="{y1:.2f}" width="{x1 - x0:.2f}" height="{y0 - y1:.2f}" '
            f'fill="{PALETTE["histogram"]}" stroke="white" stroke-width="0.5"/>'
        )
    x_ticks = np.linspace(edges[0] / 4, edges[-1] / 4, 5) * 4
    y_ticks = np.linspace(0.0, top, 5)
    canvas.axes("score", "density", x_ticks, y_ticks)
    return canvas.render()


def roc_overlay_svg(curves, band=None) -> str:
    """Overlay plot of ROC curves on the unit square.

    curves: iterable of (label, fpr, tpr); band: optional (fpr, lower,
    upper) drawn as a shaded region behind the curves.
    """
    canvas = _Canvas(0.0, 1.0, 0.0, 1.0)
    canvas.title("ROC curves")
    if band is not None:
        t, lo, hi = band
        xs = np.concatenate([t, t[::-1]])
        ys = np.concatenate([hi, lo[::-1]])
        canvas.polygon(xs, ys, PALETTE["band"])
    canvas.polyline([0, 1], [0, 1], "#bbbbbb", width=1.0, dash="4,4")
    legend = []
    for label, fpr, tpr in curves:
        color = PALETTE.get(label, "#444444")
        dash = "6,3" if label == "binormal" else None
        canvas.polyline(fpr, tpr, color, dash=dash)
        legend.append((label, color, dash))
    if band is not None:
        legend.append(("band", PALETTE["band"], None))
    ticks = np.linspace(0.0, 1.0, 6)
    canvas.axes("false positive rate", "true positive rate", ticks, ticks)
    canvas.legend(legend)
    return canvas.render()
