"""Minimal deterministic SVG line plots (no external renderer).

Byte-identical output for identical inputs: fixed float formatting, no
timestamps, no randomness.  Curves on the primary (left) axis share a y
range; a curve may opt into the secondary axis, fixed to [0, 1.05], for
fields that live in [0, 1].
"""

import numpy as np

WIDTH = 720
HEIGHT = 400
MARGIN_L = 56
MARGIN_R = 56
MARGIN_T = 34
MARGIN_B = 44


def _fmt(value: float) -> str:
    return f"{value:.3f}".rstrip("0").rstrip(".")


def _tick_label(value: float) -> str:
    return f"{value:.4g}"


class Curve:
    """One polyline: x/y arrays plus stroke styling."""

    def __init__(self, x, y, stroke, width=1.5, dash=None, secondary=False, label=""):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if self.x.shape != self.y.shape or self.x.ndim != 1:
            raise ValueError("curve needs matching 1D x and y")
        self.stroke = stroke
        self.width = width
        self.dash = dash
        self.secondary = secondary
        self.label = label


def _scale(vals, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span <= 0:
        span = 1.0
    return out_lo + (vals - lo) / span * (out_hi - out_lo)


def render(curves, title="") -> str:
    """Render curves to an SVG document string."""
    if not curves:
        raise ValueError("nothing to plot")
    xs = np.concatenate([c.x for c in curves])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    primary = [c for c in curves if not c.secondary] or curves
    ys = np.concatenate([c.y for c in primary])
    y_lo, y_hi = float(ys.min()), float(ys.max())
    pad = 0.05 * max(y_hi - y_lo, 1e-12)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    px_l, px_r = MARGIN_L, WIDTH - MARGIN_R
    px_b, px_t = HEIGHT - MARGIN_B, MARGIN_T

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" '
            f'font-family="monospace" font-size="13">{title}</text>'
        )
    # axes box
    parts.append(
        f'<rect x="{px_l}" y="{px_t}" width="{px_r - px_l}" height="{px_b - px_t}" '
        f'fill="none" stroke="#444" stroke-width="1"/>'
    )
    # ticks
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        px = _scale(np.array([fx]), x_lo, x_hi, px_l, px_r)[0]
        parts.append(f'<line x1="{_fmt(px)}" y1="{px_b}" x2="{_fmt(px)}" y2="{px_b + 4}" stroke="#444"/>')
        parts.append(
            f'<text x="{_fmt(px)}" y="{px_b + 16}" text-anchor="middle" '
            f'font-family="monospace" font-size="10">{_tick_label(fx)}</text>'
        )
        fy = y_lo + (y_hi - y_lo) * i / 4
        py = _scale(np.array([fy]), y_lo, y_hi, px_b, px_t)[0]
        parts.append(f'<line x1="{px_l - 4}" y1="{_fmt(py)}" x2="{px_l}" y2="{_fmt(py)}" stroke="#444"/>')
        parts.append(
            f'<text x="{px_l - 7}" y="{_fmt(py + 3)}" text-anchor="end" '
            f'font-family="monospace" font-size="10">{_tick_label(fy)}</text>'
        )
    if any(c.secondary for c in curves):
        for i in range(5):
            fy = 1.05 * i / 4
            py = _scale(np.array([fy]), 0.0, 1.05, px_b, px_t)[0]
            parts.append(f'<line x1="{px_r}" y1="{_fmt(py)}" x2="{px_r + 4}" y2="{_fmt(py)}" stroke="#444"/>')
            parts.append(
                f'<text x="{px_r + 7}" y="{_fmt(py + 3)}" text-anchor="start" '
                f'font-family="monospace" font-size="10">{_tick_label(fy)}</text>'
            )

    legend_y = px_t + 14
    for c in curves:
        if c.secondary:
            sy = _scale(c.y, 0.0, 1.05, px_b, px_t)
        else:
            sy = _scale(c.y, y_lo, y_hi, px_b, px_t)
        sx = _scale(c.x, x_lo, x_hi, px_l, px_r)
        pts = " ".join(f"{_fmt(a)},{_fmt(b)}" for a, b in zip(sx.tolist(), sy.tolist()))  # Python floats format faster
        dash = f' stroke-dasharray="{c.dash}"' if c.dash else ""
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{c.stroke}" '
            f'stroke-width="{c.width}" opacity="1"{dash}/>'
        )
        if c.label:
            parts.append(
                f'<line x1="{px_l + 8}" y1="{legend_y - 4}" x2="{px_l + 30}" y2="{legend_y - 4}" '
                f'stroke="{c.stroke}" stroke-width="{c.width}"{dash}/>'
            )
            parts.append(
                f'<text x="{px_l + 35}" y="{legend_y}" font-family="monospace" '
                f'font-size="11">{c.label}</text>'
            )
            legend_y += 14
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path, curves, title="") -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render(curves, title=title))
