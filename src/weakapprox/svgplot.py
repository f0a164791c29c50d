"""Deterministic SVG rendering of step functions.

Hand-rolled SVG 1.1 writer: no plotting dependency, and byte-identical
output for identical input (floats are formatted with a fixed pattern).
Pieces are drawn as horizontal segments with a filled dot at the closed
left endpoint and an open dot at the right endpoint; axes are log-log by
default since both coordinates span many orders of magnitude.
"""

from __future__ import annotations

import math
from html import escape

from .intmath import log_int, log_product_ratio
from .measure import StepFunction, Value

__all__ = ["plot_steps"]

_PALETTE = ("#c0392b", "#2457a0", "#1e8449", "#8e44ad", "#b7950b", "#5d6d7e")

#: Canvas width and height and the margin around the axes box, in pixels.
_WIDTH, _HEIGHT, _MARGIN = 720, 480, 56


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _log10_value(x: int, y: int, d: int) -> float:
    return log_product_ratio(x, y, d, 1) / math.log(10.0)


def _log10_int(t: int) -> float:
    return log_int(t) / math.log(10.0)


def plot_steps(
    functions: list[tuple[str, StepFunction]],
    annotations: list[int] | None = None,
    log_axes: bool = True,
    title: str = "",
) -> str:
    """Render labelled step functions (and vertical marker lines) to SVG text.

    ``annotations`` are x-positions (typically witness breakpoints) drawn as
    dashed vertical lines.  Functions must have overlapping domains, and on
    linear axes every coordinate must fit in a double.  The title and the
    labels are escaped as XML text (``&``, ``<``, ``>``).
    """
    if not functions:
        raise ValueError("nothing to plot")
    annotations = annotations or []

    lo = max(f.domain_start for _, f in functions)
    hi = min(f.domain_end for _, f in functions)
    if lo >= hi:
        raise ValueError("domains do not overlap")

    def tx(t: int) -> float:
        return _log10_int(t) if log_axes else float(t)

    def ty(v: Value) -> float:
        return _log10_value(*v) if log_axes else v[0] * v[1] / v[2]

    # Each function's segments (x_start, x_end, y) and the markers, in axis
    # units, computed once: the bounds are read from them and they are drawn.
    try:
        segments = [[(tx(max(b, lo)), tx(min(e, hi)), ty(v))
                     for b, e, v in f.pieces() if lo < e and b < hi] for _, f in functions]
        marks = [(k, tx(k)) for k in sorted(set(annotations)) if lo <= k < hi]
    except OverflowError:
        raise ValueError("a coordinate does not fit in a double on linear axes; "
                         "plot it on log axes") from None
    xs = [x for segs in segments for b, e, _ in segs for x in (b, e)] + [x for _, x in marks]
    ys = [y for segs in segments for _, _, y in segs]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 - x0 < 1e-9:
        x1 = x0 + 1.0
    if y1 - y0 < 1e-9:
        y1 = y0 + 1.0

    m, w, h = _MARGIN, _WIDTH, _HEIGHT

    def px(x: float) -> float:
        return m + (x - x0) / (x1 - x0) * (w - 2 * m)

    def py(y: float) -> float:
        return h - m - (y - y0) / (y1 - y0) * (h - 2 * m)

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w}" height="{h}" viewBox="0 0 {w} {h}">'
    )
    out.append(f'<rect width="{w}" height="{h}" fill="#ffffff"/>')
    if title:
        out.append(
            f'<text x="{w // 2}" y="{m // 2}" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{escape(title, quote=False)}</text>'
        )
    # Axes box.
    out.append(
        f'<rect x="{m}" y="{m}" width="{w - 2 * m}" height="{h - 2 * m}" '
        f'fill="none" stroke="#333333" stroke-width="1"/>'
    )
    axis_label = "log10 t" if log_axes else "t"
    out.append(
        f'<text x="{w // 2}" y="{h - m // 3}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{axis_label}</text>'
    )

    for k, xk in marks:
        x = _fmt(px(xk))
        out.append(
            f'<line x1="{x}" y1="{m}" x2="{x}" y2="{h - m}" '
            f'stroke="#888888" stroke-width="1" stroke-dasharray="4,3"/>'
        )
        out.append(
            f'<text x="{x}" y="{m - 4}" text-anchor="middle" '
            f'font-family="monospace" font-size="10">{k}</text>'
        )

    for idx, ((label, _), segs) in enumerate(zip(functions, segments)):
        color = _PALETTE[idx % len(_PALETTE)]
        for b, e, y in segs:
            xa, xb_, y = px(b), px(e), py(y)
            out.append(
                f'<line x1="{_fmt(xa)}" y1="{_fmt(y)}" x2="{_fmt(xb_)}" y2="{_fmt(y)}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            out.append(
                f'<circle cx="{_fmt(xa)}" cy="{_fmt(y)}" r="3" fill="{color}"/>'
            )
            out.append(
                f'<circle cx="{_fmt(xb_)}" cy="{_fmt(y)}" r="3" fill="#ffffff" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        out.append(
            f'<text x="{w - m - 4}" y="{m + 16 + 14 * idx}" text-anchor="end" '
            f'font-family="monospace" font-size="12" fill="{color}">'
            f'{escape(label, quote=False)}</text>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"
