"""Deterministic SVG rendering of point sets and their matchings.

Output is assembled from fixed-precision formatted strings, so the same
input always produces byte-identical SVG.  Points draw as circles filled
from a 16-color palette (cycling on the color id), matched pairs draw as
line segments underneath, and the objective value appears as a single
text label.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import InvalidInstanceError
from .geometry import ColoredPointSet

PALETTE = (
    "#e6194b", "#3cb44b", "#e8c117", "#4363d8",
    "#f58231", "#911eb4", "#46f0f0", "#f032e6",
    "#7fbc41", "#8b5a2b", "#008080", "#9370db",
    "#800000", "#808000", "#000080", "#555555",
)

_CANVAS = 640.0
_MARGIN = 48.0


def render_svg(
    point_set: ColoredPointSet,
    pairs: Sequence[tuple[int, int]],
    label: str,
    value: float,
) -> str:
    """Render a solved matching over its point set as an SVG document."""
    if not pairs:
        raise InvalidInstanceError("refusing to render an empty matching")
    n = len(point_set)
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise InvalidInstanceError(f"pair ({a}, {b}) references a missing point")

    xs, ys = point_set.xs.tolist(), point_set.ys.tolist()
    if math.isinf(max(xs) - min(xs)) or math.isinf(max(ys) - min(ys)):
        # A span past the float range; the halved coordinates, whose span
        # is finite, draw the same picture.
        xs, ys = [x / 2 for x in xs], [y / 2 for y in ys]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(ys), max(ys)
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    scale = (_CANVAS - 2 * _MARGIN) / span

    def sx(x: float) -> str:
        return f"{_MARGIN + (x - xmin) * scale:.4f}"

    def sy(y: float) -> str:
        return f"{_MARGIN + (ymax - y) * scale:.4f}"

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS:.0f}" '
        f'height="{_CANVAS:.0f}" viewBox="0 0 {_CANVAS:.0f} {_CANVAS:.0f}">',
        f'<rect width="{_CANVAS:.0f}" height="{_CANVAS:.0f}" fill="#ffffff"/>',
    ]
    for a, b in pairs:
        parts.append(
            f'<line x1="{sx(xs[a])}" y1="{sy(ys[a])}" x2="{sx(xs[b])}" y2="{sy(ys[b])}" '
            'stroke="#333333" stroke-width="2"/>'
        )
    for x, y, color in zip(xs, ys, point_set.colors.tolist()):
        fill = PALETTE[color % len(PALETTE)]
        parts.append(
            f'<circle cx="{sx(x)}" cy="{sy(y)}" r="6" fill="{fill}" '
            'stroke="#000000" stroke-width="1"/>'
        )
    parts.append(
        f'<text x="{_MARGIN:.0f}" y="{_CANVAS - 16:.0f}" '
        f'font-family="monospace" font-size="16">{label} = {value!r}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
