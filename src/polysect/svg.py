"""Deterministic SVG 1.1 renderings of 2-dimensional results.

Every drawing lives in a fixed square viewport; the content is scaled
uniformly to its bounding box plus a 5% margin and centred.  Numbers are
formatted with a fixed precision so that identical inputs yield
byte-identical files, which makes the renderings golden-file testable.
"""

from __future__ import annotations

from collections.abc import Sequence

VIEWPORT = 480.0
STROKE = "#2f6f8f"

_HEADER = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    'width="{s}" height="{s}" viewBox="0 0 {s} {s}">\n'
)


def _fmt(v: float) -> str:
    out = f"{v:.3f}"
    return "0.000" if out == "-0.000" else out


class _Frame:
    """Affine map from data coordinates to the fixed viewport (y up)."""

    def __init__(self, points: Sequence[Sequence]):
        xs = [float(p[0]) for p in points]
        ys = [float(p[1]) for p in points]
        xmin, xmax = min(xs), max(xs)
        ymin, ymax = min(ys), max(ys)
        w, h = xmax - xmin, ymax - ymin
        margin = 0.05 * max(w, h, 1e-9)
        if w == 0 and h == 0:
            margin = 1.0
        self.scale = VIEWPORT / max(w + 2 * margin, h + 2 * margin)
        self.ox = (VIEWPORT - self.scale * (w + 2 * margin)) / 2 + self.scale * (
            margin - xmin
        )
        self.oy = (VIEWPORT - self.scale * (h + 2 * margin)) / 2 + self.scale * (
            margin - ymin
        )

    def map(self, p) -> tuple[float, float]:
        return (
            self.ox + self.scale * float(p[0]),
            VIEWPORT - (self.oy + self.scale * float(p[1])),
        )


def render_polygon(
    points: Sequence[Sequence],
    *,
    closed: bool = True,
    marker_indices: Sequence[int] | None = None,
) -> str:
    """Draw ordered 2-dim points as a polygon (or polyline) with markers.

    Vertices are labelled v0, v1, ... in the given order.  marker_indices
    highlights a subset (e.g. a witness triple) in a second colour.
    """
    if not points:
        raise ValueError("nothing to draw")
    frame = _Frame(points)
    mapped = [frame.map(p) for p in points]
    parts = [_HEADER.format(s=_fmt(VIEWPORT))]
    parts.append(
        f'<rect width="{_fmt(VIEWPORT)}" height="{_fmt(VIEWPORT)}" '
        'fill="#ffffff"/>\n'
    )
    if len(mapped) > 1:
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in mapped)
        tag = "polygon" if closed else "polyline"
        parts.append(
            f'<{tag} points="{coords}" fill="none" stroke="{STROKE}" '
            'stroke-width="1.5"/>\n'
        )
    highlighted = set(marker_indices or ())
    for i, (x, y) in enumerate(mapped):
        colour = "#c0392b" if i in highlighted else STROKE
        parts.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="{colour}"/>\n'
        )
        parts.append(
            f'<text x="{_fmt(x + 5)}" y="{_fmt(y - 5)}" '
            f'font-family="monospace" font-size="12" fill="#333333">'
            f"v{i}</text>\n"
        )
    parts.append("</svg>\n")
    return "".join(parts)
