"""Hand-rolled SVG views of a run; no plotting dependency.

Two projections: a top view in world x-y, and a profile view of depth
against horizontal arc length along the trajectory. Both contain exactly
one trajectory polyline plus one shape per obstacle, each tagged with a
class attribute so the files double as structured, testable output.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Sequence

from mppf.environment import SPHERE, Bounds, Obstacle
from mppf.geometry import Vec3

_MARGIN = 8.0


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def _frame(width: float, height: float) -> list[str]:
    """The opening <svg> tag and background of a width x height view."""
    return [f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{_fmt(-_MARGIN)} {_fmt(-_MARGIN)} '
            f'{_fmt(width + 2 * _MARGIN)} {_fmt(height + 2 * _MARGIN)}" '
            f'width="640" height="{_fmt(640.0 * (height + 2 * _MARGIN) / (width + 2 * _MARGIN))}">',
            f'<rect x="0" y="0" width="{_fmt(width)}" '
            f'height="{_fmt(height)}" fill="#f7fafc" stroke="#888" '
            f'stroke-width="0.3"/>']


def _polyline(points: Sequence[tuple[float, float]]) -> str:
    coords = " ".join(["%.3f,%.3f" % xy for xy in points])
    return (f'<polyline class="trajectory" points="{coords}" '
            f'fill="none" stroke="#0b6e99" stroke-width="0.6"/>')


def _marker(x: float, y: float, color: str) -> str:
    return (f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="1.2" '
            f'fill="{color}" stroke="none"/>')


def top_view_svg(samples, obstacles: Sequence[Obstacle], bounds: Bounds,
                 start: Vec3, goal: Vec3) -> str:
    """x-y view; world y (north) points up the page."""
    def sy(y: float) -> float:
        return bounds.y - y

    parts = _frame(bounds.x, bounds.y)
    for ob in obstacles:
        fill = "#c66" if ob.velocity.norm2() > 0.0 else "#999"
        parts.append(f'<circle class="obstacle" cx="{_fmt(ob.center.x)}" '
                     f'cy="{_fmt(sy(ob.center.y))}" r="{_fmt(ob.radius)}" '
                     f'fill="{fill}" fill-opacity="0.45" stroke="#555" '
                     f'stroke-width="0.3"/>')
    top = bounds.y  # sy inline: one call fewer per sample
    parts.append(_polyline([(s.position.x, top - s.position.y)
                            for s in samples]))
    parts.append(_marker(start.x, sy(start.y), "#2a7"))
    parts.append(_marker(goal.x, sy(goal.y), "#d33"))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _nearest_samples(samples, obstacles: Sequence[Obstacle]) -> list[int]:
    """Per obstacle, the index of the first sample horizontally nearest it.

    The distances are the same ``sqrt`` values ``Vec3.hdist`` returns, so
    ties break on the same first index. Squared distances would not do:
    two different squares can have one root, and then a later sample wins.

    The samples go into square x-y buckets, about sqrt(n) of them across
    the samples' wider extent. Each bucket keeps its samples' indices in
    order and their bounding box. An obstacle visits the buckets in order
    of its distance to their boxes and stops at the first box farther than
    the best sample so far. That distance is computed like a sample's, on
    coordinates no nearer the obstacle, so rounding keeps it at or below
    every sample's in the box: no unvisited sample is as near as the best.
    """
    if not obstacles:  # nothing to place: skip bucketing the samples
        return []
    xy = [(smp.position.x, smp.position.y) for smp in samples]
    xs = [x for x, _ in xy]
    ys = [y for _, y in xy]
    x0, y0 = min(xs), min(ys)
    across = math.isqrt(len(xy))
    size = max(max(xs) - x0, max(ys) - y0) / across or 1.0
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, (x, y) in enumerate(xy):
        # min() also sends an overflowed (inf or nan) quotient to the edge
        key = (int(min(across, (x - x0) / size)),
               int(min(across, (y - y0) / size)))
        buckets.setdefault(key, []).append(i)
    boxes = []
    for members in buckets.values():
        bx = [xs[i] for i in members]
        by = [ys[i] for i in members]
        boxes.append((min(bx), max(bx), min(by), max(by), members))

    nearest = []
    for ob in obstacles:
        cx, cy = ob.center.x, ob.center.y
        order = []
        for bx0, bx1, by0, by1, members in boxes:
            dx = bx0 - cx if cx < bx0 else cx - bx1 if cx > bx1 else 0.0
            dy = by0 - cy if cy < by0 else cy - by1 if cy > by1 else 0.0
            order.append((math.sqrt(dx * dx + dy * dy), members))
        order.sort(key=itemgetter(0))
        best, first = math.inf, -1
        for bound, members in order:
            if bound > best:
                break
            for i in members:
                x, y = xy[i]
                d = math.sqrt((x - cx) * (x - cx) + (y - cy) * (y - cy))
                if d < best or d == best and (first < 0 or i < first):
                    best, first = d, i
        nearest.append(first)
    return nearest


def profile_view_svg(samples, obstacles: Sequence[Obstacle],
                     bounds: Bounds) -> str:
    """Depth against horizontal arc length; depth grows down the page.

    Obstacles are placed at the arc length where the trajectory passes
    closest to them horizontally, the usual convention for glider
    profile plots.
    """
    # each arc is the last plus Vec3.hdist of the two positions, inline
    positions = [s.position for s in samples]
    arcs = [0.0]
    arc = 0.0
    for a, b in zip(positions, positions[1:]):
        dx = a.x - b.x
        dy = a.y - b.y
        arc += math.sqrt(dx * dx + dy * dy)
        arcs.append(arc)
    total = max(arcs[-1], 1.0)

    parts = _frame(total, bounds.depth)
    for ob, near in zip(obstacles, _nearest_samples(samples, obstacles)):
        s_at = arcs[near]
        if ob.shape == SPHERE:
            parts.append(f'<circle class="obstacle" cx="{_fmt(s_at)}" '
                         f'cy="{_fmt(ob.center.z)}" r="{_fmt(ob.radius)}" '
                         f'fill="#999" fill-opacity="0.45" stroke="#555" '
                         f'stroke-width="0.3"/>')
        else:
            parts.append(f'<rect class="obstacle" x="{_fmt(s_at - ob.radius)}" '
                         f'y="0" width="{_fmt(2 * ob.radius)}" '
                         f'height="{_fmt(bounds.depth)}" fill="#999" '
                         f'fill-opacity="0.45" stroke="#555" stroke-width="0.3"/>')
    parts.append(_polyline([(s, p.z) for s, p in zip(arcs, positions)]))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
