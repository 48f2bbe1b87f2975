"""SVG views: the profile view's placement of obstacles along the track,
and the polyline points of both views."""

import math
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mppf import svgplot
from mppf.environment import SPHERE, Bounds, Obstacle
from mppf.geometry import Vec3
from mppf.svgplot import _nearest_samples, _polyline, profile_view_svg, top_view_svg

# whole metres make exact ties common; any finite float covers the rest
coord = st.integers(-40, 40).map(float) | st.floats(-1e3, 1e3)
point = st.tuples(coord, coord)


@st.composite
def tracks(draw):
    """Sample x-y positions and obstacle centres, with samples repeated and
    samples mirrored about a centre, so that several lie equally near it."""
    centres = draw(st.lists(point, min_size=1, max_size=4))
    xy = draw(st.lists(point, min_size=1, max_size=30))
    for _ in range(draw(st.integers(0, 6))):
        x, y = draw(st.sampled_from(xy))
        if draw(st.booleans()):
            cx, cy = draw(st.sampled_from(centres))
            x, y = 2.0 * cx - x, 2.0 * cy - y
        xy.insert(draw(st.integers(0, len(xy))), (x, y))
    return xy, centres


def oracle(samples, obstacles):
    return [min(range(len(samples)),
                key=lambda i: samples[i].position.hdist(ob.center))
            for ob in obstacles]


@settings(max_examples=200, deadline=None)
@given(tracks(), st.floats(0.0, 50.0))
@example(([(0.0, 0.0), (2.0, 0.0), (0.0, 0.0)], [(1.0, 0.0)]), 3.0)
@example(([(5.0, 1.0), (1.0, -3.0), (-3.0, 1.0)], [(1.0, 1.0)]), 0.0)
# two squares, 1427465 and the double below it, that share one root
@example(([(868.0, 821.0), (1194.7656674009343, 0.0)], [(0.0, 0.0)]), 0.0)
def test_nearest_sample_is_the_first_of_the_hdist_minima(track, z):
    xy, centres = track
    samples = [SimpleNamespace(position=Vec3(x, y, z)) for x, y in xy]
    obstacles = [Obstacle(SPHERE, 1.0, Vec3(cx, cy, 5.0)) for cx, cy in centres]
    assert _nearest_samples(samples, obstacles) == oracle(samples, obstacles)


# --- the trajectory polyline ----------------------------------------------

special = st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                           1e300, -1e300])
value = special | st.floats(-1e3, 1e3) | st.floats()


def fstring_polyline(points):
    """_polyline with one f-string per coordinate, its oracle."""
    coords = " ".join(f"{x:.3f},{y:.3f}" for x, y in points)
    return (f'<polyline class="trajectory" points="{coords}" '
            f'fill="none" stroke="#0b6e99" stroke-width="0.6"/>')


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(value, value), max_size=6))
@example([(-0.0, 0.0004), (-0.0004, 1e300), (math.nan, -math.inf)])
def test_polyline_points_are_the_fstring_points(points):
    assert _polyline(points) == fstring_polyline(points)


def hex_points(points):
    return [(x.hex(), y.hex()) for x, y in points]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(value, value, value), min_size=1, max_size=8),
       st.floats(1.0, 1e4))
@example([(0.0, 0.0, 0.0), (3.0, -0.0, 1.0), (3.0, 4.0, 2.0)], 4.0)
@example([(-0.0, -0.0, -0.0), (0.1, 0.2, 0.3), (0.3, 0.1, 0.2)], 1.0)
@example([(1e300, 0.0, 0.0), (-1e300, 0.0, 0.0), (math.inf, math.nan, 0.0)],
         100.0)
def test_view_points_are_the_hdist_arcs_and_the_flipped_y(xyz, top):
    # the points each view hands _polyline, against the expressions they
    # replaced: sy(y) = bounds.y - y, and arcs summed by Vec3.hdist
    samples = [SimpleNamespace(position=Vec3(*p)) for p in xyz]
    bounds = Bounds(100.0, top, 50.0)
    drawn = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(svgplot, "_polyline", lambda pts: drawn.append(pts) or "")
        top_view_svg(samples, [], bounds, Vec3(0.0, 0.0, 0.0), Vec3(1.0, 1.0, 0.0))
        profile_view_svg(samples, [], bounds)

    def sy(y):
        return bounds.y - y

    arcs = [0.0]
    for a, b in zip(samples, samples[1:]):
        arcs.append(arcs[-1] + a.position.hdist(b.position))
    assert hex_points(drawn[0]) == hex_points(
        [(s.position.x, sy(s.position.y)) for s in samples])
    assert hex_points(drawn[1]) == hex_points(
        [(s, smp.position.z) for s, smp in zip(arcs, samples)])
