"""SVG views: the profile view's placement of obstacles along the track."""

from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mppf.environment import SPHERE, Obstacle
from mppf.geometry import Vec3
from mppf.svgplot import _nearest_samples

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
