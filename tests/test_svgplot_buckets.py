"""The profile view's nearest-sample search on tracks of several hundred
samples, which spread over many of its x-y buckets."""

import math
import random
from types import SimpleNamespace

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mppf.environment import SPHERE, Obstacle
from mppf.geometry import Vec3
from mppf.svgplot import _nearest_samples


def oracle(samples, obstacles):
    return [min(range(len(samples)),
                key=lambda i: samples[i].position.hdist(ob.center))
            for ob in obstacles]


@st.composite
def long_tracks(draw):
    """A walk of 200 to 700 samples, either on whole metres along the axes
    (crossing itself, so exact ties are common) or with a wandering
    heading; obstacle centres on the walk's lattice, anywhere near it or
    far off; and samples mirrored about a centre, equally near it."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    lattice = draw(st.booleans())
    step = draw(st.sampled_from((0.5, 1.0, 3.0)))
    x, y = float(draw(st.integers(-50, 50))), float(draw(st.integers(-50, 50)))
    psi = rng.uniform(-math.pi, math.pi)
    xy = []
    for _ in range(draw(st.integers(200, 700))):
        if lattice:
            dx, dy = rng.choice(((1, 0), (-1, 0), (0, 1), (0, -1), (1, 0)))
            x, y = x + dx * step, y + dy * step
        else:
            psi += rng.uniform(-0.3, 0.3)
            x, y = x + step * math.cos(psi), y + step * math.sin(psi)
        xy.append((x, y))
    centres = []
    for _ in range(draw(st.integers(1, 12))):
        kind = rng.choice(("sample", "near", "far"))
        sx, sy = rng.choice(xy)
        if kind == "sample":
            centres.append((sx + rng.randint(-3, 3), sy + rng.randint(-3, 3)))
        elif kind == "near":
            centres.append((sx + rng.uniform(-20, 20), sy + rng.uniform(-20, 20)))
        else:
            centres.append((rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4)))
    for _ in range(draw(st.integers(0, 20))):
        sx, sy = rng.choice(xy)
        cx, cy = rng.choice(centres)
        xy.insert(rng.randrange(len(xy) + 1), (2.0 * cx - sx, 2.0 * cy - sy))
    return xy, centres


def overflowing():
    """Samples whose distances to the obstacle overflow to inf, all tied."""
    xy = [(1.7e308 * (-1) ** i, -1.7e308) for i in range(300)]
    return xy, [(-1.7e308, 1.7e308), (0.0, 0.0)]


@settings(max_examples=200, deadline=None)
@given(long_tracks())
@example(overflowing())
@example(([(float(i % 40), float(i // 40)) for i in range(400)],
          [(19.5, 4.5), (-100.0, 3.0), (39.0, 9.0)]))
def test_bucket_search_finds_the_first_of_the_hdist_minima(track):
    xy, centres = track
    samples = [SimpleNamespace(position=Vec3(x, y, 2.0)) for x, y in xy]
    obstacles = [Obstacle(SPHERE, 1.0, Vec3(cx, cy, 5.0)) for cx, cy in centres]
    assert _nearest_samples(samples, obstacles) == oracle(samples, obstacles)


def test_no_obstacles_means_no_search():
    # an obstacle-free run places nothing, so the samples are never read
    assert _nearest_samples([], []) == []
    assert _nearest_samples([SimpleNamespace()], ()) == []
