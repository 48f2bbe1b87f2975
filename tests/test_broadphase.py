"""The obstacle index changes no answer of the passes it serves.

Every pass that reads `WorldState.index` (visibility, the sensing cull,
hull clearance, world advance) must give what a linear scan over all
obstacles gives, bit for bit, whatever the cell size. Fields mix static
and moving spheres with pillars, and an obstacle may sit exactly at a
query's reach, as far out as rounding lets it count, with its center on a
cell edge, where a grid that pads its query too little misses it.
"""

import math
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from mppf.environment import (
    Bounds,
    Obstacle,
    ObstacleIndex,
    SonarModel,
    WorldState,
    _advance_obstacle,
    advance_world,
    glider_clearance,
    in_sonar_view,
    obstacles_within,
    surface_distance,
    visible_obstacles,
)
from mppf.geometry import ZERO, Attitude, GliderState, Vec3

BOUNDS = Bounds(200.0, 200.0, 50.0)
HULL = 0.6
# powers of two, so a center placed on a cell edge is exactly on it
CELLS = (0.5, 2.0, 8.0, 16.0, 64.0)


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def moved(g, axis, value):
    p = g.position
    pos = Vec3(value, p.y, p.z) if axis == "x" else Vec3(p.x, value, p.z)
    return GliderState(pos, g.attitude, g.speed)


def at_the_limit(g, axis, away, counts):
    """g moved along `axis` to the last float, walking `away` from the
    obstacle, at which counts(g) still holds; g as it is when that limit is
    not within 64 ulps."""
    x = getattr(g.position, axis)
    for _ in range(64):
        if counts(moved(g, axis, x)):
            if not counts(moved(g, axis, math.nextafter(x, away))):
                return moved(g, axis, x)
            x = math.nextafter(x, away)
        else:
            x = math.nextafter(x, -away)
    return g


@st.composite
def free_obstacle(draw):
    r = draw(floats(0.2, 15.0))
    x, y = draw(floats(-20.0, 220.0)), draw(floats(-20.0, 220.0))
    if draw(st.booleans()):
        return Obstacle("cylinder", r, Vec3(x, y, 0.0))
    vel = Vec3(0.0, 0.0, 0.0)
    if draw(st.booleans()):
        vel = Vec3(draw(floats(-0.5, 0.5)), draw(floats(-0.5, 0.5)),
                   draw(floats(-0.2, 0.2)))
    return Obstacle("sphere", r, Vec3(x, y, draw(floats(0.0, 50.0))), vel)


@st.composite
def edge_case(draw, g, cell, reach, counts):
    """A static obstacle centered on the far side of a cell edge, and the
    vehicle facing it along an axis at the farthest position where
    counts(obstacle, vehicle) still holds: rounding sets that limit, and a
    grid whose query pad lacks its margin misses the obstacle there."""
    r = draw(floats(0.2, 15.0))
    axis, sign = draw(st.sampled_from("xy")), draw(st.sampled_from((-1.0, 1.0)))
    psi = {("x", 1.0): 0.0, ("x", -1.0): math.pi,
           ("y", 1.0): 0.5 * math.pi, ("y", -1.0): -0.5 * math.pi}[axis, sign]
    edge = round((getattr(g.position, axis) + sign * (reach + r)) / cell) * cell
    if sign < 0.0:  # cells are closed below: go to the last float under it
        edge = math.nextafter(edge, -math.inf)
    g = moved(GliderState(g.position, Attitude(psi, 0.0), g.speed), axis,
              edge - sign * (reach + r))
    p = g.position
    c = Vec3(edge, p.y, p.z) if axis == "x" else Vec3(p.x, edge, p.z)
    if draw(st.booleans()):
        ob = Obstacle("cylinder", r, Vec3(c.x, c.y, 0.0))
    else:
        ob = Obstacle("sphere", r, c)
    return at_the_limit(g, axis, -sign * math.inf, lambda h: counts(ob, h)), ob


def fields(edge):
    """(world, sonar, cull) triples; edge(sonar, cull, cell) gives the reach
    and the within-reach test of the optional edge case."""
    @st.composite
    def build(draw):
        cell = draw(st.sampled_from(CELLS))
        sonar = SonarModel(range=draw(floats(1.0, 120.0)))
        cull = draw(floats(0.5, 40.0))
        g = GliderState(Vec3(draw(floats(0.0, 200.0)), draw(floats(0.0, 200.0)),
                             draw(floats(0.0, 50.0))),
                        Attitude(draw(floats(-math.pi, math.pi)),
                                 draw(floats(-0.7, 0.7))), 0.3)
        obstacles = draw(st.lists(free_obstacle(), max_size=20))
        if draw(st.booleans()):
            g, ob = draw(edge_case(g, cell, *edge(sonar, cull, cell)))
            obstacles.insert(draw(st.integers(0, len(obstacles))), ob)
        world = WorldState(g, tuple(obstacles), None, BOUNDS, HULL,
                           index=ObstacleIndex(obstacles, cell))
        return world, sonar, cull
    return build()


def within(reach):
    return lambda ob, g: surface_distance(ob, g.position) <= reach


def in_view(sonar):
    return lambda ob, g: in_sonar_view(ob, g, sonar, BOUNDS.depth)


def bits(ob):
    """An obstacle with its floats as float.hex, where -0.0 != 0.0."""
    c, v = ob.center, ob.velocity
    return (ob.shape, ob.radius.hex(), c.x.hex(), c.y.hex(), c.z.hex(),
            v.x.hex(), v.y.hex(), v.z.hex())


def tracked_sets(n):
    return st.sets(st.integers(0, n - 1)) if n else st.just(set())


@settings(max_examples=300, deadline=None)
@given(fields(lambda sonar, cull, cell: (cull, within(cull))))
def test_near_holds_every_obstacle_within_reach(case):
    """The superset each pass filters: clearance takes its minimum over
    near(p, cell) without a scan whenever that minimum lies within the
    cell, so it is exact only if no obstacle within reach is left out."""
    world, _, reach = case
    p = world.glider.position
    got = world.index.near(p, reach)
    assert got == sorted(got)
    assert {i for i, ob in enumerate(world.obstacles)
            if surface_distance(ob, p) <= reach} <= set(got)


def test_near_with_an_infinite_reach_returns_every_obstacle():
    """A reach that overflowed to +inf bounds no square of cells."""
    obstacles = (Obstacle("sphere", 2.0, Vec3(190.0, 10.0, 5.0)),
                 Obstacle("sphere", 1.0, Vec3(20.0, 20.0, 5.0), Vec3(0.5, 0.0, 0.0)),
                 Obstacle("cylinder", 3.0, Vec3(5.0, 180.0, 0.0)),
                 Obstacle("sphere", 4.0, Vec3(100.0, 100.0, 40.0)))
    index = ObstacleIndex(obstacles, 8.0)
    for p in (Vec3(0.0, 0.0, 0.0), Vec3(150.0, 60.0, 20.0)):
        assert index.near(p, math.inf) == [0, 1, 2, 3]


def test_clearance_sees_a_large_sphere_centered_past_the_reach():
    """The nearest surface is a large sphere's, centered two cells off; a
    small sphere within the cell is farther. A grid that pads its query by
    less than the largest radius finds only the small one, and no scan
    fallback covers that, since its distance is within the cell."""
    big = Obstacle("sphere", 19.0, Vec3(124.0, 100.0, 25.0))
    small = Obstacle("sphere", 0.5, Vec3(100.0, 108.0, 25.0))
    obstacles = (small, big)
    p = Vec3(100.0, 100.0, 25.0)
    got = glider_clearance(obstacles, ObstacleIndex(obstacles, 10.0), p, HULL)
    assert got == 5.0 - HULL


@settings(max_examples=300, deadline=None)
@given(fields(lambda sonar, cull, cell: (sonar.range, in_view(sonar))), st.data())
def test_visibility_matches_a_scan(case, data):
    world, sonar, _ = case
    obstacles, g = world.obstacles, world.glider
    for tracked in (set(), data.draw(tracked_sets(len(obstacles)))):
        want = [i for i, ob in enumerate(obstacles)
                if i not in tracked and in_sonar_view(ob, g, sonar, BOUNDS.depth)]
        seen = visible_obstacles(replace(world, tracked=frozenset(tracked)), sonar)
        assert seen == want


@settings(max_examples=300, deadline=None)
@given(fields(lambda sonar, cull, cell: (cull, within(cull))), st.data())
def test_cull_matches_a_scan(case, data):
    world, _, cull = case
    obstacles, pos = world.obstacles, world.glider.position
    for tracked in (set(range(len(obstacles))),
                    data.draw(tracked_sets(len(obstacles)))):
        want = [i for i in sorted(tracked)
                if surface_distance(obstacles[i], pos) <= cull]
        assert obstacles_within(replace(world, tracked=frozenset(tracked)),
                                cull) == want


@settings(max_examples=300, deadline=None)
@given(fields(lambda sonar, cull, cell: (cell, within(cell))), st.data())
def test_clearance_and_advance_match_a_scan(case, data):
    """Bit-identical clearance whether or not the nearest obstacle lies
    within the index's reach (the scan fallback), before and after the
    moving obstacles advance; the static ones stay where they are, even
    outside the walls, which would reflect a moving one."""
    world, _, _ = case
    dt = data.draw(floats(0.1, 30.0))
    for _ in range(2):
        pos = world.glider.position
        want = min((surface_distance(ob, pos) - HULL for ob in world.obstacles),
                   default=math.inf)
        got = glider_clearance(world.obstacles, world.index, pos, HULL)
        assert got.hex() == want.hex()
        assert world.clearance == math.inf or world.clearance.hex() == want.hex()
        moved = [ob if ob.velocity == ZERO else _advance_obstacle(ob, BOUNDS, dt)
                 for ob in world.obstacles]
        world = advance_world(world, world.glider, dt)
        assert list(map(bits, world.obstacles)) == list(map(bits, moved))
