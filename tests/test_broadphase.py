"""The obstacle index changes no answer of the passes it serves.

Every pass that reads `WorldState.index` (visibility, the sensing cull,
hull clearance, world advance) must give what a linear scan over all
obstacles gives, bit for bit, whatever the cell size. Fields mix static
and moving spheres with pillars, and an obstacle may sit exactly at a
query's reach, as far out as rounding lets it count, with its center on a
cell edge, where a grid that pads its query too little misses it. One
index queried along a walk must stay exact while it reuses its skin
lists, wherever the walk goes next.
"""

import math
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mppf import harness
from mppf.environment import (
    _SKIN,
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
from mppf.scenario import load_scenario, materialize_obstacles

BOUNDS = Bounds(200.0, 200.0, 50.0)
HULL = 0.6
# powers of two, so a center placed on a cell edge is exactly on it
CELLS = (0.5, 2.0, 8.0, 16.0, 64.0)
# heading that faces along +-x or +-y
FACING = {("x", 1.0): 0.0, ("x", -1.0): math.pi,
          ("y", 1.0): 0.5 * math.pi, ("y", -1.0): -0.5 * math.pi}


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
    psi = FACING[axis, sign]
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
        want = [(i, d) for i in sorted(tracked)
                if (d := surface_distance(obstacles[i], pos)) <= cull]
        got = obstacles_within(replace(world, tracked=frozenset(tracked)), cull)
        assert list(got.items()) == want


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


# --- skin lists: one index along a walk ------------------------------------

def check_every_pass(world, sonars, culls, tracked):
    """Visibility, the cull and clearance at the world's vehicle, each
    against a linear scan, bit for bit; `tracked` is a second tracked set
    besides none (visibility) and all (the cull)."""
    obstacles, g = world.obstacles, world.glider
    pos = g.position
    want = min((surface_distance(ob, pos) - HULL for ob in obstacles),
               default=math.inf)
    assert world.clearance.hex() == want.hex()
    assert glider_clearance(obstacles, world.index, pos, HULL).hex() == want.hex()
    for sonar in sonars:
        for seen in (frozenset(), tracked):
            want = [i for i, ob in enumerate(obstacles)
                    if i not in seen and in_sonar_view(ob, g, sonar, BOUNDS.depth)]
            assert visible_obstacles(replace(world, tracked=seen), sonar) == want
    for cull in culls:
        for seen in (frozenset(range(len(obstacles))), tracked):
            want = [(i, d) for i in sorted(seen)
                    if (d := surface_distance(obstacles[i], pos)) <= cull]
            got = obstacles_within(replace(world, tracked=seen), cull)
            assert list(got.items()) == want


def offset(p, dx, dy, dz):
    return Vec3(p.x + dx, p.y + dy, min(50.0, max(0.0, p.z + dz)))


@st.composite
def edge_walk(draw, world, reaches):
    """Four points about a static obstacle and one pass's reach: a jump
    3 skins off; the anchor a, as far from the obstacle as lets the next
    point stay within one skin of it; that point q, facing the obstacle at
    the farthest position where the pass still counts it; and the first
    float past one skin from a, toward the obstacle. Visited in order, a
    rebuilds every list and q reuses them at the skin's edge: a list built
    without its margin misses the obstacle there whenever rounding puts
    its surface a hair past reach + skin from a."""
    static = [i for i in range(len(world.obstacles)) if i not in world.index.moving]
    ob = world.obstacles[draw(st.sampled_from(static))]
    reach, counts = draw(st.sampled_from(reaches))
    axis, sign = draw(st.sampled_from("xy")), draw(st.sampled_from((-1.0, 1.0)))
    psi = FACING[axis, sign]
    c = ob.center
    z = c.z if ob.shape == "sphere" else draw(floats(0.0, 50.0))
    g = GliderState(Vec3(c.x, c.y, z), Attitude(psi, 0.0), 0.3)
    g = moved(g, axis, getattr(c, axis) - sign * (reach + ob.radius))
    q = at_the_limit(g, axis, -sign * math.inf, lambda h: counts(ob, h))
    a = at_the_limit(moved(q, axis, getattr(q.position, axis) - sign * _SKIN),
                     axis, -sign * math.inf,
                     lambda h: h.position.dist(q.position) <= _SKIN)
    # walk out from q in doubling steps until past the skin, then halve the
    # gap down to two adjacent floats: around 0.0 the floats are too dense
    # for a walk of single ulps to leave the skin
    def beyond(x):
        return moved(q, axis, x).position.dist(a.position) > _SKIN

    lo = getattr(q.position, axis)
    step = math.ulp(lo)
    while not beyond(hi := lo + sign * step):
        step *= 2.0
    while (mid := lo + (hi - lo) / 2.0) not in (lo, hi):
        lo, hi = (lo, mid) if beyond(mid) else (mid, hi)
    past = moved(q, axis, hi)
    side = "y" if axis == "x" else "x"
    jump = moved(a, side, getattr(a.position, side) + 3.0 * _SKIN)
    return [jump, a, q, past]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_index_along_a_walk_matches_a_scan(data):
    """An index keeps a skin list per reach and reuses it while the query
    stays within one skin of the list's anchor. Along a walk of sub-metre
    steps, jumps past the skin, returns near earlier points (old anchors)
    and points exactly one skin from an anchor and one float past it, with
    two sonar ranges and two cull radii besides the clearance's cell,
    every pass must equal a linear scan at every point."""
    draw = data.draw
    cell = draw(st.sampled_from(CELLS))
    sonars = [SonarModel(range=draw(floats(1.0, 120.0))) for _ in range(2)]
    culls = [draw(floats(0.5, 40.0)) for _ in range(2)]
    obstacles = draw(st.lists(free_obstacle(), min_size=1, max_size=20))
    g = GliderState(Vec3(draw(floats(0.0, 200.0)), draw(floats(0.0, 200.0)),
                         draw(floats(0.0, 50.0))), Attitude(0.0, 0.0), 0.3)
    world = WorldState(g, tuple(obstacles), None, BOUNDS, HULL,
                       index=ObstacleIndex(obstacles, cell))
    has_static = len(world.index.moving) < len(obstacles)
    reaches = ([(s.range, in_view(s)) for s in sonars]
               + [(r, within(r)) for r in culls] + [(cell, within(cell))])
    visited = [g.position]
    for _ in range(draw(st.integers(4, 14))):
        p = world.glider.position
        kind = draw(st.sampled_from(("step", "jump", "back", "edge")))
        if kind == "edge" and has_static:
            walk = draw(edge_walk(world, reaches))
        else:
            if kind == "step":
                to = offset(p, *(draw(floats(-0.5, 0.5)) for _ in range(3)))
            elif kind == "back":
                to = offset(draw(st.sampled_from(visited)),
                            *(draw(floats(-0.5, 0.5)) * _SKIN for _ in range(3)))
            else:
                angle = draw(floats(-math.pi, math.pi))
                length = draw(floats(_SKIN, 4.0 * _SKIN))
                to = offset(p, length * math.cos(angle), length * math.sin(angle),
                            draw(floats(-5.0, 5.0)))
            walk = [GliderState(to, Attitude(draw(floats(-math.pi, math.pi)),
                                             draw(floats(-0.7, 0.7))), 0.3)]
        for k, g in enumerate(walk):
            world = advance_world(world, g, draw(floats(0.1, 30.0)))
            visited.append(g.position)
            check_every_pass(world, sonars, culls,
                             frozenset(draw(tracked_sets(len(obstacles)))))
            if len(walk) == 4 and k == 1:  # the anchor: every list rebuilt here
                assert {a for a, _ in world.index.lists.values()} == {g.position}
        if len(walk) == 4:
            _, a, q, past = (h.position for h in walk)
            assert a.dist(q) <= _SKIN < a.dist(past)


SCENE = Path(__file__).parents[1] / "missionbench" / "anchorage.yaml"


def test_a_mission_keeps_one_skin_list_per_pass_reach(monkeypatch):
    """A whole anchorage mission ends with one list per reach the passes
    use (sonar range, cull radius, the index's cell) and rebuilds them
    rarely: a reach that changed every step would keep adding lists and
    never reuse one."""
    sc = load_scenario(SCENE)
    seen = {}
    rebuilds = []
    sense = harness.visible_obstacles
    within_reach = ObstacleIndex._static_within

    def spy(world, sonar):
        seen["index"] = world.index
        return sense(world, sonar)

    def counted(index, p, reach):
        rebuilds.append(reach)
        return within_reach(index, p, reach)

    monkeypatch.setattr(harness, "visible_obstacles", spy)
    monkeypatch.setattr(ObstacleIndex, "_static_within", counted)
    res = harness.run_scenario(sc)
    steps = len(res.trajectory) - 1
    index = seen["index"]
    cull = harness.cull_radius(sc, materialize_obstacles(sc, sc.seed))
    assert set(index.lists) == {sc.sonar.range, cull, index.cell}
    assert steps > 300 and len(rebuilds) <= steps // 10
