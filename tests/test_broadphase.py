"""The obstacle index changes no answer of the passes it serves.

Every pass that reads `WorldState.index` (visibility, the sensing cull,
hull clearance, world advance) must give what a linear scan over all
obstacles gives, bit for bit. Fields mix static and moving spheres with
pillars, and an obstacle may sit exactly at a pass's reach, as far out as
rounding lets it count. One index queried along a walk must stay exact
while it reuses its skin lists, wherever the walk goes next, and each of
its skin lists must be the scan at the list's anchor.

Visibility is held to the sonar test as one obstacle at a time computed it
before the test was inlined into one loop over the candidates
(`view_oracle`), and the memo that splits the candidates by the tracked set,
which sensing and the cull read, to a scan whatever tracked sets the
queries bring.
"""

import math
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from mppf import environment, harness
from mppf.environment import (
    _CLEAR_REACH,
    _SKIN,
    Bounds,
    Obstacle,
    ObstacleIndex,
    SonarModel,
    WorldState,
    _advance_obstacle,
    advance_world,
    glider_clearance,
    obstacles_within,
    sonar_view,
    surface_distance,
    visible_obstacles,
)
from mppf.geometry import ZERO, Attitude, GliderState, Vec3, wrap_angle
from mppf.scenario import load_scenario, materialize_obstacles

BOUNDS = Bounds(200.0, 200.0, 50.0)
HULL = 0.6
# heading that faces along +-x or +-y
FACING = {("x", 1.0): 0.0, ("x", -1.0): math.pi,
          ("y", 1.0): 0.5 * math.pi, ("y", -1.0): -0.5 * math.pi}


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def moved(g, axis, value):
    p = g.position
    pos = (Vec3(value, p.y, p.z) if axis == "x" else
           Vec3(p.x, value, p.z) if axis == "y" else Vec3(p.x, p.y, value))
    return GliderState(pos, g.attitude, g.speed)


def view_oracle(ob, g, sonar, depth_bound):
    """The sonar test for one obstacle as written before it was inlined
    into environment.sonar_view, kept verbatim."""
    p, c, r = g.position, ob.center, ob.radius
    dx = c.x - p.x
    dy = c.y - p.y
    hd = math.sqrt(dx * dx + dy * dy)
    d = p.dist(c) if ob.shape == "sphere" else hd
    if abs(d - r) > sonar.range:
        return False
    if d <= r:
        return True
    alpha = math.asin(min(1.0, r / d))
    az = math.atan2(dy, dx)
    if abs(wrap_angle(az - g.attitude.psi)) > 0.5 * sonar.horizontal_fov + alpha:
        return False
    theta, half = g.attitude.theta, 0.5 * sonar.vertical_fov
    if ob.shape == "sphere":
        return abs(math.atan2(p.z - c.z, hd) - theta) <= half + alpha
    el_top = math.atan2(p.z, hd - r)
    el_bot = math.atan2(p.z - depth_bound, hd - r)
    return max(el_bot, theta - half) <= min(el_top, theta + half)


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
def edge_case(draw, g, reach, counts):
    """A static obstacle whose surface lies one reach ahead of the vehicle
    along an axis, and the vehicle facing it at the farthest position where
    counts(obstacle, vehicle) still holds: rounding sets that limit, and a
    pass that counts the obstacle there must get it from the index."""
    r = draw(floats(0.2, 15.0))
    axis, sign = draw(st.sampled_from("xy")), draw(st.sampled_from((-1.0, 1.0)))
    g = GliderState(g.position, Attitude(FACING[axis, sign], 0.0), g.speed)
    p = g.position
    edge = getattr(p, axis) + sign * (reach + r)
    c = Vec3(edge, p.y, p.z) if axis == "x" else Vec3(p.x, edge, p.z)
    if draw(st.booleans()):
        ob = Obstacle("cylinder", r, Vec3(c.x, c.y, 0.0))
    else:
        ob = Obstacle("sphere", r, c)
    return at_the_limit(g, axis, -sign * math.inf, lambda h: counts(ob, h)), ob


def fields(edge):
    """(world, sonar, cull) triples; edge(sonar, cull) gives the reach and
    the within-reach test of the optional edge case."""
    @st.composite
    def build(draw):
        sonar = SonarModel(range=draw(floats(1.0, 120.0)))
        cull = draw(floats(0.5, 40.0))
        g = GliderState(Vec3(draw(floats(0.0, 200.0)), draw(floats(0.0, 200.0)),
                             draw(floats(0.0, 50.0))),
                        Attitude(draw(floats(-math.pi, math.pi)),
                                 draw(floats(-0.7, 0.7))), 0.3)
        obstacles = draw(st.lists(free_obstacle(), max_size=20))
        if draw(st.booleans()):
            g, ob = draw(edge_case(g, *edge(sonar, cull)))
            obstacles.insert(draw(st.integers(0, len(obstacles))), ob)
        world = WorldState(g, tuple(obstacles), None, BOUNDS, HULL)
        return world, sonar, cull
    return build()


def within(reach):
    return lambda ob, g: surface_distance(ob, g.position) <= reach


def in_view(sonar):
    return lambda ob, g: view_oracle(ob, g, sonar, BOUNDS.depth)


def bits(ob):
    """An obstacle with its floats as float.hex, where -0.0 != 0.0."""
    c, v = ob.center, ob.velocity
    return (ob.shape, ob.radius.hex(), c.x.hex(), c.y.hex(), c.z.hex(),
            v.x.hex(), v.y.hex(), v.z.hex())


def tracked_sets(n):
    return st.sets(st.integers(0, n - 1)) if n else st.just(set())


def check_split(index, obstacles, p, reach, tracked):
    """The two halves of index.split(p, reach, tracked) are index-ordered
    and disjoint, each on its side of `tracked`, and together hold every
    obstacle whose surface lies within `reach` of p."""
    untracked, seen = index.split(p, reach, tracked)
    assert untracked == sorted(untracked) and seen == sorted(seen)
    assert not set(untracked) & tracked and set(seen) <= tracked
    assert {i for i, ob in enumerate(obstacles)
            if surface_distance(ob, p) <= reach} <= set(untracked) | set(seen)


@settings(max_examples=300, deadline=None)
@given(fields(lambda sonar, cull: (cull, within(cull))), st.data())
def test_near_holds_every_obstacle_within_reach(case, data):
    """The superset each pass filters: sensing and the cull walk the two
    halves of split(p, reach, tracked), and clearance takes its minimum
    over the moving obstacles and the same skin list without a scan
    whenever that minimum lies within _CLEAR_REACH, so each is exact only
    if no obstacle within reach is left out, whatever the tracked set."""
    world, _, reach = case
    p = world.glider.position
    tracked = frozenset(data.draw(tracked_sets(len(world.obstacles))))
    for seen in (frozenset(), tracked):
        check_split(world.index, world.obstacles, p, reach, seen)


def test_near_with_an_infinite_reach_returns_every_obstacle():
    """A reach that overflowed to +inf leaves out no obstacle: its skin
    list's bound is +inf too."""
    obstacles = (Obstacle("sphere", 2.0, Vec3(190.0, 10.0, 5.0)),
                 Obstacle("sphere", 1.0, Vec3(20.0, 20.0, 5.0), Vec3(0.5, 0.0, 0.0)),
                 Obstacle("cylinder", 3.0, Vec3(5.0, 180.0, 0.0)),
                 Obstacle("sphere", 4.0, Vec3(100.0, 100.0, 40.0)))
    index = ObstacleIndex(obstacles)
    for p in (Vec3(0.0, 0.0, 0.0), Vec3(150.0, 60.0, 20.0)):
        assert index.split(p, math.inf, frozenset())[0] == [0, 1, 2, 3]
        for tracked in (frozenset({1, 2}), frozenset({0, 3}), frozenset(range(4))):
            check_split(index, obstacles, p, math.inf, tracked)


def test_clearance_sees_a_large_sphere_centered_past_the_reach():
    """The nearest surface, 17 m off, is a large sphere's, centered 36 m
    off: past the clearance reach and its skin list's bound,
    _CLEAR_REACH + _SKIN + 1 m. A small sphere centered within them is
    farther. An index that kept obstacles by their center's distance would
    find only the small one, and no scan fallback covers that, since its
    distance is within the reach."""
    assert 17.0 < _CLEAR_REACH < 36.0 - _SKIN - 1.0
    big = Obstacle("sphere", 19.0, Vec3(136.0, 100.0, 25.0))
    small = Obstacle("sphere", 0.5, Vec3(100.0, 118.5, 25.0))
    obstacles = (small, big)
    p = Vec3(100.0, 100.0, 25.0)
    got = glider_clearance(obstacles, ObstacleIndex(obstacles), p, HULL)
    assert got == 17.0 - HULL


def test_clearance_scans_past_the_reach_of_a_reused_list():
    """The list anchored at a is reused one skin away at p. It holds a
    sphere 21.75 m from p but not the nearest, 21.5 m from p and 31.5 m
    from a, past the list's bound. A minimum over the list beyond
    _CLEAR_REACH must fall back to the scan: a threshold 1.75 m higher
    would keep 21.75."""
    a, p = Vec3(100.0, 100.0, 25.0), Vec3(100.0 + _SKIN, 100.0, 25.0)
    side = Obstacle("sphere", 1.0, Vec3(p.x, p.y + 22.75, 25.0))
    ahead = Obstacle("sphere", 1.0, Vec3(p.x + 22.5, p.y, 25.0))
    obstacles = (side, ahead)
    index = ObstacleIndex(obstacles)
    glider_clearance(obstacles, index, a, HULL)
    assert index.split(p, _CLEAR_REACH, frozenset())[0] == [0]
    assert glider_clearance(obstacles, index, p, HULL) == 21.5 - HULL


@settings(max_examples=300, deadline=None)
@given(fields(lambda sonar, cull: (sonar.range, in_view(sonar))), st.data())
def test_visibility_matches_a_scan(case, data):
    world, sonar, _ = case
    obstacles, g = world.obstacles, world.glider
    for tracked in (set(), data.draw(tracked_sets(len(obstacles)))):
        want = [i for i, ob in enumerate(obstacles)
                if i not in tracked and view_oracle(ob, g, sonar, BOUNDS.depth)]
        seen = visible_obstacles(replace(world, tracked=frozenset(tracked)), sonar)
        assert seen == want


@settings(max_examples=300, deadline=None)
@given(fields(lambda sonar, cull: (cull, within(cull))), st.data())
def test_cull_matches_a_scan(case, data):
    world, _, cull = case
    obstacles, pos = world.obstacles, world.glider.position
    for tracked in (set(range(len(obstacles))),
                    data.draw(tracked_sets(len(obstacles)))):
        want = [(i, d) for i in sorted(tracked)
                if (d := surface_distance(obstacles[i], pos)) <= cull]
        got = obstacles_within(replace(world, tracked=frozenset(tracked)), cull)
        assert list(got.items()) == want


def cull_scan(world, reach):
    """obstacles_within as a scan over the tracked obstacles, distances as
    float.hex."""
    pos = world.glider.position
    return [(i, d.hex()) for i in sorted(world.tracked)
            if (d := surface_distance(world.obstacles[i], pos)) <= reach]


@settings(max_examples=300, deadline=None)
@given(fields(lambda sonar, cull: (cull, within(cull))), st.data())
def test_cull_after_advance_reads_no_stale_distance(case, data):
    """advance_world hands the moving obstacles' distances from the new
    position to the cull. After one to three advances, with steps long
    enough to reflect a sphere off any wall, the cull must equal the scan,
    bit for bit, on the advanced world, on it with a smaller tracked set,
    and on it with the vehicle moved elsewhere, where the handed distances
    belong to another position."""
    world, _, cull = case
    n = len(world.obstacles)
    tracked = data.draw(st.just(set(range(n))) | tracked_sets(n))
    world = replace(world, tracked=frozenset(tracked))
    for _ in range(data.draw(st.integers(1, 3))):
        g = world.glider
        to = offset(g.position, *(data.draw(floats(-5.0, 5.0)) for _ in range(3)))
        world = advance_world(world, GliderState(to, g.attitude, g.speed),
                              data.draw(floats(0.1, 250.0)))
        smaller = frozenset(data.draw(st.sets(st.sampled_from(sorted(world.tracked))))
                            if world.tracked else set())
        g = world.glider
        elsewhere = offset(g.position, *(data.draw(floats(-5.0, 5.0)) for _ in range(3)))
        for w in (world, replace(world, tracked=smaller),
                  replace(world, glider=GliderState(elsewhere, g.attitude, g.speed))):
            assert [(i, d.hex()) for i, d in obstacles_within(w, cull).items()] \
                == cull_scan(w, cull)


@settings(max_examples=300, deadline=None)
@given(fields(lambda sonar, cull: (_CLEAR_REACH, within(_CLEAR_REACH))), st.data())
def test_clearance_and_advance_match_a_scan(case, data):
    """Bit-identical clearance whether or not the nearest obstacle lies
    within _CLEAR_REACH (else the scan fallback), before and after the
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
                    if i not in seen and view_oracle(ob, g, sonar, BOUNDS.depth)]
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


def walk_an_index(draw, visit):
    """Draws a field, two sonar ranges and two cull radii, then walks one
    index along sub-metre steps, jumps past the skin, returns near earlier
    points (old anchors) and edge walks, which visit points exactly one
    skin from an anchor and one float past it. At every point it calls
    visit(world, sonars, culls)."""
    sonars = [SonarModel(range=draw(floats(1.0, 120.0))) for _ in range(2)]
    culls = [draw(floats(0.5, 40.0)) for _ in range(2)]
    obstacles = draw(st.lists(free_obstacle(), min_size=1, max_size=20))
    g = GliderState(Vec3(draw(floats(0.0, 200.0)), draw(floats(0.0, 200.0)),
                         draw(floats(0.0, 50.0))), Attitude(0.0, 0.0), 0.3)
    world = WorldState(g, tuple(obstacles), None, BOUNDS, HULL)
    has_static = len(world.index.moving) < len(obstacles)
    reaches = ([(s.range, in_view(s)) for s in sonars]
               + [(r, within(r)) for r in culls]
               + [(_CLEAR_REACH, within(_CLEAR_REACH))])
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
            visit(world, sonars, culls)
            if len(walk) == 4 and k == 1:  # the anchor: every list rebuilt here
                assert {a for a, _ in world.index.lists.values()} == {g.position}
        if len(walk) == 4:
            _, a, q, past = (h.position for h in walk)
            assert a.dist(q) <= _SKIN < a.dist(past)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_one_index_along_a_walk_matches_a_scan(data):
    """An index keeps a skin list per reach and reuses it while the query
    stays within one skin of the list's anchor. Along every walk, with two
    sonar ranges and two cull radii besides the clearance reach, every
    pass must equal a linear scan at every point."""
    def visit(world, sonars, culls):
        tracked = data.draw(tracked_sets(len(world.obstacles)))
        check_every_pass(world, sonars, culls, frozenset(tracked))

    walk_an_index(data.draw, visit)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_skin_list_is_the_scan_at_its_anchor(data):
    """Not only a superset: after every query along a walk, each skin list
    holds exactly the static obstacles whose surface lies within
    reach + _SKIN + 1 m of its anchor, in index order."""
    def visit(world, sonars, culls):
        p = world.glider.position
        reaches = {s.range for s in sonars} | set(culls) | {_CLEAR_REACH}
        for reach in reaches:
            world.index.split(p, reach, frozenset())
        static = [i for i, ob in enumerate(world.obstacles) if ob.velocity == ZERO]
        assert set(world.index.lists) == (reaches if static else set())
        for reach, (anchor, got) in world.index.lists.items():
            r = reach + _SKIN + 1.0
            assert got == [i for i in static
                           if surface_distance(world.obstacles[i], anchor) <= r]

    walk_an_index(data.draw, visit)


SCENE = Path(__file__).parents[1] / "missionbench" / "anchorage.yaml"


def test_a_mission_keeps_one_skin_list_per_pass_reach(monkeypatch):
    """A whole anchorage mission ends with one list per reach the passes
    use (sonar range, cull radius, clearance reach) and rebuilds them
    rarely: a reach that changed every step would keep adding lists and
    never reuse one. A query rebuilds a list when its reach's entry is
    another object after the query than before it. Every pass reaches the
    lists through ObstacleIndex._skin, so that is where queries count."""
    sc = load_scenario(SCENE)
    indexes = set()
    rebuilds = []
    skin = ObstacleIndex._skin

    def counted(index, p, reach):
        before = index.lists.get(reach)
        out = skin(index, p, reach)
        if index.lists.get(reach) is not before:
            rebuilds.append(reach)
        indexes.add(index)
        return out

    monkeypatch.setattr(ObstacleIndex, "_skin", counted)
    res = harness.run_scenario(sc)
    steps = len(res.trajectory) - 1
    (index,) = indexes
    cull = harness.cull_radius(sc, materialize_obstacles(sc, sc.seed))
    assert set(index.lists) == {sc.sonar.range, cull, _CLEAR_REACH}
    assert steps > 300 and len(rebuilds) <= steps // 10


# --- the inline sonar test and the split memo ------------------------------

HEADINGS = st.one_of(
    floats(-math.pi, math.pi),
    st.sampled_from((math.pi, -math.pi, math.nextafter(math.pi, 0.0),
                     math.nextafter(-math.pi, 0.0), 0.0, -0.0)))
PITCHES = st.one_of(floats(-1.2, 1.2), st.sampled_from((0.0, -0.0)))
SONARS = st.builds(SonarModel, floats(0.5, 150.0), floats(0.05, 6.2),
                   floats(0.02, math.pi))


def at(p, psi, theta):
    return GliderState(p, Attitude(psi, theta), 0.3)


def around(g, axis):
    """g and the vehicles one float either side of it along `axis`."""
    x = getattr(g.position, axis)
    return [moved(g, axis, v)
            for v in (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))]


def limits(g, axis, counts):
    """The last float along `axis`, each way, at which counts(vehicle)
    still holds, with their neighbours."""
    return [h for away in (math.inf, -math.inf)
            for h in around(at_the_limit(g, axis, away, counts), axis)]


@st.composite
def wedge_edge(draw):
    """A body within range whose angular extent reaches just to an edge of
    the horizontal wedge or of the vertical one (for a pillar, the beam's
    lower edge on the surface rim or its upper one on the bottom rim), and
    the vehicles at the last floats either way that still see it."""
    sonar, depth = draw(SONARS), BOUNDS.depth
    psi, theta = draw(HEADINGS), draw(floats(-0.7, 0.7))
    p = Vec3(draw(floats(60.0, 140.0)), draw(floats(60.0, 140.0)),
             draw(floats(1.0, 49.0)))
    r = draw(floats(0.2, 15.0))
    d = r + draw(floats(0.05, 1.0)) * sonar.range
    alpha = math.asin(r / d)
    side = draw(st.sampled_from((-1.0, 1.0)))
    # bearing and elevation of the body's center
    b, el = psi, theta
    if draw(st.booleans()):
        b += side * (0.5 * sonar.horizontal_fov + alpha)
        axis = "y" if abs(math.cos(b)) >= abs(math.sin(b)) else "x"
    else:
        el += side * (0.5 * sonar.vertical_fov + alpha)
        axis = "z"
    if draw(st.booleans()):
        h = d * math.cos(el)
        ob = Obstacle("sphere", r, Vec3(p.x + h * math.cos(b), p.y + h * math.sin(b),
                                        p.z - d * math.sin(el)))
    else:
        ob = Obstacle("cylinder", r, Vec3(p.x + d * math.cos(b), p.y + d * math.sin(b), 0.0))
        half = 0.5 * sonar.vertical_fov
        if axis == "z":
            theta = (math.atan2(p.z, d - r) + half if side > 0 else
                     math.atan2(p.z - depth, d - r) - half)
        else:
            theta = 0.0  # inside the pillar's vertical extent
    g = at(p, psi, theta)
    return ob, limits(g, axis, lambda h: view_oracle(ob, h, sonar, depth)), sonar, depth


@st.composite
def vertical_tie(draw):
    """A body straight ahead whose angular extent meets the vertical wedge
    exactly: |elevation - pitch| == half + alpha for a sphere (when a pitch
    within 64 floats gives it), and for a pillar the beam's lower edge on
    the surface rim or its upper edge on the bottom rim."""
    depth = BOUNDS.depth
    p = Vec3(draw(floats(60.0, 140.0)), draw(floats(60.0, 140.0)),
             draw(floats(1.0, 49.0)))
    r, d = draw(floats(0.2, 15.0)), draw(floats(0.5, 80.0))
    b = draw(floats(-math.pi, math.pi))
    if draw(st.booleans()):
        el = draw(floats(-1.2, 1.2))
        h = (r + d) * math.cos(el)
        ob = Obstacle("sphere", r, Vec3(p.x + h * math.cos(b), p.y + h * math.sin(b),
                                        p.z - (r + d) * math.sin(el)))
    else:
        ob = Obstacle("cylinder", r, Vec3(p.x + (r + d) * math.cos(b),
                                          p.y + (r + d) * math.sin(b), 0.0))
    c = ob.center
    dx, dy = c.x - p.x, c.y - p.y
    hd = math.sqrt(dx * dx + dy * dy)
    psi = math.atan2(dy, dx)
    sonar = SonarModel(200.0, 1.0, draw(floats(0.02, math.pi)))
    if ob.shape == "sphere":
        el = math.atan2(p.z - c.z, hd)
        edge = 0.5 * sonar.vertical_fov + math.asin(min(1.0, r / p.dist(c)))
        side = draw(st.sampled_from((-1.0, 1.0)))
        theta = el - side * edge
        for _ in range(64):
            if abs(el - theta) == edge:
                break
            theta = math.nextafter(theta, el if abs(el - theta) > edge else -side * math.inf)
    else:
        rim = (math.atan2(p.z, hd - r) if draw(st.booleans()) else
               math.atan2(p.z - depth, hd - r))
        # pitch 2 rim and half-angle |rim|: one beam edge is rim itself
        sonar = SonarModel(200.0, 1.0, 2.0 * abs(rim))
        theta = 2.0 * rim
    return ob, [at(p, psi, theta)], sonar, depth


@st.composite
def on_the_surface(draw):
    """A vehicle on the last float inside a body along x, where its distance
    may equal the radius, with its neighbours."""
    r = draw(floats(0.2, 15.0))
    c = Vec3(draw(floats(0.0, 200.0)), draw(floats(0.0, 200.0)), draw(floats(0.0, 50.0)))
    if draw(st.booleans()):
        ob = Obstacle("sphere", r, c)
        dist = Vec3.dist
    else:
        ob = Obstacle("cylinder", r, Vec3(c.x, c.y, 0.0))
        dist = Vec3.hdist
    g = at(Vec3(c.x + r, c.y, c.z), draw(HEADINGS), draw(PITCHES))
    inside = at_the_limit(g, "x", math.inf, lambda h: dist(h.position, ob.center) <= r)
    return ob, around(inside, "x"), draw(SONARS), BOUNDS.depth


@st.composite
def inside_a_body(draw):
    ob = draw(free_obstacle())
    k, phi = draw(floats(0.0, 0.999)), draw(floats(-math.pi, math.pi))
    el = draw(floats(-0.5 * math.pi, 0.5 * math.pi)) if ob.shape == "sphere" else 0.0
    c, r = ob.center, ob.radius
    p = Vec3(c.x + k * r * math.cos(el) * math.cos(phi),
             c.y + k * r * math.cos(el) * math.sin(phi),
             draw(floats(0.0, 50.0)) if ob.shape == "cylinder" else
             c.z + k * r * math.sin(el))
    return ob, [at(p, draw(HEADINGS), draw(PITCHES))], draw(SONARS), BOUNDS.depth


@st.composite
def signed_zeros(draw):
    """Vehicle and body on the x axis with every other coordinate a signed
    zero, so the bearing is +-0 or +-pi, against headings at and next to
    +-pi."""
    zero = st.sampled_from((0.0, -0.0))
    p = Vec3(draw(zero), draw(zero), draw(zero))
    c = Vec3(draw(st.sampled_from((-30.0, -0.0, 0.0, 30.0))), draw(zero),
             draw(st.sampled_from((-0.0, 0.0, 5.0))))
    ob = Obstacle(draw(st.sampled_from(("sphere", "cylinder"))), draw(floats(0.2, 15.0)), c)
    return ob, [at(p, draw(HEADINGS), draw(PITCHES))], draw(SONARS), BOUNDS.depth


@st.composite
def anywhere(draw):
    g = at(Vec3(draw(floats(-20.0, 220.0)), draw(floats(-20.0, 220.0)),
                draw(floats(0.0, 50.0))), draw(HEADINGS), draw(PITCHES))
    return draw(free_obstacle()), [g], draw(SONARS), BOUNDS.depth


@settings(max_examples=1500, deadline=None)
@given(st.one_of(anywhere(), wedge_edge(), vertical_tie(), on_the_surface(),
                 inside_a_body(), signed_zeros()))
def test_the_inline_view_test_gives_the_scalar_tests_answer(scene):
    """sonar_view's one loop over one obstacle against view_oracle:
    spheres and pillars anywhere, at the last floats inside either wedge
    and on an exact tie with the vertical one, on and inside the body, and
    on signed zeros with headings about +-pi."""
    ob, vehicles, sonar, depth = scene
    for g in vehicles:
        want = view_oracle(ob, g, sonar, depth)
        assert sonar_view((ob,), (0,), g, sonar, depth) == ([0] if want else [])


@st.composite
def drifting_sphere(draw):
    """A sphere whose velocity is nonzero along x, so it moves."""
    vx = draw(floats(0.05, 0.5)) * draw(st.sampled_from((-1.0, 1.0)))
    return Obstacle("sphere", draw(floats(0.2, 15.0)),
                    Vec3(draw(floats(0.0, 200.0)), draw(floats(0.0, 200.0)),
                         draw(floats(0.0, 50.0))),
                    Vec3(vx, draw(floats(-0.5, 0.5)), draw(floats(-0.2, 0.2))))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_untracked_memo_answers_every_tracked_set(data):
    """One index of static bodies, of moving ones or of both along a 33 m
    walk, so every skin list is rebuilt, queried at each step with two
    sonar ranges and a cull radius in turn and, for each, a tracked set
    that grows, the same set again, a smaller one handed in through
    replace, an equal but new frozenset and the grown one again. Sensing
    and the cull read the same memo for a reach, and every world comes out
    of advance_world, so the cull reads the handed-on distances. Every
    answer must be the scan's, the cull's bit for bit."""
    draw = data.draw
    kind = draw(st.sampled_from(("static", "moving", "mixed")))
    if kind == "static":
        obstacles = [replace(ob, velocity=ZERO)
                     for ob in draw(st.lists(free_obstacle(), min_size=1, max_size=20))]
    elif kind == "moving":
        obstacles = draw(st.lists(drifting_sphere(), min_size=1, max_size=20))
    else:
        obstacles = draw(st.lists(st.one_of(free_obstacle(), drifting_sphere()),
                                  min_size=2, max_size=20))
        obstacles[:2] = [replace(obstacles[0], velocity=ZERO), draw(drifting_sphere())]
    n = len(obstacles)
    sonars = [SonarModel(draw(floats(5.0, 120.0)), draw(floats(0.5, 6.2)),
                         draw(floats(0.2, 3.0))) for _ in range(2)]
    culls = (sonars[0].range, draw(floats(0.5, 40.0)))
    start = Vec3(draw(floats(0.0, 200.0)), draw(floats(0.0, 200.0)),
                 draw(floats(0.0, 50.0)))
    way = draw(floats(-math.pi, math.pi))
    world = WorldState(at(start, 0.0, 0.0), tuple(obstacles), None, BOUNDS, HULL)
    index, tracked = world.index, frozenset()
    built = {r: [] for r in (*(sonar.range for sonar in sonars), *culls)}
    for k in range(12):
        p = offset(start, 3.0 * k * math.cos(way), 3.0 * k * math.sin(way), 0.0)
        world = advance_world(world, at(p, draw(HEADINGS), draw(floats(-0.7, 0.7))), 1.0)
        g = world.glider
        grown = tracked | frozenset(draw(tracked_sets(n)))
        smaller = frozenset(draw(st.sets(st.sampled_from(sorted(grown))))
                            if grown else set())
        # the same content in another object, but for the empty singleton
        again = frozenset(sorted(smaller))
        for seen in (tracked, grown, grown, smaller, again, grown):
            w = replace(world, tracked=seen)
            for sonar in sonars:
                want = [i for i, ob in enumerate(world.obstacles)
                        if i not in seen and view_oracle(ob, g, sonar, BOUNDS.depth)]
                assert visible_obstacles(w, sonar) == want
            for cull in culls:
                got = obstacles_within(w, cull)
                assert [(i, d.hex()) for i, d in got.items()] == cull_scan(w, cull)
        for reach, lists in built.items():
            first, second = index.split(p, reach, grown), index.split(p, reach, grown)
            assert first[0] is second[0] and first[1] is second[1]
            if index.static:
                skin = index.lists[reach][1]
                if not any(skin is old for old in lists):
                    lists.append(skin)
        tracked = grown
    if index.static:
        assert all(len(lists) >= 2 for lists in built.values())


def test_a_rebuilt_skin_list_renews_the_untracked_memo():
    """The tracked set stays one object while the vehicle closes on a
    sphere from past the sonar's skin list: the list is rebuilt twice on
    the way, and the sphere comes into view only in the third list, so a
    memo that outlived its list would never show it."""
    sonar = SonarModel(range=20.0)
    ahead = Obstacle("sphere", 1.0, Vec3(151.0, 100.0, 25.0))
    astern = Obstacle("sphere", 1.0, Vec3(60.0, 100.0, 25.0))
    world = WorldState(at(Vec3(100.0, 100.0, 25.0), 0.0, 0.0), (ahead, astern),
                       None, BOUNDS, HULL, tracked=frozenset({1}))
    seen, anchors = [], set()
    for x in (100.0, 110.5, 121.0, 125.0, 130.0):
        world = advance_world(world, at(Vec3(x, 100.0, 25.0), 0.0, 0.0), 1.0)
        seen.append(visible_obstacles(world, sonar))
        anchors.add(world.index.lists[sonar.range][0].x)
    assert anchors == {100.0, 110.5, 121.0}
    assert seen == [[], [], [], [], [0]]


def test_anchorage_sensing_walks_only_the_untracked(monkeypatch):
    """Over both anchorage missions each sensing call walks the untracked
    half of the index's split at the sonar's range, at most 35 a step on
    average, against the about 121 entries of the sonar's skin list that a
    walk over every candidate within range would test. Only the splits at
    the sonar's range count: the cull splits at its own radius. A mission
    yields one record per step that senses."""
    sc = load_scenario(SCENE)
    walked, senses = [], 0
    split = ObstacleIndex.split

    def counted(index, p, reach, tracked):
        out = split(index, p, reach, tracked)
        if reach == sc.sonar.range:
            walked.append(len(out[0]))
        return out

    monkeypatch.setattr(ObstacleIndex, "split", counted)
    for mode in ("baseline", "advanced"):
        senses += sum(1 for _ in harness.mission(replace(sc, mode=mode)))
    assert len(walked) == senses > 600
    assert sum(walked) / len(walked) <= 35.0


def test_traffic_measures_each_moving_sphere_once_per_step(monkeypatch):
    """Over scenarios/dynamic.yaml at seeds 0-3 in both modes (12 moving
    spheres), advance_world measures every sphere as it moves it and hands
    the distances to the next step's cull, so surface_distance runs less
    than once a step on average: only for each mission's first world. A
    step that measured each sphere for the clearance and again for the
    cull would make about 24 calls."""
    sc = load_scenario(Path(__file__).parents[1] / "scenarios" / "dynamic.yaml")
    calls = [0]
    measure = environment.surface_distance

    def counted(ob, p):
        calls[0] += 1
        return measure(ob, p)

    monkeypatch.setattr(environment, "surface_distance", counted)
    steps = 0
    for seed in range(4):
        for mode in ("baseline", "advanced"):
            res = harness.run_scenario(sc, mode=mode, seed=seed)
            steps += len(res.trajectory) - 1
    assert steps > 2000
    assert calls[0] < steps
