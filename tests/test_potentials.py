"""Go-to selection: scalar/grid agreement, tie-breaking, feasibility gates."""

import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mppf import _kernels
from mppf.errors import NoFeasibleWaypoint
from mppf.geometry import (
    Attitude,
    GliderSpec,
    GliderState,
    Vec3,
    angle_diff,
    build_sample_surface,
    spherical_to_cartesian,
)
from mppf.potentials import (
    GotoCommand,
    ObstaclePoint,
    PotentialParams,
    grid_potentials,
    select_goto,
    total_potential,
)

SPEC = GliderSpec()
PARAMS = PotentialParams()
FLAT = PotentialParams(xi=0.0)  # no attraction: unblocked candidates tie
ZERO = Vec3(0.0, 0.0, 0.0)


def surface_at(pos, psi=0.0, theta=0.0, dt=1.0):
    g = GliderState(pos, Attitude(psi, theta), SPEC.speed_for(theta))
    return build_sample_surface(g, SPEC, dt)


def brute_force(surface, goal, points, flow, params, mode, max_depth):
    """Reference argmin: score each candidate with the scalar stack."""
    best = None
    best_key = None
    att = surface.attitude
    for i, c in enumerate(surface.candidates):
        if c.position.z < 0.0 or c.position.z > max_depth:
            continue
        if any(c.position == p.position for p in points):
            continue
        vel = spherical_to_cartesian(c.psi, c.theta, c.speed)
        u = total_potential(c.position, vel, goal, points, flow, params, mode)
        key = (u, abs(angle_diff(c.psi, att.psi)), abs(c.theta - att.theta), i)
        if best_key is None or key < best_key:
            best_key = key
            best = c
    return best, best_key


def random_points(rng, center, count):
    pts = []
    for _ in range(count):
        off = Vec3(rng.uniform(-8.0, 8.0), rng.uniform(-8.0, 8.0),
                   rng.uniform(-4.0, 4.0))
        r = rng.uniform(0.5, 4.0)
        vel = Vec3(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4), 0.0)
        pts.append(ObstaclePoint(center + off, vel, 2.0 * (r + 0.6), r))
    return pts


# --- grid vs scalar --------------------------------------------------------

def test_grid_matches_scalar_composition_exactly():
    # the kernel repeats the scalar operation order, so == is the contract
    rng = random.Random(7)
    for _ in range(50):
        center = Vec3(rng.uniform(20, 80), rng.uniform(20, 80), rng.uniform(2, 25))
        surf = surface_at(center, rng.uniform(-math.pi, math.pi),
                          rng.uniform(-0.7, 0.7))
        goal = Vec3(rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 30))
        pts = random_points(rng, center, rng.randrange(0, 6))
        flow = Vec3(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), 0.0)
        mode = rng.choice(("baseline", "advanced"))
        grid = grid_potentials(surf, goal, pts, flow, PARAMS, mode)
        assert len(grid) == len(surf.candidates)
        for i, c in enumerate(surf.candidates):
            vel = spherical_to_cartesian(c.psi, c.theta, c.speed)
            assert grid[i].hex() == total_potential(
                c.position, vel, goal, pts, flow, PARAMS, mode).hex()


def test_selection_agrees_with_brute_force_randomized():
    rng = random.Random(11)
    for _ in range(300):
        center = Vec3(rng.uniform(15, 85), rng.uniform(15, 85), rng.uniform(1, 28))
        surf = surface_at(center, rng.uniform(-math.pi, math.pi),
                          rng.uniform(-0.75, 0.75))
        goal = Vec3(rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 30))
        pts = random_points(rng, center, rng.randrange(0, 8))
        flow = Vec3(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), 0.0)
        mode = rng.choice(("baseline", "advanced"))
        cmd = select_goto(surf, goal, pts, flow, PARAMS, mode, 30.0)
        want, want_key = brute_force(surf, goal, pts, flow, PARAMS, mode, 30.0)
        assert cmd.target == want.position
        assert cmd.potential == want_key[0]


def floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def unit_vectors(draw):
    psi, theta = draw(floats(-math.pi, math.pi)), draw(floats(-1.57, 1.57))
    return spherical_to_cartesian(psi, theta, 1.0)


@st.composite
def fan_cases(draw):
    """A fan from random speeds, dt and attitude, and points around it.

    A point sits near a candidate (within, at, or just past its influence
    radius from it), at or just either side of influence + reach or of
    influence + reach + 1 m from the fan's center along a candidate's own
    direction, exactly on a candidate, or anywhere out to well past the
    reach. Each may drift, so the closing-velocity term counts too."""
    spec = GliderSpec(speed_down=draw(floats(0.05, 2.0)),
                      speed_up=draw(floats(0.05, 2.0)))
    dt = draw(floats(0.1, 30.0))
    center = Vec3(draw(floats(-50.0, 250.0)), draw(floats(-50.0, 250.0)),
                  draw(floats(0.0, 50.0)))
    theta = draw(floats(-0.7, 0.7))
    surf = build_sample_surface(
        GliderState(center, Attitude(draw(floats(-math.pi, math.pi)), theta),
                    spec.speed_for(theta)), spec, dt)
    cands = surf.candidates
    points = []
    for _ in range(draw(st.integers(0, 10))):
        influence = draw(floats(0.5, 40.0))
        c = draw(st.sampled_from(cands))
        kind = draw(st.sampled_from(("near", "boundary", "on", "anywhere")))
        if kind == "near":
            pos = c.position + draw(unit_vectors()) * (
                influence * draw(floats(0.0, 1.01)))
        elif kind == "boundary":
            out = c.position - center
            out = out * (1.0 / out.norm())
            d = influence + surf.reach + draw(st.sampled_from((0.0, 1.0)))
            d = draw(st.sampled_from((d, math.nextafter(d, 0.0),
                                      math.nextafter(d, math.inf),
                                      d - 1e-9, d + 1e-9)))
            pos = center + out * d
        elif kind == "on":
            pos = c.position
        else:
            pos = center + draw(unit_vectors()) * draw(
                floats(0.0, influence + surf.reach + 5.0))
        vel = Vec3(0.0, 0.0, 0.0)
        if draw(st.booleans()):
            vel = draw(unit_vectors()) * draw(floats(0.0, 2.0))
        points.append(ObstaclePoint(pos, vel, influence, 0.5 * influence))
    goal = Vec3(draw(floats(-50.0, 250.0)), draw(floats(-50.0, 250.0)),
                draw(floats(0.0, 50.0)))
    flow = Vec3(draw(floats(-0.5, 0.5)), draw(floats(-0.5, 0.5)), 0.0)
    return surf, goal, points, flow


@settings(max_examples=300, deadline=None)
@given(fan_cases())
def test_point_filter_leaves_every_score_bit_identical(case):
    """grid_potentials hands the kernel only the points within reach of the
    fan; scoring every point gives the same bits in both modes. Each score
    is also the scalar composition's, bit for bit, and +inf on a point."""
    surf, goal, points, flow = case
    n = len(surf.candidates)
    for mode in ("baseline", "advanced"):
        want = _kernels.total_potential_grid(
            n, surf, goal.x, goal.y, goal.z, flow, len(points),
            points, PARAMS, mode == "advanced")
        assert len(want) == n == 25
        got = grid_potentials(surf, goal, points, flow, PARAMS, mode)
        assert [u.hex() for u in got] == [u.hex() for u in want]
        for c, u in zip(surf.candidates, want):
            if any((p.position - c.position).norm2() == 0.0 for p in points):
                assert u == math.inf
            else:
                assert u.hex() == total_potential(
                    c.position, c.velocity, goal, points, flow, PARAMS,
                    mode).hex()


# --- tie-breaking ----------------------------------------------------------

def test_tie_breaks_toward_smallest_heading_change():
    # goal dead ahead and far: candidates mirrored about the track tie in
    # potential, and the straight-ahead column must win
    surf = surface_at(Vec3(50.0, 50.0, 10.0), psi=0.0, theta=0.0)
    goal = Vec3(1e6, 50.0, 10.0)
    cmd = select_goto(surf, goal, (), ZERO, PARAMS, "baseline", 30.0)
    assert cmd.psi_d == 0.0


def test_tie_breaks_then_glide_then_grid_order():
    surf = surface_at(Vec3(50.0, 50.0, 10.0), psi=0.0, theta=0.0)
    att = surf.attitude
    # force a full tie by scoring against the candidates' own center
    grid = grid_potentials(surf, surf.center, (), ZERO, PARAMS, "baseline")
    keyed = sorted(
        (grid[i], abs(angle_diff(c.psi, att.psi)), abs(c.theta - att.theta), i)
        for i, c in enumerate(surf.candidates)
        if 0.0 <= c.position.z <= 30.0)
    cmd = select_goto(surf, surf.center, (), ZERO, PARAMS, "baseline", 30.0)
    assert cmd.potential == keyed[0][0]
    i = keyed[0][3]
    assert cmd.target == surf.candidates[i].position


# --- feasibility -----------------------------------------------------------

def test_surface_candidates_with_negative_depth_skipped():
    surf = surface_at(Vec3(50.0, 50.0, 0.0), theta=0.0)
    assert any(c.position.z < 0.0 for c in surf.candidates)
    cmd = select_goto(surf, Vec3(90, 50, 0), (), ZERO, PARAMS, "baseline", 30.0)
    assert cmd.target.z >= 0.0


def test_depth_ceiling_is_inclusive():
    surf = surface_at(Vec3(50.0, 50.0, 10.0), theta=0.0)
    ceiling = max(c.position.z for c in surf.candidates)
    cmd = select_goto(surf, Vec3(50, 50, 40), (), ZERO, PARAMS, "baseline", ceiling)
    assert cmd.target.z == ceiling  # deepest row allowed right at the limit


def test_all_candidates_too_deep_raises():
    surf = surface_at(Vec3(50.0, 50.0, 5.0), theta=0.0)
    with pytest.raises(NoFeasibleWaypoint):
        select_goto(surf, Vec3(90, 50, 0), (), ZERO, PARAMS, "baseline", 1.0)


def test_coincident_sample_point_is_infinite_and_skipped():
    surf = surface_at(Vec3(50.0, 50.0, 10.0))
    target = select_goto(surf, Vec3(90, 50, 10), (), ZERO, PARAMS,
                         "baseline", 30.0).target
    # park an obstacle point exactly on the winner; selection must move on
    pts = (ObstaclePoint(target, ZERO, 7.2, 3.0),)
    grid = grid_potentials(surf, Vec3(90, 50, 10), pts, ZERO, PARAMS, "baseline")
    idx = [i for i, c in enumerate(surf.candidates) if c.position == target]
    assert math.isinf(grid[idx[0]])
    cmd = select_goto(surf, Vec3(90, 50, 10), pts, ZERO, PARAMS, "baseline", 30.0)
    assert cmd.target != target


# --- selection from the fan's rows --------------------------------------------

def reference_select(surface, goal, points, flow, params, mode, max_depth):
    """select_goto as a loop over built Candidates: the depth test, the tie
    key and the message, one candidate at a time."""
    grid = grid_potentials(surface, goal, points, flow, params, mode)
    att = surface.attitude
    best = None
    for i, c in enumerate(surface.candidates):
        if c.position.z < 0.0 or c.position.z > max_depth:
            continue
        u = grid[i]
        if math.isinf(u) or best is not None and u > best[0]:
            continue
        key = (u, abs(angle_diff(c.psi, att.psi)), abs(c.theta - att.theta), i)
        if best is None or key < best:
            best = key
    if best is None:
        raise NoFeasibleWaypoint(
            f"all {len(surface.candidates)} candidates infeasible at "
            f"({surface.center.x:.2f}, {surface.center.y:.2f}, "
            f"{surface.center.z:.2f})")
    c = surface.candidates[best[3]]
    return GotoCommand(c.position, c.psi, c.theta, best[0])


def command_bits(cmd):
    t = cmd.target
    return tuple(float.hex(v) for v in (t.x, t.y, t.z, cmd.psi_d, cmd.theta_d,
                                        cmd.potential))


def outcome(select, *args):
    """The command's bits, or the message of NoFeasibleWaypoint."""
    try:
        return command_bits(select(*args))
    except NoFeasibleWaypoint as e:
        return str(e)


def rows_only(surf):
    """The surface without its candidates property: only the fields the
    hot path may read."""
    return SimpleNamespace(center=surf.center, attitude=surf.attitude,
                           headings=surf.headings, glides=surf.glides,
                           reach=surf.reach)


def test_selection_never_reads_the_built_candidates():
    rng = random.Random(13)
    for _ in range(100):
        center = Vec3(rng.uniform(20, 80), rng.uniform(20, 80), rng.uniform(0, 30))
        surf = surface_at(center, rng.uniform(-math.pi, math.pi),
                          rng.uniform(-0.7, 0.7))
        goal = Vec3(rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 30))
        pts = random_points(rng, center, rng.randrange(1, 8))
        flow = Vec3(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), 0.0)
        for mode in ("baseline", "advanced"):
            args = (goal, pts, flow, PARAMS, mode, 30.0)
            want = outcome(select_goto, surf, *args)
            assert outcome(select_goto, rows_only(surf), *args) == want
            assert outcome(reference_select, surf, *args) == want


@st.composite
def selection_cases(draw):
    """A fan near the surface, near max_depth, or wholly out of range, so
    that whole glide rows (or all of them) are infeasible; points, some
    exactly on candidates; a goal that may sit on the center, where
    mirrored candidates tie exactly, and gains that may be flat (no
    attraction), where every unblocked candidate ties in baseline mode."""
    spec = GliderSpec(speed_down=draw(floats(0.05, 2.0)),
                      speed_up=draw(floats(0.05, 2.0)),
                      max_glide_angle=draw(floats(0.05, 1.5)))
    dt = draw(floats(0.1, 10.0))
    max_depth = draw(floats(0.5, 60.0))
    reach = max(spec.speed_down, spec.speed_up) * dt
    near = draw(floats(-1.5, 1.5)) * reach
    z = draw(st.sampled_from((abs(near), abs(near), max_depth - near,
                              max_depth - near,
                              max_depth + 1.5 * reach + abs(near))))
    theta = draw(floats(-spec.max_glide_angle, spec.max_glide_angle))
    center = Vec3(draw(floats(-50.0, 150.0)), draw(floats(-50.0, 150.0)), z)
    surf = build_sample_surface(
        GliderState(center, Attitude(draw(floats(-4.0, 4.0)), theta),
                    spec.speed_for(theta)), spec, dt)
    cands = surf.candidates
    points = []
    for _ in range(draw(st.integers(0, 6))):
        c = draw(st.sampled_from(cands))
        pos = c.position
        if draw(st.booleans()):
            pos = pos + draw(unit_vectors()) * draw(floats(0.0, 3.0 * reach))
        vel = draw(unit_vectors()) * draw(floats(0.0, 1.0))
        # a tiny influence blocks its candidate and leaves the ties alone
        influence = draw(st.sampled_from((1e-3, "any")))
        if influence == "any":
            influence = draw(floats(0.5, 10.0))
        points.append(ObstaclePoint(pos, vel, influence, 0.5 * influence))
    goal = draw(st.sampled_from((center, "any")))
    if goal == "any":
        goal = Vec3(draw(floats(-50.0, 150.0)), draw(floats(-50.0, 150.0)),
                    draw(floats(0.0, 60.0)))
    flow = draw(st.sampled_from((ZERO, "any")))
    if flow == "any":
        flow = Vec3(draw(floats(-0.5, 0.5)), draw(floats(-0.5, 0.5)),
                    draw(floats(-0.1, 0.1)))
    params = draw(st.sampled_from((PARAMS, FLAT)))
    return surf, goal, points, flow, params, max_depth


@settings(max_examples=400, deadline=None)
@given(selection_cases(), st.sampled_from(("baseline", "advanced")))
@example((surface_at(Vec3(50.0, 50.0, 10.0)), Vec3(50.0, 50.0, 10.0), [],
          ZERO, PARAMS, 30.0), "baseline")
@example((surface_at(Vec3(50.0, 50.0, 0.2)), Vec3(50.0, 50.0, 0.2), [],
          Vec3(0.2, 0.1, 0.0), PARAMS, 30.0), "advanced")
@example((surface_at(Vec3(50.0, 50.0, 5.0)), Vec3(90.0, 50.0, 0.0), [],
          ZERO, PARAMS, 1.0), "baseline")
# every candidate scores 0.0; with the straight-ahead level one blocked,
# the heading change outranks the glide change
@example((surface_at(Vec3(50.0, 50.0, 10.0)), Vec3(90.0, 50.0, 10.0),
          [ObstaclePoint(surface_at(Vec3(50.0, 50.0, 10.0)).candidates[12].position,
                         ZERO, 1e-3, 1e-3)], ZERO, FLAT, 30.0), "baseline")
def test_factored_selection_matches_the_candidate_loop(case, mode):
    surf, goal, points, flow, params, max_depth = case
    args = (goal, points, flow, params, mode, max_depth)
    assert outcome(select_goto, surf, *args) == outcome(
        reference_select, surf, *args)
    assert outcome(select_goto, rows_only(surf), *args) == outcome(
        select_goto, surf, *args)


# --- mode gating -----------------------------------------------------------

def test_baseline_ignores_velocity_and_flow_terms():
    pos = Vec3(50.0, 50.0, 10.0)
    vel = Vec3(0.5, 0.0, 0.0)
    goal = Vec3(90.0, 50.0, 10.0)
    pts = (ObstaclePoint(Vec3(53.0, 50.0, 10.0), Vec3(-0.2, 0.0, 0.0), 7.2, 3.0),)
    flow = Vec3(0.3, 0.0, 0.0)
    base = total_potential(pos, vel, goal, pts, flow, PARAMS, "baseline")
    calm = total_potential(pos, vel, goal, pts, ZERO, PARAMS, "baseline")
    still = total_potential(pos, vel, goal,
                            (ObstaclePoint(pts[0].position, ZERO, 7.2, 3.0),),
                            ZERO, PARAMS, "baseline")
    assert base == calm == still
    adv = total_potential(pos, vel, goal, pts, flow, PARAMS, "advanced")
    assert adv != base


def test_unknown_mode_rejected():
    pos = Vec3(50.0, 50.0, 10.0)
    with pytest.raises(ValueError):
        total_potential(pos, ZERO, pos, (), ZERO, PARAMS, "hybrid")
    surf = surface_at(pos)
    with pytest.raises(ValueError):
        grid_potentials(surf, pos, (), ZERO, PARAMS, "hybrid")
