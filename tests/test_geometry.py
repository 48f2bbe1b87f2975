"""Sample-surface construction, the angle/vector helpers under it, and the
value types: Vec3 and environment.Obstacle (hand-written), Candidate
(frozen), and the six per-step dataclasses that do not refuse assignment."""

import ast
import math
import random
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mppf import geometry
from mppf.environment import CYLINDER, SPHERE, Bounds, Obstacle, VortexFlow, WorldState
from mppf.escape import EscapeState
from mppf.geometry import (
    GRID_N,
    MEMO_SIZE,
    ZERO,
    Attitude,
    Candidate,
    GliderSpec,
    GliderState,
    SampleSurface,
    Vec3,
    angle_diff,
    build_sample_surface,
    spherical_to_cartesian,
    wrap_angle,
)
from mppf.potentials import GotoCommand

SPEC = GliderSpec()


def glider(psi=0.0, theta=0.0, at=Vec3(50.0, 50.0, 10.0)):
    return GliderState(at, Attitude(psi, theta), SPEC.speed_for(theta))


# --- angle helpers ---------------------------------------------------------

def test_wrap_angle_range():
    rng = random.Random(1)
    for _ in range(500):
        a = rng.uniform(-40.0, 40.0)
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        # wrapping preserves the direction: sin/cos unchanged
        assert math.sin(w) == pytest.approx(math.sin(a), abs=1e-9)
        assert math.cos(w) == pytest.approx(math.cos(a), abs=1e-9)


def test_angle_diff_shortest_arc():
    assert angle_diff(math.radians(170.0), math.radians(-170.0)) == pytest.approx(
        math.radians(-20.0), abs=1e-12)
    assert angle_diff(0.1, 0.4) == pytest.approx(-0.3, abs=1e-12)


def test_spherical_roundtrip_random():
    rng = random.Random(2)
    for _ in range(1000):
        psi = rng.uniform(-math.pi, math.pi)
        theta = rng.uniform(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3)
        r = rng.uniform(1e-3, 50.0)
        v = spherical_to_cartesian(psi, theta, r)
        rr = v.norm()
        assert math.atan2(v.y, v.x) == pytest.approx(psi, abs=1e-9)
        assert math.asin(-v.z / rr) == pytest.approx(theta, abs=1e-9)
        assert rr == pytest.approx(r, rel=1e-9)


def test_depth_sign_convention():
    # positive glide angle climbs, so the offset's z (depth) is negative
    v = spherical_to_cartesian(0.3, 0.5, 1.0)
    assert v.z < 0.0
    v = spherical_to_cartesian(0.3, -0.5, 1.0)
    assert v.z > 0.0


# --- speed rule ------------------------------------------------------------

def test_speed_rule_descent_vs_ascent():
    assert SPEC.speed_for(-0.001) == 0.5
    assert SPEC.speed_for(0.0) == 0.3  # level flight uses the ascent figure
    assert SPEC.speed_for(0.4) == 0.3


# --- sample surface --------------------------------------------------------

def test_grid_is_five_by_five():
    surf = build_sample_surface(glider(), SPEC, 1.0)
    assert len(surf.candidates) == 25
    psis = sorted({c.psi for c in surf.candidates})
    assert len(psis) == 5
    step = SPEC.max_heading_step / 2.0
    for a, b in zip(psis, psis[1:]):
        assert b - a == pytest.approx(step, rel=1e-9)


def test_grid_centered_on_attitude():
    surf = build_sample_surface(glider(psi=0.7, theta=0.2), SPEC, 1.0)
    assert surf.center == Vec3(50.0, 50.0, 10.0)
    psis = {round(c.psi, 12) for c in surf.candidates}
    assert round(0.7, 12) in psis
    thetas = {round(c.theta, 12) for c in surf.candidates}
    assert round(0.2, 12) in thetas


def test_candidate_positions_on_their_spheres():
    dt = 1.0
    surf = build_sample_surface(glider(psi=-1.2, theta=-0.3), SPEC, dt)
    for c in surf.candidates:
        assert c.speed == SPEC.speed_for(c.theta)
        d = (c.position - surf.center).norm()
        assert d == pytest.approx(c.speed * dt, rel=1e-12)


def test_glide_clamp_keeps_duplicates():
    # attitude pitched to the envelope: the upper glide rows clamp onto it
    surf = build_sample_surface(glider(theta=SPEC.max_glide_angle), SPEC, 1.0)
    assert len(surf.candidates) == 25
    at_limit = [c for c in surf.candidates if c.theta == SPEC.max_glide_angle]
    assert len(at_limit) == 15  # three of five glide rows clamp, per heading
    assert all(abs(c.theta) <= SPEC.max_glide_angle + 1e-12
               for c in surf.candidates)


def test_heading_fan_wraps():
    surf = build_sample_surface(glider(psi=math.pi - 0.01), SPEC, 1.0)
    for c in surf.candidates:
        assert -math.pi < c.psi <= math.pi


def test_speeds_differ_across_glide_rows():
    # the same fan mixes descending (fast) and climbing (slow) candidates
    surf = build_sample_surface(glider(), SPEC, 1.0)
    speeds = {c.speed for c in surf.candidates}
    assert speeds == {0.3, 0.5}


def bits(v):
    return tuple(float.hex(a) for a in (v.x, v.y, v.z))


# headings around the +/-pi seam and glide angles at and past the envelope
HEADINGS = st.one_of(st.floats(-4.0, 4.0),
                     st.sampled_from([math.pi, -math.pi, math.nextafter(math.pi, 0.0),
                                      0.0, -0.0]))
GLIDES = st.one_of(st.floats(-1.6, 1.6), st.sampled_from([0.0, -0.0, 1.5, -1.5]))


@settings(max_examples=300, deadline=None)
@given(psi=HEADINGS, theta=GLIDES,
       step=st.floats(0.01, 1.2), glide=st.floats(0.05, 1.5),
       down=st.floats(0.05, 2.0), up=st.floats(0.05, 2.0),
       dt=st.floats(0.1, 10.0),
       at=st.tuples(*[st.floats(-500.0, 500.0)] * 3))
@example(psi=math.pi, theta=1.5, step=0.35, glide=0.8, down=0.5, up=0.3,
         dt=1.0, at=(0.0, 0.0, 0.0))
def test_fan_matches_spherical_to_cartesian_bit_for_bit(psi, theta, step, glide,
                                                          down, up, dt, at):
    # each candidate's position and velocity are the spherical_to_cartesian
    # values, bit for bit (signed zeros too), on the expected 5x5 grid
    spec = GliderSpec(max_heading_step=step, max_glide_angle=glide,
                      speed_down=down, speed_up=up)
    state = GliderState(Vec3(*at), Attitude(psi, theta), spec.speed_for(theta))
    surf = build_sample_surface(state, spec, dt)
    half = (GRID_N - 1) // 2
    k = 0
    for i in range(-half, half + 1):
        psi_i = wrap_angle(psi + i * (step / half))
        for j in range(-half, half + 1):
            theta_j = min(glide, max(-glide, theta + j * (glide / half)))
            c = surf.candidates[k]
            k += 1
            assert (float.hex(c.psi), float.hex(c.theta)) == (
                float.hex(psi_i), float.hex(theta_j))
            assert c.speed == spec.speed_for(theta_j)
            assert bits(c.velocity) == bits(
                spherical_to_cartesian(psi_i, theta_j, c.speed))
            assert bits(c.position) == bits(
                state.position + spherical_to_cartesian(psi_i, theta_j,
                                                        c.speed * dt))
    assert k == len(surf.candidates)


# --- the row memos --------------------------------------------------------

def fresh_fan(psi0, theta0, spec, dt):
    """(headings, glides, reach, dpsi, dtheta) built from scratch with the
    builder's arithmetic and no memo."""
    half = (GRID_N - 1) // 2
    psi_step = spec.max_heading_step / half
    theta_step = spec.max_glide_angle / half
    headings, dpsi, glides, dtheta = [], [], [], []
    reach = 0.0
    for i in range(-half, half + 1):
        psi_i = wrap_angle(psi0 + i * psi_step)
        headings.append((psi_i, math.cos(psi_i), math.sin(psi_i)))
        dpsi.append(abs(angle_diff(psi_i, psi0)))
    for j in range(-half, half + 1):
        theta_j = theta0 + j * theta_step
        theta_j = min(spec.max_glide_angle, max(-spec.max_glide_angle, theta_j))
        speed = spec.speed_for(theta_j)
        r = speed * dt
        reach = max(reach, r)
        ct, st_ = math.cos(theta_j), math.sin(theta_j)
        glides.append((theta_j, speed, r * ct, -r * st_, speed * ct, -speed * st_))
        dtheta.append(abs(theta_j - theta0))
    return headings, glides, reach, dpsi, dtheta


def hexed(v):
    """v with every float replaced by its .hex(), so that -0.0 != 0.0."""
    return tuple(map(hexed, v)) if isinstance(v, (tuple, list)) else float.hex(v)


def clear_memos():
    geometry._heading_memo.clear()
    geometry._glide_memo.clear()


def with_twins(pool):
    """The pool plus the other sign of each zero in it."""
    return pool + [-v for v in pool if v == 0.0]


TINY = [0.0, -0.0, 5e-324, -5e-324]
MEMO_PSIS = st.one_of(st.floats(-4.0, 4.0), st.sampled_from(
    [math.pi, -math.pi, math.nextafter(math.pi, 0.0),
     math.nextafter(-math.pi, 0.0), *TINY]))
MEMO_THETAS = st.one_of(st.floats(-1.6, 1.6), st.sampled_from([1.5, -1.5, *TINY]))
STEPS = st.one_of(st.floats(0.0, 1.2), st.sampled_from(TINY))
LIMITS = st.one_of(st.floats(0.0, 1.5), st.sampled_from(TINY))
SPEEDS = st.one_of(st.floats(0.0, 2.0), st.sampled_from([0.0, -0.0]))
DTS = st.one_of(st.floats(0.1, 10.0), st.sampled_from(TINY))


def pool(values):
    return st.lists(values, min_size=1, max_size=3).map(with_twins)


@st.composite
def fan_calls(draw):
    """Up to 24 builds in a random order, drawn from small pools of
    headings, glide angles, specs and dts, so that keys repeat, one psi
    meets several specs and dts, and a zero meets its other sign."""
    steps, limits, speeds = draw(pool(STEPS)), draw(pool(LIMITS)), draw(pool(SPEEDS))
    specs = draw(st.lists(st.builds(
        GliderSpec, max_heading_step=st.sampled_from(steps),
        max_glide_angle=st.sampled_from(limits),
        speed_down=st.sampled_from(speeds), speed_up=st.sampled_from(speeds)),
        min_size=1, max_size=4))
    return draw(st.lists(st.tuples(
        st.sampled_from(draw(pool(MEMO_PSIS))),
        st.sampled_from(draw(pool(MEMO_THETAS))),
        st.sampled_from(specs), st.sampled_from(draw(pool(DTS)))),
        min_size=1, max_size=24))


ZERO_STEP = GliderSpec(max_heading_step=0.0)


@settings(max_examples=300, deadline=None)
@given(calls=fan_calls())
# each pair shares a key but for the sign of one zero, or for one field
@example(calls=[(0.0, 0.1, ZERO_STEP, 1.0), (-0.0, 0.1, ZERO_STEP, 1.0)])
@example(calls=[(0.0, 0.1, ZERO_STEP, 1.0),
                (0.0, 0.1, GliderSpec(max_heading_step=-0.0), 1.0)])
@example(calls=[(0.3, 0.0, GliderSpec(max_glide_angle=0.0), 1.0),
                (0.3, -0.0, GliderSpec(max_glide_angle=0.0), 1.0)])
@example(calls=[(0.3, 0.1, GliderSpec(speed_up=0.0), 1.0),
                (0.3, 0.1, GliderSpec(speed_up=-0.0), 1.0)])
@example(calls=[(0.3, 0.1, SPEC, 0.0), (0.3, 0.1, SPEC, -0.0)])
@example(calls=[(0.3, 0.1, SPEC, 1.0), (0.3, 0.1, SPEC, 2.0),
                (0.3, 0.1, GliderSpec(max_heading_step=0.5, max_glide_angle=0.3,
                                      speed_down=0.7, speed_up=0.2), 1.0)])
def test_memoised_fan_matches_a_fresh_build_bit_for_bit(calls):
    clear_memos()
    for psi, theta, spec, dt in calls:
        state = GliderState(Vec3(1.0, 2.0, 3.0), Attitude(psi, theta), 0.3)
        surf = build_sample_surface(state, spec, dt)
        got = (surf.headings, surf.glides, surf.reach, surf.dpsi, surf.dtheta)
        assert hexed(got) == hexed(fresh_fan(psi, theta, spec, dt)), (psi, theta, spec, dt)


def test_row_memos_stay_within_their_bound():
    assert MEMO_SIZE == 4096
    clear_memos()
    for k in range(10_000):
        state = GliderState(ZERO, Attitude(k * 1e-3, k * 1e-4 - 0.5), 0.3)
        build_sample_surface(state, SPEC, 1.0)
        assert len(geometry._heading_memo) <= MEMO_SIZE
        assert len(geometry._glide_memo) <= MEMO_SIZE
    # emptied twice on the way: 10,000 - 2 * 4,096 entries are left
    assert len(geometry._heading_memo) == len(geometry._glide_memo) == 1808


# --- Vec3, Obstacle and Candidate: a frozen dataclass's semantics, not its guard

@dataclass(frozen=True, slots=True)
class RefVec3:
    x: float
    y: float
    z: float


@dataclass(frozen=True, slots=True)
class RefCandidate:
    position: RefVec3
    velocity: RefVec3
    psi: float
    theta: float
    speed: float


@dataclass(frozen=True, slots=True)
class RefObstacle:
    shape: str
    radius: float
    center: RefVec3
    velocity: RefVec3


NAN = math.nan  # one shared object: tuple comparison finds it equal to itself
FIELD = st.sampled_from([0.0, -0.0, 1.5, NAN, math.inf]) | st.floats()


def vec3(*xyz):
    """A Vec3 and its reference, built from the same field objects."""
    return Vec3(*xyz), RefVec3(*xyz)


def candidate(pos, vel, *rest):
    return Candidate(pos[0], vel[0], *rest), RefCandidate(pos[1], vel[1], *rest)


def obstacle(shape, radius, center, velocity):
    return (Obstacle(shape, radius, center[0], velocity[0]),
            RefObstacle(shape, radius, center[1], velocity[1]))


VEC3S = st.tuples(FIELD, FIELD, FIELD).map(lambda xyz: vec3(*xyz))
CANDIDATES = st.builds(candidate, VEC3S, VEC3S, FIELD, FIELD, FIELD)
# the values Obstacle's checks accept: a radius not <= 0 (NaN passes), and
# a cylinder only at rest, where -0.0 equals 0.0
RADII = FIELD.filter(lambda r: not r <= 0.0)
SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
OBSTACLES = (
    st.builds(obstacle, st.just(SPHERE), RADII, VEC3S, VEC3S)
    | st.builds(obstacle, st.just(CYLINDER), RADII, VEC3S,
                st.tuples(SIGNED_ZEROS, SIGNED_ZEROS, SIGNED_ZEROS).map(
                    lambda xyz: vec3(*xyz))))
FOREIGN = [None, "x", (0.0, 0.0, 0.0), 1.5, object()]


def assert_same_semantics(a, ref_a, b, ref_b):
    assert (a == b) is (ref_a == ref_b)
    assert (a != b) is (ref_a != ref_b)
    assert hash(a) == hash(ref_a)
    assert repr(a) == repr(ref_a).replace("Ref", "")
    # another class, the reference included, never compares equal
    for other in FOREIGN + [ref_a, ref_b]:
        assert a.__eq__(other) is NotImplemented
        assert (a == other) is False and (a != other) is True


@settings(max_examples=300, deadline=None)
@given(VEC3S, VEC3S)
@example(vec3(NAN, 0.0, 1.0), vec3(NAN, 0.0, 1.0))
@example(vec3(math.nan, 0.0, 1.0), vec3(math.nan, 0.0, 1.0))
@example(vec3(-0.0, 0.0, -0.0), vec3(0.0, -0.0, 0.0))
def test_vec3_compares_hashes_and_prints_like_a_frozen_dataclass(a, b):
    assert_same_semantics(a[0], a[1], b[0], b[1])


@settings(max_examples=300, deadline=None)
@given(CANDIDATES, CANDIDATES)
@example(candidate(vec3(NAN, 1.0, 2.0), vec3(0.0, 0.0, 0.0), NAN, -0.0, 0.5),
         candidate(vec3(NAN, 1.0, 2.0), vec3(-0.0, 0.0, 0.0), NAN, 0.0, 0.5))
def test_candidate_compares_hashes_and_prints_like_a_frozen_dataclass(a, b):
    assert_same_semantics(a[0], a[1], b[0], b[1])
    assert a[0] != a[0].position and a[0].position != a[0]


@settings(max_examples=300, deadline=None)
@given(OBSTACLES, OBSTACLES)
@example(obstacle(SPHERE, NAN, vec3(NAN, 1.0, 2.0), vec3(0.2, 0.0, 0.0)),
         obstacle(SPHERE, NAN, vec3(NAN, 1.0, 2.0), vec3(0.2, -0.0, 0.0)))
@example(obstacle(CYLINDER, 3.0, vec3(-0.0, 5.0, 0.0), vec3(0.0, 0.0, 0.0)),
         obstacle(CYLINDER, 3.0, vec3(0.0, 5.0, -0.0), vec3(-0.0, 0.0, -0.0)))
@example(obstacle(SPHERE, 1.0, vec3(1.0, 2.0, 3.0), vec3(0.0, 0.0, 0.0)),
         obstacle(CYLINDER, 1.0, vec3(1.0, 2.0, 3.0), vec3(0.0, 0.0, 0.0)))
def test_obstacle_compares_hashes_and_prints_like_a_frozen_dataclass(a, b):
    assert_same_semantics(a[0], a[1], b[0], b[1])
    assert a[0] != a[0].center and a[0].center != a[0]


# --- the per-step dataclasses: unfrozen, but otherwise their frozen originals
# (the declarations before they stopped refusing assignment)

@dataclass(frozen=True, slots=True)
class RefAttitude:
    psi: float
    theta: float


@dataclass(frozen=True, slots=True)
class RefGliderState:
    position: Vec3
    attitude: Attitude
    speed: float
    mode: str = "follow"


@dataclass(frozen=True, slots=True)
class RefSampleSurface:
    center: Vec3
    attitude: Attitude
    headings: tuple
    glides: tuple
    reach: float
    dpsi: tuple
    dtheta: tuple


@dataclass(frozen=True, slots=True)
class RefGotoCommand:
    target: Vec3
    psi_d: float
    theta_d: float
    potential: float


@dataclass(frozen=True, slots=True)
class RefEscapeState:
    mode: str = "inactive"
    residual_vx: float = 0.0
    residual_vy: float = 0.0
    progress_history: tuple = ()


@dataclass(frozen=True, slots=True)
class RefWorldState:
    glider: GliderState
    obstacles: tuple = ()
    flow: VortexFlow | None = None
    bounds: Bounds = Bounds()
    body_radius: float = 0.6
    time: float = 0.0
    clearance: float = math.inf
    tracked: frozenset = frozenset()
    index: object = field(default=None, compare=False, repr=False)


def twins(cls, ref, *values):
    """The type and its frozen reference, built from the same field objects."""
    return st.tuples(*values).map(lambda v: (cls(*v), ref(*v)))


def rows(width):
    return st.lists(st.tuples(*[FIELD] * width), max_size=3).map(tuple)


POINTS = VEC3S.map(lambda pair: pair[0])
ATTITUDES = st.builds(Attitude, FIELD, FIELD)
GLIDERS = st.builds(GliderState, POINTS, ATTITUDES, FIELD,
                    st.sampled_from(["follow", "escape"]))
FINITE = st.sampled_from([0.0, -0.0, 2.5, 40.0])
# finite centres: the obstacle index files each one in a grid cell
WORLD_OBSTACLES = st.lists(st.builds(
    Obstacle, st.just(SPHERE), st.sampled_from([1.0, 3.0]),
    st.builds(Vec3, FINITE, FINITE, FINITE)), max_size=3).map(tuple)
STEP_TYPES = {
    "Attitude": twins(Attitude, RefAttitude, FIELD, FIELD),
    "GliderState": twins(GliderState, RefGliderState, POINTS, ATTITUDES, FIELD,
                         st.sampled_from(["follow", "escape"])),
    "SampleSurface": twins(SampleSurface, RefSampleSurface, POINTS, ATTITUDES,
                           rows(3), rows(6), FIELD, rows(1), rows(1)),
    "GotoCommand": twins(GotoCommand, RefGotoCommand, POINTS, FIELD, FIELD, FIELD),
    "EscapeState": twins(EscapeState, RefEscapeState,
                         st.sampled_from(["inactive", "ascending", "descending"]),
                         FIELD, FIELD, st.lists(FIELD, max_size=3).map(tuple)),
    "WorldState": twins(WorldState, RefWorldState, GLIDERS, WORLD_OBSTACLES,
                        st.sampled_from([None, VortexFlow()]),
                        st.sampled_from([Bounds(), Bounds(50.0, 50.0, 20.0)]),
                        FIELD, FIELD, FIELD,
                        st.frozensets(st.integers(0, 3), max_size=3)),
}


@pytest.mark.parametrize("name", sorted(STEP_TYPES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_step_types_compare_hash_print_and_replace_like_frozen_dataclasses(name, data):
    a, ref_a = data.draw(STEP_TYPES[name])
    b, ref_b = data.draw(STEP_TYPES[name])
    assert [f.name for f in fields(a)] == [f.name for f in fields(ref_a)]
    assert_same_semantics(a, ref_a, b, ref_b)
    # replace() one compared field with b's: a copy that may now equal b
    key = data.draw(st.sampled_from([f.name for f in fields(a) if f.compare]))
    new, ref_new = (replace(x, **{key: getattr(b, key)}) for x in (a, ref_a))
    assert_same_semantics(new, ref_new, b, ref_b)
    if name == "WorldState":  # built once, in __post_init__, then carried on
        assert new.index is a.index and a.index.obstacles == a.obstacles


# --- nothing assigns those fields ---------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
# every field of the types that do not refuse assignment, and of Candidate
FIELDS = {*Vec3.__slots__, *Obstacle.__slots__,
          *(f.name for cls in (Candidate, Attitude, GliderState, SampleSurface,
                               GotoCommand, EscapeState, WorldState)
            for f in fields(cls))}
SETTERS = {"setattr", "delattr", "__setattr__", "__delattr__"}


def field_writes(tree):
    """(line, enclosing class/function path, name) of every store to or
    delete of an attribute named in FIELDS, and of every setattr-style call
    that names one."""
    out = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef,
                                  ast.AsyncFunctionDef)):
                walk(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Attribute) and child.attr in FIELDS
                    and not isinstance(child.ctx, ast.Load)):
                out.append((child.lineno, ".".join(scope), child.attr))
            elif isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", "")
                if (name in SETTERS and len(child.args) >= 2
                        and isinstance(child.args[1], ast.Constant)
                        and child.args[1].value in FIELDS):
                    out.append((child.lineno, ".".join(scope),
                                child.args[1].value))
            walk(child, scope)

    walk(tree, ())
    return out


def test_the_field_guard_sees_every_kind_of_write():
    src = ("ZERO.x = 1.0\n"
           "def f(v, c):\n"
           "    v.y += 1.0\n"
           "    del c.position\n"
           "    setattr(c, 'psi', 0.0)\n"
           "    object.__setattr__(c, 'speed', 0.0)\n"
           "    c.velocity.z, w = 0.0, v.x\n")
    assert field_writes(ast.parse(src)) == [
        (1, "", "x"), (3, "f", "y"), (4, "f", "position"), (5, "f", "psi"),
        (6, "f", "speed"), (7, "f", "z")]


def test_nothing_assigns_the_fields_of_the_value_types():
    # Vec3, Obstacle and the six per-step dataclasses do not refuse
    # assignment, and ZERO and the worlds' shared index are seen by every
    # caller: only Vec3's own __init__ may write its names, only Obstacle's
    # __init__ and the drift step, which fills a new Obstacle, may write
    # Obstacle's, and only WorldState.__post_init__ fills a world's index.
    # ObstacleIndex.__init__ writes its own `obstacles`, which shares a
    # name with WorldState's. Candidate is frozen, but nothing should try.
    ob_fields = {"shape", "radius", "center", "velocity"}
    allowed = {("src/mppf/geometry.py", "Vec3.__init__"): {"x", "y", "z"},
               ("src/mppf/environment.py", "Obstacle.__init__"): ob_fields,
               ("src/mppf/environment.py", "_advance_obstacle"): ob_fields,
               ("src/mppf/environment.py", "ObstacleIndex.__init__"): {"obstacles"},
               ("src/mppf/environment.py", "WorldState.__post_init__"): {"index"}}
    seen = {key: set() for key in allowed}
    writes = []
    for path in sorted([*(ROOT / "src" / "mppf").rglob("*.py"),
                        *(ROOT / "tools").rglob("*.py")]):
        rel = path.relative_to(ROOT).as_posix()
        for line, scope, name in field_writes(ast.parse(path.read_text())):
            if (rel, scope) in allowed:
                seen[rel, scope].add(name)
            else:
                writes.append(f"{rel}:{line} {scope or '<module>'} writes .{name}")
    assert writes == []
    assert seen == allowed  # the walk does reach every allowed writer
