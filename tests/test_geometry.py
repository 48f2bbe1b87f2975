"""Sample-surface construction, the angle/vector helpers under it, and the
value types Vec3 and environment.Obstacle (hand-written) and Candidate."""

import ast
import math
import random
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mppf.environment import CYLINDER, SPHERE, Obstacle
from mppf.geometry import (
    GRID_N,
    Attitude,
    Candidate,
    GliderSpec,
    GliderState,
    Vec3,
    angle_diff,
    build_sample_surface,
    spherical_to_cartesian,
    wrap_angle,
)

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


# --- nothing assigns those fields ---------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
FIELDS = {"x", "y", "z", "position", "velocity", "psi", "theta", "speed",
          "shape", "radius", "center"}
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


def test_nothing_assigns_the_fields_of_vec3_or_candidate():
    # Vec3 and Obstacle do not refuse assignment, and ZERO is shared by
    # every caller: only Vec3's own __init__ may write its names, and only
    # Obstacle's __init__ and the drift step, which fills a new Obstacle,
    # may write Obstacle's. Candidate is a frozen dataclass again, but
    # nothing should try either.
    ob_fields = {"shape", "radius", "center", "velocity"}
    allowed = {("src/mppf/geometry.py", "Vec3.__init__"): {"x", "y", "z"},
               ("src/mppf/environment.py", "Obstacle.__init__"): ob_fields,
               ("src/mppf/environment.py", "_advance_obstacle"): ob_fields}
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
