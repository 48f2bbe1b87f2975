"""Coordinate conventions, vectors, and the candidate sample surface.

Frame: x east, y north, z depth (positive down, z=0 at the surface).
Heading psi is measured in the horizontal plane from +x, glide angle theta
in the vertical plane, positive when climbing (depth decreasing).

The sample surface is a 5x5 fan: each of 5 headings crossed with each of
5 glide angles, each glide angle at its own speed. SampleSurface keeps the
fan as those factors, one row per heading and one per glide angle, and
the planner scores and selects straight from the rows. Candidate, one
point of the fan, is built only on request (SampleSurface.candidates).

The rows depend only on the attitude, a few spec fields and dt, and
missions revisit few attitudes (the eight obstacle-free benchmark
missions make 3,025 decisions from 79 distinct headings), so
build_sample_surface keeps each row set it builds in one of two
module-level memos: heading rows keyed by (psi, max_heading_step), glide
rows by (theta, max_glide_angle, speed_down, speed_up, dt). Each memo is
emptied when it holds MEMO_SIZE entries. A hit returns the bits a fresh
build would: the rows are a pure function of the key's values, and a key
holding a zero also carries the sign of each value, because -0.0 == 0.0
as dict keys while the rows built from them can differ in the sign of a
zero. The entries hold no caller's state, so every caller in the process
may share them.

One rule covers the value types of the package (the plain records of a
finished run in harness aside). A type built on every step (Vec3,
Attitude, GliderState, SampleSurface, and elsewhere environment.Obstacle
and WorldState, potentials.GotoCommand and escape.EscapeState) is a
slotted dataclass with unsafe_hash=True: it compares, hashes, prints and
replace()s as a frozen one would, without a frozen dataclass's
constructor, which sets each field through object.__setattr__ at about
three times the cost. Its fields can be assigned, so nothing may assign
them, least of all those of the shared ZERO; an AST test in
tests/test_geometry.py enforces that. A type built once per run or on
request (GliderSpec, Candidate, the parameter, config and scenario
types) is frozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

GRID_N = 5  # candidate headings / glide angles per axis (5x5 surface)
MEMO_SIZE = 4096  # entries per row memo; a bundled mission needs under 100


def wrap_angle(a: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    w = math.remainder(a, math.tau)
    return math.pi if w == -math.pi else w


def angle_diff(a: float, b: float) -> float:
    """Signed smallest rotation from b to a."""
    return wrap_angle(a - b)


@dataclass(slots=True, unsafe_hash=True)
class Vec3:
    """A point or displacement, meters (or a velocity, m/s). Immutable by
    convention only: see the module docstring."""

    x: float
    y: float
    z: float

    def __add__(self, o: "Vec3") -> "Vec3":
        return Vec3(self.x + o.x, self.y + o.y, self.z + o.z)

    def __sub__(self, o: "Vec3") -> "Vec3":
        return Vec3(self.x - o.x, self.y - o.y, self.z - o.z)

    def __mul__(self, k: float) -> "Vec3":
        return Vec3(self.x * k, self.y * k, self.z * k)

    def dot(self, o: "Vec3") -> float:
        return self.x * o.x + self.y * o.y + self.z * o.z

    def cross(self, o: "Vec3") -> "Vec3":
        return Vec3(self.y * o.z - self.z * o.y,
                    self.z * o.x - self.x * o.z,
                    self.x * o.y - self.y * o.x)

    def norm2(self) -> float:
        return self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def dist(self, o: "Vec3") -> float:
        dx = self.x - o.x
        dy = self.y - o.y
        dz = self.z - o.z
        return math.sqrt(dx * dx + dy * dy + dz * dz)

    def hdist(self, o: "Vec3") -> float:
        """Horizontal (x-y plane) distance."""
        dx = self.x - o.x
        dy = self.y - o.y
        return math.sqrt(dx * dx + dy * dy)


ZERO = Vec3(0.0, 0.0, 0.0)


def spherical_to_cartesian(psi: float, theta: float, r: float) -> Vec3:
    """Displacement for heading psi, glide angle theta, slant range r.

    A positive theta climbs, so the depth component is -r*sin(theta).
    """
    ct = math.cos(theta)
    return Vec3(r * ct * math.cos(psi), r * ct * math.sin(psi), -r * math.sin(theta))


@dataclass(slots=True, unsafe_hash=True)
class Attitude:
    """Heading and glide angle, radians."""

    psi: float
    theta: float


@dataclass(frozen=True, slots=True)
class GliderSpec:
    """Vehicle envelope and speeds.

    Parameters
    ----------
    max_heading_step : float
        Half-span of the candidate heading fan per planning step, radians.
    max_glide_angle : float
        Glide-angle envelope; also the half-span of the candidate glide fan.
    speed_down, speed_up : float
        Still-water speeds while descending / ascending-or-level, m/s.
    body_radius : float
        Collision radius of the hull, meters.
    max_depth : float
        Deepest commandable depth, meters.
    """

    max_heading_step: float = math.radians(20.0)
    max_glide_angle: float = math.radians(45.0)
    speed_down: float = 0.5
    speed_up: float = 0.3
    body_radius: float = 0.6
    max_depth: float = 30.0

    def __post_init__(self):
        # int fields pass (see _glide_rows); a zero angle or speed only
        # shrinks the fan, where a NaN would run on through every row
        for name in ("max_heading_step", "max_glide_angle"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"glider {name} must be finite")
        for name in ("speed_down", "speed_up"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"glider {name} must be finite and non-negative")
        for name in ("body_radius", "max_depth"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"glider {name} must be finite and positive")

    def speed_for(self, theta: float) -> float:
        """Still-water speed for a glide angle: buoyancy-driven descent is
        faster than ascent; level flight uses the ascent figure."""
        return self.speed_down if theta < 0.0 else self.speed_up


@dataclass(slots=True, unsafe_hash=True)
class GliderState:
    position: Vec3
    attitude: Attitude
    speed: float
    mode: str = "follow"  # "follow" while tracking waypoints, "escape" otherwise


@dataclass(frozen=True, slots=True)
class Candidate:
    """One reachable waypoint on the sample surface: the step's end point
    (start + spherical_to_cartesian(psi, theta, speed * dt)) and the
    still-water velocity that reaches it (spherical_to_cartesian(psi,
    theta, speed)), which the potentials score."""

    position: Vec3
    velocity: Vec3
    psi: float
    theta: float
    speed: float


@dataclass(slots=True, unsafe_hash=True)
class SampleSurface:
    """The 5x5 fan of candidate waypoints, as its heading and glide rows.

    ``headings`` holds one row ``(psi, cp, sp)`` per heading, with
    ``cp, sp = cos psi, sin psi``. ``glides`` holds one row ``(theta,
    speed, rct, rdz, vct, vz)`` per glide angle: with ``r = speed * dt``,
    ``rct, rdz = r cos theta, -r sin theta`` and ``vct, vz = speed cos
    theta, -speed sin theta``. Candidate ``i * len(glides) + j`` pairs
    heading row i with glide row j. It sits at ``center + (rct * cp, rct
    * sp, rdz)`` and moves at ``(vct * cp, vct * sp, vz)``: the operation
    order of ``spherical_to_cartesian``, so the bits match it.

    ``dpsi`` and ``dtheta`` are the selector's tie-break columns, one
    entry per heading and per glide row: ``abs(angle_diff(psi,
    attitude.psi))`` and ``abs(theta - attitude.theta)``.
    """

    center: Vec3
    attitude: Attitude
    headings: tuple[tuple[float, float, float], ...]
    glides: tuple[tuple[float, float, float, float, float, float], ...]
    # largest slant range speed * dt of the fan: no candidate lies farther
    # than this from center (up to rounding)
    reach: float
    dpsi: tuple[float, ...]
    dtheta: tuple[float, ...]

    @property
    def candidates(self) -> tuple[Candidate, ...]:
        """The fan's Candidates in grid order, heading-major; built anew
        on each read."""
        p = self.center
        return tuple(
            Candidate(Vec3(p.x + rct * cp, p.y + rct * sp, p.z + rdz),
                      Vec3(vct * cp, vct * sp, vz), psi, theta, speed)
            for psi, cp, sp in self.headings
            for theta, speed, rct, rdz, vct, vz in self.glides)


def build_sample_surface(state: GliderState, spec: GliderSpec, dt: float) -> SampleSurface:
    """Candidate waypoints reachable in one step, on a 5x5 fan ahead.

    Headings span psi +/- max_heading_step, glide angles span
    theta +/- max_glide_angle clamped to the envelope. Duplicate glide
    angles produced by clamping are kept so the grid stays 5x5 and
    indexing is stable. Each candidate sits at its own slant range
    speed(theta_i) * dt from the current position; the largest is the
    surface's reach.

    The heading rows and the glide rows (with the reach) are each built
    once per key and then recalled: heading rows by (psi,
    max_heading_step), glide rows by (theta, max_glide_angle,
    speed_down, speed_up, dt). Each memo is emptied when it reaches
    MEMO_SIZE entries. A recalled row set has the bits of a fresh build
    (see the module docstring).
    """
    att = state.attitude
    psi0, theta0 = att.psi, att.theta
    headings, dpsi = _recall(_heading_memo, (psi0, spec.max_heading_step),
                             _heading_rows, psi0, spec)
    glides, dtheta, reach = _recall(
        _glide_memo, (theta0, spec.max_glide_angle, spec.speed_down,
                      spec.speed_up, dt), _glide_rows, theta0, spec, dt)
    return SampleSurface(state.position, att, headings, glides, reach,
                         dpsi, dtheta)


_heading_memo: dict = {}
_glide_memo: dict = {}


def _recall(memo: dict, key: tuple, build, *args):
    """``memo[key]``, built by ``build(*args)`` on a miss.

    ``build`` must depend only on the values in ``key``. A key holding a
    zero also carries every value's sign, so 0.0 and -0.0 get separate
    entries. A full memo is emptied before the new entry goes in.
    """
    if 0.0 in key:
        key += tuple(math.copysign(1.0, v) for v in key)
    rows = memo.get(key)
    if rows is None:
        if len(memo) >= MEMO_SIZE:
            memo.clear()
        rows = memo[key] = build(*args)
    return rows


def _heading_rows(psi0: float, spec: GliderSpec):
    """The heading rows around psi0 and their |dpsi| column."""
    half = (GRID_N - 1) // 2
    psi_step = spec.max_heading_step / half
    rows = []
    turns = []
    for i in range(-half, half + 1):
        psi_i = wrap_angle(psi0 + i * psi_step)
        rows.append((psi_i, math.cos(psi_i), math.sin(psi_i)))
        turns.append(abs(angle_diff(psi_i, psi0)))
    return tuple(rows), tuple(turns)


def _glide_rows(theta0: float, spec: GliderSpec, dt: float):
    """The glide rows around theta0, their |dtheta| column and the reach.

    One cos/sin pair per glide angle, multiplied in spherical_to_cartesian's
    operation order so the bits match it. The envelope and speeds pass
    through float(), so the rows hold floats even for a spec built with
    int fields, whose key equals the float spec's.
    """
    half = (GRID_N - 1) // 2
    limit = float(spec.max_glide_angle)
    theta_step = limit / half
    rows = []
    turns = []
    reach = 0.0
    for j in range(-half, half + 1):
        theta_j = min(limit, max(-limit, theta0 + j * theta_step))
        speed = float(spec.speed_for(theta_j))
        r = speed * dt
        reach = max(reach, r)
        ct = math.cos(theta_j)
        st = math.sin(theta_j)
        rows.append((theta_j, speed, r * ct, -r * st, speed * ct, -speed * st))
        turns.append(abs(theta_j - theta0))
    return tuple(rows), tuple(turns), reach
