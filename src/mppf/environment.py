"""World model: obstacles, vortex flow, the sonar stand-in, and kinematics.

The simulator is deliberately kinematic. The vehicle is a point with a hull
radius; one step moves it by its still-water velocity plus the local flow,
exactly (no dynamics, no noise), which keeps whole runs bit-deterministic.
Obstacles are spheres (optionally drifting, reflecting off the domain walls)
or static vertical cylinders spanning the water column.

Obstacle and WorldState, rebuilt on every step, and VortexFlow, SonarModel
and Bounds, built once per run, follow the value-type rule in the geometry
module docstring. Only _advance_obstacle, which fills a new Obstacle
without its checks, and WorldState.__post_init__, which fills `index`,
assign their fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from mppf.geometry import ZERO, Attitude, GliderState, Vec3
from mppf.potentials import GotoCommand, ObstaclePoint

SPHERE = "sphere"
CYLINDER = "cylinder"

# angular offsets of the 3x3 surface sampling grid, and their (cos, sin)
_CAP_OFFSETS = (-math.radians(60.0), 0.0, math.radians(60.0))
_CAP_TRIG = tuple((math.cos(a), math.sin(a)) for a in _CAP_OFFSETS)
# reach of the skin list glider_clearance reads before any full scan; from
# 20 m up it never falls back to one on the anchorage field
_CLEAR_REACH = 20.0
# how far a query may lie from the anchor of an index skin list and still
# reuse it; on the anchorage field 5 and 10 m cost the same, 20 m more
_SKIN = 10.0


@dataclass(slots=True, unsafe_hash=True)
class Obstacle:
    """A sphere, optionally drifting, or a static full-column cylinder.
    Immutable by convention only: see the geometry module docstring."""

    shape: str
    radius: float
    center: Vec3
    velocity: Vec3 = ZERO

    def __post_init__(self):
        if self.shape not in (SPHERE, CYLINDER):
            raise ValueError(f"unknown obstacle shape: {self.shape!r}")
        if not 0.0 < self.radius < math.inf:
            raise ValueError("obstacle radius must be finite and positive")
        if self.shape == CYLINDER and self.velocity != ZERO:
            raise ValueError("cylinder obstacles are static")


@dataclass(frozen=True, slots=True)
class VortexFlow:
    """Recirculating cell field, fading linearly to zero at max_depth; none below."""

    amplitude: float = 0.1
    cell_size: float = 50.0
    max_depth: float = 50.0

    def __post_init__(self):
        # flow_velocity divides by cell_size and max_depth
        if not 0.0 <= self.amplitude < math.inf:
            raise ValueError("flow amplitude must be finite and non-negative")
        if not 0.0 < self.cell_size < math.inf:
            raise ValueError("flow cell_size must be finite and positive")
        if not 0.0 < self.max_depth < math.inf:
            raise ValueError("flow max_depth must be finite and positive")


@dataclass(frozen=True, slots=True)
class SonarModel:
    range: float = 100.0
    horizontal_fov: float = math.radians(120.0)
    vertical_fov: float = math.radians(30.0)

    def __post_init__(self):
        # elevation spans +-pi/2: past pi, the pillar band's tan(fov / 2)
        # turns negative and the band would shrink
        if not 0.0 < self.range < math.inf:
            raise ValueError("sonar range must be finite and positive")
        if not 0.0 < self.vertical_fov <= math.pi:
            raise ValueError("sonar vertical_fov must lie in (0, pi]")


@dataclass(frozen=True, slots=True)
class Bounds:
    x: float = 100.0
    y: float = 100.0
    depth: float = 50.0

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.x, self.y, self.depth)):
            raise ValueError("bounds x, y and depth must be finite and positive")


class ObstacleIndex:
    """Broad phase for the per-obstacle passes: a skin list per reach over
    the static obstacles, plus the list of moving ones.

    A skin list (a Verlet neighbour list) keeps, for one reach, an anchor
    point and the sorted static indices whose surface lies within
    reach + _SKIN + 1 m of it, found by one pass over the static
    obstacles. Any point within _SKIN of the anchor reuses that list, since
    by the triangle inequality a surface within reach of the point lies
    within reach + _SKIN of the anchor, and the 1 m absorbs rounding; a
    point farther away rebuilds it at itself. The list is a memo of a pure
    function of the point and the reach, so the answer is a superset of the
    exact one whatever the order of the queries, and every world of a run
    may share the index.

    Sensing and the cull read a second memo per reach, split(): the moving
    indices and the skin list's entries, split by a tracked set. It is
    keyed by the identity of the skin list (the empty `static` tuple on a
    field without static obstacles) and of the tracked frozenset and holds
    both, so neither id can be reused while the memo stands: it is rebuilt
    when the list is rebuilt or another set is passed, such as a grown one
    or, through `replace(world, tracked=...)`, a smaller one. A frozenset
    cannot change, so the same object always means the same content.

    Obstacles move only when their velocity is nonzero and keep it nonzero
    (walls only flip its sign), so the skin lists stay exact for a whole
    run and advance_world advances only `moving`. Callers apply their exact
    test.
    """

    __slots__ = ("moving", "static", "obstacles", "lists", "splits")

    def __init__(self, obstacles):
        # the initial obstacles; only the static ones, which never move, are read
        self.obstacles = tuple(obstacles)
        moving, static = [], []
        for i, ob in enumerate(self.obstacles):
            (static if ob.velocity == ZERO else moving).append(i)
        self.moving = tuple(moving)
        self.static = tuple(static)
        # reach -> (anchor, sorted static indices within reach + _SKIN + 1 m)
        self.lists: dict[float, tuple[Vec3, list[int]]] = {}
        # reach -> (skin list, tracked set, the moving indices and the
        # list's entries outside the set, and those in it)
        self.splits: dict[float, tuple[list[int], frozenset[int],
                                       list[int], list[int]]] = {}

    def _skin(self, p: Vec3, reach: float) -> list[int]:
        """The skin list for `reach` that serves p, rebuilt at p if needed."""
        hit = self.lists.get(reach)
        if hit is None or p.dist(hit[0]) > _SKIN:
            r, obstacles = reach + _SKIN + 1.0, self.obstacles
            hit = (p, [i for i in self.static
                       if surface_distance(obstacles[i], p) <= r])
            self.lists[reach] = hit
        return hit[1]

    def split(self, p: Vec3, reach: float,
              tracked: frozenset[int]) -> tuple[list[int], list[int]]:
        """Every obstacle whose surface may lie within `reach` of p (a
        superset of the exact answer; an infinite reach gives every
        obstacle), split into the indices outside `tracked` and those in
        it, each in index order, from the memo; the caller must not change
        the lists."""
        skin = self._skin(p, reach) if self.static else self.static
        hit = self.splits.get(reach)
        if hit is None or hit[0] is not skin or hit[1] is not tracked:
            untracked, seen = [], []
            for i in sorted((*self.moving, *skin)):
                (seen if i in tracked else untracked).append(i)
            hit = (skin, tracked, untracked, seen)
            self.splits[reach] = hit
        return hit[2], hit[3]


@dataclass(slots=True, unsafe_hash=True)
class WorldState:
    glider: GliderState
    obstacles: tuple[Obstacle, ...] = ()
    flow: VortexFlow | None = None
    bounds: Bounds = Bounds()
    body_radius: float = 0.6
    time: float = 0.0
    # hull clearance set by advance_world; +inf before the first step
    clearance: float = math.inf
    # obstacles the sonar has seen; one stays tracked once seen
    tracked: frozenset[int] = frozenset()
    # built from the initial obstacles and handed on to every later world
    index: ObstacleIndex | None = field(default=None, compare=False, repr=False)
    # set by advance_world on a field with moving obstacles: (vehicle
    # position, obstacles tuple, each moving obstacle's index mapped to its
    # surface distance from that position); obstacles_within reads the
    # distances only while the world holds that very position and tuple, so
    # replace() may carry it anywhere
    moving_distances: tuple[Vec3, tuple[Obstacle, ...], dict[int, float]] | None = field(
        default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.index is None:
            self.index = ObstacleIndex(self.obstacles)

    @property
    def collision(self) -> bool:
        return self.clearance <= 0.0


def flow_velocity(flow: VortexFlow | None, p: Vec3) -> Vec3:
    """Local flow at a point; zero without a field and below its max_depth.

    The horizontal components derive from a stream function, so the field
    is divergence-free, purely horizontal, and bounded by pi*A.
    """
    if flow is None or flow.amplitude == 0.0 or p.z > flow.max_depth:
        return ZERO
    att = (flow.max_depth - p.z) / flow.max_depth
    kx = math.pi * p.x / flow.cell_size
    ky = math.pi * p.y / flow.cell_size
    pa = math.pi * flow.amplitude
    return Vec3(-pa * math.sin(kx) * math.cos(ky) * att,
                pa * math.cos(kx) * math.sin(ky) * att,
                0.0)


def surface_distance(ob: Obstacle, p: Vec3) -> float:
    """Signed distance from a point to the obstacle surface (negative inside)."""
    if ob.shape == SPHERE:
        return p.dist(ob.center) - ob.radius
    return p.hdist(ob.center) - ob.radius


def _sample_sphere(ob: Obstacle, gpos: Vec3) -> list[Vec3]:
    """3x3 grid on the glider-facing cap.

    Directions w = cos(b)*(cos(a)*u + sin(a)*e1) + sin(b)*e2 with u the
    center-to-glider unit vector: unit length by construction and
    w.u >= cos^2(60deg) > 0, so every point faces the vehicle.
    """
    u = gpos - ob.center
    d = u.norm()
    u = Vec3(1.0, 0.0, 0.0) if d < 1e-9 else u * (1.0 / d)
    a = Vec3(u.y, -u.x, 0.0)  # u x z-hat; degenerate when u is vertical
    n = a.norm()
    e1 = Vec3(1.0, 0.0, 0.0) if n < 1e-9 else a * (1.0 / n)
    e2 = u.cross(e1)
    c, r = ob.center, ob.radius
    pts = []
    # w = (u*ca + e1*sa)*cb + e2*sb and center + w*r, component by
    # component in the order the Vec3 operators evaluate it
    for ca, sa in _CAP_TRIG:
        vx = u.x * ca + e1.x * sa
        vy = u.y * ca + e1.y * sa
        vz = u.z * ca + e1.z * sa
        for cb, sb in _CAP_TRIG:
            pts.append(Vec3(c.x + (vx * cb + e2.x * sb) * r,
                            c.y + (vy * cb + e2.y * sb) * r,
                            c.z + (vz * cb + e2.z * sb) * r))
    return pts


def _sample_cylinder(ob: Obstacle, gpos: Vec3, depth_bound: float,
                     vertical_fov: float) -> list[Vec3]:
    """3 azimuths on the facing half-shell x 3 depths around the vehicle.

    The vertical spread covers the band the sonar sees at the sensed
    range, clamped to the water column.
    """
    dx = gpos.x - ob.center.x
    dy = gpos.y - ob.center.y
    hd = math.sqrt(dx * dx + dy * dy)
    phi0 = 0.0 if hd < 1e-9 else math.atan2(dy, dx)
    zc = min(depth_bound, max(0.0, gpos.z))
    spread = max(1.0, (hd - ob.radius) * math.tan(0.5 * vertical_fov))
    zs = (min(depth_bound, max(0.0, zc - spread)), zc,
          min(depth_bound, max(0.0, zc + spread)))
    pts = []
    for dphi in _CAP_OFFSETS:
        phi = phi0 + dphi
        px = ob.center.x + ob.radius * math.cos(phi)
        py = ob.center.y + ob.radius * math.sin(phi)
        for z in zs:
            pts.append(Vec3(px, py, z))
    return pts


def sonar_view(obstacles, candidates, g: GliderState, sonar: SonarModel,
               depth_bound: float) -> list[int]:
    """The candidate indices, in their order, whose obstacle's surface is
    within range and any part of it falls inside both field-of-view wedges
    of the cone centered on the vehicle's attitude (the sonar sits on the
    nose and pitches with the hull).

    The one distance d runs to a sphere's center in 3D and to a pillar's
    axis horizontally, so the nearest surface point lies |d - r| away (for
    a pillar, while the vehicle is in the water column, which scenario
    validation guarantees); a vehicle inside the body sees it. The wedges
    widen by the body's angular radius: an echo returns from anything the
    beam touches. The bearing's offset from the heading is wrapped by
    math.remainder, whose one difference from geometry.wrap_angle, -pi for
    pi, has the same absolute value."""
    p, a = g.position, g.attitude
    px, py, pz = p.x, p.y, p.z
    psi, theta = a.psi, a.theta
    reach = sonar.range
    half_h = 0.5 * sonar.horizontal_fov
    half_v = 0.5 * sonar.vertical_fov
    lo, hi = theta - half_v, theta + half_v
    below = pz - depth_bound
    sqrt, asin, atan2, remainder, tau = (math.sqrt, math.asin, math.atan2,
                                         math.remainder, math.tau)
    out = []
    for i in candidates:
        ob = obstacles[i]
        c, r = ob.center, ob.radius
        dx = c.x - px
        dy = c.y - py
        hh = dx * dx + dy * dy
        sphere = ob.shape == SPHERE
        if sphere:
            # p.dist(c) squares p - c; dx and dy are c - p, whose squares
            # have the same bits
            dz = pz - c.z
            d = sqrt(hh + dz * dz)
        else:
            d = sqrt(hh)
        if abs(d - r) > reach:
            continue
        if d <= r:
            out.append(i)
            continue
        alpha = asin(min(1.0, r / d))
        if abs(remainder(atan2(dy, dx) - psi, tau)) > half_h + alpha:
            continue
        if sphere:
            seen = abs(atan2(dz, sqrt(hh)) - theta) <= half_v + alpha
        else:
            # full-column pillar: elevation extent runs from the surface
            # rim down to the bottom rim at the near face
            seen = max(atan2(below, d - r), lo) <= min(atan2(pz, d - r), hi)
        if seen:
            out.append(i)
    return out


def visible_obstacles(world: WorldState, sonar: SonarModel) -> list[int]:
    """Sorted indices of the obstacles in sonar view that are not yet in
    `world.tracked`: sonar_view over the untracked half of the index's
    split at the sonar's range (ObstacleIndex.split)."""
    g = world.glider
    candidates = world.index.split(g.position, sonar.range, world.tracked)[0]
    if not candidates:
        return []
    return sonar_view(world.obstacles, candidates, g, sonar, world.bounds.depth)


def obstacles_within(world: WorldState, reach: float) -> dict[int, float]:
    """The members of `world.tracked` whose surface lies within `reach` of
    the vehicle, each mapped to that surface distance, in index order.

    Only the tracked half of the index's split at `reach` is measured
    (ObstacleIndex.split). A moving obstacle's distance is the one
    advance_world measured for this world (WorldState.moving_distances),
    read only while the world holds the position and the obstacles it was
    measured for; a world built otherwise, or replace()d to another vehicle
    position or other obstacles, measures it here, as every static one."""
    tracked = world.tracked
    if not tracked:
        return {}
    p = world.glider.position
    obstacles = world.obstacles
    gaps, out = {}, {}
    known = world.moving_distances
    if known is not None and known[0] is p and known[1] is obstacles:
        gaps = known[2]
    for i in world.index.split(p, reach, tracked)[1]:
        d = gaps.get(i)
        if d is None:
            d = surface_distance(obstacles[i], p)
        if d <= reach:
            out[i] = d
    return out


def surface_points(world: WorldState, indices, sonar: SonarModel) -> list[ObstaclePoint]:
    """Sample the facing surface of the given obstacles at their current
    positions. Each point carries the parent obstacle's velocity, its
    repulsion cutoff 2*(R + hull radius), and its radius."""
    g = world.glider
    out: list[ObstaclePoint] = []
    for i in indices:
        ob = world.obstacles[i]
        cutoff = 2.0 * (ob.radius + world.body_radius)
        if ob.shape == SPHERE:
            pts = _sample_sphere(ob, g.position)
        else:
            pts = _sample_cylinder(ob, g.position, world.bounds.depth,
                                   sonar.vertical_fov)
        out.extend(ObstaclePoint(p, ob.velocity, cutoff, ob.radius) for p in pts)
    return out


def _advance_obstacle(ob: Obstacle, bounds: Bounds, dt: float) -> Obstacle:
    """One drift step of a moving sphere, reflecting off the domain walls.

    A coordinate c past the wall at 0 goes to -c, one past the wall at hi
    to 2*hi - c, and that velocity component changes sign; the scenario
    reader keeps every component's drift per step within the domain's
    extent, so one reflection lands inside. Shape, radius and a nonzero
    velocity cannot change, so the moved obstacle skips Obstacle's checks,
    and it keeps the velocity object itself when no wall is hit.
    """
    c, v = ob.center, ob.velocity
    vx, vy, vz = v.x, v.y, v.z
    x = c.x + vx * dt
    y = c.y + vy * dt
    z = c.z + vz * dt
    hit = False
    if x < 0.0:
        x, vx, hit = -x, -vx, True
    elif x > bounds.x:
        x, vx, hit = 2.0 * bounds.x - x, -vx, True
    if y < 0.0:
        y, vy, hit = -y, -vy, True
    elif y > bounds.y:
        y, vy, hit = 2.0 * bounds.y - y, -vy, True
    if z < 0.0:
        z, vz, hit = -z, -vz, True
    elif z > bounds.depth:
        z, vz, hit = 2.0 * bounds.depth - z, -vz, True
    moved = object.__new__(Obstacle)
    moved.shape = ob.shape
    moved.radius = ob.radius
    moved.center = Vec3(x, y, z)
    moved.velocity = Vec3(vx, vy, vz) if hit else v
    return moved


def _nearest_static(obstacles: tuple[Obstacle, ...], index: ObstacleIndex,
                    p: Vec3, best: float) -> float:
    """The least of `best`, the nearest moving surface from p (+inf if
    none), and every static surface's distance from p.

    The nearest of the static skin list for _CLEAR_REACH and `best` is the
    nearest of all when it lies within that reach, since the list holds
    every static obstacle within it; otherwise every static obstacle is
    scanned."""
    if not index.static:
        return best
    for i in index._skin(p, _CLEAR_REACH):
        d = surface_distance(obstacles[i], p)
        if d < best:
            best = d
    if best > _CLEAR_REACH:
        for i in index.static:
            d = surface_distance(obstacles[i], p)
            if d < best:
                best = d
    return best


def glider_clearance(obstacles: tuple[Obstacle, ...], index: ObstacleIndex,
                     position: Vec3, body_radius: float) -> float:
    """Smallest hull-to-surface distance; +inf in open water. Rounding is
    monotone, so subtracting the hull after the minimum gives the same bits
    as before it."""
    best = min((surface_distance(obstacles[i], position) for i in index.moving),
               default=math.inf)
    return _nearest_static(obstacles, index, position, best) - body_radius


def advance_world(world: WorldState, new_glider: GliderState, dt: float) -> WorldState:
    """The only world transition: the vehicle takes `new_glider`, whether
    the planner's or an escape's, then obstacles, clock and clearance follow.

    Only the moving obstacles advance; a field without any keeps its tuple.
    Each moving sphere is measured from the vehicle's new position as soon
    as it moves, in surface_distance's operation order (p.dist(c) - r), and
    the new world hands those distances to the next step's
    obstacles_within (WorldState.moving_distances); the clearance is the
    hull's glider_clearance, to the bit.
    """
    index = world.index
    obstacles = world.obstacles
    p = new_glider.position
    best, measured = math.inf, None
    if index.moving:
        moved, bounds, gaps = list(obstacles), world.bounds, {}
        px, py, pz, sqrt = p.x, p.y, p.z, math.sqrt
        for i in index.moving:
            ob = moved[i] = _advance_obstacle(moved[i], bounds, dt)
            c = ob.center
            dx = px - c.x
            dy = py - c.y
            dz = pz - c.z
            d = sqrt(dx * dx + dy * dy + dz * dz) - ob.radius
            gaps[i] = d
            if d < best:
                best = d
        obstacles = tuple(moved)
        measured = (p, obstacles, gaps)
    clearance = _nearest_static(obstacles, index, p, best) - world.body_radius
    return WorldState(new_glider, obstacles, world.flow, world.bounds,
                      world.body_radius, world.time + dt, clearance,
                      world.tracked, index, measured)


def step_kinematics(glider: GliderState, command: GotoCommand, flow: Vec3,
                    dt: float) -> GliderState:
    """The vehicle after one step toward the commanded go-to point.

    Only the vehicle: the caller passes `flow`, the flow velocity at the
    vehicle's position, and hands the result to advance_world. The
    still-water velocity is (target - position)/dt, so in still water the
    vehicle lands exactly on the target; flow displaces it by flow*dt on top.
    """
    p = glider.position
    inv = 1.0 / dt
    vel = Vec3((command.target.x - p.x) * inv,
               (command.target.y - p.y) * inv,
               (command.target.z - p.z) * inv)
    pos = Vec3(p.x + (vel.x + flow.x) * dt,
               p.y + (vel.y + flow.y) * dt,
               p.z + (vel.z + flow.z) * dt)
    return GliderState(pos, Attitude(command.psi_d, command.theta_d),
                       vel.norm(), "follow")
