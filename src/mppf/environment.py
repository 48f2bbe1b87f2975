"""World model: obstacles, vortex flow, the sonar stand-in, and kinematics.

The simulator is deliberately kinematic. The vehicle is a point with a hull
radius; one step moves it by its still-water velocity plus the local flow,
exactly (no dynamics, no noise), which keeps whole runs bit-deterministic.
Obstacles are spheres (optionally drifting, reflecting off the domain walls)
or static vertical cylinders spanning the water column.

Every moving sphere is rebuilt on every step, so Obstacle is a plain
__slots__ class like geometry.Vec3, not a frozen dataclass: it compares,
hashes and prints as one would, but its fields can be assigned. Only its
own __init__ and _advance_obstacle, which fills a new one, may assign
them; an AST test in tests/test_geometry.py enforces that. WorldState,
rebuilt on every step too, is a slotted dataclass with unsafe_hash=True:
it compares, hashes, prints and replace()s as a frozen one would, and the
same test lets only its __post_init__, which fills `index`, assign its
fields. VortexFlow, SonarModel and Bounds, built once per run, are frozen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from mppf.geometry import ZERO, Attitude, GliderState, Vec3, wrap_angle
from mppf.potentials import GotoCommand, ObstaclePoint

SPHERE = "sphere"
CYLINDER = "cylinder"

# angular offsets of the 3x3 surface sampling grid, and their (cos, sin)
_CAP_OFFSETS = (-math.radians(60.0), 0.0, math.radians(60.0))
_CAP_TRIG = tuple((math.cos(a), math.sin(a)) for a in _CAP_OFFSETS)
# cell side of the obstacle index. Any side gives the same answers; on the
# anchorage field sides of 5 to 80 m cost the same within noise, and from
# 20 m up glider_clearance never falls back to a full scan there
_INDEX_CELL = 20.0
# how far a query may lie from the anchor of an index skin list and still
# reuse it; on the anchorage field 5 and 10 m cost the same, 20 m more
_SKIN = 10.0


class Obstacle:
    """A sphere, optionally drifting, or a static full-column cylinder.
    Immutable by convention only: see the module docstring."""

    __slots__ = ("shape", "radius", "center", "velocity")

    def __init__(self, shape: str, radius: float, center: Vec3,
                 velocity: Vec3 = ZERO):
        if shape not in (SPHERE, CYLINDER):
            raise ValueError(f"unknown obstacle shape: {shape!r}")
        if radius <= 0.0:
            raise ValueError("obstacle radius must be positive")
        if shape == CYLINDER and velocity != ZERO:
            raise ValueError("cylinder obstacles are static")
        self.shape = shape
        self.radius = radius
        self.center = center
        self.velocity = velocity

    def __repr__(self) -> str:
        return (f"Obstacle(shape={self.shape!r}, radius={self.radius!r}, "
                f"center={self.center!r}, velocity={self.velocity!r})")

    # a frozen dataclass's comparison, as for Vec3
    def __eq__(self, o):
        if o.__class__ is not self.__class__:
            return NotImplemented
        return ((self.shape, self.radius, self.center, self.velocity)
                == (o.shape, o.radius, o.center, o.velocity))

    def __hash__(self) -> int:
        return hash((self.shape, self.radius, self.center, self.velocity))


@dataclass(frozen=True, slots=True)
class VortexFlow:
    """Recirculating cell field, fading linearly to zero at max_depth; none below."""

    amplitude: float = 0.1
    cell_size: float = 50.0
    max_depth: float = 50.0


@dataclass(frozen=True, slots=True)
class SonarModel:
    range: float = 100.0
    horizontal_fov: float = math.radians(120.0)
    vertical_fov: float = math.radians(30.0)


@dataclass(frozen=True, slots=True)
class Bounds:
    x: float = 100.0
    y: float = 100.0
    depth: float = 50.0


class ObstacleIndex:
    """Broad phase for the per-obstacle passes: a uniform x-y grid over the
    static obstacles, a skin list per reach in front of it, plus the list of
    moving ones.

    A static obstacle sits in the one square cell of side `cell` that holds
    its center. A surface within `reach` of a point puts the center within
    reach + radius of it horizontally, for spheres and pillars alike, so the
    grid reads the cells overlapping the square of half-side reach + pad
    around the point, where pad is the largest static radius plus 1 m to
    absorb rounding. It walks that square's cells or, when fewer cells are
    occupied, just the occupied ones, so an empty field costs nothing.

    The grid's answer is kept as a skin list (a Verlet neighbour list): for
    each distinct reach, an anchor point and the sorted static indices whose
    surface lies within reach + _SKIN + 1 m of it. Any point within _SKIN of
    the anchor reuses that list, since by the triangle inequality a surface
    within reach of the point lies within reach + _SKIN of the anchor, and
    the 1 m absorbs rounding; a point farther away rebuilds it from the grid
    at itself. The list is a memo of a pure function of the point and the
    reach, so the answer is a superset of the exact one whatever the order
    of the queries, and every world of a run may share the index.

    Obstacles move only when their velocity is nonzero and keep it nonzero
    (walls only flip its sign), so the grid and the skin lists stay exact
    for a whole run and advance_world advances only `moving`. Callers apply
    their exact test.
    """

    __slots__ = ("cell", "pad", "cells", "moving", "obstacles", "lists")

    def __init__(self, obstacles, cell: float = _INDEX_CELL):
        self.cell = cell
        # the initial obstacles; only the static ones, which never move, are read
        self.obstacles = tuple(obstacles)
        moving, r_max, cells = [], 0.0, {}
        for i, ob in enumerate(self.obstacles):
            if ob.velocity != ZERO:
                moving.append(i)
                continue
            r_max = max(r_max, ob.radius)
            key = (math.floor(ob.center.x / cell), math.floor(ob.center.y / cell))
            cells.setdefault(key, []).append(i)
        self.moving = tuple(moving)
        self.pad = r_max + 1.0
        self.cells: dict[tuple[int, int], list[int]] = cells
        # reach -> (anchor, sorted static indices within reach + _SKIN + 1 m)
        self.lists: dict[float, tuple[Vec3, list[int]]] = {}

    def near(self, p: Vec3, reach: float) -> list[int]:
        """Sorted indices of every obstacle whose surface may lie within
        `reach` of p: a superset of the exact answer. An infinite reach
        returns every obstacle."""
        out = list(self.moving)
        if self.cells:
            hit = self.lists.get(reach)
            if hit is None or p.dist(hit[0]) > _SKIN:
                hit = (p, self._static_within(p, reach + _SKIN + 1.0))
                self.lists[reach] = hit
            out += hit[1]
            if self.moving:
                out.sort()
        return out

    def _static_within(self, p: Vec3, reach: float) -> list[int]:
        """Sorted indices of the static obstacles whose surface lies within
        `reach` of p, read from the grid cells."""
        out = []
        cells = self.cells
        r, c = reach + self.pad, self.cell
        if r == math.inf:  # unbounded: the scan below reads every cell
            x0 = y0 = -r
            x1 = y1 = r
        else:
            x0, x1 = math.floor((p.x - r) / c), math.floor((p.x + r) / c)
            y0, y1 = math.floor((p.y - r) / c), math.floor((p.y + r) / c)
        if (x1 - x0 + 1) * (y1 - y0 + 1) <= len(cells):
            for cx in range(x0, x1 + 1):
                for cy in range(y0, y1 + 1):
                    hit = cells.get((cx, cy))
                    if hit:
                        out += hit
        else:
            for (cx, cy), hit in cells.items():
                if x0 <= cx <= x1 and y0 <= cy <= y1:
                    out += hit
        obstacles = self.obstacles
        out = [i for i in out if surface_distance(obstacles[i], p) <= reach]
        out.sort()
        return out


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


def in_sonar_view(ob: Obstacle, g: GliderState, sonar: SonarModel,
                  depth_bound: float) -> bool:
    """True when the obstacle's surface is within range and any part of it
    falls inside both field-of-view wedges of the cone centered on the
    vehicle's attitude (the sonar sits on the nose and pitches with the
    hull). The one distance d runs to a sphere's center in 3D and to a
    pillar's axis horizontally, so the nearest surface point lies |d - r|
    away (for a pillar, while the vehicle is in the water column, which
    scenario validation guarantees); a vehicle inside the body sees it. The
    wedges widen by the body's angular radius: an echo returns from
    anything the beam touches."""
    p, c, r = g.position, ob.center, ob.radius
    dx = c.x - p.x
    dy = c.y - p.y
    hd = math.sqrt(dx * dx + dy * dy)
    d = p.dist(c) if ob.shape == SPHERE else hd
    if abs(d - r) > sonar.range:
        return False
    if d <= r:
        return True
    alpha = math.asin(min(1.0, r / d))
    az = math.atan2(dy, dx)
    if abs(wrap_angle(az - g.attitude.psi)) > 0.5 * sonar.horizontal_fov + alpha:
        return False
    theta, half = g.attitude.theta, 0.5 * sonar.vertical_fov
    if ob.shape == SPHERE:
        return abs(math.atan2(p.z - c.z, hd) - theta) <= half + alpha
    # full-column pillar: elevation extent runs from the surface rim down
    # to the bottom rim at the near face
    el_top = math.atan2(p.z, hd - r)
    el_bot = math.atan2(p.z - depth_bound, hd - r)
    return max(el_bot, theta - half) <= min(el_top, theta + half)


def visible_obstacles(world: WorldState, sonar: SonarModel) -> list[int]:
    """Sorted indices of the obstacles in sonar view that are not yet in
    `world.tracked`; only the index's candidates within range are tested."""
    g = world.glider
    obstacles, depth, tracked = world.obstacles, world.bounds.depth, world.tracked
    return [i for i in world.index.near(g.position, sonar.range)
            if i not in tracked and in_sonar_view(obstacles[i], g, sonar, depth)]


def obstacles_within(world: WorldState, reach: float) -> dict[int, float]:
    """The members of `world.tracked` whose surface lies within `reach` of
    the vehicle, each mapped to that surface distance, in index order; only
    the index's candidates within reach are tested."""
    p = world.glider.position
    obstacles, tracked = world.obstacles, world.tracked
    return {i: d for i in world.index.near(p, reach)
            if i in tracked and (d := surface_distance(obstacles[i], p)) <= reach}


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


def glider_clearance(obstacles: tuple[Obstacle, ...], index: ObstacleIndex,
                     position: Vec3, body_radius: float) -> float:
    """Smallest hull-to-surface distance; +inf in open water.

    The nearest of the index's candidates within one cell is the nearest
    of all when its surface lies within that cell's reach, or when there
    are no static obstacles (the moving ones are always candidates);
    otherwise every obstacle is scanned. Rounding is monotone, so
    subtracting the hull after the minimum gives the same bits as before it.
    """
    best = math.inf
    for i in index.near(position, index.cell):
        d = surface_distance(obstacles[i], position)
        if d < best:
            best = d
    if best > index.cell and index.cells:
        for ob in obstacles:
            d = surface_distance(ob, position)
            if d < best:
                best = d
    return best - body_radius


def advance_world(world: WorldState, new_glider: GliderState, dt: float) -> WorldState:
    """The only world transition: the vehicle takes `new_glider`, whether
    the planner's or an escape's, then obstacles, clock and clearance follow.

    Only the moving obstacles advance; a field without any keeps its tuple.
    """
    index = world.index
    obstacles = world.obstacles
    if index.moving:
        moved, bounds = list(obstacles), world.bounds
        for i in index.moving:
            moved[i] = _advance_obstacle(moved[i], bounds, dt)
        obstacles = tuple(moved)
    clearance = glider_clearance(obstacles, index, new_glider.position,
                                 world.body_radius)
    return WorldState(new_glider, obstacles, world.flow, world.bounds,
                      world.body_radius, world.time + dt, clearance,
                      world.tracked, index)


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
