"""World model: obstacles, vortex flow, the sonar stand-in, and kinematics.

The simulator is deliberately kinematic. The vehicle is a point with a hull
radius; one step moves it by its still-water velocity plus the local flow,
exactly (no dynamics, no noise), which keeps whole runs bit-deterministic.
Obstacles are spheres (optionally drifting, reflecting off the domain walls)
or static vertical cylinders spanning the water column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from mppf.geometry import ZERO, Attitude, GliderState, Vec3, wrap_angle
from mppf.potentials import GotoCommand, ObstaclePoint

SPHERE = "sphere"
CYLINDER = "cylinder"

# angular offsets of the 3x3 surface sampling grid
_CAP_OFFSETS = (-math.radians(60.0), 0.0, math.radians(60.0))


@dataclass(frozen=True, slots=True)
class Obstacle:
    shape: str
    radius: float
    center: Vec3
    velocity: Vec3 = ZERO

    def __post_init__(self):
        if self.shape not in (SPHERE, CYLINDER):
            raise ValueError(f"unknown obstacle shape: {self.shape!r}")
        if self.radius <= 0.0:
            raise ValueError("obstacle radius must be positive")
        if self.shape == CYLINDER and self.velocity != ZERO:
            raise ValueError("cylinder obstacles are static")


@dataclass(frozen=True, slots=True)
class VortexFlow:
    """Recirculating cell field, attenuating linearly to zero at max_depth."""

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


@dataclass(frozen=True, slots=True)
class WorldState:
    glider: GliderState
    obstacles: tuple[Obstacle, ...] = ()
    flow: VortexFlow | None = None
    bounds: Bounds = Bounds()
    body_radius: float = 0.6
    time: float = 0.0
    # hull clearance set by advance_world; +inf before the first step
    clearance: float = math.inf

    @property
    def collision(self) -> bool:
        return self.clearance <= 0.0


def flow_velocity(flow: VortexFlow | None, p: Vec3) -> Vec3:
    """Local flow at a point; zero without a field.

    The horizontal components derive from a stream function, so the field
    is divergence-free, purely horizontal, and bounded by pi*A.
    """
    if flow is None or flow.amplitude == 0.0:
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


def nearest_surface_point(ob: Obstacle, p: Vec3, depth_bound: float) -> Vec3:
    if ob.shape == SPHERE:
        d = p.dist(ob.center)
        if d < 1e-9:
            return ob.center + Vec3(ob.radius, 0.0, 0.0)
        return ob.center + (p - ob.center) * (ob.radius / d)
    hd = p.hdist(ob.center)
    z = min(depth_bound, max(0.0, p.z))
    if hd < 1e-9:
        return Vec3(ob.center.x + ob.radius, ob.center.y, z)
    s = ob.radius / hd
    return Vec3(ob.center.x + (p.x - ob.center.x) * s,
                ob.center.y + (p.y - ob.center.y) * s,
                z)


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
    pts = []
    for alpha in _CAP_OFFSETS:
        ca, sa = math.cos(alpha), math.sin(alpha)
        for beta in _CAP_OFFSETS:
            cb, sb = math.cos(beta), math.sin(beta)
            w = (u * ca + e1 * sa) * cb + e2 * sb
            pts.append(ob.center + w * ob.radius)
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


def _sphere_visible(ob: Obstacle, g: GliderState, sonar: SonarModel) -> bool:
    d = g.position.dist(ob.center)
    if d <= ob.radius:
        return True
    alpha = math.asin(min(1.0, ob.radius / d))
    az = math.atan2(ob.center.y - g.position.y, ob.center.x - g.position.x)
    if abs(wrap_angle(az - g.attitude.psi)) > 0.5 * sonar.horizontal_fov + alpha:
        return False
    el = math.atan2(g.position.z - ob.center.z, g.position.hdist(ob.center))
    return abs(el - g.attitude.theta) <= 0.5 * sonar.vertical_fov + alpha


def _cylinder_visible(ob: Obstacle, g: GliderState, sonar: SonarModel,
                      depth_bound: float) -> bool:
    hd = g.position.hdist(ob.center)
    if hd <= ob.radius:
        return True
    alpha = math.asin(min(1.0, ob.radius / hd))
    az = math.atan2(ob.center.y - g.position.y, ob.center.x - g.position.x)
    if abs(wrap_angle(az - g.attitude.psi)) > 0.5 * sonar.horizontal_fov + alpha:
        return False
    # full-column pillar: elevation extent runs from the surface rim down
    # to the bottom rim at the near face
    near_h = hd - ob.radius
    el_top = math.atan2(g.position.z, near_h)
    el_bot = math.atan2(g.position.z - depth_bound, near_h)
    lo = g.attitude.theta - 0.5 * sonar.vertical_fov
    hi = g.attitude.theta + 0.5 * sonar.vertical_fov
    return max(el_bot, lo) <= min(el_top, hi)


def visible_obstacles(world: WorldState, sonar: SonarModel) -> list[int]:
    """Indices of obstacles currently inside the sonar cone.

    An obstacle is visible when its nearest surface point is within range
    and any part of its extent falls inside both field-of-view wedges of
    the cone centered on the vehicle's attitude (the sonar sits on the
    nose and pitches with the hull). The wedge tests widen by the body's
    angular radius: an echo returns from anything the beam touches, not
    just from the closest point.
    """
    g = world.glider
    out = []
    for i, ob in enumerate(world.obstacles):
        near = nearest_surface_point(ob, g.position, world.bounds.depth)
        if g.position.dist(near) > sonar.range:
            continue
        if ob.shape == SPHERE:
            if _sphere_visible(ob, g, sonar):
                out.append(i)
        elif _cylinder_visible(ob, g, sonar, world.bounds.depth):
            out.append(i)
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
    if ob.velocity == ZERO:
        return ob
    cx, vx = _reflect(ob.center.x + ob.velocity.x * dt, ob.velocity.x, 0.0, bounds.x)
    cy, vy = _reflect(ob.center.y + ob.velocity.y * dt, ob.velocity.y, 0.0, bounds.y)
    cz, vz = _reflect(ob.center.z + ob.velocity.z * dt, ob.velocity.z, 0.0, bounds.depth)
    return replace(ob, center=Vec3(cx, cy, cz), velocity=Vec3(vx, vy, vz))


def _reflect(c: float, v: float, lo: float, hi: float) -> tuple[float, float]:
    if c < lo:
        return 2.0 * lo - c, -v
    if c > hi:
        return 2.0 * hi - c, -v
    return c, v


def glider_clearance(obstacles: Sequence[Obstacle], position: Vec3,
                     body_radius: float) -> float:
    """Smallest hull-to-surface distance; +inf in open water."""
    best = math.inf
    for ob in obstacles:
        d = surface_distance(ob, position) - body_radius
        if d < best:
            best = d
    return best


def advance_world(world: WorldState, new_glider: GliderState, dt: float) -> WorldState:
    """Common tail of every simulation step: obstacles, clock, clearance."""
    obstacles = tuple(_advance_obstacle(ob, world.bounds, dt)
                      for ob in world.obstacles)
    clearance = glider_clearance(obstacles, new_glider.position,
                                 world.body_radius)
    return replace(world, glider=new_glider, obstacles=obstacles,
                   time=world.time + dt, clearance=clearance)


def step_kinematics(world: WorldState, command: GotoCommand, dt: float) -> WorldState:
    """Advance one step toward the commanded go-to point.

    The still-water velocity is (target - position)/dt, so in still water
    the vehicle lands exactly on the target; flow displaces it by
    flow_velocity(position)*dt on top.
    """
    g = world.glider
    inv = 1.0 / dt
    vel = Vec3((command.target.x - g.position.x) * inv,
               (command.target.y - g.position.y) * inv,
               (command.target.z - g.position.z) * inv)
    fl = flow_velocity(world.flow, g.position)
    pos = Vec3(g.position.x + (vel.x + fl.x) * dt,
               g.position.y + (vel.y + fl.y) * dt,
               g.position.z + (vel.z + fl.z) * dt)
    new_glider = GliderState(pos, Attitude(command.psi_d, command.theta_d),
                             vel.norm(), "follow")
    return advance_world(world, new_glider, dt)
