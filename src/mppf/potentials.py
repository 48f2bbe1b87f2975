"""Potential evaluation and go-to point selection.

The planner scores every candidate on the sample surface with a sum of
potentials and commands the minimum. Baseline mode uses attraction to the
active waypoint plus static repulsion from obstacle sample points; advanced
mode adds a closing-velocity penalty against each point and a flow-alignment
term that rewards riding the local current (or fighting it head-on, the two
orientations a glider can hold) and penalizes nothing in between.

The scalar functions here are the reference implementations;
``total_potential`` adds attraction, every repulsion term, every closing
term, then flow. The batch kernel in ``mppf._kernels`` scores the fan
straight from the sample surface's heading and glide rows, each
candidate-point pair once, but adds in that order, so its scores are
bit-for-bit equal to composing the scalars over ``surface.candidates``;
tests assert exact agreement. ``grid_potentials`` hands the kernel only
the points within reach of the fan, since a point beyond its influence
radius from every candidate adds nothing. ``select_goto`` reads the rows
too, with the surface's tie-break columns, and builds one target
``Vec3``, for the chosen candidate only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from mppf import _kernels
from mppf.errors import NoFeasibleWaypoint
from mppf.geometry import SampleSurface, Vec3

MODES = ("baseline", "advanced")


@dataclass(frozen=True, slots=True)
class PotentialParams:
    """Gains and the flow-alignment window.

    Parameters
    ----------
    xi : float
        Attraction gain toward the active waypoint.
    eta : float
        Repulsion gain from obstacle sample points.
    tau : float
        Closing-velocity penalty gain (advanced mode).
    kappa : float
        Flow-alignment gain (advanced mode).
    flow_align_max : float
        Half-width of the aligned/opposed windows, radians. Candidate
        velocities within this angle of the flow count as aligned; within
        it of the reversed flow count as opposed; anything else is free.
    """

    xi: float = 0.1
    eta: float = 10.0
    tau: float = 0.1
    kappa: float = 0.1
    flow_align_max: float = math.radians(20.0)

    def __post_init__(self):
        # a NaN or infinite gain makes every candidate's potential NaN
        for name in ("xi", "eta", "tau", "kappa"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"potentials {name} must be finite and non-negative")
        if not math.radians(1.0) <= self.flow_align_max <= math.radians(89.0):
            raise ValueError("potentials flow_align_max must lie in [1, 89] degrees")


class ObstaclePoint(NamedTuple):
    """One sonar sample on an obstacle surface."""

    position: Vec3
    velocity: Vec3
    influence: float  # repulsion cutoff distance of the parent obstacle
    source_radius: float  # parent obstacle radius, for critical-zone tests


# built on every step, so not frozen: see the geometry module docstring
@dataclass(slots=True, unsafe_hash=True)
class GotoCommand:
    """Selected go-to point for the next step."""

    target: Vec3
    psi_d: float
    theta_d: float
    potential: float


def attractive(position: Vec3, goal: Vec3, params: PotentialParams) -> float:
    """0.5 * xi * d_g^2 toward the active waypoint."""
    dgx = goal.x - position.x
    dgy = goal.y - position.y
    dgz = goal.z - position.z
    return 0.5 * params.xi * (dgx * dgx + dgy * dgy + dgz * dgz)


def repulsive(position: Vec3, point: Vec3, influence: float, goal: Vec3,
              params: PotentialParams) -> float:
    """Surface-point repulsion, scaled by goal distance.

    0.5 * eta * (1/d_o - 1/d_t)^2 * d_g^2 inside the influence radius,
    zero outside. The d_g^2 factor lets repulsion fade as the goal nears
    so the minimum stays at the goal itself. Caller guarantees d_o > 0;
    a coincident point is a collision, not a potential.
    """
    rx = point.x - position.x
    ry = point.y - position.y
    rz = point.z - position.z
    d_o = math.sqrt(rx * rx + ry * ry + rz * rz)
    if d_o > influence:
        return 0.0
    dgx = goal.x - position.x
    dgy = goal.y - position.y
    dgz = goal.z - position.z
    dg2 = dgx * dgx + dgy * dgy + dgz * dgz
    w = 1.0 / d_o - 1.0 / influence
    return 0.5 * params.eta * w * w * dg2


def velocity_repulsive(position: Vec3, velocity: Vec3, point: Vec3,
                       point_velocity: Vec3, influence: float,
                       params: PotentialParams) -> float:
    """Penalty on closing speed toward a sample point.

    V_UO projects the relative velocity onto the line of sight; only a
    non-negative projection (actually closing) inside the influence radius
    costs anything: 0.5 * tau * V_UO / d_o.
    """
    rx = point.x - position.x
    ry = point.y - position.y
    rz = point.z - position.z
    d_o = math.sqrt(rx * rx + ry * ry + rz * rz)
    if d_o > influence:
        return 0.0
    v_uo = ((velocity.x - point_velocity.x) * rx
            + (velocity.y - point_velocity.y) * ry
            + (velocity.z - point_velocity.z) * rz) / d_o
    if v_uo < 0.0:
        return 0.0
    return 0.5 * params.tau * v_uo / d_o


def flow_potential(velocity: Vec3, flow: Vec3, params: PotentialParams) -> float:
    """Alignment cost between a candidate velocity and the local flow.

    Within flow_align_max of the flow direction the cost is the squared
    velocity mismatch against the flow (riding it); within the same window
    of the reversed flow, the mismatch against the reversed flow (bucking
    it head-on keeps control authority). The wide middle band costs
    nothing, and still water costs nothing anywhere.
    """
    fn = math.sqrt(flow.x * flow.x + flow.y * flow.y + flow.z * flow.z)
    if fn == 0.0:
        return 0.0
    vn = math.sqrt(velocity.x * velocity.x + velocity.y * velocity.y
                   + velocity.z * velocity.z)
    if vn == 0.0:
        return 0.0
    c = (flow.x * velocity.x + flow.y * velocity.y + flow.z * velocity.z) / (fn * vn)
    if c > 1.0:
        c = 1.0
    elif c < -1.0:
        c = -1.0
    gamma = math.acos(c)
    if gamma <= params.flow_align_max:
        dx = flow.x - velocity.x
        dy = flow.y - velocity.y
        dz = flow.z - velocity.z
        return 0.5 * params.kappa * (dx * dx + dy * dy + dz * dz)
    if gamma >= 0.5 * math.pi + params.flow_align_max:
        sx = flow.x + velocity.x
        sy = flow.y + velocity.y
        sz = flow.z + velocity.z
        return 0.5 * params.kappa * (sx * sx + sy * sy + sz * sz)
    return 0.0


def total_potential(position: Vec3, velocity: Vec3, goal: Vec3,
                    points: Sequence[ObstaclePoint], flow: Vec3,
                    params: PotentialParams, mode: str = "advanced") -> float:
    """Full candidate score; term order matches the batch kernels exactly."""
    if mode not in MODES:
        raise ValueError(f"unknown planner mode: {mode!r}")
    u = attractive(position, goal, params)
    for p in points:
        u += repulsive(position, p.position, p.influence, goal, params)
    if mode == "advanced":
        for p in points:
            u += velocity_repulsive(position, velocity, p.position,
                                    p.velocity, p.influence, params)
        u += flow_potential(velocity, flow, params)
    return u


def grid_potentials(surface: SampleSurface, goal: Vec3,
                    points: Sequence[ObstaclePoint], flow: Vec3,
                    params: PotentialParams, mode: str) -> list[float]:
    """List of total_potential per candidate in grid order, via the kernel.

    Candidates coincident with an obstacle sample point come back +inf.
    The kernel receives only the points within influence + surface.reach
    + 1 m of surface.center, in their original order. By the triangle
    inequality a point farther out lies beyond its influence radius from
    every candidate (the 1 m absorbs rounding), so it would add no term
    and block no candidate: the scores are the same bits as over all
    points.
    """
    if mode not in MODES:
        raise ValueError(f"unknown planner mode: {mode!r}")
    c = surface.center
    cx, cy, cz = c.x, c.y, c.z
    pad = surface.reach + 1.0
    near = []
    for p in points:
        q = p.position
        dx = q.x - cx
        dy = q.y - cy
        dz = q.z - cz
        lim = p.influence + pad
        if dx * dx + dy * dy + dz * dz > lim * lim:
            continue
        near.append(p)
    return _kernels.total_potential_grid(
        len(surface.headings) * len(surface.glides), surface,
        goal.x, goal.y, goal.z, flow, len(near), near, params,
        mode == "advanced")


def select_goto(surface: SampleSurface, goal: Vec3,
                points: Sequence[ObstaclePoint], flow: Vec3,
                params: PotentialParams, mode: str,
                max_depth: float) -> GotoCommand:
    """Pick the feasible candidate with the lowest total potential.

    Feasible means depth within [0, max_depth] and a finite score in the
    list grid_potentials returns (+inf on a sample point). A candidate's
    depth is its glide row's, so depth is tested once per glide row.
    Exact potential ties go to the smallest heading change, then the
    smallest glide-angle change (the surface's dpsi and dtheta columns),
    then grid order, so selection is fully deterministic.

    Raises
    ------
    NoFeasibleWaypoint
        If every candidate is infeasible.
    """
    grid = grid_potentials(surface, goal, points, flow, params, mode)
    center = surface.center
    glides = surface.glides
    cols = len(glides)
    # (j, |dtheta|) of each glide row within the depth limits
    rows = []
    for j, dtheta in enumerate(surface.dtheta):
        z = center.z + glides[j][3]  # the row's rdz
        if not (z < 0.0 or z > max_depth):
            rows.append((j, dtheta))
    best = None  # (u, |dpsi|, |dtheta|, k) of the best candidate so far
    for i, dpsi in enumerate(surface.dpsi):
        for j, dtheta in rows:
            k = i * cols + j
            u = grid[k]
            if math.isinf(u) or best is not None and u > best[0]:
                continue  # a larger u never keys lower: no key to build
            key = (u, dpsi, dtheta, k)
            if best is None or key < best:
                best = key
    if best is None:
        raise NoFeasibleWaypoint(
            f"all {len(grid)} candidates infeasible at "
            f"({center.x:.2f}, {center.y:.2f}, {center.z:.2f})")
    u, _dpsi, _dtheta, k = best
    i, j = divmod(k, cols)
    psi, cp, sp = surface.headings[i]
    theta, _speed, rct, rdz, _vct, _vz = glides[j]
    return GotoCommand(
        Vec3(center.x + rct * cp, center.y + rct * sp, center.z + rdz),
        psi, theta, u)
