"""Local-minimum detection and the vertical escape maneuver.

Concave or symmetric obstacle groups can trap a potential-field planner:
the best candidate stops making progress while repulsion pins the vehicle
in place. A glider cannot turn around on the spot, but it can leave the
plane of the trap by pure buoyancy: pitch to zero, change depth until the
obstacle group is out of the critical zone, then replan from there.

Detection is a conjunction: the last `window` steps made less than
`progress_epsilon` meters of net progress toward the active waypoint AND
the nearest obstacle sample point sits inside its own obstacle's critical
zone (R + hull + cz_margin); a farther point inside a larger obstacle's
zone does not count. Stalls without a nearby obstacle are flow effects and
stay the planner's problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from mppf.errors import TrappedError
from mppf.geometry import Attitude, GliderState, Vec3
from mppf.potentials import ObstaclePoint


@dataclass(frozen=True, slots=True)
class EscapeConfig:
    vertical_speed: float = 0.18
    window: int = 10
    progress_epsilon: float = 0.5
    surface_margin: float = 3.0
    decay_tau: float = 5.0
    # critical zone radius = obstacle radius + hull radius + cz_margin
    cz_margin: float = 5.0
    # blocked-column test: radius hull + overhead_pad, height obstacle
    # radius + hull + overhead_clearance
    overhead_pad: float = 1.0
    overhead_clearance: float = 2.0

    def __post_init__(self):
        # escape_step divides by decay_tau; the detector slices by window
        for name in ("vertical_speed", "progress_epsilon", "decay_tau"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"escape {name} must be finite and positive")
        if not (isinstance(self.window, int) and self.window >= 1):
            raise ValueError("escape window must be an integer >= 1")
        for name in ("surface_margin", "cz_margin", "overhead_pad",
                     "overhead_clearance"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"escape {name} must be finite and non-negative")


# built on every step, so not frozen: see the geometry module docstring
@dataclass(slots=True, unsafe_hash=True)
class EscapeState:
    """Maneuver mode plus the bookkeeping the detector needs.

    progress_history holds the last `window` per-step progress values
    toward the active waypoint; residual_vx/vy carry the decaying
    pre-escape horizontal velocity that makes real escapes start
    non-vertical.
    """

    mode: str = "inactive"  # inactive | ascending | descending
    residual_vx: float = 0.0
    residual_vy: float = 0.0
    progress_history: tuple[float, ...] = ()


# The functions below build EscapeState positionally: record_progress runs
# every planner step, where dataclasses.replace costs about twice as much.
def record_progress(state: EscapeState, value: float, config: EscapeConfig) -> EscapeState:
    hist = (state.progress_history + (value,))[-config.window:]
    return EscapeState(state.mode, state.residual_vx, state.residual_vy, hist)


def clear_progress(state: EscapeState) -> EscapeState:
    return EscapeState(state.mode, state.residual_vx, state.residual_vy, ())


def critical_zone_radius(source_radius: float, body_radius: float,
                         config: EscapeConfig) -> float:
    return source_radius + body_radius + config.cz_margin


def nearest_point(points: Sequence[ObstaclePoint],
                  position: Vec3) -> tuple[float, ObstaclePoint | None]:
    """The point nearest to position, the first of equals, and its
    distance (Vec3.dist's arithmetic, inlined); (inf, None) for no points."""
    best = None
    best_d = math.inf
    x, y, z = position.x, position.y, position.z
    sqrt = math.sqrt
    for p in points:
        q = p.position
        dx = x - q.x
        dy = y - q.y
        dz = z - q.z
        d = sqrt(dx * dx + dy * dy + dz * dz)
        if d < best_d:
            best_d = d
            best = p
    return best_d, best


def obstacles_in_critical_zone(points: Sequence[ObstaclePoint], position: Vec3,
                               body_radius: float, config: EscapeConfig) -> bool:
    """True when the nearest sensed point is inside its critical zone."""
    best_d, best = nearest_point(points, position)
    if best is None:
        return False
    return best_d <= critical_zone_radius(best.source_radius, body_radius, config)


def detect_local_minimum(history: Sequence[float], obstacles_in_cz: bool,
                         config: EscapeConfig) -> bool:
    """Stalled progress plus a nearby obstacle; needs a full window."""
    if len(history) < config.window:
        return False
    if not obstacles_in_cz:
        return False
    return sum(history[-config.window:]) < config.progress_epsilon


def _column_blocked(points: Sequence[ObstaclePoint], position: Vec3,
                    body_radius: float, config: EscapeConfig,
                    above: bool) -> bool:
    for p in points:
        dx = p.position.x - position.x
        dy = p.position.y - position.y
        if math.sqrt(dx * dx + dy * dy) > body_radius + config.overhead_pad:
            continue
        dz = position.z - p.position.z if above else p.position.z - position.z
        if 0.0 <= dz <= p.source_radius + body_radius + config.overhead_clearance:
            return True
    return False


def choose_direction(position: Vec3, points: Sequence[ObstaclePoint],
                     config: EscapeConfig, body_radius: float,
                     max_depth: float) -> str:
    """Pick the vertical escape direction.

    Up is preferred (it returns the vehicle to gliding fastest); down when
    the surface is too close or the column overhead is blocked and there
    is clear water below.

    Raises
    ------
    TrappedError
        Neither direction has clearance.
    """
    ascend_ok = (position.z >= config.surface_margin
                 and not _column_blocked(points, position, body_radius, config, above=True))
    if ascend_ok:
        return "ascending"
    descend_ok = (position.z < max_depth - 1e-9
                  and not _column_blocked(points, position, body_radius, config, above=False))
    if descend_ok:
        return "descending"
    raise TrappedError(
        f"no vertical escape from ({position.x:.2f}, {position.y:.2f}, {position.z:.2f})")


def start_escape(glider: GliderState, direction: str, config: EscapeConfig,
                 state: EscapeState) -> EscapeState:
    """Enter the maneuver, capturing the pre-escape horizontal velocity."""
    vh = glider.speed * math.cos(glider.attitude.theta)
    return EscapeState(direction,
                       vh * math.cos(glider.attitude.psi),
                       vh * math.sin(glider.attitude.psi),
                       state.progress_history)


def end_escape(state: EscapeState) -> EscapeState:
    return EscapeState()


def escape_step(state: EscapeState, glider: GliderState, config: EscapeConfig,
                flow: Vec3, max_depth: float, dt: float) -> tuple[GliderState, EscapeState]:
    """One maneuver step: vertical motion, residual drift, flow advection.

    The residual integral is exact per step (displacement
    v*tau*(1 - exp(-dt/tau)), then v *= exp(-dt/tau)), so the total drift
    matches the analytic decay regardless of dt. Pitch is held at zero.

    Raises
    ------
    TrappedError
        Descending past max_depth.
    """
    if state.mode == "inactive":
        raise ValueError("escape_step called with inactive escape state")
    a = math.exp(-dt / config.decay_tau)
    drift = config.decay_tau * (1.0 - a)
    x = glider.position.x + state.residual_vx * drift + flow.x * dt
    y = glider.position.y + state.residual_vy * drift + flow.y * dt
    dz = config.vertical_speed * dt
    z = glider.position.z + (-dz if state.mode == "ascending" else dz) + flow.z * dt
    if z > max_depth:
        raise TrappedError(f"depth limit {max_depth} m reached while escaping downward")
    if z < 0.0:
        z = 0.0
    new_glider = GliderState(Vec3(x, y, z),
                             Attitude(glider.attitude.psi, 0.0),
                             config.vertical_speed, "escape")
    new_state = EscapeState(state.mode, state.residual_vx * a,
                            state.residual_vy * a, state.progress_history)
    return new_glider, new_state
