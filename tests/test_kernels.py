"""Edge cases of the batch grid kernel.

Exact agreement with the scalar potentials is pinned in test_potentials.
"""

import math
import random

from mppf import _kernels
from mppf.geometry import Attitude, GliderSpec, GliderState, Vec3, build_sample_surface
from mppf.potentials import ObstaclePoint, PotentialParams, total_potential

PARAMS = PotentialParams()


def vec(rng, lo, hi):
    return Vec3(rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(lo, hi))


def random_case(rng, m=6):
    """A fan at a random pose and points scattered around it, most of them
    within their influence radius of some candidate."""
    spec = GliderSpec(speed_down=rng.uniform(0.2, 2.0),
                      speed_up=rng.uniform(0.2, 2.0))
    theta = rng.uniform(-0.7, 0.7)
    center = vec(rng, 20, 80)
    surf = build_sample_surface(
        GliderState(center, Attitude(rng.uniform(-math.pi, math.pi), theta),
                    spec.speed_for(theta)), spec, rng.uniform(0.5, 5.0))
    points = [ObstaclePoint(center + vec(rng, -6, 6), vec(rng, -0.4, 0.4),
                            rng.uniform(2.0, 10.0), 1.0) for _ in range(m)]
    goal = (rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 30))
    flow = Vec3(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), 0.0)
    return surf, goal, flow, points


def run_kernel(case, advanced):
    """The kernel's scores; every finite one is total_potential's, bit for
    bit, for the candidate at its index."""
    surf, goal, flow, points = case
    out = _kernels.total_potential_grid(
        25, surf, goal[0], goal[1], goal[2], flow,
        len(points), points, PARAMS, advanced)
    cands = surf.candidates
    assert type(out) is list and len(out) == len(cands) == 25
    mode = "advanced" if advanced else "baseline"
    for c, u in zip(cands, out):
        if math.isfinite(u):
            assert u.hex() == total_potential(
                c.position, c.velocity, Vec3(*goal), points, flow, PARAMS,
                mode).hex()
    return out


def test_kernel_inf_on_coincident_point():
    rng = random.Random(4)
    surf, goal, flow, points = random_case(rng)
    points[0] = points[0]._replace(position=surf.candidates[1].position)
    for advanced in (False, True):
        out = run_kernel((surf, goal, flow, points), advanced)
        assert math.isinf(out[1])
        assert out[1] > 0
        assert sum(math.isinf(u) for u in out) == 1


def test_pure_kernel_empty_obstacle_buffers():
    rng = random.Random(5)
    case = random_case(rng, m=0)
    for advanced in (False, True):
        out = run_kernel(case, advanced)
        assert all(math.isfinite(u) for u in out)


def test_active_backend_reported():
    assert _kernels.BACKEND == "pure"
