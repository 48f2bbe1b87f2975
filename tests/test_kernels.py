"""Edge cases of the batch grid kernel.

Exact agreement with the scalar potentials is pinned in test_potentials.
"""

import math
import random

from mppf import _kernels
from mppf.geometry import Candidate, Vec3
from mppf.potentials import ObstaclePoint, PotentialParams


def vec(rng, lo, hi):
    return Vec3(rng.uniform(lo, hi), rng.uniform(lo, hi), rng.uniform(lo, hi))


def random_case(rng, n=25, m=6):
    cands = [Candidate(vec(rng, 0, 100), vec(rng, -0.5, 0.5), 0.0, 0.0, 0.5)
             for _ in range(n)]
    points = [ObstaclePoint(vec(rng, 0, 100), vec(rng, -0.4, 0.4),
                            rng.uniform(2.0, 10.0), 1.0) for _ in range(m)]
    goal = (rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 30))
    flow = Vec3(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), 0.0)
    return cands, goal, flow, points


def run_kernel(case, advanced):
    cands, goal, flow, points = case
    out = _kernels.total_potential_grid(
        len(cands), cands, goal[0], goal[1], goal[2], flow,
        len(points), points, PotentialParams(), advanced)
    assert type(out) is list and len(out) == len(cands)
    return out


def test_kernel_inf_on_coincident_point():
    rng = random.Random(4)
    cands, goal, flow, points = random_case(rng)
    points[0] = points[0]._replace(position=cands[1].position)
    for advanced in (False, True):
        out = run_kernel((cands, goal, flow, points), advanced)
        assert math.isinf(out[1])
        assert out[1] > 0


def test_pure_kernel_empty_obstacle_buffers():
    rng = random.Random(5)
    case = random_case(rng, m=0)
    out = run_kernel(case, True)
    assert all(math.isfinite(u) for u in out)


def test_active_backend_reported():
    assert _kernels.BACKEND == "pure"
