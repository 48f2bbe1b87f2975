"""Edge cases of the batch grid kernel.

Exact agreement with the scalar potentials is pinned in test_potentials.
"""

import math
import random
from array import array

from mppf import _kernels


def random_case(rng, n=25, m=6):
    cpos = array("d", (rng.uniform(0, 100) for _ in range(3 * n)))
    cvel = array("d", (rng.uniform(-0.5, 0.5) for _ in range(3 * n)))
    opos = array("d", (rng.uniform(0, 100) for _ in range(3 * m)))
    ovel = array("d", (rng.uniform(-0.4, 0.4) for _ in range(3 * m)))
    oinf = array("d", (rng.uniform(2.0, 10.0) for _ in range(m)))
    goal = (rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0, 30))
    flow = (rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), 0.0)
    return n, cpos, cvel, goal, m, opos, ovel, oinf, flow


def run_kernel(case, advanced):
    n, cpos, cvel, goal, m, opos, ovel, oinf, flow = case
    out = array("d", bytes(8 * n))
    _kernels.total_potential_grid(
        n, cpos, cvel, goal[0], goal[1], goal[2],
        m, opos, ovel, oinf, flow[0], flow[1], flow[2],
        0.1, 10.0, 0.1, 0.1, math.radians(20.0), advanced, out)
    return out


def test_kernel_inf_on_coincident_point():
    rng = random.Random(4)
    case = random_case(rng)
    n, cpos, cvel, goal, m, opos, ovel, oinf, flow = case
    opos[0], opos[1], opos[2] = cpos[3], cpos[4], cpos[5]
    for advanced in (False, True):
        out = run_kernel(case, advanced)
        assert math.isinf(out[1])
        assert out[1] > 0


def test_pure_kernel_empty_obstacle_buffers():
    rng = random.Random(5)
    case = random_case(rng, m=0)
    out = run_kernel(case, True)
    assert all(math.isfinite(u) for u in out)


def test_active_backend_reported():
    assert _kernels.BACKEND == "pure"
