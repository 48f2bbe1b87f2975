"""The host's speed, measured alongside the program, and times scaled by it.

A benchmark host that is a share of a bigger machine changes speed: the
same CPU-bound Python loop, timed back to back, swings by 20% or more in
phases that last from a fraction of a second to minutes. A run inherits
whatever phases it falls in, so wall-clock times of the same code can
differ by 30% from one run to the next, more than any useful bound.

`HostSpeed` times a fixed reference computation (`reference`: the kinds of
pure-Python work the planner does, small vector objects, float arithmetic,
sorting and dicts) about every SAMPLE_EVERY_NS of a run, between decisions
and outside every timed interval. The stretch of time between two samples
runs at the speed the samples around it show, and `scaled` reports a
wall-clock interval as the time it would have taken at reference speed,
where `reference` takes REF_NS. The samples themselves are never part of a
scaled interval.
"""

from __future__ import annotations

import math
import random
import statistics
from array import array
from bisect import bisect_left, bisect_right
from time import perf_counter_ns

# the reference computation's time at reference speed. It only sets the
# unit: a round figure within the range of the reference's run medians on
# the host the README's figures come from (0.57 to 0.90 ms)
REF_NS = 750_000
SAMPLE_EVERY_NS = 50_000_000
# a stretch between two samples is scaled by the median of the WINDOW
# samples before it and the WINDOW after it
WINDOW = 3

_rng = random.Random(20240313)
_CANDIDATES = [((_rng.uniform(-5, 5), _rng.uniform(-5, 5), _rng.uniform(0, 50)),
                (_rng.uniform(-0.4, 0.4), _rng.uniform(-0.4, 0.4),
                 _rng.uniform(-0.2, 0.2))) for _ in range(25)]
_POINTS = [((_rng.uniform(-50, 50), _rng.uniform(-50, 50), _rng.uniform(0, 50)),
            (_rng.uniform(-1, 1), 0.0, 0.0)) for _ in range(150)]
_GOAL = (100.0, 0.0, 10.0)


class _Vec:
    __slots__ = ("x", "y", "z")

    def __init__(self, x, y, z):
        self.x, self.y, self.z = x, y, z

    def __sub__(self, o):
        return _Vec(self.x - o.x, self.y - o.y, self.z - o.z)

    def norm(self):
        return math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)


def reference() -> int:
    """A fixed amount of work. Wraps 150 points in vector objects, sorts
    them by distance and buckets them in a dict; then sums 25 x 24
    attraction, repulsion and closing-velocity terms on tuples."""
    origin = _Vec(1.0, 2.0, 3.0)
    near = sorted(((_Vec(*p) - origin).norm(), i)
                  for i, (p, _v) in enumerate(_POINTS))
    buckets: dict[int, list] = {}
    for d, i in near:
        buckets.setdefault(int(d // 10), []).append(_Vec(d, i, 0.0))
    total = 0.0
    gx, gy, gz = _GOAL
    for (x, y, z), (vx, vy, vz) in _CANDIDATES:
        dg2 = (gx - x) ** 2 + (gy - y) ** 2 + (gz - z) ** 2
        u = 0.05 * dg2
        for _d, i in near[:24]:
            (px, py, pz), (pvx, pvy, pvz) = _POINTS[i]
            rx, ry, rz = px - x, py - y, pz - z
            d = math.sqrt(rx * rx + ry * ry + rz * rz)
            u += 0.5 * (1.0 / d - 1.0 / 100.0) ** 2 * dg2
            closing = ((vx - pvx) * rx + (vy - pvy) * ry + (vz - pvz) * rz) / d
            if closing >= 0.0:
                u += 0.25 * closing / d
        total += u
    return len(buckets) + (total > 0)


class HostSpeed:
    """Reference samples of one run, and intervals scaled by them."""

    def __init__(self):
        self.starts = array("q")
        self.ends = array("q")
        self._factors: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter_ns()
        reference()
        t1 = perf_counter_ns()
        self.starts.append(t0)
        self.ends.append(t1)

    def sample_if_due(self) -> None:
        if not self.ends or perf_counter_ns() - self.ends[-1] >= SAMPLE_EVERY_NS:
            self.sample()

    def factors(self) -> list[float]:
        """REF_NS over the local sample median, for the stretch after each
        sample; the first also serves the time before the first sample."""
        n = len(self.ends)
        if len(self._factors) != n:
            took = [e - s for s, e in zip(self.starts, self.ends)]
            self._factors = [
                REF_NS / statistics.median(took[max(0, i - WINDOW + 1):i + WINDOW + 1])
                for i in range(n)]
        return self._factors

    def inside(self, a: int, b: int) -> int:
        """Wall-clock nanoseconds of the samples taken within [a, b)."""
        lo, hi = bisect_left(self.starts, a), bisect_left(self.ends, b)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def scaled(self, a: int, b: int) -> float:
        """Nanoseconds that the wall-clock interval [a, b) takes at
        reference speed, leaving out the samples inside it."""
        f = self.factors()
        if not f:
            raise RuntimeError("no reference samples taken")
        starts, ends, n = self.starts, self.ends, len(f)
        # the stretch after sample i runs from ends[i] to starts[i + 1];
        # stretch -1 is the time before the first sample
        i = bisect_right(ends, a) - 1
        total = 0.0
        while True:
            lo = a if i < 0 else max(a, ends[i])
            hi = b if i == n - 1 else min(b, starts[i + 1])
            if hi > lo:
                total += (hi - lo) * f[max(i, 0)]
            if i == n - 1 or starts[i + 1] >= b:
                return total
            i += 1
