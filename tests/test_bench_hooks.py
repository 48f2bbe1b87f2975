"""The mission benchmark's hooks still fit the program.

`missionbench/probe.py` wraps mppf functions by name and reads some of
their arguments by position. Its own tests run apart from this suite, so
these checks keep a renamed function or a reordered argument from going
unseen until the benchmark runs.
"""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

from mppf import _kernels
from mppf.geometry import Attitude, GliderSpec, GliderState, Vec3, build_sample_surface
from mppf.potentials import (
    ObstaclePoint,
    PotentialParams,
    grid_potentials,
    select_goto,
    total_potential,
)

MISSIONBENCH = Path(__file__).resolve().parent.parent / "missionbench"


@pytest.fixture(scope="module")
def probe():
    sys.path.insert(0, str(MISSIONBENCH))
    try:
        return importlib.import_module("probe")
    finally:
        sys.path.remove(str(MISSIONBENCH))


def test_every_hooked_function_resolves(probe):
    for module, func in sorted({probe.SENSE, *probe.MOVES, *probe.SPANS}):
        assert callable(getattr(importlib.import_module(module), func, None)), (
            f"{module}.{func}")


def test_select_goto_keeps_the_parameter_names_the_probe_binds():
    assert list(inspect.signature(select_goto).parameters) == [
        "surface", "goal", "points", "flow", "params", "mode", "max_depth"]


def test_kernel_keeps_the_leading_parameters_the_probe_reads():
    # the probe multiplies args[0] by args[6]; args[7] is the points scored
    assert list(inspect.signature(_kernels.total_potential_grid).parameters)[:8] == [
        "n", "surface", "gx", "gy", "gz", "flow", "m", "points"]


def test_kernel_args_carry_the_counts_the_probe_multiplies(monkeypatch):
    surf = build_sample_surface(
        GliderState(Vec3(50.0, 50.0, 10.0), Attitude(0.3, -0.2), 0.5),
        GliderSpec(), 1.0)
    points = [ObstaclePoint(Vec3(50.0 + k, 52.0, 10.0), Vec3(0.1, 0.0, 0.0),
                            8.0, 2.0) for k in range(7)]
    # beyond influence + fan reach of every candidate: never scored
    far = ObstaclePoint(Vec3(20.0, 50.0, 10.0), Vec3(0.0, 0.0, 0.0), 8.0, 2.0)
    points.insert(3, far)
    seen = []
    kernel = _kernels.total_potential_grid

    def spy(*args):
        out = kernel(*args)
        seen.append((args, out))
        return out

    monkeypatch.setattr(_kernels, "total_potential_grid", spy)
    goal, flow, params = Vec3(90.0, 90.0, 5.0), Vec3(0.1, 0.0, 0.0), PotentialParams()
    grid = grid_potentials(surf, goal, points, flow, params, "advanced")
    ((args, out),) = seen
    # one score per candidate, returned as grid_potentials' own result
    assert args[1] is surf
    assert out is grid and len(out) == len(surf.candidates)
    for c, u in zip(surf.candidates, out):
        assert u.hex() == total_potential(c.position, c.velocity, goal, points,
                                          flow, params, "advanced").hex()
    assert args[0] == len(surf.candidates) == 25
    # the probe's pairs count, args[0] * args[6], is the pairs scored
    assert args[6] == len(args[7]) == 7
    assert far not in args[7]
    assert list(args[7]) == [p for p in points if p is not far]
