"""Self-tests of the benchmark's own checks.

Run from the repository root:

    python3 -m pytest -q missionbench
"""

from __future__ import annotations

import math
import random
import sys
from pathlib import Path

import pytest

import run  # puts the checkout's src/ on sys.path
import checks
import make_anchorage
import speed


def _mppf():
    run.setup("open_water")
    return sys.modules


def test_potential_agrees_with_total_potential():
    mods = _mppf()
    pot = mods["mppf.potentials"]
    Vec3 = mods["mppf.geometry"].Vec3
    rng = random.Random(11)

    def vec():
        return (rng.uniform(-20, 20), rng.uniform(-20, 20), rng.uniform(0, 30))

    for case in range(400):
        pos, goal = vec(), vec()
        psi, theta = rng.uniform(-math.pi, math.pi), rng.uniform(-0.8, 0.8)
        vel = checks.candidate_velocity(psi, theta, rng.uniform(0.1, 0.5))
        # flows aligned with, opposed to, and across the candidate velocity
        k = rng.choice((0.3, -0.3, 0.0))
        flow = (k * vel[0] + rng.uniform(-0.02, 0.02) * (case % 3),
                k * vel[1] + rng.uniform(-0.1, 0.1) * (k == 0.0),
                k * vel[2])
        points = [(vec(), (rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4), 0.0),
                   rng.uniform(2.0, 40.0)) for _ in range(rng.randrange(0, 12))]
        gains = checks.Gains(rng.uniform(0.05, 0.2), rng.uniform(1, 20),
                             rng.uniform(0, 0.5), rng.uniform(0, 0.5),
                             math.radians(rng.uniform(5, 40)))
        params = pot.PotentialParams(gains.xi, gains.eta, gains.tau,
                                     gains.kappa, gains.align_max)
        obs = [pot.ObstaclePoint(Vec3(*p), Vec3(*v), d_t, 1.0)
               for p, v, d_t in points]
        for mode in ("baseline", "advanced"):
            want = pot.total_potential(Vec3(*pos), Vec3(*vel), Vec3(*goal), obs,
                                       Vec3(*flow), params, mode)
            got = checks.potential(pos, vel, goal, points, flow, gains,
                                   mode == "advanced")
            assert got == pytest.approx(want, rel=1e-12), (case, mode)


def _decision(mode):
    """One real planner decision next to a sphere, as check_decision sees it."""
    mods = _mppf()
    geo, pot, env = mods["mppf.geometry"], mods["mppf.potentials"], mods["mppf.environment"]
    g = geo.GliderState(geo.Vec3(20, 20, 5), geo.Attitude(0.3, -0.2), 0.4)
    spec = geo.GliderSpec()
    world = env.WorldState(g, (env.Obstacle("sphere", 3.0, geo.Vec3(24, 22, 6)),))
    points = env.surface_points(world, [0], env.SonarModel())
    surface = geo.build_sample_surface(g, spec, 1.0)
    goal, flow, params = geo.Vec3(60, 30, 10), geo.Vec3(0.05, -0.02, 0.0), pot.PotentialParams()
    cmd = pot.select_goto(surface, goal, points, flow, params, mode, spec.max_depth)
    cands = [((c.position.x, c.position.y, c.position.z), c.psi, c.theta, c.speed)
             for c in surface.candidates]
    pts = [((p.position.x, p.position.y, p.position.z),
            (p.velocity.x, p.velocity.y, p.velocity.z), p.influence) for p in points]
    gains = checks.Gains(params.xi, params.eta, params.tau, params.kappa,
                         params.flow_align_max)
    args = (cands, (goal.x, goal.y, goal.z), pts, (flow.x, flow.y, flow.z), gains,
            mode == "advanced", spec.max_depth)
    grid = pot.grid_potentials(surface, goal, points, flow, params, mode)
    return args, cmd, grid


@pytest.mark.parametrize("mode", ["baseline", "advanced"])
def test_check_decision_accepts_the_minimum_and_rejects_another(mode):
    args, cmd, grid = _decision(mode)
    chosen = (cmd.target.x, cmd.target.y, cmd.target.z)
    assert checks.check_decision(*args, chosen, cmd.potential) == []
    # the worst feasible candidate, reported with its own potential
    cands = args[0]
    worst = max((i for i, c in enumerate(cands) if 0 <= c[0][2] <= args[-1]),
                key=lambda i: grid[i])
    assert grid[worst] > cmd.potential
    problems = checks.check_decision(*args, cands[worst][0], grid[worst])
    assert any("minimum" in p for p in problems)
    # the right choice with a wrong reported potential
    assert checks.check_decision(*args, chosen, cmd.potential * 1.01)


@pytest.fixture
def runner(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    r = run.Runner("open_water", 0)
    yield r
    r.probe.remove()


def _one_mission(r, traced=False):
    m = next(m for m in r.missions if m.key == "sawtooth-baseline")
    r.probe.install(traced)
    try:
        return r.mission(m, traced)
    finally:
        r.probe.remove()


def test_mission_passes_its_checks(runner):
    rec = _one_mission(runner, traced=True)
    assert not rec.failed and not rec.incorrect and rec.steps > 0
    assert len(rec.decide_ns) == rec.steps


@pytest.mark.parametrize("calls", [0, 2])
def test_hook_firing_wrong_number_of_times_fails_the_mission(runner, monkeypatch, calls):
    env = sys.modules["mppf.environment"]
    orig = env.visible_obstacles
    if calls == 0:
        # a loop that reaches the layer without the bound name
        def sense(world, sonar):
            return orig(world, sonar)
    else:
        def sense(world, sonar):
            env.visible_obstacles(world, sonar)
            return env.visible_obstacles(world, sonar)
    monkeypatch.setattr(sys.modules["mppf.harness"], "visible_obstacles", sense)
    rec = _one_mission(runner)
    assert rec.failed and not rec.incorrect
    assert len(rec.decide_ns) == 0


def test_output_checks_catch_a_tampered_trajectory(runner):
    rec = _one_mission(runner)
    assert not rec.failed
    out = run.OUT / "open_water" / "sawtooth-baseline"
    spec = runner.specs[rec.mission.path]
    csv = out / "trajectory.csv"
    lines = csv.read_text().splitlines()
    cols = lines[5].split(",")
    cols[3] = f"{spec.max_depth + 1:.6f}"
    lines[5] = ",".join(cols)
    csv.write_text("\n".join(lines) + "\n")
    _, problems = checks.check_outputs(out, spec)
    assert any("depth" in p for p in problems)


def test_anchorage_file_matches_its_generator():
    path = Path(run.HERE) / "anchorage.yaml"
    assert path.read_text() == make_anchorage.scenario_text()


def _samples(took):
    """A HostSpeed whose i-th sample starts at i * 10 ms and takes took[i] ns."""
    h = speed.HostSpeed()
    for i, t in enumerate(took):
        h.starts.append(i * 10_000_000)
        h.ends.append(i * 10_000_000 + t)
    return h


def test_scaled_leaves_out_samples_and_scales_by_local_speed():
    half = speed.REF_NS // 2  # a host twice as fast as the reference
    h = _samples([half] * 10)
    a, b = 5_000_000, 35_000_000
    inside = 3 * half
    assert h.inside(a, b) == inside
    assert h.scaled(a, b) == pytest.approx(2 * (b - a - inside))
    # before the first sample and after the last
    assert h.scaled(-1000, 0) == pytest.approx(2000)
    assert h.scaled(200_000_000, 200_001_000) == pytest.approx(2000)
    # a slow stretch far from a fast one is scaled by its own speed
    h = _samples([half] * 10 + [2 * speed.REF_NS] * 10)
    assert h.scaled(26_000_000, 27_000_000) == pytest.approx(2_000_000)
    assert h.scaled(166_000_000, 167_000_000) == pytest.approx(500_000)
