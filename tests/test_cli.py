"""Command-line entry points and their exit codes."""

import math

import yaml

from mppf import cli

REACHES = {
    "schema_version": 1,
    "name": "open-run",
    "mode": "baseline",
    "start": [10, 10, 0],
    "goal": [90, 90, 0],
    "max_steps": 600,
    "glider": {"max_depth": 10.0},
}

# a faster sphere overtaking from astern sits outside the forward-looking
# sonar cone the whole way in, so the baseline planner never reacts
COLLIDES = {
    "schema_version": 1,
    "name": "overtaken",
    "mode": "baseline",
    "start": [10, 10, 0],
    "goal": [90, 90, 0],
    "max_steps": 400,
    "glider": {"max_depth": 10.0},
    "obstacles": [{"shape": "sphere", "radius": 6.0, "center": [2, 2, 5],
                   "velocity": [0.32, 0.32, 0]}],
}

# seed 4 of this field walls off the corridor with overlapping critical
# zones spanning the whole water column; vertical escape has no exit
TRAPS = {
    "schema_version": 1,
    "name": "boxed-in",
    "mode": "advanced",
    "start": [10, 70, 0],
    "goal": [90, 10, 0],
    "max_steps": 1500,
    "seed": 4,
    "random_obstacles": {"count": 30, "radius": [0.5, 7.0], "depth": [0.0, 30.0]},
}


def write(tmp_path, data, name="scenario.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(data))
    return str(p)


# --- run -------------------------------------------------------------------

def test_run_reached_exit_zero(tmp_path, capsys):
    path = write(tmp_path, REACHES)
    code = cli.main(["run", "--scenario", path, "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert code == 0
    assert "[open-run:baseline] status=reached" in out
    for fname in ("trajectory.csv", "summary.yaml", "top_view.svg",
                  "profile_view.svg"):
        assert (tmp_path / "o" / fname).exists()


def test_run_collision_exit_two(tmp_path):
    path = write(tmp_path, COLLIDES)
    assert cli.main(["run", "--scenario", path,
                     "--out", str(tmp_path / "o")]) == 2


def test_run_trapped_exit_three(tmp_path):
    path = write(tmp_path, TRAPS)
    assert cli.main(["run", "--scenario", path,
                     "--out", str(tmp_path / "o")]) == 3


def test_run_budget_exhausted_exit_four(tmp_path):
    path = write(tmp_path, REACHES)
    assert cli.main(["run", "--scenario", path, "--max-steps", "5",
                     "--out", str(tmp_path / "o")]) == 4


def test_run_mode_override(tmp_path, capsys):
    path = write(tmp_path, REACHES)
    code = cli.main(["run", "--scenario", path, "--mode", "advanced",
                     "--out", str(tmp_path / "o")])
    assert code == 0
    assert "[open-run:advanced]" in capsys.readouterr().out


# --- compare ---------------------------------------------------------------

def test_compare_writes_both_runs_and_deltas(tmp_path, capsys):
    path = write(tmp_path, REACHES)
    out = tmp_path / "cmp"
    code = cli.main(["compare", "--scenario", path, "--out", str(out)])
    assert code == 0  # advanced reaches, so its status drives the exit
    assert (out / "baseline" / "trajectory.csv").exists()
    assert (out / "advanced" / "trajectory.csv").exists()
    report = yaml.safe_load((out / "compare.yaml").read_text())
    assert report["baseline_status"] == "reached"
    assert report["advanced_status"] == "reached"
    assert set(report) >= {"d_time_cost", "d_drift"}
    printed = capsys.readouterr().out
    assert "drift" in printed and "compare.yaml" in printed


# --- validate --------------------------------------------------------------

def test_validate_accepts_good_file(tmp_path, capsys):
    path = write(tmp_path, COLLIDES)
    assert cli.main(["validate", "--scenario", path]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "1 explicit" in out


def test_validate_rejects_missing_fields(tmp_path, capsys):
    bad = {"schema_version": 1, "name": "nope", "mode": "baseline"}
    path = write(tmp_path, bad)
    assert cli.main(["validate", "--scenario", path]) == 64
    assert capsys.readouterr().err  # problems land on stderr


def test_validate_rejects_unknown_mode(tmp_path):
    data = dict(REACHES, mode="hybrid")
    path = write(tmp_path, data)
    assert cli.main(["validate", "--scenario", path]) == 64


def test_run_rejects_invalid_scenario(tmp_path):
    data = dict(REACHES)
    del data["schema_version"]
    path = write(tmp_path, data)
    assert cli.main(["run", "--scenario", path,
                     "--out", str(tmp_path / "o")]) == 64


def test_missing_file_reported(tmp_path, capsys):
    assert cli.main(["validate", "--scenario",
                     str(tmp_path / "absent.yaml")]) == 64
    assert capsys.readouterr().err


def test_unplaceable_random_field_rejected_by_every_subcommand(tmp_path, capsys):
    data = dict(REACHES, random_obstacles={"count": 5, "radius": [1, 2],
                                           "keepout": 200})
    path = write(tmp_path, data)
    for argv in (["validate"], ["run", "--out", str(tmp_path / "o")],
                 ["compare", "--out", str(tmp_path / "c")]):
        assert cli.main(argv + ["--scenario", path]) == 64
        err = capsys.readouterr().err
        assert "random_obstacles: no room" in err
        assert "Traceback" not in err
    assert not (tmp_path / "o").exists() and not (tmp_path / "c").exists()


def test_non_finite_numbers_rejected_by_validate_and_run(tmp_path, capsys):
    for bad in ({"glider": {"max_depth": math.nan}}, {"seed": math.inf}):
        path = write(tmp_path, dict(REACHES, **bad))
        for argv in (["validate"], ["run", "--out", str(tmp_path / "o")]):
            assert cli.main(argv + ["--scenario", path]) == 64
            err = capsys.readouterr().err
            assert "expected a finite number" in err
            assert "Traceback" not in err
    assert not (tmp_path / "o").exists()
