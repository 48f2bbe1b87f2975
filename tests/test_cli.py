"""Command-line entry points and their exit codes."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from mppf import cli, harness, scenario

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


def test_run_trapped_exit_three(tmp_path, traps):
    path = write(tmp_path, traps)
    assert cli.main(["run", "--scenario", path,
                     "--out", str(tmp_path / "o")]) == 3


def test_run_budget_exhausted_exit_four(tmp_path):
    path = write(tmp_path, REACHES)
    assert cli.main(["run", "--scenario", path, "--max-steps", "5",
                     "--out", str(tmp_path / "o")]) == 4


def test_non_positive_max_steps_rejected_by_run_and_compare(tmp_path, capsys):
    path = write(tmp_path, REACHES)
    for steps in ("0", "-3"):
        for argv in (["run", "--out", str(tmp_path / "o")],
                     ["compare", "--out", str(tmp_path / "c")]):
            assert cli.main(argv + ["--scenario", path, "--max-steps", steps]) == 64
            err = capsys.readouterr().err
            assert err == f"--max-steps: must be positive, got {steps}\n"
    assert not (tmp_path / "o").exists() and not (tmp_path / "c").exists()


def test_negative_seed_rejected_by_run_and_compare(tmp_path, capsys):
    # random.Random(-3) seeds like Random(3), so -3 would run seed 3's field
    # under the label -3
    path = write(tmp_path, REACHES)
    for argv in (["run", "--out", str(tmp_path / "o")],
                 ["compare", "--out", str(tmp_path / "c")]):
        assert cli.main(argv + ["--scenario", path, "--seed", "-3"]) == 64
        assert capsys.readouterr().err == "--seed: must be non-negative, got -3\n"
    assert not (tmp_path / "o").exists() and not (tmp_path / "c").exists()


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


def test_usage_errors_exit_64_in_one_line(tmp_path, capsys):
    # argparse's own exit 2 would read as a collision
    path = write(tmp_path, REACHES)
    for prog, argv in (
            ("mppf run", ["run", "--scenario", path, "--seed", "abc"]),
            ("mppf run", ["run"]),
            ("mppf compare", ["compare", "--scenario", path, "--max-steps", "x"]),
            ("mppf validate", ["validate"]),
            ("mppf", ["validate", "--scenario", path, "--mode", "advanced"]),
            ("mppf", [])):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 64, argv
        err = capsys.readouterr().err
        assert err.startswith(f"{prog}: error: ") and err.count("\n") == 1, err
    with pytest.raises(SystemExit) as e:
        cli.main(["run", "-h"])
    assert e.value.code == 0
    assert "--scenario" in capsys.readouterr().out


def test_non_utf8_scenario_rejected_by_every_subcommand(tmp_path, capsys):
    path = tmp_path / "cafe.yaml"
    path.write_bytes(yaml.safe_dump(REACHES).encode() + b"name: caf\xe9\n")
    for argv in (["validate"], ["run", "--out", str(tmp_path / "o")],
                 ["compare", "--out", str(tmp_path / "c")]):
        assert cli.main(argv + ["--scenario", str(path)]) == 64
        err = capsys.readouterr().err.splitlines()
        assert err[0] == f"invalid scenario {path}:"
        assert len(err) == 2 and "not parseable as YAML" in err[1], err
    assert not (tmp_path / "o").exists() and not (tmp_path / "c").exists()


def test_deeply_nested_yaml_rejected_by_every_subcommand(tmp_path, capsys):
    path = tmp_path / "nested.yaml"
    path.write_text(yaml.safe_dump(REACHES)
                    + "obstacles: " + "[" * 3000 + "]" * 3000 + "\n")
    for argv in (["validate"], ["run", "--out", str(tmp_path / "o")],
                 ["compare", "--out", str(tmp_path / "c")]):
        assert cli.main(argv + ["--scenario", str(path)]) == 64
        err = capsys.readouterr().err.splitlines()
        assert err == [f"invalid scenario {path}:",
                       f"  - {path}: not parseable as YAML (nested too deeply)"]
    assert not (tmp_path / "o").exists() and not (tmp_path / "c").exists()


def test_deeply_nested_yaml_rejected_by_the_fallback_loader(tmp_path, capsys,
                                                            monkeypatch):
    # the loader that runs where PyYAML was built without libyaml
    monkeypatch.setattr(scenario, "_Loader", scenario._PureLoader)
    test_deeply_nested_yaml_rejected_by_every_subcommand(tmp_path, capsys)


@pytest.mark.parametrize("loader", [scenario._Loader, scenario._PureLoader],
                         ids=["default", "pure"])
def test_deeply_nested_schema_version_rejected(tmp_path, capsys, monkeypatch,
                                               loader):
    # parsed, it would reach the version check's repr and recurse there
    monkeypatch.setattr(scenario, "_Loader", loader)
    path = tmp_path / "nested.yaml"
    rest = {k: v for k, v in REACHES.items() if k != "schema_version"}
    path.write_text(yaml.safe_dump(rest)
                    + "schema_version: " + "[" * 3000 + "]" * 3000 + "\n")
    assert cli.main(["validate", "--scenario", str(path)]) == 64
    assert capsys.readouterr().err.splitlines() == [
        f"invalid scenario {path}:",
        f"  - {path}: not parseable as YAML (nested too deeply)"]


# In a child process, so that a composer recursing on the C stack kills
# the child with a signal instead of the test run.
CHILD = """
import sys
from mppf import cli, scenario
if sys.argv[2] == "pure":
    scenario._Loader = scenario._PureLoader
sys.exit(cli.main(["validate", "--scenario", sys.argv[1]]))
"""


@pytest.mark.parametrize("loader", ["default", "pure"])
def test_hundred_thousand_deep_yaml_exits_64_in_one_line(tmp_path, loader):
    path = tmp_path / "nested.yaml"
    path.write_text(yaml.safe_dump(REACHES)
                    + "obstacles: " + "[" * 100_000 + "]" * 100_000 + "\n")
    # src ahead of the caller's PYTHONPATH, as the tier-1 command builds it
    paths = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    child = subprocess.run([sys.executable, "-c", CHILD, str(path), loader],
                           capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 64, child.stderr[-2000:]
    assert child.stderr.splitlines() == [
        f"invalid scenario {path}:",
        f"  - {path}: not parseable as YAML (nested too deeply)"]


def test_aliased_schema_version_reported_in_one_short_line(tmp_path, capsys):
    # six levels of 9-element lists, each aliasing the one below: a file of
    # a few hundred bytes whose value would print as millions of characters
    levels = ["- &l0 [" + ", ".join(["0"] * 9) + "]"]
    for k in range(1, 6):
        levels.append(f"- &l{k} [" + ", ".join([f"*l{k - 1}"] * 9) + "]")
    rest = {k: v for k, v in REACHES.items() if k != "schema_version"}
    path = tmp_path / "aliased.yaml"
    path.write_text(yaml.safe_dump(rest) + "schema_version:\n"
                    + "\n".join(levels) + "\n")
    assert path.stat().st_size < 600
    assert cli.main(["validate", "--scenario", str(path)]) == 64
    err = capsys.readouterr().err
    assert len(err) < 1024
    assert "  - schema_version: unsupported list value\n" in err


def test_infinite_reach_runs_to_an_exit_code(tmp_path, capsys):
    # the step reach dt * speed_down, and with it the cull radius, is +inf
    data = dict(REACHES, dt=1.0e200,
                glider={"max_depth": 10.0, "speed_down": 1.0e200},
                obstacles=[{"shape": "sphere", "radius": 5.0,
                            "center": [50, 50, 5]}])
    path = write(tmp_path, data)
    assert cli.main(["validate", "--scenario", path]) == 0
    code = cli.main(["run", "--scenario", path, "--out", str(tmp_path / "o")])
    assert code in harness.EXIT_CODES.values()
    assert "Traceback" not in capsys.readouterr().err


def test_nul_in_the_name_rejected_by_every_subcommand(tmp_path, capsys,
                                                     monkeypatch):
    # without --out, run and compare would make a directory named after it
    data = {"schema_version": 1, "name": "a\0b", "start": [10, 10, 5],
            "goal": [20, 10, 5]}
    path = write(tmp_path, data, "nul.yaml")
    monkeypatch.chdir(tmp_path)
    for argv in (["validate"], ["run"], ["compare"]):
        assert cli.main(argv + ["--scenario", path]) == 64
        captured = capsys.readouterr()
        assert captured.err == (f"invalid scenario {path}:\n"
                                "  - name: must not contain a NUL character\n")
        assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "runs").exists()


def test_unwritable_out_reported_by_run_and_compare(tmp_path, capsys):
    path = write(tmp_path, REACHES)
    taken = tmp_path / "taken"
    taken.write_text("")
    for command in ("run", "compare"):
        assert cli.main([command, "--scenario", path, "--max-steps", "5",
                         "--out", str(taken)]) == 64
        captured = capsys.readouterr()
        assert captured.err.startswith(f"cannot write {taken}: ")
        assert captured.err.count("\n") == 1 and captured.out == ""


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


def test_start_inside_an_obstacle_rejected_by_every_subcommand(tmp_path, capsys):
    data = dict(REACHES, obstacles=[{"shape": "sphere", "radius": 1.0e308,
                                     "center": [50, 50, 5]}])
    path = write(tmp_path, data)
    for argv in (["validate"], ["run", "--out", str(tmp_path / "o")],
                 ["compare", "--out", str(tmp_path / "c")]):
        assert cli.main(argv + ["--scenario", path]) == 64
        captured = capsys.readouterr()
        assert captured.err == (f"invalid scenario {path}:\n"
                                "  - start: the hull touches obstacles[0]\n")
        assert captured.out == ""
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


def test_run_and_compare_materialize_once_per_mission(tmp_path, monkeypatch):
    # count through both bindings: the CLI's own and the one run_scenario calls
    calls = []
    place = scenario.materialize_obstacles

    def counted(*args):
        calls.append(args)
        return place(*args)

    for module in (cli, harness):
        monkeypatch.setattr(module, "materialize_obstacles", counted)
    path = write(tmp_path, COLLIDES)
    for argv, want in ((["run", "--out", str(tmp_path / "o")], 1),
                       (["compare", "--out", str(tmp_path / "c")], 2)):
        calls.clear()
        cli.main(argv + ["--scenario", path, "--max-steps", "5"])
        assert len(calls) == want, argv[0]


@pytest.mark.parametrize("name", ["../../escaped", "..\\..\\escaped", "runs/nested"])
def test_path_separator_in_the_name_rejected_by_every_subcommand(
        tmp_path, capsys, monkeypatch, name):
    # run and compare would write to runs/<name>-..., which "../../escaped"
    # takes two levels above runs/: here to tmp_path, outside the cwd
    data = {"schema_version": 1, "name": name, "start": [10, 10, 5],
            "goal": [20, 10, 5]}
    path = write(tmp_path, data, "sep.yaml")
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    for argv in (["validate"], ["run"], ["compare"]):
        assert cli.main(argv + ["--scenario", path]) == 64
        captured = capsys.readouterr()
        assert captured.err == (f"invalid scenario {path}:\n"
                                "  - name: must not contain a path separator\n")
        assert "Traceback" not in captured.err and captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sep.yaml", "work"]
    assert not any(work.iterdir())
