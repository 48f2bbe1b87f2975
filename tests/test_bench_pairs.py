"""The summary arithmetic of `tools/bench_pairs.py`, on canned pair results,
and its refusal of too few pairs.

No benchmark runs here: each pair is the JSON a run of
`missionbench/run.py --workload all` prints, cut down to two metrics.
"""

import importlib.util
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"steps_per_s": "higher", "decide_ms.p50": "lower"}


def run(steps, p50, attempted=100, failed=0, correct=True):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {"traffic.steps_per_s": {"value": steps, "unit": "1/s"},
                        "traffic.decide_ms.p50": {"value": p50, "unit": "ms"},
                        "traffic.environment.advance_world.us_per_step":
                            {"value": 9.0, "unit": "us"}}}


def pairs(parent, change):
    return [{"seed": k + 1, "first": "parent" if k % 2 == 0 else "change",
             "parent": p, "parent_wall": [], "change": c, "change_wall": []}
            for k, (p, c) in enumerate(zip(parent, change))]


def test_summary_takes_medians_inclusive_quartiles_and_wins():
    steps_p = [100.0, 104.0, 98.0, 101.0, 103.0, 99.0, 102.0, 97.0, 105.0, 100.0]
    steps_c = [110.0, 104.0, 108.0, 111.0, 96.0, 109.0, 112.0, 107.0, 113.0, 106.0]
    p50_p = [0.040, 0.041, 0.039, 0.040, 0.042, 0.038, 0.040, 0.041, 0.039, 0.040]
    p50_c = [0.036, 0.037, 0.039, 0.035, 0.036, 0.043, 0.036, 0.035, 0.037, 0.036]
    got = bench_pairs.summarize(
        pairs([run(s, d) for s, d in zip(steps_p, p50_p)],
              [run(s, d) for s, d in zip(steps_c, p50_c)]), BETTER)
    assert list(got) == ["traffic"] and list(got["traffic"]) == list(BETTER)
    steps = got["traffic"]["steps_per_s"]
    # sorted parent: 97 98 99 100 100 101 102 103 104 105; inclusive
    # quartiles sit at positions 2.25 and 6.75 (from 0)
    assert steps == {
        "better": "higher", "parent_median": 100.5, "change_median": 108.5,
        "change_vs_parent": round(108.5 / 100.5 - 1.0, 4),
        "parent_quartiles": [99.25, 102.75], "change_quartiles": [106.25, 110.75],
        "parent_iqr": 3.5, "change_iqr": 4.5,
        # pair 2 ties (104 = 104) and counts for neither; pair 5 is lost
        "change_wins": 8, "pairs": 10}
    p50 = got["traffic"]["decide_ms.p50"]
    assert p50["better"] == "lower"
    assert p50["parent_median"] == round(statistics.median(p50_p), 6) == 0.04
    assert p50["change_median"] == 0.036
    assert p50["change_vs_parent"] == -0.1
    # lower wins: pair 3 ties at 0.039, pair 6 is lost
    assert p50["change_wins"] == 8
    q = statistics.quantiles(p50_c, n=4, method="inclusive")
    assert p50["change_quartiles"] == [round(q[0], 6), round(q[2], 6)]
    assert p50["change_iqr"] == round(q[2] - q[0], 6)


def test_missions_sum_attempts_and_failures_over_the_pairs():
    got = bench_pairs.missions(pairs(
        [run(1.0, 1.0, 100, 0), run(1.0, 1.0, 90, 1)],
        [run(1.0, 1.0, 120, 0, correct=False), run(1.0, 1.0, 80, 0)]))
    assert got == {"attempted": {"parent": 190, "change": 200},
                   "failed": {"parent": 1, "change": 0},
                   "correct": {"parent": True, "change": False}}


def test_per_layer_lists_each_traced_pair():
    traced = pairs([run(1.0, 1.0)], [run(2.0, 0.5)])
    got = bench_pairs.per_layer(traced)
    assert got["traffic.environment.advance_world.us_per_step"] == {
        "parent": [9.0], "change": [9.0]}
    assert got["traffic.steps_per_s"] == {"parent": [1.0], "change": [2.0]}


def test_one_pair_is_refused_before_anything_runs(monkeypatch, tmp_path, capsys):
    """statistics.quantiles raises for a single value, so one pair would
    run every benchmark and then write nothing: it is refused first."""
    calls = []
    monkeypatch.setattr(bench_pairs.subprocess, "run",
                        lambda *a, **k: calls.append(a))
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["HEAD~1", "1", str(out)])
    assert exit_.value.code == 2
    assert "pairs must be at least 2" in capsys.readouterr().err
    assert calls == [] and not out.exists()
