"""Command line front end: run, compare, validate.

Exit codes for `run` (and `compare`, from its advanced-mode run):
0 reached, 2 collision, 3 trapped, 4 step budget exhausted. Usage errors,
scenario validation problems, a `--max-steps` below 1, a negative
`--seed` and outputs that cannot be written exit 64.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from mppf.errors import ScenarioError
from mppf.harness import (EXIT_CODES, compare_modes, dump_yaml, emit_outputs,
                           run_scenario, summary_dict)
from mppf.potentials import MODES
from mppf.scenario import load_scenario, materialize_obstacles

EXIT_INVALID = 64


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one line and exits 64, since 2 is the
    collision code; the subcommand parsers inherit it."""

    def error(self, message):
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser, with_mode: bool) -> None:
    p.add_argument("--scenario", required=True, help="scenario YAML file")
    if with_mode:
        p.add_argument("--mode", choices=MODES,
                       help="override the scenario's planner mode")
    p.add_argument("--seed", type=int, help="override the scenario seed")
    p.add_argument("--out", help="output directory (default runs/<name>...)")
    p.add_argument("--max-steps", type=int, dest="max_steps",
                   help="override the step budget")


def _invalid(path: str, e: ScenarioError) -> int:
    print(f"invalid scenario {path}:", file=sys.stderr)
    for problem in e.problems:
        print(f"  - {problem}", file=sys.stderr)
    return EXIT_INVALID


def _cannot(verb: str, path, e: OSError) -> int:
    print(f"cannot {verb} {path}: {e}", file=sys.stderr)
    return EXIT_INVALID


def _load(path: str):
    """Parse and check the file. Its obstacles are placed later, once per
    run, so an unplaceable random field surfaces from `run_scenario`."""
    try:
        return load_scenario(path)
    except ScenarioError as e:
        _invalid(path, e)
    except OSError as e:
        _cannot("read", path, e)
    return None


def _print_summary(label: str, summary: dict) -> None:
    print(f"[{label}] status={summary['status']} "
          f"time_cost={summary['time_cost']:.1f}s "
          f"drift={summary['drift']:.3f}m "
          f"min_clearance={summary['min_clearance']:.3f}m "
          f"replans={summary['replans']} escapes={summary['escapes']}")


def cmd_run(args) -> int:
    sc = _load(args.scenario)
    if sc is None:
        return EXIT_INVALID
    try:
        result = run_scenario(sc, mode=args.mode, seed=args.seed,
                              max_steps=args.max_steps)
    except ScenarioError as e:
        return _invalid(args.scenario, e)
    mode = args.mode or sc.mode
    seed = sc.seed if args.seed is None else args.seed
    out = args.out or f"runs/{sc.name}-{mode}-seed{seed}"
    try:
        paths = emit_outputs(result, sc, out)
    except OSError as e:
        return _cannot("write", out, e)
    _print_summary(f"{sc.name}:{mode}", summary_dict(result, sc))
    for name, path in paths.items():
        print(f"  {name}: {path}")
    return EXIT_CODES[result.status]


def cmd_compare(args) -> int:
    sc = _load(args.scenario)
    if sc is None:
        return EXIT_INVALID
    try:
        cmp = compare_modes(sc, seed=args.seed, max_steps=args.max_steps)
    except ScenarioError as e:
        return _invalid(args.scenario, e)
    seed = sc.seed if args.seed is None else args.seed
    out = Path(args.out or f"runs/{sc.name}-compare-seed{seed}")
    deltas = {"d_time_cost": cmp.d_time_cost, "d_drift": cmp.d_drift,
              "baseline_status": cmp.baseline.status,
              "advanced_status": cmp.advanced.status}
    try:
        emit_outputs(cmp.baseline, sc, out / "baseline")
        emit_outputs(cmp.advanced, sc, out / "advanced")
        (out / "compare.yaml").write_text(dump_yaml(deltas))
    except OSError as e:
        return _cannot("write", out, e)
    _print_summary("baseline", summary_dict(cmp.baseline, sc))
    _print_summary("advanced", summary_dict(cmp.advanced, sc))
    print(f"advanced - baseline: time {cmp.d_time_cost:+.1f}s, "
          f"drift {cmp.d_drift:+.3f}m")
    print(f"  compare: {out / 'compare.yaml'}")
    return EXIT_CODES[cmp.advanced.status]


def cmd_validate(args) -> int:
    sc = _load(args.scenario)
    if sc is None:
        return EXIT_INVALID
    try:
        materialize_obstacles(sc, sc.seed)
    except ScenarioError as e:
        return _invalid(args.scenario, e)
    n_explicit = len(sc.obstacles)
    n_random = sc.random_obstacles.count if sc.random_obstacles else 0
    print(f"{args.scenario}: ok ({sc.name}, mode={sc.mode}, "
          f"{n_explicit} explicit + {n_random} random obstacles)")
    return 0


def main(argv=None) -> int:
    parser = _Parser(
        prog="mppf",
        description="Underwater glider path planning simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    _add_common(p_run, with_mode=True)
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare",
                           help="run baseline and advanced on the same world")
    _add_common(p_cmp, with_mode=False)
    p_cmp.set_defaults(func=cmd_compare)

    p_val = sub.add_parser("validate", help="lint a scenario file")
    p_val.add_argument("--scenario", required=True)
    p_val.set_defaults(func=cmd_validate)

    args = parser.parse_args(argv)
    if getattr(args, "max_steps", None) is not None and args.max_steps <= 0:
        print(f"--max-steps: must be positive, got {args.max_steps}",
              file=sys.stderr)
        return EXIT_INVALID
    if getattr(args, "seed", None) is not None and args.seed < 0:
        print(f"--seed: must be non-negative, got {args.seed}", file=sys.stderr)
        return EXIT_INVALID
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
