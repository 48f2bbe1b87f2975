"""Timing and tracing hooks installed into mppf from outside.

A hook replaces a layer's public function wherever an mppf module has
bound it (`harness` imports `visible_obstacles` by name, `potentials`
calls `_kernels.total_potential_grid` through the package), so no file of
the program changes.

Untraced rounds install only the two decision hooks: the first sensing
call of a step starts the decision clock and the move call stops it. Just
before the clock starts, the sensing hook takes a host speed sample when
one is due (see speed.py). Traced rounds also record one span (name, start,
end, parent, mission) per call of every function in SPANS, plus a few
counts taken from the calls' arguments; the decision hooks sit outside
those spans. Work the benchmark itself does inside a mission (checking a
decision, sampling the host's speed) is recorded as a `bench.check` or
`bench.speed` span so that it can be taken out of the program's figures.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

import checks
from speed import HostSpeed

SENSE = ("mppf.environment", "visible_obstacles")
MOVES = (("mppf.environment", "step_kinematics"), ("mppf.escape", "escape_step"))

# (module, function); the span is named after the module's last part
SPANS = (
    ("mppf.scenario", "load_scenario"),
    ("mppf.scenario", "materialize_obstacles"),
    ("mppf.harness", "run_scenario"),
    ("mppf.harness", "emit_outputs"),
    ("mppf.environment", "visible_obstacles"),
    ("mppf.environment", "surface_points"),
    ("mppf.environment", "advance_world"),
    ("mppf.environment", "glider_clearance"),
    ("mppf.environment", "step_kinematics"),
    ("mppf.geometry", "build_sample_surface"),
    ("mppf.potentials", "select_goto"),
    ("mppf.potentials", "grid_potentials"),
    ("mppf._kernels", "total_potential_grid"),
    ("mppf.escape", "obstacles_in_critical_zone"),
    ("mppf.escape", "start_escape"),
    ("mppf.escape", "escape_step"),
    ("mppf.sawtooth", "advance"),
    ("mppf.sawtooth", "active_segment"),
    ("mppf.sawtooth", "cross_track_distance"),
    ("mppf.sawtooth", "replan_from"),
)
CHECK_SPAN = "bench.check"
SPEED_SPAN = "bench.speed"


def span_name(module: str, func: str) -> str:
    return f"{module.rsplit('.', 1)[-1].lstrip('_')}.{func}"


class Probe:
    """Decision timer, call counter and span recorder for one process."""

    def __init__(self, speed: HostSpeed):
        self.speed = speed
        self.traced = False
        self.spans: list = []  # (name, start_ns, end_ns, parent, mission)
        self.counts: Counter = Counter()
        self.mission = -1
        self._stack: list[int] = []
        self._undo: list = []
        self.begin_mission()

    def begin_mission(self) -> tuple:
        """Start a mission's records; returns the mark `rollback` takes."""
        self.mission += 1
        # one per step, so kept compact: when each decision started, and
        # its wall time
        self.decide_t0 = array("q")
        self.decide_ns = array("q")
        self.senses = 0
        self.moves = 0
        self.problems: list[str] = []
        self._sense_t0 = None
        return len(self.spans), Counter(self.counts)

    def rollback(self, mark: tuple) -> None:
        """Forget the spans and counts recorded since `mark`."""
        spans, counts = mark
        del self.spans[spans:]
        self.counts.clear()
        self.counts.update(counts)

    # ------------------------------------------------------------ installing

    def install(self, traced: bool) -> None:
        """Hook the loaded mppf modules; `remove` undoes it."""
        self.traced = traced
        targets = {SENSE, *MOVES} | (set(SPANS) if traced else set())
        wrappers = []  # (original, wrapper)
        for mod, func in targets:
            orig = w = getattr(sys.modules[mod], func)
            if traced:
                w = self._span(span_name(mod, func), w, self._after(func, orig))
            if (mod, func) == SENSE:
                w = self._sense_hook(w)
            if (mod, func) in MOVES:
                w = self._move_hook(w)
            wrappers.append((orig, w))
        for name, m in list(sys.modules.items()):
            if name != "mppf" and not name.startswith("mppf."):
                continue
            for attr, value in list(vars(m).items()):
                for orig, w in wrappers:
                    if value is orig:
                        self._undo.append((m, attr, value))
                        setattr(m, attr, w)

    def remove(self) -> None:
        for m, attr, value in reversed(self._undo):
            setattr(m, attr, value)
        self._undo.clear()
        self.traced = False

    def sample_speed(self, due_only: bool = False) -> None:
        """A host speed sample; in traced rounds, also a span."""
        speed = self.speed
        n = len(speed.ends)
        if due_only:
            speed.sample_if_due()
        else:
            speed.sample()
        if self.traced and len(speed.ends) > n:
            self.spans.append((SPEED_SPAN, speed.starts[-1], speed.ends[-1],
                               self._stack[-1] if self._stack else -1,
                               self.mission))

    # ----------------------------------------------------------------- hooks

    def _sense_hook(self, fn):
        def sense(*args, **kwargs):
            if self._sense_t0 is None:
                self.sample_speed(due_only=True)
                self._sense_t0 = perf_counter_ns()
            self.senses += 1
            return fn(*args, **kwargs)
        return sense

    def _move_hook(self, fn):
        def move(*args, **kwargs):
            t0 = self._sense_t0
            if t0 is not None:
                self.decide_ns.append(perf_counter_ns() - t0)
                self.decide_t0.append(t0)
                self._sense_t0 = None
            out = fn(*args, **kwargs)
            self.moves += 1
            return out
        return move

    def _span(self, name, fn, after):
        spans, stack = self.spans, self._stack

        def span(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.mission)
            if after is not None:
                after(args, kwargs, out)
            return out
        return span

    def _after(self, func, orig):
        """Counter or check run after a traced call, outside its span."""
        c = self.counts
        if func == "visible_obstacles":
            def after(args, kwargs, out):
                c["scanned"] += len(args[0].obstacles)
        elif func == "surface_points":
            def after(args, kwargs, out):
                c["tracked"] += len(args[1])
                c["points"] += len(out)
        elif func == "total_potential_grid":
            def after(args, kwargs, out):
                c["pairs"] += args[0] * args[6]
        elif func == "select_goto":
            sig = inspect.signature(orig)

            def after(args, kwargs, out):
                self._check_decision(sig, args, kwargs, out)
        else:
            after = None
        return after

    def _check_decision(self, sig, args, kwargs, cmd) -> None:
        """Recompute the 25 candidates' potentials; see checks.check_decision."""
        t0 = perf_counter_ns()
        parent = self._stack[-1] if self._stack else -1
        a = sig.bind(*args, **kwargs).arguments
        cands = [((c.position.x, c.position.y, c.position.z), c.psi, c.theta,
                  c.speed) for c in a["surface"].candidates]
        points = [((p.position.x, p.position.y, p.position.z),
                   (p.velocity.x, p.velocity.y, p.velocity.z), p.influence)
                  for p in a["points"]]
        g, f, prm = a["goal"], a["flow"], a["params"]
        gains = checks.Gains(prm.xi, prm.eta, prm.tau, prm.kappa,
                             prm.flow_align_max)
        self.problems += checks.check_decision(
            cands, (g.x, g.y, g.z), points, (f.x, f.y, f.z), gains,
            a["mode"] == "advanced", a["max_depth"],
            (cmd.target.x, cmd.target.y, cmd.target.z), cmd.potential)
        self.counts["useful_pairs"] += checks.useful_pairs(cands, points)
        self.spans.append((CHECK_SPAN, t0, perf_counter_ns(), parent,
                           self.mission))
