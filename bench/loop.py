"""One closed-loop pass through rownav's public entry points, with spans.

A pass is run_scenario on a generated world, then compute_report. The
loop is closed with a single client: run_scenario renders, perceives,
supervises and steps one tick at a time, and each tick waits for the one
before it. Spans are recorded from here, by wrapping the public functions
of each layer for the length of the pass and restoring them afterwards.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from dataclasses import dataclass, field


class Tracer:
    """Wraps functions held by modules or classes; each call records a span.

    A span is (name, start, end, parent index or -1, tick id). The tick id
    advances whenever a span named tick_starts opens, which must be the
    first wrapped call of every tick. Leaving the with-block restores the
    original functions.
    """

    def __init__(self, tick_starts: str):
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._tick = -1
        self._tick_starts = tick_starts
        self._restore: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace owner.attr; observe(args, result) runs after the span closes."""
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if name == self._tick_starts:
                self._tick += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._tick)
            if observe is not None:
                observe(args, result)
            return result

        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


@dataclass
class PassRecord:
    log: object                     # rownav.sim.RunLog
    report: object                  # rownav.metrics.MetricsReport
    wall_s: float                   # run_scenario only, render included
    spans: list[tuple]
    perceptions: list = field(default_factory=list)   # process() result per tick
    plans: dict = field(default_factory=dict)         # tick -> CONVERGED plan
    counts: Counter = field(default_factory=Counter)

    def call_seconds(self, name: str) -> list[float]:
        """Duration of every call of one wrapped function, in call order."""
        return [end - start for n, start, end, _, _ in self.spans if n == name]


# The two calls that make up a tick's robot-side latency; timed in every run.
ROBOT_SPANS = ("pipeline.process", "supervisor.tick")


def run_pass(rownav, cfg, world, traced: bool) -> PassRecord:
    """Run the workload once. Untraced, only the two robot-side calls are
    wrapped; traced, every layer function the README lists is wrapped too."""
    from rownav import metrics, nmpc, pipeline, sim
    from rownav.supervisor import MissionSupervisor

    perceptions: list = []
    plans: dict = {}
    counts: Counter = Counter()

    def on_process(args, result):
        perceptions.append(result)
        if traced:
            counts["points_in"] += len(args[0])
            counts["ok_frames"] += result.ok

    def on_tick(args, result):
        if result[1].solver_status is nmpc.SolverStatus.CONVERGED:
            plans[len(perceptions) - 1] = args[0].nmpc.last_sequence

    def add_count(key):
        return lambda args, result: counts.update({key: len(result)})

    def on_minimize(args, result):
        counts.update(nit=int(result.nit), nfev=int(result.nfev))

    tracer = Tracer("sim.render" if traced else "pipeline.process")
    with tracer:
        tracer.wrap(sim, "process", "pipeline.process", on_process)
        tracer.wrap(MissionSupervisor, "tick", "supervisor.tick", on_tick)
        if traced:
            tracer.wrap(sim, "render_cloud", "sim.render")
            tracer.wrap(sim, "step_rover", "sim.step")
            tracer.wrap(pipeline, "voxel_downsample", "pipeline.voxel",
                        add_count("points_voxel"))
            tracer.wrap(pipeline, "knn_outlier_filter", "pipeline.knn",
                        add_count("points_knn"))
            tracer.wrap(pipeline, "project_to_grid", "pipeline.project")
            tracer.wrap(pipeline, "shadow_fill", "pipeline.shadow_fill")
            tracer.wrap(pipeline, "extract_border_samples", "pipeline.borders")
            tracer.wrap(pipeline, "fit_border_line", "pipeline.fit")
            tracer.wrap(nmpc, "solve", "nmpc.solve")
            tracer.wrap(nmpc, "minimize", "nmpc.minimize", on_minimize)
            tracer.wrap(metrics, "compute_report", "metrics.report")

        start = rownav.pose_from(cfg.start.x, cfg.start.y, cfg.start.theta)
        t0 = time.perf_counter()
        log = sim.run_scenario(world, start, cfg.camera, cfg.pipeline, cfg.nmpc,
                               cfg.fallback, cfg.targets, cfg.max_ticks)
        wall = time.perf_counter() - t0
        report = metrics.compute_report(log, world.centerline, cfg.span,
                                        cfg.desired_offset)
    return PassRecord(log, report, wall, tracer.spans, perceptions, plans, counts)


def log_digest(log) -> str:
    """Hash of every pose, command, mode, status and note, bit for bit."""
    h = hashlib.sha256()
    for rec in log.records:
        p, c = rec.pose, rec.command
        h.update(" ".join(float(v).hex() for v in
                          (rec.t, p.x1, p.x2, p.x3, p.x4, c.v, c.omega)).encode())
        solver = rec.solver_status.value if rec.solver_status else "-"
        h.update(f"|{rec.mode.value}|{rec.perception_status.value}|{solver}"
                 f"|{rec.note}\n".encode())
    h.update(f"completed={log.completed} collision={log.collision}".encode())
    return h.hexdigest()
