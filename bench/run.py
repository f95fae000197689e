"""Closed-loop tick benchmark for rownav.

    python3 bench/run.py --workload row_obstacle --seed 1 --seconds 55 --trace 0

Runs whole passes of one workload (a full row traversal through
load_scenario -> generate_world -> run_scenario -> compute_report) for
about --seconds, and at least MIN_PASSES passes, checks every pass
against computations made apart from rownav (checks.py), and prints
every metric by name and unit. The last line of standard output is one
JSON object: correct, attempted and failed ticks, and the metrics,
end-to-end ones with --trace 0 and per-layer ones with --trace 1. The
traced run alternates untraced and traced passes, so the two logs can be
compared and the tracing overhead measured, and writes its spans to
bench/out/. The exit code is 1 when a check fails. See README.md for
what each metric means.
"""

from __future__ import annotations

import os

# One thread of work: keep BLAS/OpenMP pools from spreading numpy calls over
# the host's cores (set before numpy loads; setup probes inherit it).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402

from checks import check_lanes, check_pass  # noqa: E402
from loop import ROBOT_SPANS, log_digest, run_pass  # noqa: E402
from workloads import (BENCH, ROOT, WORKLOADS, WORLD_CHOICES, import_rownav,  # noqa: E402
                       load_workload)

MIN_PASSES = 2       # passes in every run, traced ones included
MIN_TAIL_SAMPLES = 40
# Fresh interpreters timed before the first pass; one more follows every
# round of passes, so they sample the whole run. setup_s is their median.
SETUP_FIRST = 3


def tail(values, per_pass: int | None = None) -> float:
    """The highest whole percentile with at least ten of a pass's
    `per_pass` samples above it (nearest rank): p88 of 86 ticks, p90 of
    105. It is taken over `values`, the samples of every pass pooled, so
    it names the same percentile however many passes a run holds."""
    n = per_pass or len(values)
    if n < MIN_TAIL_SAMPLES:
        raise ValueError(f"a tail needs {MIN_TAIL_SAMPLES} samples, got {n}")
    percentile = math.floor(100 * (1 - 10 / n))
    return sorted(values)[math.ceil(percentile * len(values) / 100) - 1]


def tick_latencies(passes) -> list[float]:
    """Every tick's robot-side latency, process plus MissionSupervisor.tick,
    as measured, over all the passes."""
    return [sum(calls) for p in passes
            for calls in zip(*(p.call_seconds(name) for name in ROBOT_SPANS))]


def measure_setup(args, count: int) -> list[dict]:
    """Time `count` fresh interpreters from spawn to their ready line."""
    starts = []
    for _ in range(count):
        cmd = [sys.executable, str(BENCH / "setup_probe.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--worlds", args.worlds]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or not line:
            raise SystemExit(f"setup probe failed with exit code {code}")
        starts.append(dict(json.loads(line), setup_s=ready))
    return starts


def run_schedule(rownav, cfg, world, seconds: float, trace: bool, after_round):
    """Rounds of whole passes, at least MIN_PASSES passes, and one more
    round while at least half of it still fits in `seconds`, judged by the
    round before: a run ends within about half a round of `seconds`.

    A round is one untraced pass and, with trace, one traced pass, so that
    drift in the host's speed falls on both alike. Returns both lists.
    """
    untraced, traced = [], []
    t0 = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        untraced.append(run_pass(rownav, cfg, world, traced=False))
        if trace:
            traced.append(run_pass(rownav, cfg, world, traced=True))
        after_round()
        now = time.perf_counter()
        if len(untraced) + len(traced) >= MIN_PASSES and now - t0 + (now - r0) / 2 > seconds:
            return untraced, traced


def ticks_per_s(passes) -> float:
    """Closed-loop ticks per wall second over all the passes, render
    included: run_scenario as a `rownav run` user waits on it."""
    return sum(len(p.log.records) for p in passes) / sum(p.wall_s for p in passes)


def end_to_end(passes, setup) -> dict:
    ticks = tick_latencies(passes)
    report = passes[0].report
    return {
        "tick_p50_ms": (1e3 * statistics.median(ticks), "ms"),
        "tick_tail_ms": (1e3 * tail(ticks, len(passes[0].log.records)), "ms"),
        "ticks_per_s": (ticks_per_s(passes), "1/s"),
        "setup_s": (statistics.median(s["setup_s"] for s in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "path_mae_m": (report.mae, "m"),
        "clearance_s": (report.clearance_time, "sim_s"),
    }


def span_table(passes):
    """One row per span: (pass, name, duration, self time, parent index,
    whether it lies inside a robot-side span, its own index)."""
    rows = []
    for n, p in enumerate(passes):
        child = [0.0] * len(p.spans)
        for name, start, end, parent, _ in p.spans:
            if parent >= 0:
                child[parent] += end - start
        root = []
        for i, (name, start, end, parent, _) in enumerate(p.spans):
            root.append(i if name in ROBOT_SPANS else (root[parent] if parent >= 0 else -1))
            rows.append((n, name, end - start, end - start - child[i], parent,
                         root[i] >= 0, i))
    return rows


def per_layer(traced, untraced, setup) -> tuple[dict, dict]:
    """Per-layer metrics and the self-time split of the robot-side tick."""
    rows = span_table(traced)
    n_pass = len(traced)

    def durations(name):
        return [r[2] for r in rows if r[1] == name]

    # Process time outside voxel and kNN: crop, projection, obstacle cap,
    # shadow fill, border extraction and fits.
    grid = {}
    for n, name, dur, _, parent, _, i in rows:
        if name == "pipeline.process":
            grid[(n, i)] = grid.get((n, i), 0.0) + dur
        elif name in ("pipeline.voxel", "pipeline.knn"):
            grid[(n, parent)] = grid.get((n, parent), 0.0) - dur

    frames = len(durations("pipeline.process"))
    solve = durations("nmpc.solve")
    counts = sum((p.counts for p in traced), Counter())
    tick_total = sum(r[2] for r in rows if r[1] in ROBOT_SPANS)
    share = {}
    for _, name, _, self_s, _, in_tick, _ in rows:
        if in_tick:
            share[name] = share.get(name, 0.0) + self_s / tick_total
    realign = sum(r.mode.value == "fallback_realign" for p in traced for r in p.log.records)

    def ms(values):
        return 1e3 * statistics.median(values)

    metrics = {
        "setup.import_s": (statistics.median(s["import_s"] for s in setup), "s"),
        "config.load_ms": (statistics.median(s["load_ms"] for s in setup), "ms"),
        "sim.world_ms": (statistics.median(s["world_ms"] for s in setup), "ms"),
        "sim.render_ms_p50": (ms(durations("sim.render")), "ms"),
        "pipeline.process_ms_p50": (ms(durations("pipeline.process")), "ms"),
        "pipeline.process_ms_tail": (1e3 * tail(durations("pipeline.process"),
                                                frames // n_pass), "ms"),
        "pipeline.voxel_ms_p50": (ms(durations("pipeline.voxel")), "ms"),
        "pipeline.knn_ms_p50": (ms(durations("pipeline.knn")), "ms"),
        "pipeline.grid_ms_p50": (ms(list(grid.values())), "ms"),
        "pipeline.points_in": (counts["points_in"] / frames, "count"),
        "pipeline.points_voxel": (counts["points_voxel"] / frames, "count"),
        "pipeline.points_knn": (counts["points_knn"] / frames, "count"),
        "pipeline.frames": (frames / n_pass, "count"),
        "pipeline.ok_frames": (counts["ok_frames"] / n_pass, "count"),
        "pipeline.tick_share": (sum(v for k, v in share.items()
                                    if k.startswith("pipeline.")), "ratio"),
        "pipeline.voxel_knn_tick_share": (share.get("pipeline.voxel", 0.0)
                                          + share.get("pipeline.knn", 0.0), "ratio"),
        "nmpc.solve_ms_p50": (ms(solve), "ms"),
        "nmpc.solve_ms_tail": (1e3 * tail(solve, len(solve) // n_pass), "ms"),
        "nmpc.solve_s_total": (sum(solve) / n_pass, "s"),
        "nmpc.solves": (len(solve) / n_pass, "count"),
        "nmpc.lbfgs_runs": (len(durations("nmpc.minimize")) / n_pass, "count"),
        "nmpc.lbfgs_runs_per_solve": (len(durations("nmpc.minimize")) / len(solve), "ratio"),
        "nmpc.nit_total": (counts["nit"] / n_pass, "count"),
        "nmpc.nfev_total": (counts["nfev"] / n_pass, "count"),
        "nmpc.nfev_per_nit": (counts["nfev"] / counts["nit"], "ratio"),
        "nmpc.eval_us": (1e6 * sum(solve) / counts["nfev"], "us"),
        "nmpc.tick_share": (share.get("nmpc.solve", 0.0) + share.get("nmpc.minimize", 0.0),
                            "ratio"),
        "supervisor.self_ms_p50": (ms([r[3] for r in rows if r[1] == "supervisor.tick"]),
                                   "ms"),
        "supervisor.realign_ticks": (realign / n_pass, "count"),
        "metrics.report_ms": (ms(durations("metrics.report")), "ms"),
        "trace.overhead_ratio": (sum(tick_latencies(untraced)) / sum(tick_latencies(traced)),
                                 "ratio"),
    }
    return metrics, share


def write_spans(path, passes) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for n, p in enumerate(passes):
            for name, start, end, parent, tick in p.spans:
                fh.write(json.dumps({"pass": n, "tick": tick, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worlds", choices=WORLD_CHOICES, default="scenario",
                    help="scenario: the scenario file's world seed; seed: --seed")
    args = ap.parse_args(argv)

    rownav = import_rownav()
    cfg = load_workload(args.workload, args.seed, args.worlds)
    world = rownav.generate_world(cfg.world)

    setup = measure_setup(args, SETUP_FIRST)
    passes, traced = run_schedule(rownav, cfg, world, args.seconds, args.trace,
                                  lambda: setup.extend(measure_setup(args, 1)))
    runs = passes + traced

    problems = [f"pass {n}: {msg}" for n, p in enumerate(runs) for msg in check_pass(cfg, p)]
    if len({log_digest(p.log) for p in runs}) != 1:
        problems.append("passes (traced and untraced) produced different logs")
    attempted = sum(len(p.log.records) for p in runs)
    # A tick fails when perception calls its lane OK but the lane is off
    # the true lane centre; the pass itself stays correct.
    failed = sum(len(check_lanes(cfg, p.log.records, p.perceptions)) for p in runs)

    if args.trace:
        metrics, share = per_layer(traced, passes, setup)
        out = BENCH / "out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        write_spans(out, traced)
        print(f"spans: {out.relative_to(ROOT)}")
        print("robot-side tick time by span self time:")
        for name, value in sorted(share.items(), key=lambda kv: -kv[1]):
            print(f"  {name:28s} {100 * value:6.2f} %")
    else:
        metrics = end_to_end(passes, setup)

    for msg in problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} worlds={args.worlds} passes={len(runs)} "
          f"attempted={attempted} failed={failed} correct={not problems}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
