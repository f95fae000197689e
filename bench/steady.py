"""Steadiness of the benchmark: run workloads repeatedly, one seed per run.

    python3 bench/steady.py --workloads row_straight row_obstacle --seeds 1-10
    python3 bench/steady.py --workloads all --seeds 11-20 --save bench/out/b.json \
        --compare bench/out/a.json

Runs the command in BENCHMARK.json once per seed and workload, one run at
a time, and prints for each end-to-end metric (per-layer with --trace 1)
its median, first and third quartile (statistics.quantiles, n=4), and the
spread (Q3 - Q1) / median next to the metric's bound. --compare prints how
far each median moved, in the worse direction, against a saved set.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return dict(json.loads(proc.stdout.strip().splitlines()[-1]),
                wall_s=time.perf_counter() - t0)


def summarize(workload: str, runs: list[dict], specs: dict, previous: list[dict] | None):
    shares = {r["failed"] / r["attempted"] for r in runs}
    walls = [r["wall_s"] for r in runs]
    print(f"\n{workload}: {len(runs)} runs, correct={all(r['correct'] for r in runs)}, "
          f"failed share {sorted(shares)} ({'same' if len(shares) == 1 else 'DIFFERS'}), "
          f"wall per run {statistics.mean(walls):.1f} s mean, {max(walls):.1f} s max")
    print(f"  {'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} "
          f"{'bound':>6s}" + (f" {'moved':>7s}" if previous else ""))
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spec = specs.get(name, {})
        bound = spec.get("bound")
        line = (f"  {name:32s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                f"{(q3 - q1) / med:7.3f} {'' if bound is None else f'{bound:6.2f}'}")
        if previous:
            old = statistics.median(r["metrics"][name]["value"] for r in previous)
            worse = (med - old) / old * (1 if spec.get("better") == "lower" else -1)
            line += f" {worse:+7.3f}"
        print(line)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+", default=["all"])
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--save", type=Path, help="write the raw runs here as JSON")
    ap.add_argument("--compare", type=Path, help="a file written by --save")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]] if args.workloads == ["all"] \
        else args.workloads
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    previous = json.loads(args.compare.read_text()) if args.compare else {}
    results = {}
    for workload in names:
        results[workload] = []
        for seed in seed_range(args.seeds):
            results[workload].append(run_once(bench, workload, seed, args.trace))
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
        summarize(workload, results[workload], specs, previous.get(workload))
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps(results, indent=1))


if __name__ == "__main__":
    main()
