"""One fresh start: import rownav, load the workload, generate its world.

run.py spawns this script several times per run and times each start
from the spawn until its one output line arrives: the JSON phase times
measured here, printed once the world is ready. Usage:

    python3 bench/setup_probe.py --workload row_straight --seed 1 --worlds scenario
"""

import argparse
import json
import time

from workloads import WORKLOADS, WORLD_CHOICES, import_rownav, load_workload


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--worlds", choices=WORLD_CHOICES, required=True)
    args = ap.parse_args()

    t_import = time.perf_counter()
    rownav = import_rownav()
    t_load = time.perf_counter()
    cfg = load_workload(args.workload, args.seed, args.worlds)
    t_world = time.perf_counter()
    rownav.generate_world(cfg.world)
    t_ready = time.perf_counter()
    print(json.dumps({"import_s": t_load - t_import,
                      "load_ms": 1e3 * (t_world - t_load),
                      "world_ms": 1e3 * (t_ready - t_world)}), flush=True)


if __name__ == "__main__":
    main()
