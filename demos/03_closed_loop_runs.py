#!/usr/bin/env python3
"""Run the bundled scenarios closed-loop and print their metric reports.

Covers the straight and curved rows, the half-lane pergola, the blocked
lane, the misaligned start and the target approach. The six runs take
about 8 s in all on a 2-vCPU x86-64 machine.
"""

import math
import time

from rownav.cli import execute_scenario, resolve_config_path
from rownav.config import load_scenario
from rownav.supervisor import Mode

SCENARIOS = ["sim_straight", "sim_curved", "sim_half_lane",
             "sim_obstacle", "sim_misaligned", "sim_target"]

for name in SCENARIOS:
    cfg = load_scenario(resolve_config_path(name))
    t0 = time.monotonic()
    log, report = execute_scenario(cfg)
    wall = time.monotonic() - t0
    modes = [r.mode for r in log.records]
    print(f"== {name} ({len(log.records)} ticks, {wall:.0f} s wall)")
    print(f"   completed={log.completed} collisions={log.collisions} "
          f"realign_ticks={modes.count(Mode.FALLBACK_REALIGN)} "
          f"approach_ticks={modes.count(Mode.TARGET_APPROACH)}")
    if report is not None:
        print(f"   clearance={report.clearance_time:.1f} s  "
              f"v_avg={report.v_avg:.3f} m/s  mae={report.mae:.3f} m  "
              f"omega_std={report.omega_std:.3f} rad/s  "
              f"heading_std={report.gamma_std:.3f} rad")
    for tgt in cfg.world.extra_obstacles:
        d = min(math.hypot(r.pose.x1 - tgt.x, r.pose.x2 - tgt.y)
                for r in log.records)
        print(f"   closest pass to the obstacle at ({tgt.x}, {tgt.y}): {d:.2f} m")
    print()
