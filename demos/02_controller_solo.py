#!/usr/bin/env python3
"""Exercise the receding-horizon controller on hand-built corridors.

No simulator here: lanes and obstacles are constructed directly so the
solver's behavior is easy to read off. Four situations: centered cruise,
off-center correction, and a post in the middle of the lane, once exactly
on the rover's axis and once 2 cm off it.
"""

from rownav.core import BorderLine, ControlInput, pose_from
from rownav.nmpc import NmpcConfig, solve
from rownav.pipeline import LaneModel

cfg = NmpcConfig()
print(f"horizon: {cfg.horizon_n} steps x {cfg.dt} s, "
      f"bounds v<={cfg.v_max} m/s, |omega|<={cfg.omega_max} rad/s\n")


def show(title, seq):
    print(title)
    print(f"  status={seq.status.value} cost={seq.cost:+.3f} "
          f"violation={seq.max_constraint_violation:.1e}")
    for u, s in zip(seq.inputs, seq.predicted_states[1:]):
        print(f"  u=({u.v:+.2f} m/s, {u.omega:+.2f} rad/s)"
              f"  ->  ({s.x1:+.2f}, {s.x2:+.2f})")
    print()


narrow = LaneModel(BorderLine(0.0, 0.75, "left"),
                   BorderLine(0.0, -0.75, "right"), 0.3)

show("centered and aligned: full speed ahead",
     solve(pose_from(0, 0, 0), narrow, [], ControlInput(0, 0), cfg))

show("0.3 m left of center: steer back right",
     solve(pose_from(0, 0.3, 0), narrow, [], ControlInput(0, 0), cfg))

wide = LaneModel(BorderLine(0.0, 1.25, "left"),
                 BorderLine(0.0, -1.25, "right"), 0.3)
show("post at (1.2, 0) on the axis of a symmetric lane: the plan is the stop\n"
     "  (a mirror-symmetric problem has no gradient in omega, so no run turns)",
     solve(pose_from(0, 0, 0), wide, [(1.2, 0.0)], ControlInput(0.4, 0), cfg))

show("post at (1.2, 0.02), 2 cm off the axis: the plan bends around it",
     solve(pose_from(0, 0, 0), wide, [(1.2, 0.02)], ControlInput(0.4, 0), cfg))
