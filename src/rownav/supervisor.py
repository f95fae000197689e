"""Behavior coordination: row traversal, target approach, fault recovery.

An explicit finite-state machine stands in for the orchestration layer:
traversal hands commands to the receding-horizon controller, perception
faults or an infeasible solve drop into a proportional realignment spin,
a detected target switches to a point-approach law, and a debounced run
of empty views declares the end of the row and stops the rover. Every
command leaves a tick through one exit, saturated to the NMPC input box
and recorded with the controller as the applied input.

Everything the controller consumes is expressed in the current rover
frame, so traversal always queries it from the identity pose. The only
piece of cross-tick geometry is the remembered world-frame row direction
(current heading + arctan of the lane slope), which the realignment spin
steers back to. The reference is deliberately conservative: it takes two
agreeing lanes to establish, drifts at a bounded rate afterwards, and a
lane that contradicts it gets rejected outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import ControlInput, Point2, QuatPose, heading_of, pose_from, wrap_angle
from .nmpc import NmpcController, SolverStatus
from .pipeline import PerceptionResult, PerceptionStatus


class Mode(Enum):
    TRAVERSE = "traverse"
    TARGET_APPROACH = "target_approach"
    FALLBACK_REALIGN = "fallback_realign"
    END_OF_ROW = "end_of_row"
    IDLE = "idle"


# Approach completion band: the proportional law decays exponentially, so
# hitting the standoff distance exactly would take unbounded time.
APPROACH_DONE_TOL = 0.05

# The remembered row direction (rad): the rover is aligned with it within
# ALIGN_TOL, a lane implying one more than MAX_ROW_HEADING_JUMP away is
# rejected, and it drifts at most MAX_ROW_HEADING_RATE per tick.
ALIGN_TOL = 0.08
MAX_ROW_HEADING_JUMP = 0.2
MAX_ROW_HEADING_RATE = 0.03

# Realignment law: spin gain (1/s) on the heading error and linear speed
# (m/s) while spinning; spin rate (rad/s) while no row was ever seen; and
# consecutive empty views that declare the end of the row.
K_P = 1.0
V_DURING_REALIGN = 0.0
SEARCH_OMEGA = 0.2
N_EMPTY_FOR_END = 3


@dataclass
class FallbackConfig:
    creep_v: float = 0.15             # m/s while aligned but lane rejected

    def validate(self, path: str = "fallback") -> list[str]:
        if self.creep_v < 0:
            return [f"{path}.creep_v: must be >= 0"]
        return []


@dataclass
class SupervisorState:
    mode: Mode = Mode.TRAVERSE
    row_heading_world: float | None = None   # lane-backed reference only
    pending_row_heading: float | None = None  # candidate awaiting confirmation
    empty_fov_streak: int = 0
    search_sign: float | None = None         # latched cold-start spin direction


@dataclass(frozen=True)
class TickInfo:
    mode: Mode
    perception_status: PerceptionStatus
    solver_status: SolverStatus | None = None
    note: str = ""


@dataclass(frozen=True)
class Detection:
    """Ground-truth target sighting handed in by the simulator (rover frame)."""

    target: Point2
    standoff: float = 0.5


def fallback_control(heading_error: float) -> ControlInput:
    """Rotate against the heading error at V_DURING_REALIGN.

    Unsaturated: MissionSupervisor.tick clips every command to the box.
    """
    return ControlInput(V_DURING_REALIGN, -K_P * heading_error)


def target_approach_control(state: QuatPose, target: Point2, standoff: float,
                            k_rho: float = 0.8, k_alpha: float = 1.5
                            ) -> ControlInput | None:
    """Drive toward a point, stopping standoff meters short.

    Returns None once within the standoff distance (plus the completion
    band). When the target sits more than 90 deg off the nose the rover
    turns in place first. Unsaturated, like fallback_control.
    """
    dx = target.x - state.x1
    dy = target.y - state.x2
    rho = math.hypot(dx, dy)
    if rho <= standoff + APPROACH_DONE_TOL:
        return None
    bearing = wrap_angle(math.atan2(dy, dx) - heading_of(state))
    v = 0.0 if abs(bearing) > math.pi / 2 else k_rho * (rho - standoff)
    return ControlInput(v, k_alpha * bearing)


class MissionSupervisor:
    """Single-owner state machine; call tick() once per control period."""

    def __init__(self, nmpc: NmpcController, fallback_cfg: FallbackConfig | None = None):
        self.nmpc = nmpc
        self.fallback_cfg = fallback_cfg or FallbackConfig()
        self.state = SupervisorState()

    @property
    def mode(self) -> Mode:
        return self.state.mode

    def reset(self, mode: Mode = Mode.TRAVERSE) -> None:
        """External reset; the only way out of END_OF_ROW."""
        self.state = SupervisorState(mode=mode)
        self.nmpc.reset()

    def _remember_row_direction(self, proposed: float | None) -> None:
        """Track the world-frame row direction implied by accepted lanes.

        proposed is None on a tick without an accepted lane. The reference
        moves at most MAX_ROW_HEADING_RATE per tick: the real row direction
        changes slowly, and an uncapped reference can ratchet away on a run
        of slightly biased fits, taking the recovery behaviors with it.
        Establishing it takes two consecutive accepted lanes that agree on
        the row direction, so one hallucinated fit cannot seed it.
        """
        if proposed is None:
            self.state.pending_row_heading = None
            return
        current = self.state.row_heading_world
        if current is not None:
            delta = wrap_angle(proposed - current)
            delta = max(-MAX_ROW_HEADING_RATE, min(MAX_ROW_HEADING_RATE, delta))
            self.state.row_heading_world = wrap_angle(current + delta)
        elif (self.state.pending_row_heading is not None
              and abs(wrap_angle(proposed - self.state.pending_row_heading))
              <= MAX_ROW_HEADING_JUMP):
            self.state.row_heading_world = proposed
            self.state.pending_row_heading = None
        else:
            self.state.pending_row_heading = proposed

    def _search_command(self, perception: PerceptionResult) -> ControlInput:
        """Cold-start recovery: spin in place away from the looming side.

        Before any lane was ever accepted there is no trusted row
        direction, so rotate until one appears. The direction is latched
        from the mean bearing of the nearest perceived cells (rotate away
        from whatever fills the close view) and kept until perception
        recovers, so per-tick jitter cannot flip the spin.
        """
        if self.state.search_sign is None:
            sign = -1.0
            obs = perception.obstacles
            if obs is not None and len(obs):
                rng = (obs[:, 0] ** 2 + obs[:, 1] ** 2) ** 0.5
                nearest = obs[rng.argsort()[:10]]
                mean_az = float(
                    sum(math.atan2(p[1], p[0]) for p in nearest) / len(nearest))
                sign = -1.0 if mean_az >= 0.0 else 1.0
            self.state.search_sign = sign
        return ControlInput(0.0, self.state.search_sign * SEARCH_OMEGA)

    def tick(self, pose: QuatPose, perception: PerceptionResult,
             detection: Detection | None = None
             ) -> tuple[ControlInput, TickInfo]:
        """One control period: update mode, return the command to apply.

        pose supplies the heading estimate (odometry on a real platform,
        simulator truth here); positions are never used for traversal,
        which stays in the rover frame.
        """
        st = self.state
        heading = heading_of(pose)
        implied = (wrap_angle(heading + math.atan(perception.lane.a_avg))
                   if perception.ok and perception.lane is not None else None)

        # Row-direction continuity: a freshly accepted lane whose implied
        # row heading leaps away from the remembered one within one tick is
        # a mis-fit (e.g. both borders on the same physical wall), not a
        # row that actually turned. Treat it as a rejected lane.
        if implied is not None and st.row_heading_world is not None:
            jump = abs(wrap_angle(implied - st.row_heading_world))
            if jump > MAX_ROW_HEADING_JUMP:
                perception = PerceptionResult(
                    PerceptionStatus.INVALID_LANE,
                    obstacles=perception.obstacles,
                    reason=f"row direction jumped {jump:.2f} rad in one tick")

        if perception.ok:
            st.empty_fov_streak = 0
        elif perception.status is PerceptionStatus.EMPTY_FOV:
            st.empty_fov_streak += 1
        self._remember_row_direction(implied if perception.ok else None)
        if st.row_heading_world is not None:
            st.search_sign = None

        # The one exit: saturate to the NMPC input box, record as applied.
        cmd, solver_status, note = self._transition(heading, perception, detection)
        box = self.nmpc.cfg
        cmd = ControlInput(max(-box.v_max, min(box.v_max, cmd.v)),
                           max(-box.omega_max, min(box.omega_max, cmd.omega)))
        self.nmpc.notify_applied(cmd)
        return cmd, TickInfo(st.mode, perception.status, solver_status, note)

    def _transition(self, heading: float, perception: PerceptionResult,
                    detection: Detection | None
                    ) -> tuple[ControlInput, SolverStatus | None, str]:
        """Update the mode; return the raw command, solver status and note."""
        st = self.state
        stop = ControlInput(0.0, 0.0)
        note = ""

        if st.mode is Mode.IDLE or st.mode is Mode.END_OF_ROW:
            return stop, None, "holding"

        if (st.mode in (Mode.TRAVERSE, Mode.FALLBACK_REALIGN)
                and st.empty_fov_streak >= N_EMPTY_FOR_END):
            st.mode = Mode.END_OF_ROW
            return stop, None, "row cleared"

        if st.mode is Mode.FALLBACK_REALIGN:
            if st.row_heading_world is None:
                # No row direction confirmed yet, not even by this tick's lane.
                return self._search_command(perception), None, "searching for the row"
            err = wrap_angle(heading - st.row_heading_world)
            if abs(err) > ALIGN_TOL:
                return fallback_control(err), None, "realigning"
            st.mode = Mode.TRAVERSE
            note = "realigned"

        if st.mode is Mode.TRAVERSE and detection is not None:
            st.mode = Mode.TARGET_APPROACH

        if st.mode is Mode.TARGET_APPROACH:
            approach = None  # sighting lost or consumed: resume the row
            if detection is not None:
                approach = target_approach_control(
                    pose_from(0.0, 0.0, 0.0), detection.target, detection.standoff)
            if approach is None:
                st.mode = Mode.TRAVERSE
                return stop, None, "target reached, resuming row"
            return approach, None, "approaching"

        # Traverse proper.
        if perception.ok:
            try:
                seq = self.nmpc.control_step(pose_from(0.0, 0.0, 0.0),
                                             perception.lane, perception.obstacles)
            except Exception as exc:
                # tick stays total: a solver fault stops the rover and
                # realigns, and the next OK lane solves from a cold start.
                st.mode = Mode.FALLBACK_REALIGN
                self.nmpc.reset()
                return (stop, SolverStatus.INFEASIBLE,
                        f"solver error: {type(exc).__name__}: {exc}")
            if seq.status is SolverStatus.INFEASIBLE:
                # control_step has dropped the warm start; stop and realign.
                st.mode = Mode.FALLBACK_REALIGN
                return stop, seq.status, (
                    "solver infeasible: no feasible sequence "
                    f"(violation {seq.max_constraint_violation:.2e} m^2)")
            return seq.inputs[0], seq.status, note
        if perception.status is not PerceptionStatus.INVALID_LANE:
            # Empty view below the debounce threshold: hold still this tick.
            return stop, None, "empty view, waiting"
        if st.row_heading_world is None:
            st.mode = Mode.FALLBACK_REALIGN
            return (self._search_command(perception), None,
                    f"lane rejected, searching ({perception.reason})")
        err = wrap_angle(heading - st.row_heading_world)
        realign = fallback_control(err)
        if abs(err) > ALIGN_TOL:
            st.mode = Mode.FALLBACK_REALIGN
            return realign, None, f"lane rejected: {perception.reason}"
        # Already aligned with the remembered row direction: creep ahead so
        # the run can reach the empty-view stop instead of freezing on a
        # borderline perception.
        return (ControlInput(self.fallback_cfg.creep_v, realign.omega), None,
                f"lane rejected, aligned: creeping ({perception.reason})")
