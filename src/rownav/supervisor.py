"""Behavior coordination: row traversal, target approach, fault recovery.

An explicit finite-state machine stands in for the orchestration layer:
traversal hands commands to the receding-horizon controller, perception
faults or an infeasible solve drop into a proportional realignment spin,
a detected target switches to a point-approach law, and a debounced run
of empty views declares the end of the row and stops the rover.

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
from .nmpc import InfeasibleError, NmpcController, SolverStatus
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


@dataclass
class FallbackConfig:
    K_p: float = 1.0                  # 1/s
    align_tol: float = 0.08           # rad
    v_during_realign: float = 0.0     # m/s
    creep_v: float = 0.15             # m/s while aligned but lane rejected
    search_omega: float = 0.2         # rad/s spin while no row was ever seen
    max_row_heading_jump: float = 0.2  # rad; larger per-tick jumps are rejected
    max_row_heading_rate: float = 0.03  # rad/tick drift cap on the reference
    n_empty_for_end: int = 3          # consecutive empty views before stop

    def validate(self, path: str = "fallback") -> list[str]:
        errs = []
        if not self.K_p > 0:
            errs.append(f"{path}.K_p: must be > 0")
        if not 0.0 < self.align_tol < math.pi / 2:
            errs.append(f"{path}.align_tol: must be in (0, pi/2) radians")
        if self.creep_v < 0:
            errs.append(f"{path}.creep_v: must be >= 0")
        if not self.search_omega > 0:
            errs.append(f"{path}.search_omega: must be > 0")
        if not self.max_row_heading_jump > 0:
            errs.append(f"{path}.max_row_heading_jump: must be > 0")
        if not self.max_row_heading_rate > 0:
            errs.append(f"{path}.max_row_heading_rate: must be > 0")
        if self.n_empty_for_end < 1:
            errs.append(f"{path}.n_empty_for_end: must be >= 1")
        return errs


@dataclass
class SupervisorState:
    mode: Mode = Mode.TRAVERSE
    row_heading_world: float | None = None   # lane-backed reference only
    pending_row_heading: float | None = None  # candidate awaiting confirmation
    empty_fov_streak: int = 0
    active_target: Point2 | None = None
    standoff: float = 0.5
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


def fallback_control(heading_error: float, cfg: FallbackConfig,
                     omega_max: float) -> ControlInput:
    """Rotate against the heading error; linear speed is the configured crawl."""
    omega = max(-omega_max, min(omega_max, -cfg.K_p * heading_error))
    return ControlInput(cfg.v_during_realign, omega)


def target_approach_control(state: QuatPose, target: Point2, standoff: float,
                            v_max: float, omega_max: float,
                            k_rho: float = 0.8, k_alpha: float = 1.5
                            ) -> ControlInput | None:
    """Drive toward a point, stopping standoff meters short.

    Returns None once within the standoff distance (plus the completion
    band). When the target sits more than 90 deg off the nose the rover
    turns in place first.
    """
    dx = target.x - state.x1
    dy = target.y - state.x2
    rho = math.hypot(dx, dy)
    if rho <= standoff + APPROACH_DONE_TOL:
        return None
    bearing = wrap_angle(math.atan2(dy, dx) - heading_of(state))
    omega = max(-omega_max, min(omega_max, k_alpha * bearing))
    if abs(bearing) > math.pi / 2:
        v = 0.0
    else:
        v = max(0.0, min(v_max, k_rho * (rho - standoff)))
    return ControlInput(v, omega)


class MissionSupervisor:
    """Single-owner state machine; call tick() once per control period."""

    def __init__(self, nmpc: NmpcController, fallback_cfg: FallbackConfig | None = None,
                 initial_mode: Mode = Mode.TRAVERSE):
        self.nmpc = nmpc
        self.fallback_cfg = fallback_cfg or FallbackConfig()
        self.state = SupervisorState(mode=initial_mode)

    @property
    def mode(self) -> Mode:
        return self.state.mode

    def reset(self, mode: Mode = Mode.TRAVERSE) -> None:
        """External reset; the only way out of END_OF_ROW."""
        self.state = SupervisorState(mode=mode)
        self.nmpc.reset()

    def _remember_row_direction(self, heading: float,
                                perception: PerceptionResult) -> None:
        """Track the world-frame row direction implied by accepted lanes.

        The reference moves at most max_row_heading_rate per tick: the real
        row direction changes slowly, and an uncapped reference can ratchet
        away on a run of slightly biased fits, taking the recovery behaviors
        with it. Establishing the reference in the first place takes two
        consecutive accepted lanes that agree on the row direction, so one
        hallucinated fit during a cold start cannot seed it.
        """
        if not (perception.ok and perception.lane is not None):
            self.state.pending_row_heading = None
            return
        proposed = wrap_angle(heading + math.atan(perception.lane.a_avg))
        current = self.state.row_heading_world
        if current is not None:
            delta = wrap_angle(proposed - current)
            rate = self.fallback_cfg.max_row_heading_rate
            delta = max(-rate, min(rate, delta))
            self.state.row_heading_world = wrap_angle(current + delta)
        elif (self.state.pending_row_heading is not None
              and abs(wrap_angle(proposed - self.state.pending_row_heading))
              <= self.fallback_cfg.max_row_heading_jump):
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
        omega = self.state.search_sign * min(self.fallback_cfg.search_omega,
                                             self.nmpc.cfg.omega_max)
        return ControlInput(0.0, omega)

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
        cmd = ControlInput(0.0, 0.0)
        solver_status: SolverStatus | None = None
        note = ""

        # Row-direction continuity: a freshly accepted lane whose implied
        # row heading leaps away from the remembered one within one tick is
        # a mis-fit (e.g. both borders on the same physical wall), not a
        # row that actually turned. Treat it as a rejected lane.
        if perception.ok and st.row_heading_world is not None:
            proposed = wrap_angle(heading + math.atan(perception.lane.a_avg))
            jump = abs(wrap_angle(proposed - st.row_heading_world))
            if jump > self.fallback_cfg.max_row_heading_jump:
                perception = PerceptionResult(
                    PerceptionStatus.INVALID_LANE,
                    obstacles=perception.obstacles,
                    reason=f"row direction jumped {jump:.2f} rad in one tick")

        if perception.ok:
            st.empty_fov_streak = 0
        elif perception.status is PerceptionStatus.EMPTY_FOV:
            st.empty_fov_streak += 1
        self._remember_row_direction(heading, perception)
        if st.row_heading_world is not None:
            st.search_sign = None

        if st.mode is Mode.IDLE or st.mode is Mode.END_OF_ROW:
            return cmd, TickInfo(st.mode, perception.status, None, "holding")

        if (st.mode in (Mode.TRAVERSE, Mode.FALLBACK_REALIGN)
                and st.empty_fov_streak >= self.fallback_cfg.n_empty_for_end):
            st.mode = Mode.END_OF_ROW
            return cmd, TickInfo(st.mode, perception.status, None, "row cleared")

        if st.mode is Mode.FALLBACK_REALIGN:
            if st.row_heading_world is not None:
                err = wrap_angle(heading - st.row_heading_world)
                if abs(err) <= self.fallback_cfg.align_tol:
                    st.mode = Mode.TRAVERSE
                    note = "realigned"
                else:
                    cmd = fallback_control(err, self.fallback_cfg,
                                           self.nmpc.cfg.omega_max)
                    self.nmpc.notify_applied(cmd)
                    return cmd, TickInfo(st.mode, perception.status, None,
                                         "realigning")
            else:
                # No confirmed row direction yet (a confirming lane would
                # have set it during bookkeeping above): keep searching.
                cmd = self._search_command(perception)
                self.nmpc.notify_applied(cmd)
                return cmd, TickInfo(st.mode, perception.status, None,
                                     "searching for the row")

        if st.mode is Mode.TRAVERSE and detection is not None:
            st.mode = Mode.TARGET_APPROACH
            st.active_target = detection.target
            st.standoff = detection.standoff

        if st.mode is Mode.TARGET_APPROACH:
            if detection is not None:
                st.active_target = detection.target
                st.standoff = detection.standoff
                approach = target_approach_control(
                    pose_from(0.0, 0.0, 0.0), st.active_target, st.standoff,
                    self.nmpc.cfg.v_max, self.nmpc.cfg.omega_max)
            else:
                approach = None  # sighting lost or consumed: resume the row
            if approach is None:
                st.mode = Mode.TRAVERSE
                st.active_target = None
                self.nmpc.notify_applied(cmd)
                return cmd, TickInfo(st.mode, perception.status, None,
                                     "target reached, resuming row")
            self.nmpc.notify_applied(approach)
            return approach, TickInfo(st.mode, perception.status, None, "approaching")

        # Traverse proper.
        if perception.ok:
            try:
                cmd = self.nmpc.control_step(pose_from(0.0, 0.0, 0.0),
                                             perception.lane, perception.obstacles)
                solver_status = self.nmpc.last_sequence.status
            except InfeasibleError as exc:
                solver_status = SolverStatus.INFEASIBLE
                cmd = ControlInput(0.0, 0.0)
                st.mode = Mode.FALLBACK_REALIGN
                note = f"solver infeasible: {exc}"
                self.nmpc.notify_applied(cmd)
        elif perception.status is PerceptionStatus.INVALID_LANE:
            if st.row_heading_world is not None:
                err = wrap_angle(heading - st.row_heading_world)
                if abs(err) > self.fallback_cfg.align_tol:
                    st.mode = Mode.FALLBACK_REALIGN
                    cmd = fallback_control(err, self.fallback_cfg,
                                           self.nmpc.cfg.omega_max)
                    note = f"lane rejected: {perception.reason}"
                else:
                    # Already aligned with the remembered row direction:
                    # creep ahead so the run can reach the empty-view stop
                    # instead of freezing on a borderline perception.
                    cmd = ControlInput(
                        self.fallback_cfg.creep_v,
                        max(-self.nmpc.cfg.omega_max,
                            min(self.nmpc.cfg.omega_max,
                                -self.fallback_cfg.K_p * err)))
                    note = f"lane rejected, aligned: creeping ({perception.reason})"
            else:
                st.mode = Mode.FALLBACK_REALIGN
                cmd = self._search_command(perception)
                note = f"lane rejected, searching ({perception.reason})"
            self.nmpc.notify_applied(cmd)
        else:
            # Empty view below the debounce threshold: hold still this tick.
            note = "empty view, waiting"
            self.nmpc.notify_applied(cmd)

        v_max = self.nmpc.cfg.v_max
        omega_max = self.nmpc.cfg.omega_max
        cmd = ControlInput(max(-v_max, min(v_max, cmd.v)),
                           max(-omega_max, min(omega_max, cmd.omega)))
        return cmd, TickInfo(st.mode, perception.status, solver_status, note)
