import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rownav import nmpc, supervisor
from rownav.cli import resolve_config_path
from rownav.config import load_scenario
from rownav.core import BorderLine, ControlInput, Point2, heading_of, pose_from
from rownav.nmpc import NmpcConfig, NmpcController, SolverStatus
from rownav.pipeline import (LANE_MODES, LaneModel, PerceptionResult,
                             PerceptionStatus, PipelineConfig, lane_from_borders)
from rownav.sim import generate_world, run_scenario
from rownav.supervisor import (Detection, FallbackConfig, MissionSupervisor,
                               Mode, fallback_control, target_approach_control)


def ok_lane(a=0.0, b_l=0.75, b_r=-0.75):
    lane = LaneModel(BorderLine(a, b_l, "left"), BorderLine(a, b_r, "right"), 0.3)
    obstacles = np.array([[1.0, b_l], [1.0, b_r]])
    return PerceptionResult(PerceptionStatus.OK, lane=lane, obstacles=obstacles)


def invalid():
    return PerceptionResult(PerceptionStatus.INVALID_LANE, reason="test")


def empty():
    return PerceptionResult(PerceptionStatus.EMPTY_FOV, reason="test")


def make_supervisor(**fallback_kwargs):
    ctrl = NmpcController(NmpcConfig())
    return MissionSupervisor(ctrl, FallbackConfig(**fallback_kwargs))


# ---------------------------------------------------------------- fallback law

def test_fallback_zero_error_goes_straight():
    cmd = fallback_control(0.0)
    assert cmd == ControlInput(0.0, 0.0)


def test_fallback_saturates_at_omega_max(monkeypatch):
    """fallback_control is the bare law; tick saturates the spin it asks
    for on both realignment exits."""
    monkeypatch.setattr(supervisor, "K_P", 1.0)
    assert fallback_control(1.0).omega == -1.0
    sup = make_supervisor()
    for _ in range(2):  # two agreeing lanes establish the row direction
        sup.tick(pose_from(0, 0, 0), ok_lane())
    for note in ("lane rejected: test", "realigning"):
        cmd, info = sup.tick(pose_from(0, 0, 1.0), invalid())
        assert info.note == note
        assert cmd == ControlInput(0.0, -sup.nmpc.cfg.omega_max)


def test_fallback_sign_symmetry(monkeypatch):
    """The spin is -K_P times the heading error, on either side."""
    monkeypatch.setattr(supervisor, "K_P", 2.0)
    assert fallback_control(-0.2).omega == pytest.approx(0.4)
    assert fallback_control(0.2).omega == pytest.approx(-0.4)


# ---------------------------------------------------------------- approach law

def test_approach_done_at_standoff():
    out = target_approach_control(Point2(0.5, 0.0), 0.5)
    assert out is None


def test_approach_straight_ahead():
    out = target_approach_control(Point2(2.0, 0.0), 0.5)
    assert out.omega == pytest.approx(0.0)
    assert out.v > 0.0


def test_approach_behind_turns_in_place():
    """A target behind gives a spin in place toward it, which tick
    saturates to omega_max."""
    target = Point2(-2.0, 1e-6)
    out = target_approach_control(target, 0.5)
    assert out.v == 0.0
    assert out.omega == pytest.approx(1.5 * math.pi)
    sup = make_supervisor()
    cmd, info = sup.tick(pose_from(0, 0, 0), ok_lane(), Detection(target, 0.5))
    assert info.mode is Mode.TARGET_APPROACH
    assert cmd == ControlInput(0.0, sup.nmpc.cfg.omega_max)


# ---------------------------------------------------------------- transitions

def test_ok_perception_traverse_uses_nmpc():
    sup = make_supervisor()
    cmd, info = sup.tick(pose_from(0, 0, 0), ok_lane())
    assert info.mode is Mode.TRAVERSE
    assert cmd.v > 0.3


def test_invalid_after_valid_lane_enters_fallback_with_correct_sign():
    sup = make_supervisor()
    # two agreeing valid ticks establish the row direction
    sup.tick(pose_from(0, 0, 0), ok_lane())
    sup.tick(pose_from(0.3, 0, 0), ok_lane())
    cmd, info = sup.tick(pose_from(0.6, 0, math.radians(60)), invalid())
    assert info.mode is Mode.FALLBACK_REALIGN
    assert cmd.omega < 0.0  # rotate back toward the remembered direction


def test_empty_fov_debounce_to_end_of_row(monkeypatch):
    monkeypatch.setattr(supervisor, "N_EMPTY_FOR_END", 3)
    sup = make_supervisor()
    sup.tick(pose_from(0, 0, 0), ok_lane())
    sup.tick(pose_from(0, 0, 0), ok_lane())
    for k in range(3):
        assert sup.mode is Mode.TRAVERSE
        cmd, info = sup.tick(pose_from(0, 0, 0), empty())
    assert info.mode is Mode.END_OF_ROW
    assert cmd == ControlInput(0.0, 0.0)


def test_empty_streak_resets_on_ok(monkeypatch):
    monkeypatch.setattr(supervisor, "N_EMPTY_FOR_END", 3)
    sup = make_supervisor()
    sup.tick(pose_from(0, 0, 0), ok_lane())
    sup.tick(pose_from(0, 0, 0), empty())
    sup.tick(pose_from(0, 0, 0), empty())
    sup.tick(pose_from(0, 0, 0), ok_lane())
    cmd, info = sup.tick(pose_from(0, 0, 0), empty())
    assert info.mode is Mode.TRAVERSE


def test_end_of_row_absorbing_until_reset(monkeypatch):
    monkeypatch.setattr(supervisor, "N_EMPTY_FOR_END", 1)
    sup = make_supervisor()
    sup.tick(pose_from(0, 0, 0), empty())
    assert sup.mode is Mode.END_OF_ROW
    cmd, info = sup.tick(pose_from(0, 0, 0), ok_lane())
    assert info.mode is Mode.END_OF_ROW
    assert cmd == ControlInput(0.0, 0.0)
    sup.reset()
    assert sup.mode is Mode.TRAVERSE


def test_detection_switches_to_target_approach():
    sup = make_supervisor()
    det = Detection(Point2(3.0, 0.5), standoff=0.5)
    cmd, info = sup.tick(pose_from(0, 0, 0), ok_lane(), det)
    assert info.mode is Mode.TARGET_APPROACH
    assert cmd.v > 0.0


def test_target_reached_resumes_traversal():
    sup = make_supervisor()
    sup.tick(pose_from(0, 0, 0), ok_lane(), Detection(Point2(3.0, 0.0), 0.5))
    assert sup.mode is Mode.TARGET_APPROACH
    cmd, info = sup.tick(pose_from(0, 0, 0), ok_lane(),
                         Detection(Point2(0.4, 0.0), 0.5))
    assert info.mode is Mode.TRAVERSE
    cmd, info = sup.tick(pose_from(0, 0, 0), ok_lane())
    assert info.mode is Mode.TRAVERSE
    assert cmd.v > 0.3


def test_detection_lost_resumes_traversal():
    sup = make_supervisor()
    sup.tick(pose_from(0, 0, 0), ok_lane(), Detection(Point2(3.0, 0.0), 0.5))
    cmd, info = sup.tick(pose_from(0, 0, 0), ok_lane())
    assert info.mode is Mode.TRAVERSE


def test_cold_start_invalid_searches_without_reference():
    sup = make_supervisor()
    cmd, info = sup.tick(pose_from(0, 0, math.radians(60)), invalid())
    assert info.mode is Mode.FALLBACK_REALIGN
    assert cmd.v == 0.0
    assert abs(cmd.omega) == pytest.approx(0.2)


def test_search_direction_latched_from_looming_side():
    sup = make_supervisor()
    near_left = PerceptionResult(PerceptionStatus.INVALID_LANE,
                                 obstacles=np.array([[0.5, 0.4], [0.6, 0.5]]),
                                 reason="test")
    cmd, _ = sup.tick(pose_from(0, 0, 0), near_left)
    assert cmd.omega < 0.0  # stuff looms left, rotate right
    # direction stays latched even if later cells loom elsewhere
    near_right = PerceptionResult(PerceptionStatus.INVALID_LANE,
                                  obstacles=np.array([[0.5, -0.4]]),
                                  reason="test")
    cmd2, _ = sup.tick(pose_from(0, 0, -0.2), near_right)
    assert cmd2.omega < 0.0


def test_recovers_to_traverse_within_two_ticks():
    # from fallback with an established reference and zero heading error,
    # a stream of valid perceptions restores traversal within 2 ticks
    sup = make_supervisor()
    sup.tick(pose_from(0, 0, 0), ok_lane())
    sup.tick(pose_from(0, 0, 0), ok_lane())
    sup.state.mode = Mode.FALLBACK_REALIGN
    cmd, info = sup.tick(pose_from(0, 0, 0), ok_lane())
    assert info.mode is Mode.TRAVERSE


def _perception(kind, obstacles, a, da, b_l, b_r, lane_mode):
    """A result of the drawn kind. An OK lane comes from lane_from_borders,
    so a drawn pair of borders it rejects is the INVALID_LANE that process
    would report, with the obstacles kept."""
    if kind is PerceptionStatus.EMPTY_FOV:
        return empty()
    lane = "drawn"
    if kind is PerceptionStatus.OK:
        if obstacles is None:
            obstacles = np.empty((0, 2))
        lane = lane_from_borders(BorderLine(a, b_l, "left"),
                                 BorderLine(a + da, -b_r, "right"),
                                 PipelineConfig(lane_mode=lane_mode))
    if isinstance(lane, str):
        return PerceptionResult(PerceptionStatus.INVALID_LANE,
                                obstacles=obstacles, reason=lane)
    return PerceptionResult(PerceptionStatus.OK, lane=lane, obstacles=obstacles)


obstacle_arrays = st.lists(
    st.tuples(st.floats(-1.0, 4.0), st.floats(-2.0, 2.0)), max_size=4,
).map(lambda pts: np.array(pts, dtype=float).reshape(-1, 2))

perceptions = st.builds(
    _perception, st.sampled_from(PerceptionStatus), st.none() | obstacle_arrays,
    st.floats(-1.0, 1.0), st.floats(-0.3, 0.3), st.floats(0.05, 2.0),
    st.floats(0.05, 2.0), st.sampled_from(LANE_MODES))

detections = st.none() | st.builds(
    Detection, st.builds(Point2, st.floats(-3.0, 3.0), st.floats(-2.0, 2.0)),
    st.floats(0.2, 1.0))

# (V_DURING_REALIGN, SEARCH_OMEGA, N_EMPTY_FOR_END, creep_v); the speeds
# reach outside the NMPC box.
fallback_values = st.tuples(st.floats(0.0, 1.0), st.floats(0.05, 2.0),
                            st.integers(1, 3), st.floats(0.0, 1.0))

@settings(max_examples=60)
@given(st.lists(st.tuples(perceptions, detections,
                          st.floats(-2 * math.pi, 2 * math.pi)),
                min_size=1, max_size=16),
       fallback_values)
@example([(ok_lane(), None, 0.0)] * 2 + [(empty(), None, 0.0)] * 3
         + [(ok_lane(), Detection(Point2(2.0, 0.0), 0.5), 0.0)],
         (0.6, 0.9, 3, 0.6))
def test_commands_always_saturated(ticks, fallback):
    """Over drawn tick sequences: tick never raises, every command lies in
    the NMPC box and is what the controller records as the applied input,
    also when the fallback speeds are outside the box, and from the tick
    that reaches END_OF_ROW on, every command is the stop."""
    v_realign, search_omega, n_empty, creep_v = fallback
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(supervisor, "V_DURING_REALIGN", v_realign)
        mp.setattr(supervisor, "SEARCH_OMEGA", search_omega)
        mp.setattr(supervisor, "N_EMPTY_FOR_END", n_empty)
        sup = make_supervisor(creep_v=creep_v)
        box = sup.nmpc.cfg
        ended = False
        for perception, detection, heading in ticks:
            cmd, info = sup.tick(pose_from(0.0, 0.0, heading), perception, detection)
            assert abs(cmd.v) <= box.v_max
            assert abs(cmd.omega) <= box.omega_max
            assert sup.nmpc._u_prev == cmd
            ended = ended or info.mode is Mode.END_OF_ROW
            if ended:
                assert info.mode is Mode.END_OF_ROW
                assert cmd == ControlInput(0.0, 0.0)


def test_fallback_speeds_outside_box_saturated_and_recorded(monkeypatch):
    """The creep and realignment exits clip a speed above v_max to the box,
    and the controller records the clipped command."""
    monkeypatch.setattr(supervisor, "V_DURING_REALIGN", 0.6)
    sup = make_supervisor(creep_v=0.6)
    v_max = sup.nmpc.cfg.v_max
    for _ in range(2):  # two agreeing lanes establish the row direction
        sup.tick(pose_from(0, 0, 0), ok_lane())
    steps = [(0.0, "lane rejected, aligned: creeping (test)"),
             (0.5, "lane rejected: test"),
             (0.5, "realigning")]
    for heading, note in steps:
        cmd, info = sup.tick(pose_from(0, 0, heading), invalid())
        assert info.note == note
        assert cmd.v == v_max
        assert sup.nmpc._u_prev == cmd


def rejected_with(points):
    """An INVALID_LANE frame that carries the given rover-frame points."""
    return PerceptionResult(PerceptionStatus.INVALID_LANE,
                            obstacles=np.array(points, dtype=float).reshape(-1, 2),
                            reason="test")


def test_creep_holds_short_of_a_point_ahead():
    """Aligned with the remembered row but with the lane rejected, the rover
    creeps only when no perceived point lies within R_safe of the stretch
    the creep covers in one dt (creep_v * dt = 0.105 m here)."""
    sup = make_supervisor()
    for _ in range(2):  # two agreeing lanes establish the row direction
        sup.tick(pose_from(0, 0, 0), ok_lane())
    cmd, info = sup.tick(pose_from(0, 0, 0), rejected_with([(0.35, 0.0)]))
    assert info.mode is Mode.TRAVERSE
    assert cmd == ControlInput(0.0, 0.0)
    assert info.note == ("lane rejected, aligned: holding, obstacle point "
                         "0.245 m from the creep path (test)")
    cmd, info = sup.tick(pose_from(0, 0, 0), rejected_with([(0.42, 0.0)]))
    assert cmd == ControlInput(0.15, 0.0)
    assert info.note == "lane rejected, aligned: creeping (test)"


def segment_gap(points, length):
    """Smallest distance from the points to the segment (0, 0)-(length, 0)."""
    return min((math.hypot(x - min(max(x, 0.0), length), y) for x, y in points),
               default=math.inf)


@settings(max_examples=80)
@given(st.lists(st.tuples(st.floats(-1.0, 2.0), st.floats(-1.0, 1.0)),
                max_size=6),
       st.floats(-supervisor.ALIGN_TOL, supervisor.ALIGN_TOL),
       st.floats(0.0, 1.0))
@example([(0.35, 0.0)], 0.0, 0.15)
@example([(0.6, 0.1), (-0.2, -0.25)], 0.05, 0.6)
def test_creep_keeps_r_safe_along_its_segment(points, heading, creep_v):
    """Over drawn obstacle sets, headings inside the alignment band and
    creep speeds (some above v_max), every forward command of the creep
    branch keeps R_safe from every point along the segment it covers in one
    dt, and a held command turns as the creep would."""
    sup = make_supervisor(creep_v=creep_v)
    for _ in range(2):
        sup.tick(pose_from(0, 0, 0), ok_lane())
    cmd, info = sup.tick(pose_from(0, 0, heading), rejected_with(points))
    assert info.note.startswith("lane rejected, aligned: ")
    cfg = sup.nmpc.cfg
    assert cmd.omega == pytest.approx(-supervisor.K_P * heading)
    if cmd.v > 0.0:
        assert segment_gap(points, cmd.v * cfg.dt) >= cfg.R_safe
    else:
        assert (creep_v == 0.0
                or segment_gap(points, creep_v * cfg.dt) < cfg.R_safe)


def run_with_heading_drift(monkeypatch, name, rate, seed=None, max_ticks=100):
    """Run a bundled scenario with the supervisor seeing the heading plus
    rate * t (rad/s), t = tick * dt: a gyro bias, which leaves the rover's
    true motion and the rendered frames exact."""
    cfg = load_scenario(resolve_config_path(name))
    if seed is not None:
        cfg.world.seed = seed
    tick = MissionSupervisor.tick
    count = itertools.count()

    def drifting(self, pose, perception, detection=None):
        bias = rate * next(count) * self.nmpc.cfg.dt
        seen = pose_from(pose.x1, pose.x2, heading_of(pose) + bias)
        return tick(self, seen, perception, detection)

    monkeypatch.setattr(MissionSupervisor, "tick", drifting)
    return run_scenario(generate_world(cfg.world),
                        pose_from(cfg.start.x, cfg.start.y, cfg.start.theta),
                        cfg.camera, cfg.pipeline, cfg.nmpc, cfg.fallback,
                        cfg.targets, max_ticks)


@pytest.mark.parametrize("name, seed", [("sim_obstacle", 10), ("sim_curved", None)])
def test_heading_drift_does_not_creep_into_a_stem(monkeypatch, name, seed):
    """With a heading drift of +0.03 rad/s, creeping on a rejected lane once
    drove sim_obstacle world 10 into the stem at (12.00, -1.25) at tick 72
    and sim_curved into the stem at (7.55, 1.18) at tick 46. The creep now
    holds short of the perceived stem, and neither run collides."""
    log = run_with_heading_drift(monkeypatch, name, 0.03, seed)
    assert not log.collision, log.collision_note
    assert any("holding, obstacle point" in rec.note for rec in log.records)


def test_replay_reproduces_mode_sequence():
    rng = np.random.default_rng(13)
    stream = []
    for k in range(25):
        r = rng.random()
        perc = ok_lane(a=rng.uniform(-0.05, 0.05)) if r < 0.6 else \
            (invalid() if r < 0.8 else empty())
        pose = pose_from(0.28 * k, rng.uniform(-0.1, 0.1),
                         rng.uniform(-0.1, 0.1))
        det = Detection(Point2(2.0, 0.3), 0.5) if 10 <= k < 12 else None
        stream.append((pose, perc, det))

    def run():
        sup = make_supervisor()
        return [sup.tick(*args)[1].mode for args in stream]

    assert run() == run()


def test_solver_error_takes_infeasible_path(monkeypatch):
    """An exception out of the solver stops the rover and realigns, with
    its text in the note; tick does not raise."""
    sup = make_supervisor()
    sup.tick(pose_from(0, 0, 0), ok_lane())
    assert sup.nmpc.last_sequence is not None

    def broken_solve(*args, **kwargs):
        raise ValueError("x0 violates bound constraints")

    monkeypatch.setattr(nmpc, "solve", broken_solve)
    cmd, info = sup.tick(pose_from(0.3, 0, 0), ok_lane())
    assert cmd == ControlInput(0.0, 0.0)
    assert info.mode is Mode.FALLBACK_REALIGN
    assert info.solver_status is SolverStatus.INFEASIBLE
    assert info.note == "solver error: ValueError: x0 violates bound constraints"
    assert sup.nmpc.last_sequence is None     # no warm start from before the fault


def test_infeasible_plan_stops_and_realigns():
    """A ring of obstacle points 0.25 m around the rover, inside R_safe, leaves
    no feasible plan: the tick stops, realigns, reports INFEASIBLE with the
    violation in its note, and drops the warm start. After a CONVERGED tick
    the controller's last sequence starts with the command applied."""
    sup = make_supervisor()
    cmd, info = sup.tick(pose_from(0, 0, 0), ok_lane())
    assert info.solver_status is SolverStatus.CONVERGED
    assert sup.nmpc.last_sequence.inputs[0] == cmd
    ring = np.array([(0.25 * math.cos(a), 0.25 * math.sin(a))
                     for a in np.linspace(0, 2 * math.pi, 16, endpoint=False)])
    surrounded = PerceptionResult(PerceptionStatus.OK, lane=ok_lane().lane,
                                  obstacles=ring)
    cmd, info = sup.tick(pose_from(0, 0, 0), surrounded)
    assert cmd == ControlInput(0.0, 0.0)
    assert info.mode is Mode.FALLBACK_REALIGN
    assert info.solver_status is SolverStatus.INFEASIBLE
    assert info.note == ("solver infeasible: no feasible sequence "
                         "(violation 2.75e-02 m^2)")
    assert sup.nmpc.last_sequence is None
