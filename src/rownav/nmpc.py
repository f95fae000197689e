"""Receding-horizon controller for corridor following.

The prediction model is a unicycle whose heading lives in the half-angle
pair (x3, x4), which makes the dynamics polynomial in the state. The
finite-horizon problem is transcribed by single shooting over the input
sequence: the running cost combines a centering paraboloid and a heading
alignment term plus a quadratic penalty on input changes, the terminal
term rewards distance traveled along the row direction, and clearance
around obstacle points is enforced as a hard constraint.

Obstacle constraints are handled with an exterior quadratic penalty whose
weight grows geometrically until the worst violation drops below the
solver tolerance; input box bounds are kept by projection inside the
L-BFGS-B inner step, so returned inputs satisfy them exactly.

The public cost functions (lane_cost, align_cost, stage_cost, meyer_cost)
and the dynamics are the ones solve minimises and integrates: both call
the same scalar kernels. Where the kernels floor the corridor width or
the slope denominator, so that line searches stay finite, the public
functions raise DegenerateCorridor or NearPerpendicular instead.

A solve status describes the returned plan: CONVERGED for an optimizer
result whose last L-BFGS-B run reported success, MAX_ITER for one whose
run stopped short and for a baseline plan (zero input or the shifted warm
start), INFEASIBLE when no candidate meets the clearance constraints
within solver_tol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize

from .core import ControlInput, QuatPose
from .pipeline import LaneModel

# Headings closer than this to +-90 deg make the rover-slope tangent
# blow up; such states are the fallback controller's job, not the NMPC's.
EPS_TAN = 1e-3

# Max heading change per RK4 substep. A single step at the rated bounds
# (0.5 rad/s * 0.7 s) would leave ~3e-6 error against the closed-form arc;
# substepping keeps it below 1e-8.
_MAX_HEADING_PER_SUBSTEP = 0.1

# Corridor widths below this count as borders that meet.
_MIN_WIDTH = 1e-9


class DegenerateCorridor(ValueError):
    """Raised when the two border lines meet at the queried depth."""


class NearPerpendicular(ValueError):
    """Raised when the heading is within EPS_TAN of +-90 deg."""


class InfeasibleError(RuntimeError):
    """Raised by control_step when no iterate satisfies the constraints."""


class SolverStatus(Enum):
    CONVERGED = "converged"
    MAX_ITER = "max_iter"
    INFEASIBLE = "infeasible"


@dataclass
class NmpcConfig:
    v_max: float = 0.4                # m/s
    omega_max: float = 0.5            # rad/s
    dt: float = 0.7                   # control period, s
    horizon_n: int = 5                # steps; horizon time = n * dt
    K_lane: float = 1.0
    K_orient: float = 1.0
    K_travel: float = 1.0
    r_weight_v: float = 0.1           # (m/s)^-2
    r_weight_omega: float = 1.0       # (rad/s)^-2
    R_safe: float = 0.3               # obstacle clearance radius, m
    solver_max_iter: int = 8          # outer penalty rounds
    solver_tol: float = 1e-3          # max allowed constraint violation, m^2
    penalty_init: float = 10.0
    penalty_growth: float = 10.0

    def validate(self, path: str = "nmpc") -> list[str]:
        errs = []
        for name in ("v_max", "omega_max", "dt"):
            if not getattr(self, name) > 0:
                errs.append(f"{path}.{name}: must be > 0")
        if self.horizon_n < 2:
            errs.append(f"{path}.horizon_n: must be >= 2")
        for name in ("K_lane", "K_orient", "K_travel",
                     "r_weight_v", "r_weight_omega", "R_safe"):
            if getattr(self, name) < 0:
                errs.append(f"{path}.{name}: must be >= 0")
        if not self.solver_tol > 0:
            errs.append(f"{path}.solver_tol: must be > 0")
        if self.solver_max_iter < 1:
            errs.append(f"{path}.solver_max_iter: must be >= 1")
        if self.penalty_init <= 0 or self.penalty_growth <= 1:
            errs.append(f"{path}.penalty_init/penalty_growth: need init > 0, growth > 1")
        return errs


@dataclass(frozen=True)
class ControlSequence:
    inputs: tuple[ControlInput, ...]           # length n
    predicted_states: tuple[QuatPose, ...]     # length n + 1
    cost: float
    max_constraint_violation: float            # m^2, 0 when feasible
    iterations: int
    status: SolverStatus


def _derivative(v, w, x3, x4):
    """(x1', x2', x3', x4') of the half-angle unicycle; reads only the heading."""
    return (v * (x3 * x3 - x4 * x4), v * 2.0 * x3 * x4,
            -w * x4 / 2.0, w * x3 / 2.0)


def dynamics(state: QuatPose, u: ControlInput) -> tuple[float, float, float, float]:
    """State derivative of the half-angle unicycle model."""
    return _derivative(u.v, u.omega, state.x3, state.x4)


def _rk4_substep(x1, x2, x3, x4, v, w, h):
    k1 = _derivative(v, w, x3, x4)
    k2 = _derivative(v, w, x3 + 0.5 * h * k1[2], x4 + 0.5 * h * k1[3])
    k3 = _derivative(v, w, x3 + 0.5 * h * k2[2], x4 + 0.5 * h * k2[3])
    k4 = _derivative(v, w, x3 + h * k3[2], x4 + h * k3[3])
    x1 += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    x2 += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    x3 += h / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    x4 += h / 6.0 * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
    norm = math.sqrt(x3 * x3 + x4 * x4)
    return x1, x2, x3 / norm, x4 / norm


def _integrate_raw(x1, x2, x3, x4, v, w, dt):
    n_sub = max(1, math.ceil(abs(w) * dt / _MAX_HEADING_PER_SUBSTEP))
    h = dt / n_sub
    for _ in range(n_sub):
        x1, x2, x3, x4 = _rk4_substep(x1, x2, x3, x4, v, w, h)
    return x1, x2, x3, x4


def integrate_step(state: QuatPose, u: ControlInput, dt: float) -> QuatPose:
    """Propagate the state by dt under constant input (substepped RK4).

    The half-angle pair is renormalized after every substep, so the unit
    invariant holds to machine precision.
    """
    return QuatPose(*_integrate_raw(state.x1, state.x2, state.x3, state.x4,
                                    u.v, u.omega, dt))


def _lane_term(x1, x2, lane):
    y_l = lane.inflated_left.y_at(x1)
    y_r = lane.inflated_right.y_at(x1)
    d = max(abs(y_l - y_r), _MIN_WIDTH)
    s = 2.0 * x2 - y_l - y_r
    return (s * s) / (d * d)


def _align_term(x3, x4, a_avg):
    D = x3 * x3 - x4 * x4
    if abs(D) < EPS_TAN:
        D = EPS_TAN if D >= 0 else -EPS_TAN
    diff = a_avg - 2.0 * x3 * x4 / D
    return diff * diff


def _add_stage(acc, x1, x2, x3, x4, v, w, pv, pw, lane, cfg):
    """acc plus one step's running cost, added term by term."""
    return (acc + cfg.K_lane * _lane_term(x1, x2, lane)
            + cfg.K_orient * _align_term(x3, x4, lane.a_avg)
            + cfg.r_weight_v * (v - pv) ** 2
            + cfg.r_weight_omega * (w - pw) ** 2)


def _travel_term(x1, x2, lane, K_travel):
    a = lane.a_avg
    return -(K_travel / math.sqrt(1.0 + a * a)) * (x1 + a * x2)


def _check_corridor(lane, x1):
    if abs(lane.inflated_left.y_at(x1) - lane.inflated_right.y_at(x1)) < _MIN_WIDTH:
        raise DegenerateCorridor(f"borders meet at x1={x1:.3f}")


def _check_heading(x3, x4):
    if abs(x3 * x3 - x4 * x4) <= EPS_TAN:
        raise NearPerpendicular("heading too close to +-90 deg for slope cost")


def lane_cost(state: QuatPose, lane: LaneModel) -> float:
    """Centering paraboloid: 0 on the corridor midline, 1 on either border.

    Border heights are the margin-inflated lines evaluated at the state's
    forward coordinate.
    """
    _check_corridor(lane, state.x1)
    return _lane_term(state.x1, state.x2, lane)


def align_cost(state: QuatPose, lane: LaneModel) -> float:
    """Squared slope mismatch between the rover heading and the middle line."""
    _check_heading(state.x3, state.x4)
    return _align_term(state.x3, state.x4, lane.a_avg)


def meyer_cost(state: QuatPose, lane: LaneModel, K_travel: float) -> float:
    """Negative distance traveled, projected on the row direction."""
    return _travel_term(state.x1, state.x2, lane, K_travel)


def obstacle_constraint(state: QuatPose, obstacle, R_safe: float) -> float:
    """Clearance constraint value; feasible iff <= 0."""
    try:
        ox, oy = obstacle.x, obstacle.y
    except AttributeError:
        ox, oy = float(obstacle[0]), float(obstacle[1])
    dx = state.x1 - ox
    dy = state.x2 - oy
    return R_safe * R_safe - dx * dx - dy * dy


def stage_cost(state: QuatPose, u: ControlInput, u_prev: ControlInput,
               lane: LaneModel, cfg: NmpcConfig) -> float:
    """Running cost: weighted centering + alignment + input-change penalty."""
    _check_corridor(lane, state.x1)
    _check_heading(state.x3, state.x4)
    return _add_stage(0.0, state.x1, state.x2, state.x3, state.x4,
                      u.v, u.omega, u_prev.v, u_prev.omega, lane, cfg)


def stage_cost_gradients(state: QuatPose, u: ControlInput, u_prev: ControlInput,
                         lane: LaneModel, cfg: NmpcConfig
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Analytic partials of stage_cost w.r.t. the raw state and the input."""
    _check_corridor(lane, state.x1)
    _check_heading(state.x3, state.x4)
    al, ar = lane.inflated_left.a, lane.inflated_right.a
    y_l, y_r = lane.inflated_left.y_at(state.x1), lane.inflated_right.y_at(state.x1)
    d = y_l - y_r
    s = 2.0 * state.x2 - y_l - y_r
    ds_dx1 = -(al + ar)
    dd_dx1 = al - ar
    dlane_dx1 = 2.0 * s * ds_dx1 / (d * d) - 2.0 * s * s * dd_dx1 / (d * d * d)
    dlane_dx2 = 4.0 * s / (d * d)

    x3, x4 = state.x3, state.x4
    D = x3 * x3 - x4 * x4
    N = 2.0 * x3 * x4
    q = N / D
    diff = lane.a_avg - q
    dq_dx3 = (2.0 * x4 * D - N * 2.0 * x3) / (D * D)
    dq_dx4 = (2.0 * x3 * D + N * 2.0 * x4) / (D * D)

    grad_state = np.array([
        cfg.K_lane * dlane_dx1,
        cfg.K_lane * dlane_dx2,
        -2.0 * cfg.K_orient * diff * dq_dx3,
        -2.0 * cfg.K_orient * diff * dq_dx4,
    ])
    grad_u = np.array([
        2.0 * cfg.r_weight_v * (u.v - u_prev.v),
        2.0 * cfg.r_weight_omega * (u.omega - u_prev.omega),
    ])
    return grad_state, grad_u


def meyer_cost_gradient(state: QuatPose, lane: LaneModel, K_travel: float
                        ) -> np.ndarray:
    a = lane.a_avg
    scale = -K_travel / math.sqrt(1.0 + a * a)
    return np.array([scale, scale * a, 0.0, 0.0])


class _Candidate(NamedTuple):
    u: np.ndarray
    cost: float
    worst: float          # max constraint violation, m^2
    states: list          # rollout of u, n + 1 raw state tuples
    converged: bool       # an optimizer result whose last run reported success


def solve(state: QuatPose, lane: LaneModel, obstacles, u_prev: ControlInput,
          cfg: NmpcConfig, warm_start: ControlSequence | None = None
          ) -> ControlSequence:
    """Solve the horizon problem and return a saturated input sequence.

    The returned sequence is the best feasible candidate among the
    optimizer results, the zero-input sequence, and the warm start, so its
    cost never exceeds either baseline. The status describes that
    candidate, as set out in the module docstring.
    """
    n = cfg.horizon_n
    obs = np.asarray(obstacles, dtype=float).reshape(-1, 2) if obstacles is not None \
        else np.zeros((0, 2))
    r2 = cfg.R_safe * cfg.R_safe

    def evaluate(u_flat):
        """(objective, sum of squared violations, max violation, rollout)."""
        states = [(state.x1, state.x2, state.x3, state.x4)]
        cost = 0.0
        pv, pw = u_prev.v, u_prev.omega
        for k in range(n):
            v, w = u_flat[2 * k], u_flat[2 * k + 1]
            cost = _add_stage(cost, *states[k], v, w, pv, pw, lane, cfg)
            states.append(_integrate_raw(*states[k], v, w, cfg.dt))
            pv, pw = v, w
        cost += _travel_term(states[n][0], states[n][1], lane, cfg.K_travel)
        pen = 0.0
        worst = 0.0
        if len(obs):
            for k in range(1, n + 1):
                sx, sy = states[k][0], states[k][1]
                for ox, oy in obs:
                    g = r2 - (sx - ox) ** 2 - (sy - oy) ** 2
                    if g > 0.0:
                        pen += g * g
                        if g > worst:
                            worst = g
        return cost, pen, worst, states

    def penalized(u_flat, mu):
        cost, pen, _, _ = evaluate(u_flat)
        return cost + mu * pen

    def baseline(u_flat):
        cost, _, worst, states = evaluate(u_flat)
        return _Candidate(u_flat, cost, worst, states, False)

    bounds = [(-cfg.v_max, cfg.v_max), (-cfg.omega_max, cfg.omega_max)] * n
    lo, hi = np.array(bounds).T

    warm = warm_start is not None and len(warm_start.inputs) == n
    if warm:
        shifted = list(warm_start.inputs[1:]) + [warm_start.inputs[-1]]
        u_init = np.array([c for ui in shifted for c in (ui.v, ui.omega)])
    else:
        u_init = np.array([0.5 * cfg.v_max, 0.0] * n)
    u_init = np.clip(u_init, lo, hi)

    iterations = 0

    def optimize_from(u_start):
        nonlocal iterations
        mu = cfg.penalty_init
        u_cur = u_start
        for _ in range(cfg.solver_max_iter):
            res = minimize(penalized, u_cur, args=(mu,), method="L-BFGS-B",
                           bounds=bounds,
                           options={"maxiter": 200, "ftol": 1e-12, "gtol": 1e-8})
            iterations += int(res.nit)
            u_cur = np.clip(res.x, lo, hi)
            cost, _, worst, states = evaluate(u_cur)
            if worst <= cfg.solver_tol:
                break
            mu *= cfg.penalty_growth
        return _Candidate(u_cur, cost, worst, states, bool(res.success))

    def cheapest_feasible(cands):
        feasible = [c for c in cands if c.worst <= cfg.solver_tol]
        return min(feasible, key=lambda c: c.cost) if feasible else None

    # Never return anything worse than the trivial candidates.
    zero = baseline(np.zeros(2 * n))
    candidates = [optimize_from(u_init), zero]
    if warm:
        candidates.append(baseline(u_init))
    best = cheapest_feasible(candidates)

    # A blocking obstacle straight ahead leaves the straight init on a
    # saddle (zero gradient in omega). If the plain solve could not beat
    # simply stopping, retry from a left and a right swerve.
    stuck = best is None or (zero.worst <= cfg.solver_tol
                             and best.cost >= zero.cost - 1e-9)
    if len(obs) and stuck:
        for sign in (1.0, -1.0):
            swerve = np.array([0.5 * cfg.v_max, sign * 0.8 * cfg.omega_max] * n)
            candidates.append(optimize_from(swerve))
        best = cheapest_feasible(candidates)

    if best is not None:
        chosen = best
        status = SolverStatus.CONVERGED if best.converged else SolverStatus.MAX_ITER
    else:
        chosen = min(candidates, key=lambda c: c.worst)
        status = SolverStatus.INFEASIBLE

    inputs = tuple(ControlInput(float(v), float(w)) for v, w in chosen.u.reshape(n, 2))
    states = (state,) + tuple(QuatPose(*map(float, s)) for s in chosen.states[1:])
    return ControlSequence(inputs=inputs, predicted_states=states,
                           cost=float(chosen.cost),
                           max_constraint_violation=float(chosen.worst),
                           iterations=iterations, status=status)


class NmpcController:
    """Stateful receding-horizon wrapper: apply the first input, keep the
    rest as next tick's warm start. Single-owner; one instance per rover.
    """

    def __init__(self, cfg: NmpcConfig):
        self.cfg = cfg
        self._warm: ControlSequence | None = None
        self._u_prev = ControlInput(0.0, 0.0)

    @property
    def last_sequence(self) -> ControlSequence | None:
        return self._warm

    def control_step(self, state: QuatPose, lane: LaneModel,
                     obstacles) -> ControlInput:
        seq = solve(state, lane, obstacles, self._u_prev, self.cfg,
                    warm_start=self._warm)
        if seq.status is SolverStatus.INFEASIBLE:
            self._warm = None
            raise InfeasibleError(
                f"no feasible sequence (violation {seq.max_constraint_violation:.2e} m^2)")
        self._warm = seq
        self._u_prev = seq.inputs[0]
        return seq.inputs[0]

    def notify_applied(self, u: ControlInput) -> None:
        """Record the command actually sent when another mode overrode us."""
        self._u_prev = u

    def reset(self) -> None:
        self._warm = None
        self._u_prev = ControlInput(0.0, 0.0)
