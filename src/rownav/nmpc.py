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
and the dynamics are the ones solve minimises and integrates: each is
one scalar kernel, which both call. The kernels keep line searches
finite with two floors: a corridor narrower than 1e-9 m counts as that
wide, and a slope denominator x3^2 - x4^2 (the cosine of the heading)
within EPS_TAN of 0 counts as EPS_TAN with its sign (0 as +EPS_TAN).

The objective L-BFGS-B calls runs on Python floats: solve converts the
input vector with one .tolist() per evaluation, and the obstacle points,
the start state and the previous input once per solve. Indexing an
ndarray yields np.float64 scalars, whose operators cost more than
float's, and every operation in the rollout and the penalty loop is a
scalar one. The values are the same bit for bit:
+ - * / and sqrt are IEEE operations on both types, and x ** 2 reaches
the same C pow. Do not replace the penalty loop with array arithmetic:
np.sum adds the terms in another order, which moves the last bits of the
objective and so the iterates.

solve hands L-BFGS-B the exact gradient too (jac=True), by reverse-mode
differentiation of the rollout: one forward and one backward pass. The
forward pass is the rollout itself. It also keeps each RK4 substep's
tape (stage headings, norm, renormalised pair), and for each step the
sums of g (x1 - ox) and g (x2 - oy) over the clearance pairs it
violates. The backward pass starts from the travel term's partials and
carries the state's cotangent back step by step. It adds the clearance
partials -4 mu g (x - o) of the state after the step. It runs the
substeps in reverse (_rk4_substep_adjoint, through the renormalisation
and the RK4 stages, whose heading update is linear in the heading). It
then adds the stage term's partials (_stage_partials). A gradient costs
about two rollouts; a forward difference costs n + 2 even when each
perturbed rollout resumes at the perturbed step (35 steps at n = 5).
Where max(0, g), the substep count or a floor switches, the gradient is
that of the branch the forward pass took.

The forward pass makes the same operations in the same order as a plain
rollout, so the objective is the same bits as the np.float64 reference
loop. Its gradient is exact, where a forward difference carries
truncation and rounding error of about 1e-8. So L-BFGS-B's steps differ
in their last bits from those a difference gives, and so do its plans:
replayed on the inputs of the 91 solves of a sim_obstacle pass, the
median plan moved by 3e-8, and 2 plans by more than 1e-3.

The penalty loop skips the clearance terms no plan can reach. Every
input the objective sees lies in the box: L-BFGS-B evaluates only points
inside it, and its start and the baselines lie inside it. An RK4
substep turns the heading by at most 0.1 rad, so it moves the position
at most |v| h times the largest stage norm^2, under 1.001 times x3^2 +
x4^2; that is the start pair's for the first substep, which runs before
renormalisation, and 1 after it. So the state after step k lies within
(k+1) v_max dt max(1, x3^2 + x4^2) of the start, and solve keeps, for
step k, only the points closer to the start than R_safe plus 1.1 times
that plus 1e-6 m (near[k]), in their original order. A dropped point
gives g < 0, which adds nothing to the penalty, its gradient or the
worst violation, and the kept ones are added in the same order as
before, so the objective, its gradient and the plans are the same bits
as a loop over every obstacle. On sim_obstacle about 9% of the (state,
obstacle) pairs are kept.

solve runs the penalty rounds from one start, u_init: the shifted warm
start, or half speed straight ahead without one. Its plan is one of four
candidates: that optimizer result, the zero plan, the shifted warm start
(when there is one) and constant reverse (v = -v_max, omega = 0). The
rule: the cheapest candidate that meets the clearance constraints within
solver_tol, else the least violating one. The status describes that
plan: CONVERGED for the optimizer result when its last L-BFGS-B run
reported success, MAX_ITER when that run stopped short or the plan is a
baseline, INFEASIBLE when no candidate is feasible. From inside R_safe
of a point ahead, constant reverse may be the only way out. It is a
baseline, not an optimizer start, because L-BFGS-B started there drifts
forward again, back into the point.

An exactly mirror-symmetric problem is a saddle: a lane symmetric about
the rover's axis, the rover on it with omega_prev = 0, and the points
mirrored too, say one post dead ahead. From a start with omega = 0 the
gradient in omega is exactly 0, so no L-BFGS-B run turns, and the plan
for a post the rover cannot pass straight is the stop (MAX_ITER). 1e-9 m
off the axis breaks the tie, and the plan bends around the post. A lane
fitted to a noisy frame is never exactly symmetric.

One call inside minimize(..., method="L-BFGS-B") wakes the thread pool
of scipy's bundled OpenBLAS: dtrtrs with more than one right-hand side,
the triangular solve in formk (upper, transposed, n = nrhs = corrections
held, lda = 2m), once per L-BFGS update. Its other calls (dcopy, ddot,
daxpy, dscal, dnrm2, dpotrf, one-right-hand-side dtrtrs) stay on the
calling thread at these sizes. Found by interposing those symbols and
pinning the pool to one thread around one routine at a time, with scipy
1.17.1 (OpenBLAS 0.3.30) on a 2-vCPU host beside one busy-loop process:
over the 97 solves of sim_obstacle world seed 6 the summed solve time
was 3.49 s (worst 290 ms) with the default pool, 1.12 s (86 ms) with
only that dtrtrs pinned, and 1.03 s with every routine pinned; alone,
with the default pool, 1.16 s. So solve sets that pool to one thread for
its L-BFGS-B runs and restores the old count after them, through the
library's own scipy_openblas_set_num_threads. A scipy without a bundled
OpenBLAS (scipy.libs/libscipy_openblas*.so) is left as it is. A thread
count does not change the bits: each right-hand side is solved apart.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy
from scipy.optimize import minimize

from .core import ControlInput, QuatPose
from .pipeline import LaneModel

# Near +-90 deg the rover-slope tangent blows up: the slope cost floors
# |x3^2 - x4^2| at this value.
EPS_TAN = 1e-3

# Max heading change per RK4 substep. A single step at the rated bounds
# (0.5 rad/s * 0.7 s) would leave ~3e-6 error against the closed-form arc;
# substepping keeps it below 1e-8.
_MAX_HEADING_PER_SUBSTEP = 0.1

# The lane cost floors the corridor width at this (m): borders that meet.
_MIN_WIDTH = 1e-9

# A step at |v| <= v_max moves the position at most |v| * dt times the
# largest RK4 stage norm^2 (<= 1.001 for a unit heading at 0.1 rad per
# substep); the slack and the margin (m) cover that factor and rounding.
_REACH_SLACK = 1.1
_REACH_MARGIN = 1e-6

# Exterior penalty schedule: up to PENALTY_ROUNDS L-BFGS-B runs, the weight
# starting at PENALTY_INIT and multiplied by PENALTY_GROWTH after each.
PENALTY_ROUNDS = 8
PENALTY_INIT = 10.0
PENALTY_GROWTH = 10.0


@functools.cache
def _scipy_openblas():
    """scipy's bundled OpenBLAS, or None where this scipy has none."""
    libs = Path(scipy.__file__).resolve().parent.parent / "scipy.libs"
    paths = sorted(libs.glob("libscipy_openblas*.so"))
    if not paths:
        return None
    lib = ctypes.CDLL(str(paths[0]))
    lib.scipy_openblas_get_num_threads.argtypes = []
    lib.scipy_openblas_get_num_threads.restype = ctypes.c_int
    lib.scipy_openblas_set_num_threads.argtypes = [ctypes.c_int]
    lib.scipy_openblas_set_num_threads.restype = None
    return lib


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with scipy's OpenBLAS pool at one thread."""
    lib = _scipy_openblas()
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads()
    lib.scipy_openblas_set_num_threads(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads(before)


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
    solver_tol: float = 1e-3          # max allowed constraint violation, m^2

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
    """One RK4 substep, renormalised: the new state, and the tape the
    adjoint reads back (the stage headings, the norm and the new pair)."""
    k1 = _derivative(v, w, x3, x4)
    b3, b4 = x3 + 0.5 * h * k1[2], x4 + 0.5 * h * k1[3]
    k2 = _derivative(v, w, b3, b4)
    c3, c4 = x3 + 0.5 * h * k2[2], x4 + 0.5 * h * k2[3]
    k3 = _derivative(v, w, c3, c4)
    d3, d4 = x3 + h * k3[2], x4 + h * k3[3]
    k4 = _derivative(v, w, d3, d4)
    x1 += h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
    x2 += h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    z3 = x3 + h / 6.0 * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
    z4 = x4 + h / 6.0 * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
    norm = math.sqrt(z3 * z3 + z4 * z4)
    y3, y4 = z3 / norm, z4 / norm
    return (x1, x2, y3, y4), (x3, x4, b3, b4, c3, c4, d3, d4, norm, y3, y4)


def _rk4_substep_adjoint(l1, l2, l3, l4, v, w, h, tape):
    """Reverse pass of _rk4_substep: given the cotangent (l1, l2, l3, l4)
    of its new state, the heading cotangent (l3, l4) of its input state
    and the substep's partials in v and w. The position cotangent (l1,
    l2) passes through a substep unchanged."""
    a3, a4, b3, b4, c3, c4, d3, d4, norm, y3, y4 = tape
    # y = z / |z|
    p = l3 * y3 + l4 * y4
    g3, g4 = (l3 - p * y3) / norm, (l4 - p * y4) / norm
    # z = a + h/6 (w/2) J (a + 2b + 2c + d) and the position increment
    # h/6 v sum m_i (s3^2 - s4^2, 2 s3 s4) over the stage headings s,
    # with J (s3, s4) = (-s4, s3) and m = (1, 2, 2, 1).
    c6 = h / 6.0
    gv = c6 * (l1 * (a3 * a3 - a4 * a4 + 2.0 * (b3 * b3 - b4 * b4 + c3 * c3 - c4 * c4)
                     + d3 * d3 - d4 * d4)
               + 2.0 * l2 * (a3 * a4 + 2.0 * (b3 * b4 + c3 * c4) + d3 * d4))
    gw = 0.5 * c6 * (g4 * (a3 + 2.0 * (b3 + c3) + d3) - g3 * (a4 + 2.0 * (b4 + c4) + d4))
    hw = 0.5 * w
    tv1, tv2, e3, e4 = 2.0 * v * l1, 2.0 * v * l2, hw * g4, -hw * g3
    ga3, ga4 = c6 * (tv1 * a3 + tv2 * a4 + e3), c6 * (tv2 * a3 - tv1 * a4 + e4)
    gb3, gb4 = 2.0 * c6 * (tv1 * b3 + tv2 * b4 + e3), 2.0 * c6 * (tv2 * b3 - tv1 * b4 + e4)
    gc3, gc4 = 2.0 * c6 * (tv1 * c3 + tv2 * c4 + e3), 2.0 * c6 * (tv2 * c3 - tv1 * c4 + e4)
    gd3, gd4 = c6 * (tv1 * d3 + tv2 * d4 + e3), c6 * (tv2 * d3 - tv1 * d4 + e4)
    # d = a + h (w/2) J c, c = a + h/2 (w/2) J b, b = a + h/2 (w/2) J a
    f = h * hw
    gc3, gc4 = gc3 + f * gd4, gc4 - f * gd3
    gw += 0.5 * h * (gd4 * c3 - gd3 * c4)
    f = 0.5 * h * hw
    gb3, gb4 = gb3 + f * gc4, gb4 - f * gc3
    gw += 0.25 * h * (gc4 * b3 - gc3 * b4)
    ga3, ga4 = ga3 + f * gb4, ga4 - f * gb3
    gw += 0.25 * h * (gb4 * a3 - gb3 * a4)
    return g3 + ga3 + gb3 + gc3 + gd3, g4 + ga4 + gb4 + gc4 + gd4, gv, gw


def _integrate_raw(x1, x2, x3, x4, v, w, dt):
    """The state after dt, and the substep length and tapes."""
    n_sub = max(1, math.ceil(abs(w) * dt / _MAX_HEADING_PER_SUBSTEP))
    h = dt / n_sub
    tapes = []
    state = (x1, x2, x3, x4)
    for _ in range(n_sub):
        state, tape = _rk4_substep(*state, v, w, h)
        tapes.append(tape)
    return state, (h, tapes)


def integrate_step(state: QuatPose, u: ControlInput, dt: float) -> QuatPose:
    """Propagate the state by dt under constant input (substepped RK4).

    The half-angle pair is renormalized after every substep, so the unit
    invariant holds to machine precision.
    """
    return QuatPose(*_integrate_raw(state.x1, state.x2, state.x3, state.x4,
                                    u.v, u.omega, dt)[0])


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


def lane_cost(state: QuatPose, lane: LaneModel) -> float:
    """Centering paraboloid: 0 on the corridor midline, 1 on either border.

    Border heights are the margin-inflated lines evaluated at the state's
    forward coordinate; a width under 1e-9 m counts as 1e-9 m.
    """
    return _lane_term(state.x1, state.x2, lane)


def align_cost(state: QuatPose, lane: LaneModel) -> float:
    """Squared slope mismatch between the rover heading and the middle line.

    A slope denominator x3^2 - x4^2 within EPS_TAN of 0 counts as EPS_TAN
    with its sign.
    """
    return _align_term(state.x3, state.x4, lane.a_avg)


def meyer_cost(state: QuatPose, lane: LaneModel, K_travel: float) -> float:
    """Negative distance traveled, projected on the row direction."""
    return _travel_term(state.x1, state.x2, lane, K_travel)


def stage_cost(state: QuatPose, u: ControlInput, u_prev: ControlInput,
               lane: LaneModel, cfg: NmpcConfig) -> float:
    """Running cost: weighted centering + alignment + input-change penalty."""
    return _add_stage(0.0, state.x1, state.x2, state.x3, state.x4,
                      u.v, u.omega, u_prev.v, u_prev.omega, lane, cfg)


def _stage_partials(x1, x2, x3, x4, v, w, pv, pw, lane, cfg):
    """Partials of _add_stage's increment in (x1, x2, x3, x4, v, w); those
    in (pv, pw) are minus the last two. Where the corridor-width or the
    slope-denominator floor binds, the floored value is held constant."""
    al, ar = lane.inflated_left.a, lane.inflated_right.a
    y_l, y_r = lane.inflated_left.y_at(x1), lane.inflated_right.y_at(x1)
    d = abs(y_l - y_r)
    dd_dx1 = (al - ar) if y_l >= y_r else (ar - al)
    if d < _MIN_WIDTH:
        d, dd_dx1 = _MIN_WIDTH, 0.0
    s = 2.0 * x2 - y_l - y_r
    dlane_dx1 = 2.0 * s * -(al + ar) / (d * d) - 2.0 * s * s * dd_dx1 / (d * d * d)
    dlane_dx2 = 4.0 * s / (d * d)

    D = x3 * x3 - x4 * x4
    N = 2.0 * x3 * x4
    if abs(D) < EPS_TAN:
        D = EPS_TAN if D >= 0 else -EPS_TAN
        dq_dx3, dq_dx4 = 2.0 * x4 / D, 2.0 * x3 / D
    else:
        dq_dx3 = (2.0 * x4 * D - N * 2.0 * x3) / (D * D)
        dq_dx4 = (2.0 * x3 * D + N * 2.0 * x4) / (D * D)
    diff = lane.a_avg - N / D
    return (cfg.K_lane * dlane_dx1, cfg.K_lane * dlane_dx2,
            -2.0 * cfg.K_orient * diff * dq_dx3,
            -2.0 * cfg.K_orient * diff * dq_dx4,
            2.0 * cfg.r_weight_v * (v - pv), 2.0 * cfg.r_weight_omega * (w - pw))


def _travel_partials(lane, K_travel):
    """Partials of _travel_term in (x1, x2); it does not read the heading."""
    a = lane.a_avg
    scale = -K_travel / math.sqrt(1.0 + a * a)
    return scale, scale * a


class _Candidate(NamedTuple):
    u: np.ndarray
    cost: float
    worst: float          # max constraint violation, m^2
    states: list          # rollout of u, n + 1 raw state tuples
    converged: bool       # an optimizer result whose last run reported success


def _obstacle_list(obstacles) -> list:
    """Obstacle points as a list of (x, y) float pairs. None or an empty
    input is no obstacle; anything but an (M, 2) array raises ValueError."""
    if obstacles is None:
        return []
    pts = np.asarray(obstacles, dtype=float)
    if pts.size == 0:
        return []
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"obstacles must be an (M, 2) array, got shape {pts.shape}")
    return pts.tolist()


def solve(state: QuatPose, lane: LaneModel, obstacles, u_prev: ControlInput,
          cfg: NmpcConfig, warm_start: ControlSequence | None = None
          ) -> ControlSequence:
    """Solve the horizon problem and return a saturated input sequence.

    The returned sequence is the cheapest feasible candidate among the
    optimizer result, the zero plan, the shifted warm start and constant
    reverse, so its cost never exceeds a feasible baseline's; when none
    is feasible, it is the least violating one. The status describes that
    candidate, as set out in the module docstring. `obstacles` is None, an
    empty input or an (M, 2) array of points; any other shape raises
    ValueError.
    """
    n = cfg.horizon_n
    obs = _obstacle_list(obstacles)
    r2 = cfg.R_safe * cfg.R_safe
    start = (float(state.x1), float(state.x2), float(state.x3), float(state.x4))
    v_prev, w_prev = float(u_prev.v), float(u_prev.omega)
    # near[k]: the points the state after step k can come within R_safe of,
    # in their original order (see the module docstring for the bound).
    reach = (_REACH_SLACK * cfg.v_max * cfg.dt
             * max(1.0, start[2] * start[2] + start[3] * start[3]))
    dist = [math.hypot(ox - start[0], oy - start[1]) for ox, oy in obs]
    near = [[o for o, d in zip(obs, dist)
             if d < cfg.R_safe + (k + 1) * reach + _REACH_MARGIN]
            for k in range(n)]
    travel = _travel_partials(lane, cfg.K_travel)

    def rollout(u):
        """(objective, sum of squared violations, max violation, rollout,
        tape) of the input list u. tape[k] holds step k's substep tapes and
        the sums of g (x1 - ox) and g (x2 - oy) over the violated pairs of
        the state after it."""
        states = [start]
        tape = []
        cost = pen = worst = 0.0
        pv, pw = v_prev, w_prev
        for k in range(n):
            v, w = u[2 * k], u[2 * k + 1]
            cost = _add_stage(cost, *states[k], v, w, pv, pw, lane, cfg)
            nxt, substeps = _integrate_raw(*states[k], v, w, cfg.dt)
            states.append(nxt)
            sx, sy = nxt[0], nxt[1]
            gx = gy = 0.0
            for ox, oy in near[k]:
                g = r2 - (sx - ox) ** 2 - (sy - oy) ** 2
                if g > 0.0:
                    pen += g * g
                    gx += g * (sx - ox)
                    gy += g * (sy - oy)
                    if g > worst:
                        worst = g
            tape.append((substeps, gx, gy))
            pv, pw = v, w
        cost += _travel_term(states[n][0], states[n][1], lane, cfg.K_travel)
        return cost, pen, worst, states, tape

    def penalized(u_flat, mu):
        """The penalized objective and its exact gradient, from the adjoint
        of the rollout: the cotangent of each state is carried back through
        the step's substeps, and the stage terms, travel term and clearance
        penalty add their partials on the way."""
        u = u_flat.tolist()
        cost, pen, _, states, tape = rollout(u)
        grad = [0.0] * (2 * n)
        l1, l2 = travel
        l3 = l4 = 0.0
        for k in range(n - 1, -1, -1):
            (h, substeps), gx, gy = tape[k]
            # d(g^2)/dx1 = -4 g (x1 - ox), likewise in x2
            l1 -= 4.0 * mu * gx
            l2 -= 4.0 * mu * gy
            v, w = u[2 * k], u[2 * k + 1]
            for sub in reversed(substeps):
                l3, l4, dv, dw = _rk4_substep_adjoint(
                    l1, l2, l3, l4, v, w, h, sub)
                grad[2 * k] += dv
                grad[2 * k + 1] += dw
            pv, pw = (u[2 * k - 2], u[2 * k - 1]) if k else (v_prev, w_prev)
            d1, d2, d3, d4, dv, dw = _stage_partials(*states[k], v, w, pv, pw,
                                                     lane, cfg)
            l1, l2, l3, l4 = l1 + d1, l2 + d2, l3 + d3, l4 + d4
            grad[2 * k] += dv
            grad[2 * k + 1] += dw
            if k:
                grad[2 * k - 2] -= dv
                grad[2 * k - 1] -= dw
        return cost + mu * pen, np.array(grad)

    def evaluate(u_flat, converged=False):
        cost, _, worst, states, _ = rollout(u_flat.tolist())
        return _Candidate(u_flat, cost, worst, states, converged)

    bounds = [(-cfg.v_max, cfg.v_max), (-cfg.omega_max, cfg.omega_max)] * n
    lo, hi = np.array(bounds).T

    warm = warm_start is not None and len(warm_start.inputs) == n
    if warm:
        shifted = list(warm_start.inputs[1:]) + [warm_start.inputs[-1]]
        u_init = np.array([c for ui in shifted for c in (ui.v, ui.omega)])
    else:
        u_init = np.array([0.5 * cfg.v_max, 0.0] * n)
    u_init = np.clip(u_init, lo, hi)

    # Penalty rounds from the one start: each round restarts L-BFGS-B from
    # the last result with a heavier clearance weight.
    iterations = 0
    u_cur, mu = u_init, PENALTY_INIT
    with _one_blas_thread():
        for _ in range(PENALTY_ROUNDS):
            res = minimize(penalized, u_cur, args=(mu,), method="L-BFGS-B",
                           jac=True, bounds=bounds,
                           options={"maxiter": 200, "ftol": 1e-12, "gtol": 1e-8})
            iterations += int(res.nit)
            optimized = evaluate(np.clip(res.x, lo, hi), bool(res.success))
            if optimized.worst <= cfg.solver_tol:
                break
            u_cur = optimized.u
            mu *= PENALTY_GROWTH

    candidates = [optimized, evaluate(np.zeros(2 * n))]
    if warm:
        candidates.append(evaluate(u_init))
    candidates.append(evaluate(np.array([-cfg.v_max, 0.0] * n)))
    feasible = [c for c in candidates if c.worst <= cfg.solver_tol]
    if feasible:
        chosen = min(feasible, key=lambda c: c.cost)
        status = SolverStatus.CONVERGED if chosen.converged else SolverStatus.MAX_ITER
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
                     obstacles) -> ControlSequence:
        """Solve from the warm start and return the plan. An INFEASIBLE
        plan clears the warm start; any other becomes the next one, and
        its first input the applied one."""
        seq = solve(state, lane, obstacles, self._u_prev, self.cfg,
                    warm_start=self._warm)
        if seq.status is SolverStatus.INFEASIBLE:
            self._warm = None
        else:
            self._warm, self._u_prev = seq, seq.inputs[0]
        return seq

    def notify_applied(self, u: ControlInput) -> None:
        """Record the command actually sent when another mode overrode us."""
        self._u_prev = u

    def reset(self) -> None:
        self._warm = None
        self._u_prev = ControlInput(0.0, 0.0)
