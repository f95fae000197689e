"""Trajectory quality metrics computed from a closed-loop run log.

All statistics compare the logged poses and commands against the
analytic centerline of the world, so no localization estimate enters the
evaluation. Heading and path errors are restricted to the measured span
[0, row_length] of arc length; clearance time uses the full log. Each
statistic takes the records' projections onto the centerline when the
caller has them, as compute_report does, and projects them otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import heading_of, wrap_angle
from .sim import Centerline, RunLog, TickRecord


class NotCompleted(RuntimeError):
    """Raised when the rover never crossed the far end of the row."""


@dataclass(frozen=True)
class MetricsReport:
    clearance_time: float     # s
    v_avg: float              # m/s
    cum_gamma_avg: float      # rad, signed mean heading error
    gamma_std: float          # rad
    omega_std: float          # rad/s
    mae: float                # m
    mse: float                # m^2
    collisions: int

    def as_dict(self) -> dict:
        return asdict(self)

    def as_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def as_text(self) -> str:
        return "\n".join(f"{key} = {value}" for key, value in self.as_dict().items())


def _project(records: list[TickRecord], centerline: Centerline
             ) -> list[tuple[float, float]]:
    """(arc coordinate, signed lateral offset) of each record's position."""
    return [centerline.project(rec.pose.x1, rec.pose.x2) for rec in records]


def clearance_time(log: RunLog, centerline: Centerline, row_length: float,
                   projected: list[tuple[float, float]] | None = None) -> float:
    """Time from the first tick until the arc coordinate first exceeds
    row_length."""
    if not log.records:
        raise NotCompleted("empty log")
    projected = _project(log.records, centerline) if projected is None else projected
    for rec, (s, _) in zip(log.records, projected):
        if s > row_length:
            return rec.t - log.records[0].t
    raise NotCompleted(f"rover never passed s = {row_length} m")


def velocity_and_heading_stats(records: list[TickRecord], centerline: Centerline,
                               projected: list[tuple[float, float]] | None = None
                               ) -> tuple[float, float, float, float]:
    """(v_avg, signed mean heading error, heading error std, omega std).

    The heading error of a tick is the pose heading minus the tangent of
    the reference at the projected arc coordinate. Standard deviations
    are population statistics over the ticks.
    """
    if len(records) < 2:
        raise ValueError("need at least 2 ticks")
    projected = _project(records, centerline) if projected is None else projected
    v = np.array([rec.command.v for rec in records])
    w = np.array([rec.command.omega for rec in records])
    gamma = np.array([wrap_angle(heading_of(rec.pose) - centerline.tangent_angle(s))
                      for rec, (s, _) in zip(records, projected)])
    return (float(v.mean()), float(gamma.mean()), float(gamma.std()),
            float(w.std()))


def path_errors(records: list[TickRecord], centerline: Centerline,
                desired_offset: float = 0.0,
                projected: list[tuple[float, float]] | None = None
                ) -> tuple[float, float]:
    """(MAE, MSE) of the signed lateral offset against the desired one."""
    projected = _project(records, centerline) if projected is None else projected
    err = np.array([lateral - desired_offset for _, lateral in projected])
    return float(np.abs(err).mean()), float((err ** 2).mean())


def compute_report(log: RunLog, centerline: Centerline, row_length: float,
                   desired_offset: float = 0.0) -> MetricsReport:
    """Every statistic from one projection of each record. Heading and path
    errors cover the records within [0, row_length] of arc length, or all
    of them when none is."""
    projected = _project(log.records, centerline)
    cleared = clearance_time(log, centerline, row_length, projected)
    span = [(rec, p) for rec, p in zip(log.records, projected)
            if 0.0 <= p[0] <= row_length] or list(zip(log.records, projected))
    window, window_projected = [rec for rec, _ in span], [p for _, p in span]
    v_avg, g_avg, g_std, w_std = velocity_and_heading_stats(
        window, centerline, window_projected)
    mae, mse = path_errors(window, centerline, desired_offset, window_projected)
    # mean |e| <= sqrt(mean e^2) holds exactly; the slack is relative because
    # both sides round to the magnitude of the errors.
    rms = math.sqrt(mse)
    if mae > rms + 1e-12 * max(1.0, rms):
        raise ValueError(f"mae {mae} exceeds sqrt(mse) {rms}")
    return MetricsReport(clearance_time=cleared, v_avg=v_avg, cum_gamma_avg=g_avg,
                         gamma_std=g_std, omega_std=w_std, mae=mae, mse=mse,
                         collisions=log.collisions)
