"""Trajectory quality metrics computed from a closed-loop run log.

All statistics compare the logged poses and commands against the
analytic centerline of the world, so no localization estimate enters the
evaluation. Heading and path errors are restricted to the measured span
[0, row_length] of arc length; clearance time uses the full log.
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


def clearance_time(log: RunLog, centerline: Centerline, row_length: float) -> float:
    """Time from the first tick until the arc coordinate first exceeds
    row_length."""
    if not log.records:
        raise NotCompleted("empty log")
    t0 = log.records[0].t
    for rec in log.records:
        s, _ = centerline.project(rec.pose.x1, rec.pose.x2)
        if s > row_length:
            return rec.t - t0
    raise NotCompleted(f"rover never passed s = {row_length} m")


def _in_span(records: list[TickRecord], centerline: Centerline,
             row_length: float) -> list[TickRecord]:
    kept = []
    for rec in records:
        s, _ = centerline.project(rec.pose.x1, rec.pose.x2)
        if 0.0 <= s <= row_length:
            kept.append(rec)
    return kept if kept else list(records)


def velocity_and_heading_stats(records: list[TickRecord], centerline: Centerline
                               ) -> tuple[float, float, float, float]:
    """(v_avg, signed mean heading error, heading error std, omega std).

    The heading error of a tick is the pose heading minus the tangent of
    the reference at the projected arc coordinate. Standard deviations
    are population statistics over the ticks.
    """
    if len(records) < 2:
        raise ValueError("need at least 2 ticks")
    v = np.array([rec.command.v for rec in records])
    w = np.array([rec.command.omega for rec in records])
    gamma = []
    for rec in records:
        s, _ = centerline.project(rec.pose.x1, rec.pose.x2)
        gamma.append(wrap_angle(heading_of(rec.pose) - centerline.tangent_angle(s)))
    gamma = np.array(gamma)
    return (float(v.mean()), float(gamma.mean()), float(gamma.std()),
            float(w.std()))


def path_errors(records: list[TickRecord], centerline: Centerline,
                desired_offset: float = 0.0) -> tuple[float, float]:
    """(MAE, MSE) of the signed lateral offset against the desired one."""
    err = []
    for rec in records:
        _, lateral = centerline.project(rec.pose.x1, rec.pose.x2)
        err.append(lateral - desired_offset)
    err = np.array(err)
    return float(np.abs(err).mean()), float((err ** 2).mean())


def compute_report(log: RunLog, centerline: Centerline, row_length: float,
                   desired_offset: float = 0.0) -> MetricsReport:
    cleared = clearance_time(log, centerline, row_length)
    window = _in_span(log.records, centerline, row_length)
    v_avg, g_avg, g_std, w_std = velocity_and_heading_stats(window, centerline)
    mae, mse = path_errors(window, centerline, desired_offset)
    # mean |e| <= sqrt(mean e^2) holds exactly; the slack is relative because
    # both sides round to the magnitude of the errors.
    rms = math.sqrt(mse)
    if mae > rms + 1e-12 * max(1.0, rms):
        raise ValueError(f"mae {mae} exceeds sqrt(mse) {rms}")
    return MetricsReport(clearance_time=cleared, v_avg=v_avg, cum_gamma_avg=g_avg,
                         gamma_std=g_std, omega_std=w_std, mae=mae, mse=mse,
                         collisions=log.collisions)
