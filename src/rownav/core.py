"""Shared geometric types for the row navigation stack.

The planar rover pose stores its heading as the half-angle pair
(cos(theta/2), sin(theta/2)) instead of a bare angle, which keeps the
kinematic model polynomial and free of trigonometric calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def wrap_angle(angle: float) -> float:
    """Wrap an angle to (-pi, pi]."""
    wrapped = math.fmod(angle, 2.0 * math.pi)
    if wrapped > math.pi:
        wrapped -= 2.0 * math.pi
    elif wrapped <= -math.pi:
        wrapped += 2.0 * math.pi
    return wrapped


@dataclass(frozen=True)
class QuatPose:
    """Planar pose: position (x1, x2) in meters, heading as a unit pair.

    x3 = cos(theta/2), x4 = sin(theta/2). The pair is kept unit-norm by
    every constructor and integrator in this package.
    """

    x1: float
    x2: float
    x3: float
    x4: float

    def unit_error(self) -> float:
        return abs(self.x3 * self.x3 + self.x4 * self.x4 - 1.0)


@dataclass(frozen=True)
class ControlInput:
    v: float       # linear velocity, m/s
    omega: float   # angular velocity, rad/s


@dataclass(frozen=True)
class Point2:
    x: float
    y: float


@dataclass(frozen=True)
class BorderLine:
    """First-order border polynomial y = a*x + b in the rover frame."""

    a: float     # slope, unitless
    b: float     # intercept, meters
    side: str    # "left", "right" or "middle"

    def y_at(self, x: float) -> float:
        return self.a * x + self.b


def pose_from(x: float, y: float, theta: float) -> QuatPose:
    """Build a pose from position and heading angle (radians)."""
    half = 0.5 * theta
    return QuatPose(x, y, math.cos(half), math.sin(half))


def heading_of(pose: QuatPose) -> float:
    """Heading angle in (-pi, pi] recovered from the half-angle pair."""
    return wrap_angle(2.0 * math.atan2(pose.x4, pose.x3))
