"""Outdated channel knowledge from user mobility.

A user moving between two channel updates invalidates the transmitter's gain
estimate.  The worst-case entry error is bounded via the distance-only gain
model; perturbation models realize estimates within that bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix

__all__ = [
    "MobilityEvent",
    "ChannelEstimate",
    "error_bound",
    "perturb_channel",
]


@dataclass(frozen=True)
class MobilityEvent:
    """Horizontal move of one user between consecutive channel updates.

    Coordinates are measured in the luminaire's frame: (x, y) is the
    horizontal displacement from the luminaire axis, ``plane_separation`` the
    fixed height between the luminaire and receiver planes.
    """

    start_xy: tuple[float, float]
    end_xy: tuple[float, float]
    plane_separation: float
    elapsed_time: float

    def __post_init__(self):
        if self.plane_separation <= 0.0:
            raise ValueError("plane separation must be positive")
        if self.elapsed_time <= 0.0:
            raise ValueError("elapsed time must be positive")
        object.__setattr__(self, "start_xy", tuple(float(c) for c in self.start_xy))
        object.__setattr__(self, "end_xy", tuple(float(c) for c in self.end_xy))

    @property
    def start_distance(self) -> float:
        x, y = self.start_xy
        return math.sqrt(x * x + y * y + self.plane_separation**2)

    @property
    def end_distance(self) -> float:
        x, y = self.end_xy
        return math.sqrt(x * x + y * y + self.plane_separation**2)

    @property
    def max_velocity(self) -> float:
        """Planar speed realizing the move within the elapsed time."""
        dx = self.end_xy[0] - self.start_xy[0]
        dy = self.end_xy[1] - self.start_xy[1]
        return math.hypot(dx, dy) / self.elapsed_time


def error_bound(event: MobilityEvent, varpi: float, m: float) -> float:
    """Worst-case gain error ``varpi * |d2^-(m+3) - d1^-(m+3)|`` of the move.

    Depends only on the radial distances, so purely tangential moves give 0.
    """
    d1 = event.start_distance
    d2 = event.end_distance
    return varpi * abs(d2 ** -(m + 3.0) - d1 ** -(m + 3.0))


@dataclass(frozen=True)
class ChannelEstimate:
    """Transmitter-side gain estimate with its entry-wise error bound."""

    h_hat: np.ndarray
    error_bound: float
    true_h: ChannelMatrix

    def __post_init__(self):
        arr = np.array(self.h_hat, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "h_hat", arr)
        if self.error_bound < 0.0:
            raise ValueError("error bound must be nonnegative")
        dev = np.max(np.abs(arr - self.true_h.gains))
        if dev > self.error_bound * (1.0 + 1e-12) + 1e-300:
            raise ValueError(
                f"estimate deviates by {dev:.3e}, beyond the bound {self.error_bound:.3e}")


def perturb_channel(h: ChannelMatrix, bound: float, model: str = "uniform",
                    seed: int | None = None, rows: tuple[int, ...] = (0,),
                    worst_case_sign: str = "pessimistic") -> ChannelEstimate:
    """Realize a stale channel estimate for the mobile user's rows.

    ``uniform`` draws i.i.d. entries on [-bound, bound]; ``worst_case`` shifts
    whole rows by the bound with a configurable sign pattern.  ``pessimistic``
    degrades the link: it overestimates the desired gain (so the realized
    desired amplitude drops) and underestimates interference gains (so
    residual interference survives).  ``plus``/``minus`` shift everything one
    way.  Gains are clamped at zero, which can only move an entry back toward
    its true value.
    """
    if bound < 0.0:
        raise ValueError("error bound must be nonnegative")
    gains = np.array(h.gains, dtype=float)
    n_r, n_t = gains.shape
    for i in rows:
        if not 0 <= i < n_r:
            raise IndexError(f"row {i} out of range for {n_r} detectors")
    if model == "uniform":
        rng = np.random.default_rng(seed)
        for i in rows:
            gains[i, :] += rng.uniform(-bound, bound, size=n_t)
    elif model == "worst_case":
        for i in rows:
            if worst_case_sign == "plus":
                gains[i, :] += bound
            elif worst_case_sign == "minus":
                gains[i, :] -= bound
            elif worst_case_sign == "pessimistic":
                gains[i, :] -= bound
                gains[i, min(i, n_t - 1)] += 2.0 * bound
            else:
                raise ValueError(f"unknown worst-case sign mode {worst_case_sign!r}")
    else:
        raise ValueError(f"unknown perturbation model {model!r}")
    np.clip(gains, 0.0, None, out=gains)
    return ChannelEstimate(h_hat=gains, error_bound=bound, true_h=h)
