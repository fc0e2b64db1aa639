"""Outdated channel knowledge from user mobility.

A user moving between two channel updates invalidates the transmitter's gain
estimate.  The worst-case entry error is bounded via the distance-only gain
model; perturbation models realize estimates within that bound.
"""

from __future__ import annotations

import math

import numpy as np

from .channel import ChannelMatrix

__all__ = [
    "error_bound",
    "perturb_channel",
]


def error_bound(start_xy, end_xy, plane_separation: float, varpi: float, m: float) -> float:
    """Worst-case gain error ``varpi * |d2^-(m+3) - d1^-(m+3)|`` of a horizontal move.

    ``start_xy`` and ``end_xy`` are the user's (x, y) offsets from the
    luminaire axis before and after the move, and ``plane_separation`` the
    fixed height between the luminaire and receiver planes; d1 and d2 are the
    distances they give.  Depends only on those distances, so purely
    tangential moves give 0.
    """
    if plane_separation <= 0.0:
        raise ValueError("plane separation must be positive")
    d1, d2 = (math.sqrt(x * x + y * y + plane_separation**2) for x, y in (start_xy, end_xy))
    return varpi * abs(d2 ** -(m + 3.0) - d1 ** -(m + 3.0))


def perturb_channel(h: ChannelMatrix, bound: float, model: str = "uniform",
                    seed: int | None = None, row: int = 0,
                    worst_case_sign: str = "pessimistic") -> np.ndarray:
    """Realize a stale channel estimate, the (n, n) gains with the mobile user's row moved.

    ``uniform`` draws i.i.d. entries on [-bound, bound]; ``worst_case`` shifts
    the whole row by the bound with a configurable sign pattern.
    ``pessimistic`` degrades the link: it overestimates the desired gain (so
    the realized desired amplitude drops) and underestimates interference
    gains (so residual interference survives).  ``plus``/``minus`` shift
    everything one way.  Gains are clamped at zero, which can only move an
    entry back toward its true value, so every entry stays within the bound.
    """
    if bound < 0.0:
        raise ValueError("error bound must be nonnegative")
    gains = np.array(h.gains, dtype=float)
    n_r, n_t = gains.shape
    if not 0 <= row < n_r:
        raise IndexError(f"row {row} out of range for {n_r} detectors")
    if model == "uniform":
        gains[row] += np.random.default_rng(seed).uniform(-bound, bound, size=n_t)
    elif model != "worst_case":
        raise ValueError(f"unknown perturbation model {model!r}")
    elif worst_case_sign == "plus":
        gains[row] += bound
    elif worst_case_sign in ("minus", "pessimistic"):
        gains[row] -= bound
        if worst_case_sign == "pessimistic":
            gains[row, min(row, n_t - 1)] += 2.0 * bound
    else:
        raise ValueError(f"unknown worst-case sign mode {worst_case_sign!r}")
    return np.clip(gains, 0.0, None, out=gains)
