"""Closed-form link performance: error rates, bounds and throughput.

Exact error probabilities average ``Q(z)`` over every binary symbol word, z
from ``WordTable.thresholds``: the noise threshold Monte Carlo compares its
draws with.  Per word the receiver slices at half the constructive amplitude
of the detector's equal-symbol group, which for plain inversion degenerates
to half the scaled desired gain.  The outdated-knowledge expressions are
upper bounds, not exact probabilities, and may saturate toward 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .noise import NoiseParams, shot_variance, thermal_variance, total_sigma
from .precoding import (CombinationMatrix, Precoder, WordTable, as_gains,
                        ci_precoder, combination_matrix, word_table)

__all__ = [
    "CombinationMatrix",
    "BerResult",
    "q_function",
    "combination_matrix",
    "ber_ci_perfect",
    "ber_ci_outdated",
    "ber_oap_perfect",
    "ber_oap_outdated",
    "throughput",
    "PhysicalNoise",
    "sigma_table",
]


def q_function(x):
    """Gaussian tail probability Q(x) = erfc(x / sqrt 2) / 2."""
    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


@dataclass(frozen=True)
class BerResult:
    """Per-detector and average error probabilities for one scheme/knowledge mode."""

    per_pd: np.ndarray
    scheme: str
    csi: str
    is_bound: bool = False

    def __post_init__(self):
        arr = np.array(self.per_pd, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "per_pd", arr)

    @property
    def average(self) -> float:
        return float(np.mean(self.per_pd))


class PhysicalNoise:
    """Per-word noise standard deviations from the shot/thermal model.

    The shot term is signal dependent: it is evaluated with the actual
    precoded per-luminaire optical powers of each word (negative precoder
    outputs are clamped at zero radiated power).
    """

    def __init__(self, gains, detector_area: float, responsivity: float,
                 params: NoiseParams | None = None):
        self.gains = np.asarray(gains, dtype=float)
        self.params = params if params is not None else NoiseParams()
        self.responsivity = responsivity
        self.thermal = thermal_variance(detector_area, self.params)

    def __call__(self, words, transmit_optical) -> np.ndarray:
        """Deviation per detector; one row per word when given a word table."""
        radiated = np.clip(np.asarray(transmit_optical, dtype=float), 0.0, None)
        return total_sigma(shot_variance(self.gains, radiated, self.responsivity,
                                         self.params), self.thermal)


def sigma_table(sigma, table: WordTable, power: float) -> np.ndarray:
    """Resolve sigma (scalar, per-detector array, or callable) per word.

    A callable receives every word and its transmitted optical powers at
    once and returns one row of deviations per word.
    """
    if callable(sigma):
        return np.asarray(sigma(table.words, power * table.transmit), dtype=float)
    n_r = table.words.shape[1]
    arr = np.asarray(sigma, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n_r, float(arr))
    if arr.shape != (n_r,):
        raise ValueError(f"sigma must be scalar or length-{n_r}, got shape {arr.shape}")
    if np.any(arr <= 0.0):
        raise ValueError("noise standard deviations must be positive")
    return arr


def _exact_ber(table: WordTable, sigma, responsivity: float, power: float) -> BerResult:
    """Mean over words of the Gaussian tail beyond each word's noise threshold."""
    sig = sigma_table(sigma, table, power)
    per_pd = q_function(table.thresholds(responsivity * power, sig)).mean(axis=0)
    return BerResult(per_pd=per_pd, scheme=table.scheme, csi="perfect")


def ber_ci_perfect(h, noise_sigma_per_pd, responsivity: float, power: float) -> BerResult:
    """Exact average error probability of channel inversion with fresh gains.

    Per word the desired amplitude at detector i is
    ``responsivity * power * beta_s * h_i^T w_i`` and the slicer sits at half
    of it, so each word contributes one tail ``Q(gp * margin / sigma)`` per
    detector, with the margin half that amplitude up to rounding in ``H W``.
    """
    table = word_table(h, ci_precoder(h), "ci")
    return _exact_ber(table, noise_sigma_per_pd, responsivity, power)


def ber_oap_perfect(h, noise_sigma_per_pd, responsivity: float, power: float,
                    renormalize: bool = False) -> BerResult:
    """Exact average error probability of the symbol-adaptive scheme.

    The desired amplitude at detector i includes the constructive
    contributions of its whole equal-symbol group; the slicer sits at half of
    that group amplitude, so both bits face the same ``Q(gp * margin / sigma)``.
    """
    table = word_table(h, ci_precoder(h), "oap", renormalize=renormalize)
    return _exact_ber(table, noise_sigma_per_pd, responsivity, power)


def _outdated_bound(scheme, h, h_hat, sigma, responsivity, power,
                    renormalize: bool = False) -> BerResult:
    """Two tail terms per word and bit hypothesis under a stale precoder.

    From the word residuals ``ups = beta_hat H W_hat_d``: ``own = diag(ups)``
    and ``interf = ups x - own x``; the adaptive scheme adds its group sum."""
    gains, hat = as_gains(h), as_gains(h_hat)
    if gains.shape != hat.shape:
        raise ValueError("true and estimated channels must share a shape")
    table = word_table(gains, ci_precoder(hat), scheme, renormalize=renormalize)
    sig = sigma_table(sigma, table, power)
    gp = responsivity * power
    own = table.own
    interf = table.receive - own * table.words
    group = table.slicer if scheme == "oap" else 0.0
    t1 = q_function(gp * (0.5 * own - interf) / sig)
    t2 = q_function(gp * (1.5 * own + group + interf) / sig)
    per_pd = np.clip(2.0 * (t1 + t2).mean(axis=0), 0.0, 1.0)
    return BerResult(per_pd=per_pd, scheme=scheme, csi="outdated", is_bound=True)


def ber_ci_outdated(h, h_hat, noise_sigma_per_pd, responsivity: float,
                    power: float) -> BerResult:
    """Upper bound on the inversion error rate under a stale precoder.

    Sums two tail terms per word over both bit hypotheses with the word
    residuals ``ups = beta_hat * H @ w_hat``; values are clamped to [0, 1]
    and can exceed the exact rate substantially (it is a bound).
    """
    return _outdated_bound("ci", h, h_hat, noise_sigma_per_pd, responsivity, power)


def ber_oap_outdated(h, h_hat, noise_sigma_per_pd, responsivity: float,
                     power: float, renormalize: bool = False) -> BerResult:
    """Upper bound on the adaptive-scheme error rate under a stale precoder."""
    return _outdated_bound("oap", h, h_hat, noise_sigma_per_pd, responsivity, power,
                           renormalize)


def _word_rates(table: WordTable, sigma, responsivity: float, power: float) -> np.ndarray:
    """Sum-rate of every word in bits/s/Hz.

    The all-zero word radiates nothing and carries no rate.  For the adaptive
    scheme only detectors whose symbol is on see their constructive group
    amplitude; the rest contribute zero rate for that word.
    """
    sig = np.broadcast_to(np.asarray(sigma, dtype=float), (table.words.shape[1],))
    on = table.words if table.scheme == "oap" else table.words.any(axis=1, keepdims=True)
    snr = responsivity * power * (table.slicer * on) / (2.0 * sig)
    return np.log2(1.0 + snr).sum(axis=1)


def throughput(scheme: str, h, precoder: Precoder, sigma, responsivity: float = 1.0,
               power: float = 1.0) -> float:
    """Normalized achievable throughput averaged over all symbol words."""
    table = word_table(h, precoder, scheme)
    return float(np.mean(_word_rates(table, sigma, responsivity, power)))
