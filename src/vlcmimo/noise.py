"""Receiver noise: shot and thermal variances, plus a swept transmit-SNR mode.

The physical model computes per-detector current variances from the device
values of a ``config.NoiseConfig`` (``physical_sigma`` gives the deviation per
word and detector); the swept mode bypasses it and fixes the noise standard
deviation from a transmit-SNR axis shared by all detectors.  ``sigma_stack``
is the one place a noise config becomes the deviations every closed form and
the Monte Carlo block loop read.
"""

from __future__ import annotations

import numpy as np

from .config import NoiseConfig

__all__ = [
    "shot_variance",
    "thermal_variance",
    "total_sigma",
    "physical_sigma",
    "sigma_from_transmit_snr",
    "sigma_stack",
]

ELECTRON_CHARGE = 1.602176634e-19     # C
BOLTZMANN = 1.380649e-23              # J/K


def shot_variance(channel_row, transmit_signal, responsivity: float,
                  params: NoiseConfig) -> float:
    """Shot-noise current variance at one detector.

    ``2 q B (responsivity * sum_j h_j x_j + I_bg I_2)`` where ``x`` is the
    per-luminaire transmitted optical power in watts.  A gain matrix (one row
    per detector) and a matrix of transmit vectors (one row per word) give one
    variance per word and detector.
    """
    h = np.asarray(channel_row, dtype=float)
    x = np.asarray(transmit_signal, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("transmit signal entries must be nonnegative")
    received = responsivity * (x @ h.T)
    return 2.0 * ELECTRON_CHARGE * params.bandwidth_hz * (
        received + params.background_current_a * params.noise_bandwidth_factor_i2)


def thermal_variance(detector_area: float, params: NoiseConfig) -> float:
    """Thermal-noise current variance of the transimpedance front end."""
    if detector_area <= 0.0:
        raise ValueError("detector area must be positive")
    k_t = BOLTZMANN * params.temperature_k
    feedback = (8.0 * np.pi * k_t / params.open_loop_gain
                * params.capacitance_per_area_f_m2 * detector_area
                * params.noise_bandwidth_factor_i2 * params.bandwidth_hz**2)
    fet = (16.0 * np.pi**2 * k_t * params.fet_noise_factor / params.fet_transconductance_s
           * params.capacitance_per_area_f_m2**2 * detector_area**2
           * params.noise_bandwidth_factor_i3 * params.bandwidth_hz**3)
    return feedback + fet


def total_sigma(shot: float, thermal: float) -> float:
    """Standard deviation of the summed independent noise contributions."""
    if np.any(np.asarray(shot) < 0.0) or thermal < 0.0:
        raise ValueError("variances must be nonnegative")
    return np.sqrt(shot + thermal)


def physical_sigma(gains, transmit_optical, detector_area: float, responsivity: float,
                   params: NoiseConfig) -> np.ndarray:
    """Deviation per detector of the shot/thermal model; one row per transmit row.

    The shot term is signal dependent: ``transmit_optical`` holds the
    precoded per-luminaire optical powers in watts (a word table's
    ``power * transmit`` gives one row per word), and negative precoder
    outputs are clamped at zero radiated power.
    """
    radiated = np.clip(np.asarray(transmit_optical, dtype=float), 0.0, None)
    return total_sigma(shot_variance(gains, radiated, responsivity, params),
                       thermal_variance(detector_area, params))


def sigma_from_transmit_snr(snr_db: float, responsivity: float, power: float) -> float:
    """Noise standard deviation realizing a transmit SNR of ``snr_db``.

    Transmit SNR is defined as ``(responsivity * power)^2 / sigma^2`` in dB,
    i.e. ``sigma = responsivity * power * 10^(-snr_db/20)``.
    """
    if power <= 0.0:
        raise ValueError("power must be positive")
    return responsivity * power * 10.0 ** (-snr_db / 20.0)


def sigma_stack(h, params: NoiseConfig, transmit, snr_points) -> np.ndarray:
    """Noise deviations of a channel, stacked ``(points, 1 or words, detectors)``.

    ``transmit`` is a word table's per-unit-power transmit vectors, (words,
    detectors), which set the shot noise.  Swept noise gives one point per
    SNR of ``snr_points``, each the same deviation at every detector;
    physical noise ignores the points and is one point whose signal-dependent
    deviation differs per word.  Each swept deviation is one
    ``sigma_from_transmit_snr`` call, and must be positive.
    """
    if params.mode == "physical":
        return physical_sigma(h.gains, h.power * transmit, h.detector_area,
                              h.responsivity, params)[None]
    sig = np.array([sigma_from_transmit_snr(p, h.responsivity, h.power) for p in snr_points])
    if not np.all(sig > 0.0):
        raise ValueError("noise standard deviations must be positive")
    return np.repeat(sig[:, None, None], np.shape(transmit)[-1], axis=2)
