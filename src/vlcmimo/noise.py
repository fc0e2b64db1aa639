"""Receiver noise: shot and thermal variances, plus a swept transmit-SNR mode.

The physical model computes per-detector current variances from device
parameters; the swept mode bypasses it and fixes the noise standard deviation
from a transmit-SNR axis shared by all detectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "NoiseParams",
    "shot_variance",
    "thermal_variance",
    "total_sigma",
    "sigma_from_transmit_snr",
]


@dataclass(frozen=True)
class NoiseParams:
    """Physical constants for the shot/thermal variance model.

    Defaults follow conventional indoor photodiode front-end values;
    bandwidth, temperature and the transimpedance parameters are
    implementation defaults and should be echoed into run metadata.
    """

    q: float = 1.602176634e-19          # C, electronic charge
    bandwidth: float = 100e6            # Hz
    i_bg: float = 100e-6                # A, background current
    i2: float = 0.562                   # noise bandwidth factor
    i3: float = 0.0868
    k_boltzmann: float = 1.380649e-23   # J/K
    temperature: float = 295.0          # K
    open_loop_gain: float = 10.0
    capacitance_per_area: float = 1.12e-6   # F/m^2 (112 pF/cm^2)
    fet_noise_factor: float = 1.5
    fet_transconductance: float = 30e-3     # S

    def __post_init__(self):
        for name, value in self.__dict__.items():
            if not value > 0.0:
                raise ValueError(f"noise parameter {name} must be positive, got {value}")


def shot_variance(channel_row, transmit_signal, responsivity: float,
                  params: NoiseParams) -> float:
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
    return 2.0 * params.q * params.bandwidth * (received + params.i_bg * params.i2)


def thermal_variance(detector_area: float, params: NoiseParams) -> float:
    """Thermal-noise current variance of the transimpedance front end."""
    if detector_area <= 0.0:
        raise ValueError("detector area must be positive")
    k_t = params.k_boltzmann * params.temperature
    feedback = (8.0 * np.pi * k_t / params.open_loop_gain
                * params.capacitance_per_area * detector_area
                * params.i2 * params.bandwidth**2)
    fet = (16.0 * np.pi**2 * k_t * params.fet_noise_factor / params.fet_transconductance
           * params.capacitance_per_area**2 * detector_area**2
           * params.i3 * params.bandwidth**3)
    return feedback + fet


def total_sigma(shot: float, thermal: float) -> float:
    """Standard deviation of the summed independent noise contributions."""
    if np.any(np.asarray(shot) < 0.0) or thermal < 0.0:
        raise ValueError("variances must be nonnegative")
    return np.sqrt(shot + thermal)


def sigma_from_transmit_snr(snr_db: float, responsivity: float, power: float) -> float:
    """Noise standard deviation realizing a transmit SNR of ``snr_db``.

    Transmit SNR is defined as ``(responsivity * power)^2 / sigma^2`` in dB,
    i.e. ``sigma = responsivity * power * 10^(-snr_db/20)``.
    """
    if power <= 0.0:
        raise ValueError("power must be positive")
    return responsivity * power * 10.0 ** (-snr_db / 20.0)
