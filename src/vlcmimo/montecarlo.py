"""Symbol-level Monte Carlo engine with deterministic parallel estimation.

Symbols are processed in fixed-size blocks; each block draws from its own
counter-based generator keyed by (seed, block index), so error counts are
bit-identical for a given seed regardless of worker count or scheduling.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import analytic
from .channel import ChannelMatrix
from .csi import perturb_channel
from .noise import NoiseParams, sigma_from_transmit_snr
from .precoding import ci_precoder, word_table

__all__ = [
    "SimConfig",
    "BerEstimate",
    "BerCurve",
    "simulate",
    "sweep",
    "exhaustive_noiseless_errors",
]


@dataclass(frozen=True)
class SimConfig:
    """Configuration of one Monte Carlo run (one scheme at one noise point)."""

    n_symbols: int = 2_000_000
    seed: int = 0
    scheme: str = "ci"                 # "ci" | "oap"
    csi_mode: str = "perfect"          # "perfect" | "outdated"
    csi_model: str = "uniform"         # perturbation model when outdated
    csi_bound: float = 0.0             # entry-wise gain error bound
    csi_rows: tuple[int, ...] = (0,)   # rows of the mobile user(s)
    csi_sign: str = "pessimistic"      # worst-case sign pattern
    csi_seed: int | None = None        # defaults to seed
    noise_mode: str = "swept"          # "swept" | "physical" | "noiseless"
    snr_db: float | None = None        # required in swept mode
    noise_params: NoiseParams | None = None
    early_stop_errors: int | None = None
    block_size: int = 1 << 16
    renormalize_oap: bool = False

    def __post_init__(self):
        if self.n_symbols < 1:
            raise ValueError("n_symbols must be >= 1")
        if self.scheme not in ("ci", "oap"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.csi_mode not in ("perfect", "outdated"):
            raise ValueError(f"unknown csi mode {self.csi_mode!r}")
        if self.noise_mode not in ("swept", "physical", "noiseless"):
            raise ValueError(f"unknown noise mode {self.noise_mode!r}")
        if self.snr_db is not None and not np.isfinite(self.snr_db):
            raise ValueError("swept noise mode needs a finite snr_db")
        if self.early_stop_errors is not None and self.early_stop_errors < 100:
            raise ValueError("early stopping needs a target of at least 100 errors")
        if self.block_size < 1:
            raise ValueError("block size must be >= 1")


@dataclass(frozen=True)
class BerEstimate:
    """Error counts and rates with binomial normal-approximation halfwidths."""

    per_pd_errors: np.ndarray
    symbols_run: int

    def __post_init__(self):
        arr = np.array(self.per_pd_errors, dtype=np.int64)
        arr.setflags(write=False)
        object.__setattr__(self, "per_pd_errors", arr)

    @property
    def per_pd_ber(self) -> np.ndarray:
        return self.per_pd_errors / self.symbols_run

    @property
    def halfwidth_95(self) -> np.ndarray:
        p = self.per_pd_ber
        return 1.96 * np.sqrt(p * (1.0 - p) / self.symbols_run)

    @property
    def average_ber(self) -> float:
        return float(self.per_pd_errors.sum() / (self.symbols_run * len(self.per_pd_errors)))

    @property
    def average_halfwidth(self) -> float:
        n = self.symbols_run * len(self.per_pd_errors)
        p = self.average_ber
        return float(1.96 * np.sqrt(p * (1.0 - p) / n))

    def average_stderr(self) -> float:
        n = self.symbols_run * len(self.per_pd_errors)
        p = self.average_ber
        return float(np.sqrt(p * (1.0 - p) / n))


@dataclass(frozen=True)
class BerCurve:
    """One scheme's sweep: Monte Carlo estimates paired with analytic values."""

    snr_db: tuple[float, ...]
    estimates: tuple[BerEstimate, ...]
    analytic: tuple[analytic.BerResult, ...]
    scheme: str
    csi_mode: str


def _stale_gains(h: ChannelMatrix, cfg: SimConfig):
    seed = cfg.csi_seed if cfg.csi_seed is not None else cfg.seed
    est = perturb_channel(h, cfg.csi_bound, model=cfg.csi_model, seed=seed,
                          rows=cfg.csi_rows, worst_case_sign=cfg.csi_sign)
    return est.h_hat


def _word_tables(h: ChannelMatrix, cfg: SimConfig, h_hat=None):
    """Per-word receive means, slicer thresholds and noise deviations.

    Read from the word table of the transmit pipeline: scale, mask, precode,
    propagate through the true channel.  The transmitter works from the stale
    gains when channel knowledge is outdated; slicer thresholds use the true
    channel rows against the operative precoder columns.
    """
    gains = estimate = h.gains
    if cfg.csi_mode == "outdated":
        estimate = np.asarray(h_hat, dtype=float) if h_hat is not None else _stale_gains(h, cfg)
    table = word_table(gains, ci_precoder(estimate), cfg.scheme,
                       renormalize=cfg.renormalize_oap)
    gp = h.responsivity * h.power
    means = gp * table.receive
    taus = 0.5 * gp * table.slicer
    if cfg.noise_mode == "noiseless":
        return table.words, means, taus, np.zeros_like(means)
    if cfg.noise_mode == "physical":
        sigma = analytic.PhysicalNoise(gains, h.detector_area, h.responsivity,
                                       cfg.noise_params)
    elif cfg.snr_db is None:
        raise ValueError("swept noise mode needs a finite snr_db")
    else:
        sigma = sigma_from_transmit_snr(cfg.snr_db, h.responsivity, h.power)
    sig = np.broadcast_to(analytic.sigma_table(sigma, table, h.power), means.shape)
    return table.words, means, taus, sig


def simulate(h: ChannelMatrix, cfg: SimConfig, h_hat=None) -> BerEstimate:
    """Run the symbol loop and count detection errors per photodetector."""
    words, means, taus, sig = _word_tables(h, cfg, h_hat)
    n_words, n_r = means.shape
    bits = words.astype(bool)
    errors = np.zeros(n_r, dtype=np.int64)
    done = 0
    block_index = 0
    while done < cfg.n_symbols:
        nb = min(cfg.block_size, cfg.n_symbols - done)
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(entropy=(cfg.seed, block_index))))
        widx = rng.integers(0, n_words, size=nb)
        noise = rng.standard_normal((nb, n_r))
        y = means[widx] + noise * sig[widx]
        decided = y > taus[widx]
        errors += np.count_nonzero(decided != bits[widx], axis=0)
        done += nb
        block_index += 1
        if cfg.early_stop_errors is not None and errors.min() >= cfg.early_stop_errors:
            break
    return BerEstimate(per_pd_errors=errors, symbols_run=done)


def exhaustive_noiseless_errors(h: ChannelMatrix, cfg: SimConfig, h_hat=None) -> int:
    """Total detection errors over every symbol word with the noise disabled."""
    cfg = replace(cfg, noise_mode="noiseless")
    words, means, taus, _ = _word_tables(h, cfg, h_hat)
    return int(np.count_nonzero((means > taus) != words.astype(bool)))


def _analytic_for(h: ChannelMatrix, cfg: SimConfig, sigma, h_hat):
    gp_args = (sigma, h.responsivity, h.power)
    if cfg.csi_mode == "outdated":
        fn = analytic.ber_oap_outdated if cfg.scheme == "oap" else analytic.ber_ci_outdated
        return fn(h, h_hat, *gp_args)
    if cfg.scheme == "oap":
        return analytic.ber_oap_perfect(h, *gp_args, renormalize=cfg.renormalize_oap)
    return analytic.ber_ci_perfect(h, *gp_args)


def _point_seed(base_seed: int, index: int) -> int:
    return int(np.random.SeedSequence(entropy=(base_seed, index)).generate_state(1)[0])


def sweep(h: ChannelMatrix, snr_points_db, cfg: SimConfig,
          threads: int | None = None, progress: bool = False) -> BerCurve:
    """Estimate and analyze one scheme over a transmit-SNR grid.

    Points run independently on per-point derived seeds in a thread pool
    sized by ``threads`` (None means the machine's available parallelism,
    1 forces serial); output order is sorted by SNR and independent of
    worker scheduling.
    """
    points = sorted(float(p) for p in snr_points_db)
    if not points:
        raise ValueError("need at least one SNR point")
    if cfg.noise_mode not in ("swept",):
        raise ValueError("sweeps are defined for the swept noise mode")
    if threads is None:
        threads = os.cpu_count() or 1
    h_hat = _stale_gains(h, cfg) if cfg.csi_mode == "outdated" else None

    def run(idx: int):
        point_cfg = replace(cfg, snr_db=points[idx], seed=_point_seed(cfg.seed, idx))
        est = simulate(h, point_cfg, h_hat=h_hat)
        sigma = sigma_from_transmit_snr(points[idx], h.responsivity, h.power)
        ana = _analytic_for(h, point_cfg, sigma, h_hat)
        if progress:
            print(f"  snr {points[idx]:7.2f} dB [{cfg.scheme}/{cfg.csi_mode}]: "
                  f"mc {est.average_ber:.3e}  analytic {ana.average:.3e}",
                  file=sys.stderr)
        return est, ana

    if threads > 1 and len(points) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(run, range(len(points))))
    else:
        results = [run(i) for i in range(len(points))]
    return BerCurve(
        snr_db=tuple(points),
        estimates=tuple(r[0] for r in results),
        analytic=tuple(r[1] for r in results),
        scheme=cfg.scheme,
        csi_mode=cfg.csi_mode,
    )
