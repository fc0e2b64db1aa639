"""Symbol-level Monte Carlo engine with deterministic parallel estimation.

Symbols are processed in fixed-size blocks; each block draws from its own
SFC64 generator keyed by (seed, block index), so error counts are
bit-identical for a given seed regardless of worker count or scheduling.
Words are stratified: within a block every one of the 2^n words gets the same
share of symbols, and only the remainder goes to words drawn at random.  The
reported halfwidths stay the binomial ones, which over-state the spread of
this estimator.

A sweep uses common random numbers: sigma only scales the thresholds, so one
(seed, block) stream per sweep is compared with the thresholds of every SNR
point.  Rows are therefore correlated along SNR, while each row is exactly
the standalone run at its SNR and keeps its marginal distribution.  Threads
split a sweep's blocks, not its points.
"""

from __future__ import annotations

import contextlib
import itertools
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
    est = perturb_channel(h, cfg.csi_bound, model=cfg.csi_model, seed=cfg.seed,
                          rows=cfg.csi_rows, worst_case_sign=cfg.csi_sign)
    return est.h_hat


def _noise_sigma(h: ChannelMatrix, cfg: SimConfig):
    """The noise deviation of a swept or physical run, as ``analytic`` takes it."""
    if cfg.noise_mode == "physical":
        return analytic.PhysicalNoise(h.gains, h.detector_area, h.responsivity,
                                      cfg.noise_params)
    if cfg.snr_db is None:
        raise ValueError("swept noise mode needs a finite snr_db")
    return sigma_from_transmit_snr(cfg.snr_db, h.responsivity, h.power)


def _thresholds(h: ChannelMatrix, cfg: SimConfig, h_hat=None,
                snr_points=None) -> np.ndarray:
    """Noise threshold per (word, detector) beyond which the slicer errs.

    Read from the word table of the transmit pipeline: scale, mask, precode,
    propagate through the true channel.  The transmitter works from the stale
    gains when channel knowledge is outdated.  Without noise, z is -inf where
    the decision is wrong and +inf where it is right.  Given ``snr_points``,
    the thresholds of every swept point are stacked along a leading axis,
    ``(points, words, detectors)``, all from one table.
    """
    estimate = h.gains
    if cfg.csi_mode == "outdated":
        estimate = np.asarray(h_hat, dtype=float) if h_hat is not None else _stale_gains(h, cfg)
    table = word_table(h.gains, ci_precoder(estimate), cfg.scheme,
                       renormalize=cfg.renormalize_oap)
    if snr_points is not None:
        sig = np.stack([analytic.sigma_table(
            sigma_from_transmit_snr(p, h.responsivity, h.power), table, h.power)
            for p in snr_points])[:, None, :]
    elif cfg.noise_mode == "noiseless":
        sig = 0.0
    else:
        sig = analytic.sigma_table(_noise_sigma(h, cfg), table, h.power)
    return table.thresholds(h.responsivity * h.power, sig)


def _block_errors(z: np.ndarray, nb: int, rng: np.random.Generator) -> np.ndarray:
    """Errors per (point, detector) over one block of ``nb`` symbols.

    ``z`` is ``(points, words, detectors)``.  Each word gets ``nb // n_words``
    symbols; the remaining ``nb % n_words`` go to words drawn uniformly.  The
    noise is symmetric, so one standard normal draw per symbol and detector,
    compared with z, decides an error.  Every point compares the same draws,
    one point at a time.
    """
    _, n_words, n_r = z.shape
    per, extra = divmod(nb, n_words)
    draws = rng.standard_normal((n_words, n_r, per))
    # A whole-array count per detector is about 3x faster than one count with
    # an axis, which sums the comparison as integers.
    errors = np.array([[np.count_nonzero(draws[:, k] > zp[:, k, None]) for k in range(n_r)]
                       for zp in z])
    if extra:
        widx = rng.integers(0, n_words, size=extra)
        draws = rng.standard_normal((extra, n_r))
        errors += [np.count_nonzero(draws > zp[widx], axis=0) for zp in z]
    return errors


def _count_errors(z: np.ndarray, cfg: SimConfig, threads: int = 1) -> list[BerEstimate]:
    """The block loop: error counts at each point of ``z`` (points, words, detectors).

    Block k draws from ``SFC64(SeedSequence((seed, k)))``, and every point
    compares the same draws.  Waves of up to ``threads`` blocks run at once;
    their counts are folded in block order, and a point that has reached
    ``early_stop_errors`` on every detector takes no later block.  Each point
    therefore counts exactly what a one-point run would, whatever ``threads``.
    """
    n_points, _, n_r = z.shape
    errors = np.zeros((n_points, n_r), dtype=np.int64)
    done = np.zeros(n_points, dtype=np.int64)
    live = np.ones(n_points, dtype=bool)
    n_blocks = -(-cfg.n_symbols // cfg.block_size)
    threads = max(1, min(threads, n_blocks))

    def block(k: int, rows: np.ndarray):
        nb = min(cfg.block_size, cfg.n_symbols - k * cfg.block_size)
        rng = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(entropy=(cfg.seed, k))))
        return nb, _block_errors(z[rows], nb, rng)

    # One thread runs in the caller, so its CPU time stays the caller's.
    with (ThreadPoolExecutor(threads) if threads > 1
          else contextlib.nullcontext()) as pool:
        run = pool.map if pool else map
        first = 0
        while first < n_blocks and live.any():
            rows = np.flatnonzero(live)
            wave = range(first, min(first + threads, n_blocks))
            for nb, counts in run(block, wave, itertools.repeat(rows)):
                take = live[rows]
                errors[rows[take]] += counts[take]
                done[rows[take]] += nb
                if cfg.early_stop_errors is not None:
                    live[rows] &= errors[rows].min(axis=1) < cfg.early_stop_errors
            first = wave.stop
    return [BerEstimate(per_pd_errors=e, symbols_run=int(n)) for e, n in zip(errors, done)]


def simulate(h: ChannelMatrix, cfg: SimConfig, h_hat=None) -> BerEstimate:
    """Run the symbol loop and count detection errors per photodetector.

    Blocks of ``cfg.block_size`` symbols give every word an equal share (see
    ``_block_errors``); block k draws from ``SFC64(SeedSequence((seed, k)))``.
    Exactly ``cfg.n_symbols`` symbols run unless early stopping ends sooner.
    """
    return _count_errors(_thresholds(h, cfg, h_hat)[None], cfg)[0]


def exhaustive_noiseless_errors(h: ChannelMatrix, cfg: SimConfig, h_hat=None) -> int:
    """Total detection errors over every symbol word with the noise disabled."""
    cfg = replace(cfg, noise_mode="noiseless")
    return int(np.count_nonzero(_thresholds(h, cfg, h_hat) == -np.inf))


def _analytic_for(h: ChannelMatrix, cfg: SimConfig, h_hat):
    gp_args = (_noise_sigma(h, cfg), h.responsivity, h.power)
    if cfg.csi_mode == "outdated":
        if cfg.scheme == "oap":
            return analytic.ber_oap_outdated(h, h_hat, *gp_args,
                                             renormalize=cfg.renormalize_oap)
        return analytic.ber_ci_outdated(h, h_hat, *gp_args)
    if cfg.scheme == "oap":
        return analytic.ber_oap_perfect(h, *gp_args, renormalize=cfg.renormalize_oap)
    return analytic.ber_ci_perfect(h, *gp_args)


def sweep(h: ChannelMatrix, snr_points_db, cfg: SimConfig,
          threads: int | None = None, progress: bool = False) -> BerCurve:
    """Estimate and analyze one scheme over a transmit-SNR grid.

    One (seed, block) stream serves every SNR point (common random numbers):
    each block is drawn once and compared with the thresholds of all points,
    so rows are correlated along SNR, and each row equals ``simulate`` at its
    SNR with ``cfg.seed``, its marginal distribution unchanged.  Up to
    ``threads`` blocks run at once (None means the machine's available
    parallelism, 1 forces serial); threads split blocks, not points, and the
    counts do not depend on them.  Output order is sorted by SNR.  Perfect
    knowledge rows take the exact rate from one Q evaluation over the stacked
    thresholds; outdated rows take the bound per point.
    """
    points = sorted(float(p) for p in snr_points_db)
    if not points:
        raise ValueError("need at least one SNR point")
    if cfg.noise_mode not in ("swept",):
        raise ValueError("sweeps are defined for the swept noise mode")
    if threads is None:
        threads = os.cpu_count() or 1
    h_hat = _stale_gains(h, cfg) if cfg.csi_mode == "outdated" else None
    z = _thresholds(h, cfg, h_hat, snr_points=points)
    estimates = _count_errors(z, cfg, threads)
    if cfg.csi_mode == "outdated":
        closed_forms = [_analytic_for(h, replace(cfg, snr_db=p), h_hat) for p in points]
    else:
        closed_forms = [analytic.BerResult(per_pd=per_pd, scheme=cfg.scheme, csi="perfect")
                        for per_pd in analytic.q_function(z).mean(axis=1)]
    if progress:
        for p, est, ana in zip(points, estimates, closed_forms):
            print(f"  snr {p:7.2f} dB [{cfg.scheme}/{cfg.csi_mode}]: "
                  f"mc {est.average_ber:.3e}  analytic {ana.average:.3e}",
                  file=sys.stderr)
    return BerCurve(
        snr_db=tuple(points),
        estimates=tuple(estimates),
        analytic=tuple(closed_forms),
        scheme=cfg.scheme,
        csi_mode=cfg.csi_mode,
    )
