"""Symbol-level Monte Carlo engine with deterministic parallel estimation.

Symbols are processed in fixed-size blocks; each block draws from its own
SFC64 generator keyed by (seed, block index), so error counts are
bit-identical for a given seed regardless of worker count or scheduling.
Words are stratified: within a block every one of the 2^n words gets the same
share of symbols, and only the remainder goes to words drawn at random.  The
reported halfwidths stay the binomial ones, which over-state the spread of
this estimator.
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


def _thresholds(h: ChannelMatrix, cfg: SimConfig, h_hat=None) -> np.ndarray:
    """Noise threshold per (word, detector) beyond which the slicer errs.

    Read from the word table of the transmit pipeline: scale, mask, precode,
    propagate through the true channel.  The transmitter works from the stale
    gains when channel knowledge is outdated.  Without noise, z is -inf where
    the decision is wrong and +inf where it is right.
    """
    estimate = h.gains
    if cfg.csi_mode == "outdated":
        estimate = np.asarray(h_hat, dtype=float) if h_hat is not None else _stale_gains(h, cfg)
    table = word_table(h.gains, ci_precoder(estimate), cfg.scheme,
                       renormalize=cfg.renormalize_oap)
    sig = (0.0 if cfg.noise_mode == "noiseless"
           else analytic.sigma_table(_noise_sigma(h, cfg), table, h.power))
    return table.thresholds(h.responsivity * h.power, sig)


def _block_errors(z: np.ndarray, nb: int, rng: np.random.Generator) -> np.ndarray:
    """Errors per detector over one block of ``nb`` symbols.

    Each word gets ``nb // n_words`` symbols; the remaining ``nb % n_words``
    go to words drawn uniformly.  The noise is symmetric, so one standard
    normal draw per symbol and detector, compared with z, decides an error.
    """
    n_words, n_r = z.shape
    per, extra = divmod(nb, n_words)
    errors = np.count_nonzero(rng.standard_normal((n_words, n_r, per)) > z[:, :, None],
                              axis=(0, 2))
    if extra:
        widx = rng.integers(0, n_words, size=extra)
        errors += np.count_nonzero(rng.standard_normal((extra, n_r)) > z[widx], axis=0)
    return errors


def simulate(h: ChannelMatrix, cfg: SimConfig, h_hat=None) -> BerEstimate:
    """Run the symbol loop and count detection errors per photodetector.

    Blocks of ``cfg.block_size`` symbols give every word an equal share (see
    ``_block_errors``); block k draws from ``SFC64(SeedSequence((seed, k)))``.
    Exactly ``cfg.n_symbols`` symbols run unless early stopping ends sooner.
    """
    z = _thresholds(h, cfg, h_hat)
    errors = np.zeros(z.shape[1], dtype=np.int64)
    done = 0
    block_index = 0
    while done < cfg.n_symbols:
        nb = min(cfg.block_size, cfg.n_symbols - done)
        rng = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(entropy=(cfg.seed, block_index))))
        errors += _block_errors(z, nb, rng)
        done += nb
        block_index += 1
        if cfg.early_stop_errors is not None and errors.min() >= cfg.early_stop_errors:
            break
    return BerEstimate(per_pd_errors=errors, symbols_run=done)


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
        ana = _analytic_for(h, point_cfg, h_hat)
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
