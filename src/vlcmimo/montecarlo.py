"""Symbol-level Monte Carlo engine with deterministic parallel estimation.

Symbols are processed in fixed-size blocks; each block draws from its own
SFC64 generator keyed by (seed, block index), so error counts are
bit-identical for a given seed regardless of worker count or scheduling.
Words are stratified: within a block every one of the 2^n words gets the same
share of symbols, and only the remainder goes to words drawn at random.  The
reported halfwidths stay the binomial ones, which over-state the spread of
this estimator.

Sweeps use common random numbers: sigma only scales the thresholds, and the
draws depend only on the seed, the symbol and block counts and the word and
detector counts.  One (seed, block) stream therefore serves every SNR point
of every case of a ``sweep`` call that has the same word and detector counts
(every scheme, array spacing or elapsed time of a recipe): each block is
drawn once and compared with all their thresholds.  Those cases drew
identical normals before, one case at a time, so rows were already
correlated across schemes, spacings and elapsed times, not only along SNR,
and differences between schemes use common random numbers.  Each row is
exactly the standalone run at its SNR and keeps its marginal distribution.
Threads split a block loop's blocks, not its points.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from . import analytic
from .channel import ChannelMatrix
from .config import ConfigError, _config
from .csi import perturb_channel  # noqa: F401  (wrapped here by perfbench/tracing.py)
from .noise import NoiseParams, sigma_from_transmit_snr
from .precoding import WordTable, ci_precoder, word_table

__all__ = [
    "SimConfig",
    "BerEstimate",
    "BerCurve",
    "simulate",
    "sweep",
    "exhaustive_noiseless_errors",
]

# Threshold cells (points x words x detectors) one block loop compares at
# most: a sweep stacks cases that share their draws up to this size, and a
# larger case runs alone.
_STACK_CELLS = 1 << 22


@_config
class SimConfig:
    """Configuration of one Monte Carlo run (one scheme at one noise point).

    The transmitter's estimate is not part of it: with ``csi_mode``
    "outdated", ``simulate`` and ``sweep`` take it as ``h_hat``.
    """

    n_symbols: int = 2_000_000
    seed: int = 0
    scheme: Literal["ci", "oap"] = "ci"
    csi_mode: Literal["perfect", "outdated"] = "perfect"
    noise_mode: Literal["swept", "physical", "noiseless"] = "swept"
    snr_db: float | None = None        # required in swept mode
    noise_params: NoiseParams | None = None
    early_stop_errors: int | None = None
    block_size: int = 1 << 16
    renormalize_oap: bool = False

    def __post_init__(self):
        if self.n_symbols < 1:
            raise ConfigError("n_symbols must be >= 1")
        if self.early_stop_errors is not None and self.early_stop_errors < 100:
            raise ConfigError("early stopping needs a target of at least 100 errors")
        if self.block_size < 1:
            raise ConfigError("block size must be >= 1")


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
        return 1.96 * self.average_stderr()

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


def _table(h: ChannelMatrix, cfg: SimConfig, h_hat) -> WordTable:
    """The run's word table; the precoder comes from ``h_hat`` when knowledge is outdated."""
    estimate = h.gains
    if cfg.csi_mode == "outdated":
        if h_hat is None:
            raise ValueError("outdated channel knowledge needs the estimate h_hat")
        estimate = np.asarray(h_hat, dtype=float)
    return word_table(h.gains, ci_precoder(estimate), cfg.scheme,
                      renormalize=cfg.renormalize_oap)


def _sigmas(h: ChannelMatrix, cfg: SimConfig, table: WordTable, snr_points) -> np.ndarray:
    """Noise deviations stacked as ``(points, 1 or words, detectors)``.

    Swept noise gives one point per SNR; physical noise is one point whose
    signal-dependent deviation differs per word.
    """
    if cfg.noise_mode == "physical":
        noise = analytic.PhysicalNoise(h.gains, h.detector_area, h.responsivity,
                                       cfg.noise_params)
        return analytic.sigma_table(noise, table, h.power)[None]
    if None in snr_points:
        raise ValueError("swept noise mode needs a finite snr_db")
    return np.stack([analytic.sigma_table(
        sigma_from_transmit_snr(p, h.responsivity, h.power), table, h.power)
        for p in snr_points])[:, None, :]


def _thresholds(h: ChannelMatrix, cfg: SimConfig, h_hat=None) -> np.ndarray:
    """Noise threshold per (word, detector) beyond which the slicer errs, at one point.

    Without noise, z is -inf where the decision is wrong and +inf where it
    is right.
    """
    table = _table(h, cfg, h_hat)
    sig = 0.0 if cfg.noise_mode == "noiseless" else _sigmas(h, cfg, table, [cfg.snr_db])[0]
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


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the system has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _points(cfg: SimConfig, snr_points_db) -> list[float]:
    """A case's sorted SNR points; physical noise is the one point nan."""
    points = sorted(float(p) for p in snr_points_db)
    if cfg.noise_mode == "physical":
        if points:
            raise ValueError("physical noise has no SNR axis; pass no points")
        return [math.nan]
    if cfg.noise_mode != "swept":
        raise ValueError("sweeps take swept or physical noise")
    if not points:
        raise ValueError("need at least one SNR point")
    return points


def _report(curve: BerCurve):
    """One progress line per point of ``curve`` on stderr."""
    for p, est, ana in zip(curve.snr_db, curve.estimates, curve.analytic):
        print(f"  snr {p:7.2f} dB [{curve.scheme}/{curve.csi_mode}]: "
              f"mc {est.average_ber:.3e}  analytic {ana.average:.3e}", file=sys.stderr)


def sweep(cases, snr_points_db, threads: int | None = None,
          progress: bool = False) -> list[BerCurve]:
    """Estimate and analyze each ``(h, cfg, h_hat)`` case over a transmit-SNR grid.

    One (seed, block) stream serves every SNR point of every case that has
    the same word and detector counts, seed, symbol count, block size and
    early-stop target (common random numbers): each block is drawn once and
    compared with the thresholds of all their points.  Rows are therefore
    correlated along SNR and across cases, as one-case sweeps' identical
    draws already made them, and differences between schemes use common
    random numbers; each row equals ``simulate`` at its SNR with its case's
    ``cfg``, its marginal distribution unchanged.  Such a group's thresholds
    are stacked up to ``_STACK_CELLS`` cells per block loop; a larger case
    runs alone.  Up to ``threads`` blocks run at once (None means the CPUs
    this process may use, 1 forces serial); threads split blocks, not
    points, and the counts do not depend on them.  One curve per case, in
    case order, with points sorted by SNR.  Each case's closed form comes
    from one evaluation over its stacked deviations: ``analytic.exact_ber``
    with perfect knowledge, else ``analytic.outdated_bound``.  Physical noise
    has no SNR axis: it takes no points and gives one row whose ``snr_db``
    is nan.  ``progress`` prints each curve's points once all are counted.
    """
    if threads is None:
        threads = _cpus()
    parts, estimates = [], []
    pending = {}        # draw key -> [(case index, cfg, z)] not yet counted

    def count(stack):
        counts = iter(_count_errors(np.concatenate([z for _, _, z in stack]), stack[0][1],
                                    threads))
        for i, _, z in stack:
            estimates[i] = tuple(itertools.islice(counts, len(z)))
        stack.clear()

    for i, (h, cfg, h_hat) in enumerate(cases):
        points = _points(cfg, snr_points_db)
        table = _table(h, cfg, h_hat)
        gp = h.responsivity * h.power
        sig = _sigmas(h, cfg, table, points)
        z = table.thresholds(gp, sig)
        outdated = cfg.csi_mode == "outdated"
        rates = (analytic.outdated_bound if outdated else analytic.exact_ber)(table, gp, sig)
        parts.append((points, cfg, tuple(
            analytic.BerResult(per_pd=r, scheme=cfg.scheme, csi=cfg.csi_mode,
                               is_bound=outdated) for r in rates)))
        estimates.append(None)
        stack = pending.setdefault(
            (z.shape[1:], cfg.seed, cfg.n_symbols, cfg.block_size, cfg.early_stop_errors), [])
        if stack and sum(zs.size for *_, zs in stack) + z.size > _STACK_CELLS:
            count(stack)
        stack.append((i, cfg, z))
        if z.size >= _STACK_CELLS:
            count(stack)
    for stack in pending.values():
        if stack:
            count(stack)
    curves = [BerCurve(snr_db=tuple(points), estimates=est, analytic=closed_forms,
                       scheme=cfg.scheme, csi_mode=cfg.csi_mode)
              for (points, cfg, closed_forms), est in zip(parts, estimates)]
    if progress:
        for curve in curves:
            _report(curve)
    return curves
