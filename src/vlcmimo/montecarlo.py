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
(every scheme, array spacing or elapsed time of a recipe).  Each row is
exactly the standalone run at its SNR and keeps its marginal distribution.
Threads split a block loop's blocks, not its points.

A block that serves many points counts them from sorted draws: each (word,
detector) row is sorted once, and a point's count on it is one bisection, so
the block's cost barely grows with its points.  A block with few points or
short rows compares its draws with each point instead.  Both count exactly
the draws above z, so the path taken never changes a result.

No array of a sweep spans 2^n words x detectors x points: a block draws,
divides z and counts in consecutive word chunks of about ``_CHUNK_CELLS``
normals (consecutive draws continue one stream, so the values are those of
one whole-block draw), and the closed forms sum Q over chunks of words.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from . import analytic
from .analytic import _CHUNK_CELLS
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
]

# A block counts from sorted draws when it serves at least _SORT_MIN_POINTS
# points with at least _SORT_MIN_PER symbols per word, and points times
# symbols per word (the compares each row would take) reach _SORT_MIN_WORK.
# Set from single-thread timings of both paths on 4-10 link arrays.
_SORT_MIN_POINTS = 16
_SORT_MIN_PER = 128
_SORT_MIN_WORK = 8192


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
    noise_mode: Literal["swept", "physical"] = "swept"
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


class _Thresholds:
    """The block loop's z, divided a chunk at a time where it is compared.

    From each case's (words, detectors) ``gp * margin`` and (points, 1 or
    words, detectors) deviations, all positive; ``z[rows, lo:hi]`` and
    ``z[p, widx]`` return ``gp * margin / sig`` for just those rows and words.
    """

    def __init__(self, gpm: Sequence[np.ndarray], sig: Sequence[np.ndarray]):
        self.gpm = np.stack(gpm)
        self.case = np.repeat(np.arange(len(sig)), [len(s) for s in sig])
        self.shape = (len(self.case), *self.gpm.shape[1:])
        width = max(s.shape[1] for s in sig)      # per-word deviations of physical noise
        self.sig = np.broadcast_to(np.concatenate(
            [np.broadcast_to(s, (len(s), width, s.shape[2])) for s in sig]), self.shape)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, key) -> np.ndarray:
        rows, words = key
        return np.divide(self.gpm[self.case[rows], words], self.sig[rows, words])


def _sorts(n_points: int, per: int) -> bool:
    """Whether a block of ``per`` symbols per word serving ``n_points`` points sorts.

    Sorting costs each (word, detector) row a call and about
    ``per * log(per)`` once, then one bisection per point; comparing costs
    ``per`` per point.  So sorting pays only with many points, and not on
    short rows, where the call and the bisections cost more than a compare.
    """
    return (n_points >= _SORT_MIN_POINTS and per >= _SORT_MIN_PER
            and n_points * per >= _SORT_MIN_WORK)


def _compared_errors(draws: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``count(draw > z)`` per (point, detector): each point compares every draw.

    ``draws`` is ``(words, detectors, per)`` and ``z`` ``(points, words, detectors)``.
    """
    # A whole-array count per detector is about 3x faster than one count with
    # an axis, which sums the comparison as integers.
    return np.array([[np.count_nonzero(draws[:, k] > zp[:, k, None])
                      for k in range(draws.shape[1])] for zp in z], dtype=np.int64)


def _sorted_errors(draws: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The counts of ``_compared_errors``, from each (word, detector) row sorted in place.

    A point's count on a row is the row length less the draws <= z, which
    one bisection finds; ``side="right"`` keeps ties, infinite z and signed
    zeros on the same side as the comparison.  The sort releases the GIL.
    """
    n_words, n_r, per = draws.shape
    draws.sort(axis=-1)
    at_most = np.empty((n_words, n_r, len(z)), dtype=np.int64)
    for w, k in np.ndindex(n_words, n_r):
        at_most[w, k] = np.searchsorted(draws[w, k], z[:, w, k], side="right")
    return n_words * per - at_most.sum(axis=0).T


def _block_errors(z: np.ndarray, nb: int, rng: np.random.Generator,
                  rows: np.ndarray | slice = slice(None)) -> np.ndarray:
    """Errors per (point of ``z[rows]``, detector) over one block of ``nb`` symbols.

    ``z`` is ``(points, words, detectors)``, an array or a sweep's
    ``_Thresholds``, read a chunk at a time.  Each word gets ``nb // n_words``
    symbols; the remaining ``nb % n_words`` go to words drawn uniformly.  The
    noise is symmetric, so a standard normal draw per symbol and detector
    above z is an error, and every point counts the same draws.  A block
    serving many points with long rows (``_sorts``) counts them from sorted
    rows, so its cost barely grows with the points; otherwise each point
    compares the draws.  The counts are the same either way.

    The block is drawn and counted in consecutive chunks of words of about
    ``_CHUNK_CELLS`` draws, then the leftover words the same way, so its
    arrays stay bounded however wide the array.  Consecutive draws continue
    one stream, so the chunks draw exactly the values of one whole-block
    draw; a block within the budget is one chunk.
    """
    n_words, n_r = z.shape[1:]
    points = np.arange(len(z))[rows]
    per, extra = divmod(nb, n_words)
    count = _sorted_errors if _sorts(len(points), per) else _compared_errors
    errors = np.zeros((len(points), n_r), dtype=np.int64)
    if per:
        step = max(1, _CHUNK_CELLS // (n_r * per))
        for lo in range(0, n_words, step):
            draws = rng.standard_normal((min(step, n_words - lo), n_r, per))
            errors += count(draws, z[rows, lo:lo + step])
    if extra:
        widx = rng.integers(0, n_words, size=extra)
        step = max(1, _CHUNK_CELLS // n_r)
        for lo in range(0, extra, step):
            draws = rng.standard_normal((min(step, extra - lo), n_r))
            errors += [np.count_nonzero(draws > z[p, widx[lo:lo + step]], axis=0)
                       for p in points]
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
        return nb, _block_errors(z, nb, rng, slice(None) if len(rows) == n_points else rows)

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

    The one-point case of ``sweep``'s block loop: blocks of ``cfg.block_size``
    symbols give every word an equal share (see ``_block_errors``); block k
    draws from ``SFC64(SeedSequence((seed, k)))``.
    Exactly ``cfg.n_symbols`` symbols run unless early stopping ends sooner.
    """
    table = _table(h, cfg, h_hat)
    z = _Thresholds([h.responsivity * h.power * table.margin],
                    [_sigmas(h, cfg, table, [cfg.snr_db])])
    return _count_errors(z, cfg)[0]


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
    if not points:
        raise ValueError("need at least one SNR point")
    return points


def _threads(threads: int | None) -> int:
    """Blocks a sweep runs at once: None means the CPUs this process may use.

    Below 1 raises ``ValueError``.
    """
    if threads is None:
        return _cpus()
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return threads


def _stacks(cases) -> list[list[int]]:
    """Indices of ``(h, cfg, h_hat, points)`` cases grouped into block loops, in run order.

    Cases with the same word and detector counts, seed, symbol count, block
    size and early-stop target share a loop, in case order.
    """
    stacks = {}
    for i, (h, cfg, _, _) in enumerate(cases):
        key = (h.gains.shape, cfg.seed, cfg.n_symbols, cfg.block_size, cfg.early_stop_errors)
        stacks.setdefault(key, []).append(i)
    return list(stacks.values())


def _case(h: ChannelMatrix, cfg: SimConfig, h_hat, points) -> tuple:
    """A case's ``gp * margin``, deviations and closed form; its table is dropped on return."""
    table = _table(h, cfg, h_hat)
    gp = h.responsivity * h.power
    sig = _sigmas(h, cfg, table, points)
    rate = analytic.outdated_bound if cfg.csi_mode == "outdated" else analytic.exact_ber
    closed = rate(table, gp, sig)     # first, so Q's arrays do not meet gp * margin
    return gp * table.margin, sig, closed


def sweep(cases, snr_points_db, threads: int | None = None) -> list[BerCurve]:
    """Estimate and analyze each ``(h, cfg, h_hat)`` case over a transmit-SNR grid.

    One (seed, block) stream serves every SNR point of every case that has
    the same word and detector counts, seed, symbol count, block size and
    early-stop target (common random numbers): each block is drawn once and
    counted against the thresholds of all their points, in one block loop
    however wide the arrays.  Rows are therefore correlated along SNR and
    across cases; each row equals ``simulate`` at its SNR with its case's
    ``cfg``, its marginal distribution unchanged.  Up to ``threads`` blocks run at
    once (None means the CPUs this process may use, 1 forces serial, below 1
    raises ``ValueError``); threads split blocks, not points, and the counts
    do not depend on them.  One curve per case, in case order, with points
    sorted by SNR.  Each case's closed form comes from one evaluation over
    its stacked deviations: ``analytic.exact_ber`` with perfect knowledge,
    else ``analytic.outdated_bound``.  Physical noise has no SNR axis: it
    takes no points and gives one row whose ``snr_db`` is nan.

    The working set does not grow with the points (see the module notes): a
    31-point sweep of two 16-link cases at 20 000 symbols peaks at about 170 MB.
    """
    threads = _threads(threads)
    cases = [(h, cfg, h_hat, _points(cfg, snr_points_db)) for h, cfg, h_hat in cases]
    curves = [None] * len(cases)
    for stack in _stacks(cases):
        gpm, sigs, rates = zip(*(_case(*cases[i]) for i in stack))
        z = _Thresholds(gpm, sigs)
        del gpm         # the block loop holds only z's stacked copy
        # a stack shares one draw key, so its first case's cfg serves them all
        counts = iter(_count_errors(z, cases[stack[0]][1], threads))
        for i, rate in zip(stack, rates):
            _, cfg, _, points = cases[i]
            closed = tuple(analytic.BerResult(per_pd=r, scheme=cfg.scheme, csi=cfg.csi_mode,
                                              is_bound=cfg.csi_mode == "outdated")
                           for r in rate)
            curves[i] = BerCurve(snr_db=tuple(points),
                                 estimates=tuple(itertools.islice(counts, len(points))),
                                 analytic=closed, scheme=cfg.scheme, csi_mode=cfg.csi_mode)
    return curves
