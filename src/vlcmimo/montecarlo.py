"""Symbol-level Monte Carlo engine with deterministic parallel estimation.

Symbols are processed in fixed-size blocks; each block draws from its own
SFC64 generator keyed by (seed, block index), so error counts are
bit-identical for a given seed regardless of worker count or scheduling.
Words are stratified: within a block every one of the 2^n words gets the same
share of symbols, and only the remainder goes to words drawn at random.  A
word's share is drawn as antithetic pairs (Hammersley and Morton, 1956): one
normal draw d is the noise of two symbols, d and -d, whose error indicators
are negatively correlated, so a pair is never noisier than two independent
symbols and a block draws about half the normals.  The reported halfwidths stay
the binomial ones, which over-state the spread of this estimator.

Sweeps use common random numbers: sigma only scales the thresholds, and the
draws depend only on the seed, the symbol and block counts and the word and
detector counts.  One block loop therefore serves every SNR point of every
case of a ``sweep`` call that has the same word and detector counts and
noise mode (every scheme, array spacing or elapsed time of a recipe), so a
loop's cases share their points.  Each row is exactly the case's one-case
sweep at its SNR, which is ``simulate``, and keeps its marginal
distribution.  Every point counts every block, so every row runs exactly
its symbol count.  Threads split a block loop's blocks, not its points.

A pair's errors depend only on |d| (``_pair_keys``).  A block that serves
many points counts them from sorted |d|: each (word, detector) row is sorted
once, and a point's count on it is one bisection, so the block's cost barely
grows with its points.  A block with few points or short rows compares |d|
with each point instead.  Both count exactly ``count(d > z) + count(-d > z)``,
so the path taken never changes a result.

A block loop's cases are built in groups: cases of one scheme,
renormalization and knowledge take one stacked ``ci_precoder`` and
``word_table`` call and one closed-form reduction, as long as the group's
cases x points x words x detectors fit ``_CHUNK_CELLS``; a wider case is
built alone.  Each element equals its own build bit for bit.  The loop's
z is one broadcast division of its stacked ``gp * margin`` by its stacked
deviations (``_Thresholds``), formed a word chunk at a time.

No array of a sweep spans 2^n words x detectors x points: a block draws,
divides z and counts in consecutive word chunks of at most about
``_CHUNK_CELLS`` normals and as many thresholds (consecutive draws continue
one stream, so the values are those of one whole-block draw), its
single draws are counted against every point at once in chunks of as many
cells, and the closed forms sum Q over chunks of words.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from . import analytic
from .analytic import _CHUNK_CELLS
from .channel import ChannelMatrix
from .config import MonteCarloConfig, NoiseConfig, _config
from .csi import perturb_channel  # noqa: F401  (wrapped here by perfbench/tracing.py)
from .noise import sigma_stack
from .precoding import ci_precoder, word_table

__all__ = [
    "SimConfig",
    "BerEstimate",
    "BerCurve",
    "simulate",
    "sweep",
]

# A block counts from sorted draws when it serves at least _SORT_MIN_POINTS
# points with at least _SORT_MIN_PER symbols per word, and points times
# symbols per word (twice the compares each row of pairs would take) reach
# _SORT_MIN_WORK.  Set from single-thread timings of whole blocks on both
# paths: 4, 6, 8 and 10 links, 16 to 4096 symbols per word and 4 to 128
# points, best of 5 blocks each.  Over that grid this rule is 7 % slower
# than the faster path (geometric mean), against 8 % for (16, 128, 8192),
# the rule for single-draw rows.  It gives up more than 20 % where rows are
# short and points many (below 128 symbols per word at 64 or more points),
# and at 4 links from 24 points, where sorting pays on any row length.
_SORT_MIN_POINTS = 12
_SORT_MIN_PER = 128
_SORT_MIN_WORK = 6144


@_config
class SimConfig(MonteCarloConfig):
    """Configuration of one Monte Carlo run (one scheme at one noise point).

    The symbol count and block size, and their checks, are those of
    ``config.MonteCarloConfig``.  ``noise.mode`` picks the noise: "swept"
    reads ``snr_db``, "physical" the device values of ``noise``.  The
    transmitter's estimate is not part of it: with ``csi_mode`` "outdated",
    ``simulate`` and ``sweep`` take it as ``h_hat``, and with "perfect" they
    take none.
    """

    seed: int = 0
    scheme: Literal["ci", "oap"] = "ci"
    csi_mode: Literal["perfect", "outdated"] = "perfect"
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    snr_db: float | None = None        # required in swept mode
    renormalize_oap: bool = False


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
    """One scheme's sweep: Monte Carlo estimates and the closed form, a row per point."""

    snr_db: tuple[float, ...]
    estimates: tuple[BerEstimate, ...]
    analytic: np.ndarray        # (points, detectors): exact_ber, or outdated_bound if stale
    scheme: str
    csi_mode: str


def _estimate(h: ChannelMatrix, cfg: SimConfig, h_hat) -> np.ndarray:
    """The gains a case's precoder comes from: ``h_hat`` when knowledge is outdated."""
    if cfg.csi_mode == "outdated":
        if h_hat is None:
            raise ValueError("outdated channel knowledge needs the estimate h_hat")
        return np.asarray(h_hat, dtype=float)
    if h_hat is not None:
        raise ValueError("perfect channel knowledge takes no estimate h_hat")
    return h.gains


class _Thresholds:
    """A block loop's z, divided a chunk at a time where it is compared.

    From the loop's stacked (cases, words, detectors) ``gp * margin`` and
    (cases, points, 1 or words, detectors) deviations, all positive: every
    case of a loop has the same points and noise mode.  ``z[:, words]``, for
    a slice or an index array of words, is ``gp * margin / sig`` at every
    point and just those words, case-major.  Deviations shared by every word
    (swept noise) are broadcast in the division, never gathered per word.
    """

    def __init__(self, gpm: np.ndarray, sig: np.ndarray):
        self.gpm, self.sig = gpm, sig
        self.shape = (sig.shape[0] * sig.shape[1], *gpm.shape[1:])

    def __getitem__(self, key) -> np.ndarray:
        _, words = key          # every point
        sig = self.sig[:, :, words] if self.sig.shape[2] > 1 else self.sig
        z = np.divide(self.gpm[:, None, words], sig)
        return z.reshape(-1, *z.shape[2:])


def _sorts(n_points: int, per: int) -> bool:
    """Whether a block of ``per`` symbols per word serving ``n_points`` points sorts.

    A row holds ``per // 2`` pairs.  Sorting costs each (word, detector) row
    a call and about ``pairs * log(pairs)`` once, then one bisection per
    point; comparing costs ``pairs`` per point.  So sorting pays only with
    many points, and not on short rows, where the call and the bisections
    cost more than a compare.
    """
    return (n_points >= _SORT_MIN_POINTS and per >= _SORT_MIN_PER
            and n_points * per >= _SORT_MIN_WORK)


def _pair_keys(z: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """Each z's key on ``|d|`` and where z < 0 (None when nowhere).

    A pair (d, -d) errs ``count(d > z) + count(-d > z)`` times.  For z >= 0
    that is ``count(|d| > z)``.  For z < 0 it is 1 plus ``count(|d| < -z)``,
    and ``|d| < -z`` exactly when |d| is at most ``nextafter(-z, -inf)``.  So
    the key is z for z >= 0 and ``nextafter(-z, -inf)`` for z < 0; counted
    against it, ties, infinities and signed zeros fall as in the literal
    compares.
    """
    neg = z < 0
    if not neg.any():
        return z, None
    return np.where(neg, np.nextafter(-z, -np.inf), z), neg


def _compared_errors(draws: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``count(d > z) + count(-d > z)`` per (point, detector): each point compares every pair.

    ``draws`` is ``(words, detectors, pairs)`` and is overwritten with ``|d|``;
    ``z`` is ``(points, words, detectors)``.
    """
    n_r, pairs = draws.shape[1:]
    np.abs(draws, out=draws)
    key, neg = _pair_keys(z)
    # A whole-array count per detector is about 3x faster than one count with
    # an axis, which sums the comparison as integers.
    if neg is None:
        return np.array([[np.count_nonzero(draws[:, k] > zp[:, k, None])
                          for k in range(n_r)] for zp in z], dtype=np.int64)
    # Where z < 0 a pair errs once, plus once where |d| is not above its key.
    return pairs * neg.sum(axis=1) + np.array(
        [[np.count_nonzero((draws[:, k] > kp[:, k, None]) != negp[:, k, None])
          for k in range(n_r)] for kp, negp in zip(key, neg)], dtype=np.int64)


def _sorted_errors(draws: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The counts of ``_compared_errors``, from each (word, detector) row of |d| sorted in place.

    A point's count on a row is ``pairs - s`` for z >= 0 and ``pairs + s``
    for z < 0, where ``s`` counts the |d| at most its key (``_pair_keys``):
    one bisection with ``side="right"``.  The sort releases the GIL.
    """
    n_words, n_r, pairs = draws.shape
    np.abs(draws, out=draws)
    draws.sort(axis=-1)
    key, neg = _pair_keys(z)
    at_most = np.empty((n_words, n_r, len(z)), dtype=np.int64)
    # One contiguous key row per sorted row; the method call skips the
    # ``np.searchsorted`` dispatch.
    for row, k, out in zip(draws.reshape(-1, pairs), key.transpose(1, 2, 0).reshape(-1, len(z)),
                           at_most.reshape(-1, len(z))):
        out[:] = row.searchsorted(k, side="right")
    if neg is not None:
        np.negative(at_most, out=at_most, where=neg.transpose(1, 2, 0))
    return n_words * pairs - at_most.sum(axis=0).T


def _block_errors(z: np.ndarray, nb: int, rng: np.random.Generator) -> np.ndarray:
    """Errors per (point, detector) over one block of ``nb`` symbols.

    ``z`` is ``(points, words, detectors)``, an array or a sweep's
    ``_Thresholds``, read a chunk at a time.  Each word gets ``per = nb //
    n_words`` symbols; the remaining ``nb % n_words`` go to words drawn
    uniformly.  The noise is symmetric, so a standard normal noise value per
    symbol and detector above z is an error, and every point counts the same
    draws.  A word's share is ``per // 2`` antithetic pairs: one draw d
    serves two symbols, d and -d, counted together from |d| (``_pair_keys``).
    When ``per`` is odd, each word's unpaired symbol is a single draw, taken
    with the leftover words.  A chunk of single draws is counted against
    every point in one compare.  A block serving many points with long rows
    (``_sorts``) counts the pairs from sorted rows of |d|, so its cost barely
    grows with the points; otherwise each point compares them.  The counts
    are the same either way.

    The pairs are drawn and counted in consecutive chunks of words of at
    most about ``_CHUNK_CELLS`` draws and as many points x words x detectors
    thresholds, then the single draws (each word's unpaired symbol, then the
    leftover words) in chunks of at most ``_CHUNK_CELLS`` points x words x
    detectors, so the block's arrays stay bounded however wide the array and
    however many its points.  Consecutive draws continue one stream, so the
    chunks draw exactly the values of one whole draw; a block within the
    budget is one chunk.
    """
    n_points, n_words, n_r = z.shape
    per, extra = divmod(nb, n_words)
    pairs = per // 2
    count = _sorted_errors if _sorts(n_points, per) else _compared_errors
    errors = np.zeros((n_points, n_r), dtype=np.int64)
    if pairs:
        step = max(1, _CHUNK_CELLS // (n_r * max(pairs, n_points)))
        for lo in range(0, n_words, step):
            draws = rng.standard_normal((min(step, n_words - lo), n_r, pairs))
            errors += count(draws, z[:, lo:lo + step])
    widx = rng.integers(0, n_words, size=extra) if extra else np.arange(0)
    if per % 2:
        widx = np.concatenate([np.arange(n_words), widx])
    step = max(1, _CHUNK_CELLS // (n_points * n_r))
    for lo in range(0, len(widx), step):
        draws = rng.standard_normal((min(step, len(widx) - lo), n_r))
        errors += np.count_nonzero(draws > z[:, widx[lo:lo + step]], axis=1)
    return errors


def _count_errors(z: np.ndarray, cfg: SimConfig, threads: int = 1) -> list[BerEstimate]:
    """The block loop: error counts at each point of ``z`` (points, words, detectors).

    Block k draws from ``SFC64(SeedSequence((seed, k)))``, and every point
    counts every block, so every point runs exactly ``cfg.n_symbols``.  Up to
    ``threads`` blocks run at once, on no more workers than blocks or CPUs
    (``_cpus``); their counts are folded in block order, so each point counts
    exactly what a one-point run would, whatever ``threads``.
    """
    n_blocks = -(-cfg.n_symbols // cfg.block_size)
    threads = max(1, min(threads, n_blocks, _cpus()))

    def block(k: int) -> np.ndarray:
        nb = min(cfg.block_size, cfg.n_symbols - k * cfg.block_size)
        rng = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(entropy=(cfg.seed, k))))
        return _block_errors(z, nb, rng)

    # One thread runs in the caller, so its CPU time stays the caller's.
    with (ThreadPoolExecutor(threads) if threads > 1
          else contextlib.nullcontext()) as pool:
        errors = sum((pool.map if pool else map)(block, range(n_blocks)))
    return [BerEstimate(per_pd_errors=e, symbols_run=cfg.n_symbols) for e in errors]


def simulate(h: ChannelMatrix, cfg: SimConfig, h_hat=None) -> BerEstimate:
    """Run the symbol loop and count detection errors per photodetector.

    The one-case, one-point ``sweep`` at ``cfg.snr_db`` (no point under
    physical noise), run serially: blocks of ``cfg.block_size`` symbols give
    every word an equal share (see ``_block_errors``); block k draws from
    ``SFC64(SeedSequence((seed, k)))``.  Exactly ``cfg.n_symbols`` symbols
    run.
    """
    points = [] if cfg.noise.mode == "physical" else [cfg.snr_db]
    return sweep([(h, cfg, h_hat)], points, threads=1)[0].estimates[0]


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the system has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _points(cfg: SimConfig, snr_points_db) -> list[float]:
    """A case's sorted SNR points; physical noise is the one point nan."""
    if cfg.noise.mode == "physical":
        if len(snr_points_db):
            raise ValueError("physical noise has no SNR axis; pass no points")
        return [math.nan]
    if None in snr_points_db:
        raise ValueError("swept noise mode needs a finite snr_db")
    points = sorted(float(p) for p in snr_points_db)
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


def _stacks(cases) -> list[list[list[int]]]:
    """Indices of ``(h, cfg, h_hat, points)`` cases: block loops of build groups, in run order.

    Cases with the same word and detector counts, seed, symbol count, block
    size and noise mode share a loop, so a loop's cases have the same points
    and deviation shape.  Within it, cases with the same scheme,
    renormalization and knowledge share a build group, in case order, while
    the group's cases x points x words x detectors fit ``_CHUNK_CELLS``; a
    case larger than that is a group alone.
    """
    stacks, groups = {}, {}
    for i, (h, cfg, _, points) in enumerate(cases):
        loop = (h.gains.shape, cfg.seed, cfg.n_symbols, cfg.block_size, cfg.noise.mode)
        build = (loop, cfg.scheme, cfg.renormalize_oap, cfg.csi_mode)
        n = h.gains.shape[1]
        group = groups.get(build)
        if group is None or (len(group) + 1) * len(points) * (n << n) > _CHUNK_CELLS:
            group = groups[build] = []
            stacks.setdefault(loop, []).append(group)
        group.append(i)
    return list(stacks.values())


def _group(cases) -> tuple:
    """A build group's stacked ``gp * margin``, deviations and closed form.

    One ``ci_precoder``, one ``word_table`` and one ``exact_ber`` or
    ``outdated_bound`` call serve every ``(h, cfg, h_hat, points)`` case of
    the group; each case's precoder comes from ``_estimate``.  The stacked
    table is dropped on return.
    """
    hs, cfgs, _, points = zip(*cases)
    estimates = np.array([_estimate(h, cfg, h_hat) for h, cfg, h_hat, _ in cases])
    table = word_table(np.array([h.gains for h in hs]), ci_precoder(estimates),
                       cfgs[0].scheme, renormalize=cfgs[0].renormalize_oap)
    gp = np.array([h.responsivity * h.power for h in hs])
    sig = np.array([sigma_stack(h, cfg.noise, transmit, p)
                    for h, cfg, transmit, p in zip(hs, cfgs, table.transmit, points)])
    rate = analytic.outdated_bound if cfgs[0].csi_mode == "outdated" else analytic.exact_ber
    closed = rate(table, gp, sig)     # first, so Q's arrays do not meet gp * margin
    return gp[:, None, None] * table.margin, sig, closed


def sweep(cases, snr_points_db, threads: int | None = None) -> list[BerCurve]:
    """Estimate and analyze each ``(h, cfg, h_hat)`` case over a transmit-SNR grid.

    One (seed, block) stream serves every SNR point of every case that has
    the same word and detector counts, seed, symbol count and block size
    (common random numbers): each block is drawn once and counted against
    the thresholds of all their points, in one block loop per noise mode
    however wide the arrays, and every point counts every block.  Rows are
    therefore correlated along SNR and across cases; each row equals the
    case's one-case sweep at its SNR (``simulate``), its marginal
    distribution unchanged.  Up to ``threads`` blocks run at once (None
    means the CPUs this process may use, 1 forces serial, below 1 raises
    ``ValueError``); threads split blocks, not points, and the counts do not
    depend on them.  One curve
    per case, in case order, with points sorted by SNR.  Cases of one
    loop, scheme, renormalization and knowledge are one build group while
    its cases x points x words x detectors fit ``_CHUNK_CELLS`` (see
    ``_stacks``), so a group takes one stacked ``ci_precoder`` and
    ``word_table`` call and one closed form over its stacked deviations:
    ``analytic.exact_ber`` with perfect knowledge, else
    ``analytic.outdated_bound``.  Each group's table is dropped before the
    next is built.  Physical noise has no SNR axis: it takes no points and
    gives one row whose ``snr_db`` is nan.

    The working set does not grow with the points (see the module notes): a
    31-point sweep of two 16-link cases at 20 000 symbols peaks at about 136 MB.
    """
    threads = _threads(threads)
    cases = [(h, cfg, h_hat, _points(cfg, snr_points_db)) for h, cfg, h_hat in cases]
    curves = [None] * len(cases)
    for stack in _stacks(cases):
        gpm, sigs, rates = zip(*(_group([cases[i] for i in group]) for group in stack))
        z = _Thresholds(np.concatenate(gpm), np.concatenate(sigs))
        del gpm, sigs   # the block loop holds only z's stacked copies
        # a stack shares one draw key, so its first case's cfg serves them all
        counts = iter(_count_errors(z, cases[stack[0][0]][1], threads))
        for group, rate in zip(stack, rates):
            for i, closed in zip(group, rate):
                _, cfg, _, points = cases[i]
                curves[i] = BerCurve(snr_db=tuple(points),
                                     estimates=tuple(itertools.islice(counts, len(points))),
                                     analytic=closed, scheme=cfg.scheme, csi_mode=cfg.csi_mode)
    return curves
