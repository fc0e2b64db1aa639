"""Symbol-level Monte Carlo engine with deterministic estimation.

Symbols are processed in fixed-size blocks, one after another in the
caller's thread; each block draws from its own SFC64 generator keyed by
(seed, block index), so error counts are bit-identical for a given seed.
Words are stratified: within a block every one of the 2^n words gets the same
share of symbols, and only the remainder goes to words drawn at random.  A
word's share is drawn as antithetic pairs (Hammersley and Morton, 1956): one
normal draw d is the noise of two symbols, d and -d, whose error indicators
are negatively correlated, so a pair is never noisier than two independent
symbols and a block draws about half the normals.  The reported halfwidths stay
the binomial ones, which over-state the spread of this estimator.

A ``sweep`` is one experiment: its cases (channel, scheme, estimate) share
one seed, symbol budget, noise and renormalization.  It uses common random
numbers: sigma only scales the thresholds, and the draws depend only on the
seed, the symbol and block counts and the word and detector counts.  One
block loop therefore serves every SNR point of every case of a ``sweep``
call that has the same word and detector counts (every scheme, array
spacing or elapsed time of a recipe).  Each row is exactly the case's
one-case sweep at its SNR, which is ``simulate``, and keeps its marginal
distribution.  Every point counts every block, so every row runs exactly
its symbol count.

A pair's errors depend only on |d| (``_pair_keys``).  A block that serves
many points counts them from sorted |d|: each (word, detector) row is sorted
once, and a point's count on it is one bisection, so the block's cost barely
grows with its points.  A block with few points or short rows compares |d|
with each point instead.  Both count exactly ``count(d > z) + count(-d > z)``,
so the path taken never changes a result.

A block loop's cases are built in groups: cases of one scheme and
knowledge take one stacked ``ci_precoder`` and ``word_table`` call and one
closed-form reduction, as long as the group's
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

import itertools
import math
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
    """Configuration of one ``simulate`` run (one scheme at one noise point).

    A ``config.MonteCarloConfig`` (symbol count, block size and their
    checks), so it is the ``montecarlo`` of the one-case sweep ``simulate``
    runs.  ``noise.mode`` picks the noise: "swept" reads ``snr_db``,
    "physical" the device values of ``noise``.  With ``csi_mode``
    "outdated", ``simulate`` takes the transmitter's estimate as ``h_hat``.
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
    """One scheme's sweep: Monte Carlo estimates and the closed form, a row per point.

    ``condition_number`` is that of the gains the case's precoder inverted:
    the channel's, or the estimate's when knowledge is outdated.
    """

    snr_db: tuple[float, ...]
    estimates: tuple[BerEstimate, ...]
    analytic: np.ndarray        # (points, detectors): exact_ber, or outdated_bound if stale
    scheme: str
    csi_mode: str
    condition_number: float


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
        # z overflows only far past any normal draw: the +-inf it rounds to
        # counts exactly as z would.
        with np.errstate(over="ignore"):
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
    one bisection with ``side="right"``.
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


def _count_errors(z: np.ndarray, seed: int, montecarlo: MonteCarloConfig) -> list[BerEstimate]:
    """The block loop: error counts at each point of ``z`` (points, words, detectors).

    Block k draws from ``SFC64(SeedSequence((seed, k)))``, and every point
    counts every block, so every point runs exactly ``montecarlo.n_symbols``.
    The blocks run in order in the caller's thread, and their counts are
    summed in block order, so each point counts exactly what a one-point run
    would.
    """
    n_blocks = -(-montecarlo.n_symbols // montecarlo.block_size)

    def block(k: int) -> np.ndarray:
        nb = min(montecarlo.block_size, montecarlo.n_symbols - k * montecarlo.block_size)
        rng = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(entropy=(seed, k))))
        return _block_errors(z, nb, rng)

    errors = sum(map(block, range(n_blocks)))
    return [BerEstimate(per_pd_errors=e, symbols_run=montecarlo.n_symbols) for e in errors]


def simulate(h: ChannelMatrix, cfg: SimConfig, h_hat=None) -> BerEstimate:
    """Run the symbol loop and count detection errors per photodetector.

    The one-case, one-point ``sweep`` at ``cfg.snr_db`` (no point under
    physical noise): blocks of ``cfg.block_size`` symbols give every word an
    equal share (see ``_block_errors``); block k draws from
    ``SFC64(SeedSequence((seed, k)))``.  Exactly ``cfg.n_symbols`` symbols
    run.  The estimate ``h_hat`` is needed with ``cfg.csi_mode`` "outdated"
    and refused with "perfect"; a mismatch raises ``ValueError``.
    """
    if cfg.csi_mode == "outdated" and h_hat is None:
        raise ValueError("outdated channel knowledge needs the estimate h_hat")
    if cfg.csi_mode == "perfect" and h_hat is not None:
        raise ValueError("perfect channel knowledge takes no estimate h_hat")
    points = [] if cfg.noise.mode == "physical" else [cfg.snr_db]
    return sweep([(h, cfg.scheme, h_hat)], points, seed=cfg.seed, montecarlo=cfg,
                 noise=cfg.noise, renormalize_oap=cfg.renormalize_oap)[0].estimates[0]


def _points(noise: NoiseConfig, snr_points_db) -> list[float]:
    """A sweep's sorted SNR points; physical noise is the one point nan."""
    if noise.mode == "physical":
        if len(snr_points_db):
            raise ValueError("physical noise has no SNR axis; pass no points")
        return [math.nan]
    if None in snr_points_db:
        raise ValueError("swept noise mode needs a finite snr_db")
    points = sorted(float(p) for p in snr_points_db)
    if not points:
        raise ValueError("need at least one SNR point")
    return points


def _stacks(cases, n_points: int) -> list[list[list[int]]]:
    """Indices of ``(h, scheme, h_hat)`` cases: block loops of build groups, in run order.

    Cases whose gains have the same shape (word and detector counts) share a
    loop.  Within it, cases with the same scheme and knowledge share a build
    group, in case order, while the group's cases x ``n_points`` x words x
    detectors fit ``_CHUNK_CELLS``; a case larger than that is a group alone.
    """
    stacks, groups = {}, {}
    for i, (h, scheme, h_hat) in enumerate(cases):
        loop = h.gains.shape
        build = (loop, scheme, h_hat is None)
        n = loop[1]
        group = groups.get(build)
        if group is None or (len(group) + 1) * n_points * (n << n) > _CHUNK_CELLS:
            group = groups[build] = []
            stacks.setdefault(loop, []).append(group)
        group.append(i)
    return list(stacks.values())


def _group(cases, points, noise: NoiseConfig, renormalize_oap: bool) -> tuple:
    """A build group's stacked ``gp * margin``, deviations, closed form and condition numbers.

    One ``ci_precoder``, one ``word_table`` and one ``exact_ber`` or
    ``outdated_bound`` call serve every ``(h, scheme, h_hat)`` case of the
    group at the sweep's ``points`` and ``noise``; each case's precoder
    inverts its estimate ``h_hat``, or its own gains under perfect knowledge.
    The stacked table is dropped on return.
    """
    hs, schemes, estimates = zip(*cases)
    pre = ci_precoder(np.array([h.gains if e is None else e for h, e in zip(hs, estimates)]))
    table = word_table(np.array([h.gains for h in hs]), pre, schemes[0],
                       renormalize=renormalize_oap)
    gp = np.array([h.responsivity * h.power for h in hs])
    sig = np.array([sigma_stack(h, noise, transmit, points)
                    for h, transmit in zip(hs, table.transmit)])
    rate = analytic.exact_ber if estimates[0] is None else analytic.outdated_bound
    closed = rate(table, gp, sig)     # first, so Q's arrays do not meet gp * margin
    return gp[:, None, None] * table.margin, sig, closed, pre.condition_number


def sweep(cases, snr_points_db, *, seed: int, montecarlo: MonteCarloConfig,
          noise: NoiseConfig, renormalize_oap: bool = False) -> list[BerCurve]:
    """Estimate and analyze a list of ``(h, scheme, h_hat)`` cases over a transmit-SNR grid.

    A sweep is one experiment: ``seed``, ``montecarlo`` (symbol and block
    counts), ``noise`` and ``renormalize_oap`` serve every case.  A case's
    knowledge is outdated exactly when its estimate ``h_hat`` is given; one
    whose shape is not its channel's raises ``ValueError``.  One (seed,
    block) stream serves every SNR point of every case with the same word
    and detector counts (common random numbers): each block is drawn once and counted against
    the thresholds of all their points, in one block loop however wide the
    arrays, and every point counts every block.  Rows are therefore
    correlated along SNR and across cases; each row equals the case's
    one-case sweep at its SNR (``simulate``), its marginal distribution
    unchanged.  The blocks run one after another in the caller's thread.
    One curve per case, in case order, with points sorted by SNR.  Cases of
    one block loop, scheme and knowledge are one build group while its
    cases x points x words x detectors fit ``_CHUNK_CELLS`` (see
    ``_stacks``), so a group takes one stacked ``ci_precoder`` and
    ``word_table`` call and one closed form over its stacked deviations:
    ``analytic.exact_ber`` with perfect knowledge, else
    ``analytic.outdated_bound``.  Each group's table is dropped before the
    next is built.  Physical noise has no SNR axis: it takes no points and
    gives one row whose ``snr_db`` is nan.

    The working set does not grow with the points (see the module notes): a
    31-point sweep of two 16-link cases at 20 000 symbols peaks at about 136 MB.
    """
    points = _points(noise, snr_points_db)
    for h, _, h_hat in cases:
        if h_hat is not None and np.shape(h_hat) != h.gains.shape:
            raise ValueError(f"the estimate h_hat has shape {np.shape(h_hat)}, "
                             f"its channel {h.gains.shape}")
    curves = [None] * len(cases)
    for stack in _stacks(cases, len(points)):
        gpm, sigs, rates, conds = zip(*(_group([cases[i] for i in group], points, noise,
                                               renormalize_oap) for group in stack))
        z = _Thresholds(np.concatenate(gpm), np.concatenate(sigs))
        del gpm, sigs   # the block loop holds only z's stacked copies
        counts = iter(_count_errors(z, seed, montecarlo))
        for group, rate, cond in zip(stack, rates, conds):
            for i, closed, kappa in zip(group, rate, cond.tolist()):
                _, scheme, h_hat = cases[i]
                curves[i] = BerCurve(snr_db=tuple(points),
                                     estimates=tuple(itertools.islice(counts, len(points))),
                                     analytic=closed, scheme=scheme,
                                     csi_mode="perfect" if h_hat is None else "outdated",
                                     condition_number=kappa)
    return curves
