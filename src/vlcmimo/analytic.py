"""Closed-form link performance: error rates, bounds and throughput.

Every closed form is one word-table reduction (``_word_mean``) over a stack
of noise deviations (``noise.sigma_stack``), so swept and physical noise take
the same path.  Exact error probabilities average ``Q(z)`` over every binary
symbol word, with ``z = gp * margin / sigma`` the noise threshold Monte Carlo
compares its draws with; throughput averages each word's sum-rate.  Per word
the receiver slices at half the constructive amplitude of the detector's
equal-symbol group, which for plain inversion degenerates to half the scaled
desired gain.  ``outdated_bound`` bounds the exact rate under outdated
knowledge, each margin replaced by the smaller of its two bit hypotheses.

``q_function`` is numpy only, from Cody's rational Chebyshev approximations
of the error function; its relative error stays below 1e-15 down to Q = 1e-300.
"""

from __future__ import annotations

import numpy as np

from .precoding import WordTable, as_gains, ci_precoder, word_table

__all__ = [
    "q_function",
    "exact_ber",
    "outdated_bound",
    "ber_ci_perfect",
    "ber_ci_outdated",
    "ber_oap_perfect",
    "ber_oap_outdated",
    "throughput",
    "sigma_table",
]


# W. J. Cody, "Rational Chebyshev approximations for the error function", Math.
# Comp. 23 (1969) 631-637.  Rows: numerator, then denominator coefficients,
# highest power first, of erf(y)/y in y^2 for y <= 0.46875, of erfc(y) exp(y^2)
# in y for 0.46875 < y <= 4, and of (1/sqrt(pi) - y erfc(y) exp(y^2)) y^2 in
# 1/y^2 beyond.
_CODY = [np.array(rows) for rows in (
    ((1.85777706184603153e-1, 3.16112374387056560e0, 1.13864154151050156e2,
      3.77485237685302021e2, 3.20937758913846947e3),
     (1.0, 2.36012909523441209e1, 2.44024637934444173e2, 1.28261652607737228e3,
      2.84423683343917062e3)),
    ((2.15311535474403846e-8, 5.64188496988670089e-1, 8.88314979438837594e0,
      6.61191906371416295e1, 2.98635138197400131e2, 8.81952221241769090e2,
      1.71204761263407058e3, 2.05107837782607147e3, 1.23033935479799725e3),
     (1.0, 1.57449261107098347e1, 1.17693950891312499e2, 5.37181101862009858e2,
      1.62138957456669019e3, 3.29079923573345963e3, 4.36261909014324716e3,
      3.43936767414372164e3, 1.23033935480374942e3)),
    ((1.63153871373020978e-2, 3.05326634961232344e-1, 3.60344899949804439e-1,
      1.25781726111229246e-1, 1.60837851487422766e-2, 6.58749161529837803e-4),
     (1.0, 2.56852019228982242e0, 1.87295284992346725e0, 5.27905102951428412e-1,
      6.05183413124413191e-2, 2.33520497626869185e-3)))]
# Branch points in x = sqrt(2) y; Q underflows to 0 past the last.
_Q_EDGES = (0.46875 * np.sqrt(2.0), 4.0 * np.sqrt(2.0), 38.6)
# The working-set budget, in float64 cells: closed forms sum Q, and Monte Carlo
# blocks draw, divide z and count, in word chunks of about this size.  Against
# whole blocks, 2^15 added 11-12 % to the single-thread block loop of 8-10 link
# sweeps (2^16: 4-6 %, 2^14: 24-31 %) and took 2.8 MB off the peak memory of
# the 4-link benchmark sweep (2^16: 1.5 MB); 4-link loops did not slow.
_CHUNK_CELLS = 1 << 15


def _rational(t, coeffs) -> np.ndarray:
    """Numerator over denominator of ``coeffs``, both by Horner's rule in ``t``."""
    num, den = (np.full(t.shape, c) for c in coeffs[:, 0])
    for k in range(1, coeffs.shape[1]):
        num *= t
        num += coeffs[0, k]
        den *= t
        den += coeffs[1, k]
    num /= den
    return num


def _half_gauss(a) -> np.ndarray:
    """``exp(-a^2/2) / 2``, split at ``h = trunc(16 a)/16`` so ``h^2/2`` is exact."""
    h = np.trunc(16.0 * a) / 16.0
    g = 0.5 * np.exp(-0.5 * h * h)
    s = a + h       # then -(a - h)(a + h)/2 in h's place, holding three arrays
    np.subtract(a, h, out=h)
    h *= -0.5
    h *= s
    g *= np.exp(h, out=h)
    return g


def _q_near(a) -> np.ndarray:
    """Q(a) as ``(1 - erf(y)) / 2`` for ``y = a / sqrt 2 <= 0.46875``."""
    y = a / np.sqrt(2.0)
    q = _rational(y * y, _CODY[0])
    return np.subtract(0.5, np.multiply(0.5 * y, q, out=q), out=q)


def _q_mid(a) -> np.ndarray:
    """Q(a) as ``erfc(y) exp(y^2)`` times ``exp(-a^2/2) / 2`` for ``0.46875 < y <= 4``."""
    q = _rational(a / np.sqrt(2.0), _CODY[1])
    q *= _half_gauss(a)
    return q


def _q_tail(a) -> np.ndarray:
    """Q(a) from the asymptotic form of ``erfc(y) exp(y^2)`` in ``1/y^2`` for ``y > 4``."""
    y = a / np.sqrt(2.0)
    t = 1.0 / (y * y)
    q = (1.0 / np.sqrt(np.pi) - t * _rational(t, _CODY[2])) / y
    del y, t        # before the Gaussian factor's arrays
    q *= _half_gauss(a)
    return q


def q_function(x):
    """Gaussian tail probability Q(x) = erfc(x / sqrt 2) / 2.

    Evaluated with Cody's rational approximations in ``y = |x| / sqrt 2``:
    ``1 - erf`` near zero, and ``erfc(y) exp(y^2)`` times ``exp(-x^2/2)``
    (taken in x so deep tails keep their relative precision) beyond; negative
    arguments use ``Q(x) = 1 - Q(-x)``.  Q is 0 past 38.6, where it underflows.
    """
    x = np.asarray(x, dtype=float)
    a = np.abs(x)
    q = np.where(np.isnan(x), np.nan, 0.0)
    near = a <= _Q_EDGES[0]
    mid = ~near & (a <= _Q_EDGES[1])
    tail = (a > _Q_EDGES[1]) & (a < _Q_EDGES[2])
    for sel, branch in ((near, _q_near), (mid, _q_mid), (tail, _q_tail)):
        part = a[sel]
        if part.size:       # small tables often leave a branch empty
            q[sel] = branch(part)
    np.subtract(1.0, q, out=q, where=x < 0.0)
    return q[()]


def sigma_table(sigma, table: WordTable) -> np.ndarray:
    """Resolve a scalar or per-detector deviation to one positive entry per detector."""
    n_r = table.words.shape[1]
    arr = np.asarray(sigma, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n_r, float(arr))
    if arr.shape != (n_r,):
        raise ValueError(f"sigma must be scalar or length-{n_r}, got shape {arr.shape}")
    if np.any(arr <= 0.0):
        raise ValueError("noise standard deviations must be positive")
    return arr


def _elements(gp, *arrays) -> list[np.ndarray]:
    """``gp`` as (k, 1, 1, 1) and each word-table array as (k, 1, words, detectors).

    The leading axis is the table's stack (k = 1 for a 2-D table), the
    second the points ``_word_mean`` passes; ``gp`` is one value or one per
    element.
    """
    arrays = [a[:, None] if a.ndim == 3 else a[None, None] for a in arrays]
    gp = np.asarray(gp, dtype=float).reshape(-1, 1, 1, 1)
    if len(gp) != len(arrays[0]):
        gp = np.broadcast_to(gp, (len(arrays[0]), 1, 1, 1))
    return [gp, *arrays]


def _word_mean(terms, table: WordTable, sig) -> np.ndarray:
    """The word mean of ``terms(c, w, s)``: (elements, points, words, detectors) terms.

    ``c`` and ``w`` are slices of the table's stack elements and words, ``s``
    their deviations.  A 2-D table is the one-element stack: its ``sig`` is
    a resolved deviation or a (points, 1 or words, detectors) stack, and a
    stacked table takes a (k, points, 1 or words, detectors) stack.  A chunk
    holds ``min(2^n, _CHUNK_CELLS // n)`` words, whatever the points, and as
    many points, then as many elements of all their points, as fit, so a
    stacked row equals its one-point, one-element call bit for bit; up to 11
    links the table is one chunk.
    """
    sig = np.asarray(sig, dtype=float)
    n_words, n_r = table.margin.shape[-2:]
    stacked = table.margin.ndim == 3
    if stacked and sig.ndim != 4:
        raise ValueError("a stacked table takes a (k, points, 1 or words, detectors) sigma")
    rows = sig if stacked else sig[None] if sig.ndim == 3 else sig[None, None]
    k, n_points = rows.shape[:2]
    stack = np.broadcast_to(rows, (k, n_points, n_words, n_r))
    step = min(n_words, max(1, _CHUNK_CELLS // n_r))
    at_once = max(1, _CHUNK_CELLS // (step * n_r))
    k_at_once = max(1, at_once // n_points)
    total = np.zeros((k, n_points, n_r))
    for lo in range(0, n_words, step):
        w = slice(lo, lo + step)
        for e in range(0, k, k_at_once):
            c = slice(e, e + k_at_once)
            for p in range(0, n_points, at_once):
                total[c, p:p + at_once] += terms(c, w, stack[c, p:p + at_once, w]).sum(axis=-2)
    total /= n_words
    return total if stacked else total[0] if sig.ndim == 3 else total[0, 0]


def exact_ber(table: WordTable, gp, sig) -> np.ndarray:
    """Exact error rate per detector: the word mean of ``Q(gp * table.margin / sig)``.

    ``sig`` is a resolved deviation (see ``sigma_table``; every entry
    positive) or a stack of them along a leading axis, ``(points, 1 or
    words, detectors)``, which gives one row per point.  A stacked table
    (see ``precoding.word_table``) takes ``gp`` per element and a
    ``(k, points, 1 or words, detectors)`` stack, and gives (k, points,
    detectors), each element's rows those of its own call.  Under a stale
    precoder the table from the true gains is the model Monte Carlo samples,
    so the rate is exact there too.
    """
    gp, margin = _elements(gp, table.margin)
    # gp * margin / sig overflows only far past |z| = 38.6, where Q is already
    # 0 (or 1): the +-inf it rounds to gives the exact rate.
    with np.errstate(over="ignore"):
        return _word_mean(lambda c, w, s: q_function(gp[c] * margin[c, :, w] / s), table, sig)


def outdated_bound(table: WordTable, gp, sig) -> np.ndarray:
    """Upper bound on ``exact_ber`` per detector under a stale precoder, either scheme.

    The word mean of ``Q(gp * min(margin, slicer - margin) / sig)``: under the
    same leakage the other bit's margin is ``slicer - margin``, so each term
    takes the smaller of the two bit hypotheses, bounds its exact tail, and
    equals it where no leakage helps the slicer, as with fresh gains.  ``gp``
    and ``sig`` stack as for ``exact_ber``.
    """
    gp, margin, slicer = _elements(gp, table.margin, table.slicer)

    def terms(c, w, s):
        m = margin[c, :, w]
        return q_function(gp[c] * np.minimum(m, slicer[c, :, w] - m) / s)
    with np.errstate(over="ignore"):    # an overflow is exact, as in exact_ber
        return _word_mean(terms, table, sig)


def _one_point(scheme, h, h_hat, sigma, responsivity, power,
               renormalize: bool = False) -> np.ndarray:
    """``exact_ber`` with fresh gains (``h_hat`` None), else ``outdated_bound``, at one sigma."""
    gains = as_gains(h)
    hat = gains if h_hat is None else as_gains(h_hat)
    if gains.shape != hat.shape:
        raise ValueError("true and estimated channels must share a shape")
    table = word_table(gains, ci_precoder(hat), scheme, renormalize=renormalize)
    rate = exact_ber if h_hat is None else outdated_bound
    return rate(table, responsivity * power, sigma_table(sigma, table))


def ber_ci_perfect(h, noise_sigma_per_pd, responsivity: float, power: float) -> np.ndarray:
    """Exact error probability per detector of channel inversion with fresh gains.

    Per word the desired amplitude at detector i is
    ``responsivity * power * beta_s * h_i^T w_i`` and the slicer sits at half
    of it, so each word contributes one tail ``Q(gp * margin / sigma)`` per
    detector, with the margin half that amplitude up to rounding in ``H W``.
    """
    return _one_point("ci", h, None, noise_sigma_per_pd, responsivity, power)


def ber_oap_perfect(h, noise_sigma_per_pd, responsivity: float, power: float,
                    renormalize: bool = False) -> np.ndarray:
    """Exact error probability per detector of the symbol-adaptive scheme.

    The desired amplitude at detector i includes the constructive
    contributions of its whole equal-symbol group; the slicer sits at half of
    that group amplitude, so both bits face the same ``Q(gp * margin / sigma)``.
    """
    return _one_point("oap", h, None, noise_sigma_per_pd, responsivity, power, renormalize)


def ber_ci_outdated(h, h_hat, noise_sigma_per_pd, responsivity: float,
                    power: float) -> np.ndarray:
    """Upper bound per detector on inversion's error probability under a stale precoder."""
    return _one_point("ci", h, h_hat, noise_sigma_per_pd, responsivity, power)


def ber_oap_outdated(h, h_hat, noise_sigma_per_pd, responsivity: float,
                     power: float, renormalize: bool = False) -> np.ndarray:
    """Upper bound per detector on the adaptive error probability under a stale precoder."""
    return _one_point("oap", h, h_hat, noise_sigma_per_pd, responsivity, power, renormalize)


def throughput(table: WordTable, h, sig) -> np.ndarray:
    """Normalized achievable throughput in bits/s/Hz: the word mean of the sum-rate.

    Each detector of a word carries ``log2(1 + gp * slicer * on / (2 sig))``
    with ``gp`` read off the channel ``h`` (responsivity times power).  The
    all-zero word radiates nothing and carries no rate; for the adaptive
    scheme only detectors whose symbol is on see their constructive group
    amplitude, for inversion every detector of a word with any symbol on.
    ``sig`` is resolved and stacks as for ``exact_ber``: a stack gives one
    value per point, equal to its one-point call bit for bit.
    """
    # h stays the second argument: perfbench/tracing.py counts words from it.
    gp, slicer = _elements(h.responsivity * h.power, table.slicer)
    on = table.words if table.scheme == "oap" else table.words.any(axis=1, keepdims=True)
    return _word_mean(lambda c, w, s: np.log2(1.0 + gp[c] * (slicer[c, :, w] * on[w]) / (2.0 * s)),
                      table, sig).sum(axis=-1)
