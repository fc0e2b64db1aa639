"""Channel-inversion precoding and the symbol-adaptive constructive mask.

The channel-inversion precoder is the right pseudo-inverse of the gain matrix
with an explicit singular-value tolerance; the adaptive variant multiplies it
by a per-symbol binary mask that keeps interference between links carrying
equal symbols.  ``word_table`` is the only implementation of the transmit
pipeline (scale, mask, precode, propagate, slice): it evaluates it over every
binary symbol word at once.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .channel import ChannelMatrix

__all__ = [
    "SingularChannelError",
    "Precoder",
    "WordTable",
    "combination_matrix",
    "word_table",
    "ci_precoder",
]


# Singular values below this fraction of the largest mark a channel as rank
# deficient.
PINV_TOLERANCE = 1e-12


class SingularChannelError(RuntimeError):
    """Channel matrix is rank deficient relative to ``PINV_TOLERANCE``."""


def as_gains(h) -> np.ndarray:
    """Accept a ChannelMatrix or a raw array of gains."""
    if isinstance(h, ChannelMatrix):
        return h.gains
    return np.asarray(h, dtype=float)


@dataclass(frozen=True)
class Precoder:
    """Unscaled precoding matrix (per-symbol scaling applied separately).

    ``w`` is N_T x N_R; for a full-row-rank channel ``H @ w`` is the identity
    up to rounding.  ``condition_number`` is the condition of the channel
    cross-correlation ``H H^T``, kept as a diagnostic for closely spaced
    luminaires.
    """

    w: np.ndarray
    condition_number: float = 1.0

    def __post_init__(self):
        arr = np.array(self.w, dtype=float)
        if arr.ndim != 2 or not np.all(np.isfinite(arr)):
            raise ValueError("precoder matrix must be a finite 2-D matrix")
        arr.setflags(write=False)
        object.__setattr__(self, "w", arr)


MAX_ENUMERATED_LINKS = 16


def combination_matrix(n_t: int) -> np.ndarray:
    """The 2^n_t binary transmit words in counting order (row s = bits of s), read-only."""
    if not 1 <= n_t <= MAX_ENUMERATED_LINKS:
        raise ValueError(
            f"word enumeration supports 1..{MAX_ENUMERATED_LINKS} transmitters, got {n_t}")
    s = np.arange(2**n_t, dtype=np.uint32)
    bits = ((s[:, None] >> np.arange(n_t - 1, -1, -1)) & 1).astype(np.uint8)
    bits.setflags(write=False)
    return bits


def ci_precoder(h) -> Precoder:
    """Right pseudo-inverse precoder ``H^T (H H^T)^-1`` via SVD.

    Singular values below ``PINV_TOLERANCE`` times the largest mark the
    channel as rank deficient and raise ``SingularChannelError`` instead of
    silently amplifying noise.
    """
    gains = as_gains(h)
    if gains.ndim != 2:
        raise ValueError("channel gains must be a matrix")
    n_r, n_t = gains.shape
    u, s, vt = np.linalg.svd(gains, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= PINV_TOLERANCE * s[0]:
        raise SingularChannelError(
            f"{n_r}x{n_t} channel is rank deficient: singular values span "
            f"{s[0]:.3e}..{s[-1]:.3e} (tolerance {PINV_TOLERANCE:g}); "
            "luminaires are too closely spaced or a detector sees no light")
    w = (vt.T / s) @ u.T
    cond = float((s[0] / s[-1]) ** 2)
    return Precoder(w=w, condition_number=cond)


@dataclass(frozen=True)
class WordTable:
    """Every per-word quantity of the transmit pipeline, one row per word.

    Rows follow ``combination_matrix`` order; ``transmit`` is per unit power,
    the amplitudes per unit ``responsivity * power``.  ``own`` is detector
    i's amplitude ``beta (H W_d)_ii``; ``slicer`` is the amplitude whose half
    is the detection threshold: ``own`` for inversion, the equal-symbol group
    sum ``beta sum_j (H W_d)_ij T_ij`` for the adaptive scheme.  ``margin``
    is ``receive - slicer/2`` where the bit is 1 and ``slicer/2 - receive``
    where it is 0; closed forms and Monte Carlo both read ``gp * margin / sigma``.
    """

    scheme: str
    words: np.ndarray       # (2^n, n) binary words
    beta: np.ndarray        # (2^n,) transmit scaling
    transmit: np.ndarray    # (2^n, n) transmit vectors t = beta W_d x
    receive: np.ndarray     # (2^n, n) noiseless receive means H t
    own: np.ndarray
    slicer: np.ndarray
    margin: np.ndarray      # (2^n, n) signed slicer margin per unit gp

    def __post_init__(self):
        # Read-only: the closed forms and Monte Carlo of a case all read one table.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                value.setflags(write=False)


def word_table(gains, precoder: Precoder, scheme: str,
               renormalize: bool = False) -> WordTable:
    """The transmit pipeline evaluated for all 2^n words of a square channel.

    ``precoder`` is the inversion precoder W the transmitter derived from its
    channel estimate (the true ``gains`` under perfect knowledge); signals
    propagate through the true ``gains``.  The scaling is read off the
    precoder: ``beta = 1 / ||W x||``, which is ``(x^T (H H^T)^-1 x)^(-1/2)``
    for the estimate H, so no second inverse is taken.  The equal-symbol mask
    is never formed: with k ones in the word x, ``T x = k x``, and with
    ``M = H W`` detector i's masked amplitude ``(M T)_ii`` is ``(M g_i)_i``,
    where ``g_i`` is x when x_i = 1 and 1 - x otherwise; its group amplitude
    is ``|G_i|`` times that.  With ``renormalize`` the adaptive scaling is
    evaluated on ``T x``, i.e. divided by k.  Every intermediate is (2^n, n).

    The table does not depend on the noise, so each caller builds it once and
    evaluates every noise point on it.
    """
    h = as_gains(gains)
    n = h.shape[1]
    if h.shape != (n, n):
        raise ValueError("the word table requires a square channel")
    if scheme not in ("ci", "oap"):
        raise ValueError(f"unknown scheme {scheme!r}")
    words = combination_matrix(n)
    x = words.astype(float)
    k = x.sum(axis=1, keepdims=True)
    m = h @ precoder.w
    mx = x @ m.T
    wx = x @ precoder.w.T
    norm = np.linalg.norm(wx, axis=1, keepdims=True)
    beta = 1.0 / np.where(k > 0, norm, 1.0)    # fixed at 1 for the all-zero word
    if scheme == "ci":
        scale = beta
        own = slicer = beta * np.diag(m)
    else:
        if renormalize:
            beta = beta / np.maximum(k, 1.0)
        scale = beta * k
        on = words == 1
        own = beta * np.where(on, mx, (1.0 - x) @ m.T)
        slicer = np.where(on, k, n - k) * own
    receive = scale * mx
    return WordTable(scheme=scheme, words=words, beta=beta[:, 0],
                     transmit=scale * wx, receive=receive, own=own, slicer=slicer,
                     margin=np.where(words == 1, 1.0, -1.0) * (receive - 0.5 * slicer))
