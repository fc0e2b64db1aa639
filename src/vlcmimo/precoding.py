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


# Singular values at or below this fraction of the largest mark a channel as
# rank deficient.
PINV_TOLERANCE = 1e-12


class SingularChannelError(RuntimeError):
    """Channel matrix is rank deficient relative to ``PINV_TOLERANCE``, too
    small for a finite precoder, or too large for a finite transmit scaling."""


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
    luminaires.  A stack of channels gives a (k, N_T, N_R) ``w`` and one
    condition number per element.
    """

    w: np.ndarray
    condition_number: float | np.ndarray = 1.0

    def __post_init__(self):
        arr = np.array(self.w, dtype=float)
        if arr.ndim not in (2, 3) or not np.all(np.isfinite(arr)):
            raise ValueError("precoder matrix must be a finite matrix or stack of matrices")
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

    Singular values at or below ``PINV_TOLERANCE`` times the largest mark
    the channel as rank deficient and raise ``SingularChannelError`` instead of
    silently amplifying noise.  A (k, n_r, n_t) stack of channels takes one
    SVD call and gives the stacked precoder; each element is checked, the
    first rank-deficient one is named, and each equals its own 2-D call bit
    for bit.  Gains so small that W is not finite raise
    ``SingularChannelError`` too, naming the element, with no numpy warning.
    """
    gains = as_gains(h)
    if gains.ndim not in (2, 3):
        raise ValueError("channel gains must be a matrix or a stack of matrices")
    n_r, n_t = gains.shape[-2:]

    def refuse(bad, why):
        if bad.any():
            i = bad.argmax()
            which = f" {i} of the stack" if gains.ndim == 3 else ""
            raise SingularChannelError(f"{n_r}x{n_t} channel{which} {why(i)}")

    u, s, vt = np.linalg.svd(gains, full_matrices=False)
    top, low = s[..., 0], s[..., -1]
    refuse((top == 0.0) | (low <= PINV_TOLERANCE * top), lambda i: (
        f"is rank deficient: singular values span {top.flat[i]:.3e}..{low.flat[i]:.3e} "
        f"(tolerance {PINV_TOLERANCE:g}); luminaires are too closely spaced or a "
        "detector sees no light"))
    # Subnormal singular values pass the rank check, as the tolerance times
    # the largest underflows to 0, and their reciprocals overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        w = (vt.mT / s[..., None, :]) @ u.mT
    refuse(~np.isfinite(w).all(axis=(-2, -1)), lambda i: (
        f"has singular values down to {low.flat[i]:.3e}, so its precoder is not "
        "finite: the channel gains are too small"))
    # Squared one float at a time: an array's ``** 2`` multiplies, a float's
    # calls ``pow``, and the two can differ in the last bit.
    ratio = (top / low).tolist()
    cond = ratio**2 if gains.ndim == 2 else np.array([r**2 for r in ratio])
    return Precoder(w=w, condition_number=cond)


@dataclass(frozen=True)
class WordTable:
    """Every per-word quantity of the transmit pipeline, one row per word.

    Rows follow ``combination_matrix`` order; ``transmit`` is per unit power,
    the amplitudes per unit ``responsivity * power``.  ``slicer`` is the
    amplitude whose half is the detection threshold: detector i's own
    amplitude ``beta (H W_d)_ii`` for inversion, the equal-symbol group sum
    ``beta sum_j (H W_d)_ij T_ij`` for the adaptive scheme.  ``margin``
    is ``receive - slicer/2`` where the bit is 1 and ``slicer/2 - receive``
    where it is 0, with ``receive = H t`` the noiseless receive mean; closed
    forms and Monte Carlo both read ``gp * margin / sigma``.  A stacked
    build (see ``word_table``) puts a leading axis on every field but
    ``words``.
    """

    scheme: str
    words: np.ndarray       # (2^n, n) binary words
    transmit: np.ndarray    # (2^n, n) transmit vectors t = beta W_d x
    slicer: np.ndarray      # (2^n, n) slicer amplitude, twice the threshold
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

    A (k, n, n) stack of gains, of precoders or of both gives a stacked
    table: every field but ``words`` gains a leading axis of k, and each
    element equals the table of its own 2-D build bit for bit, as it runs
    the same arithmetic.  The table does not depend on the noise, so each
    caller builds it once and evaluates every noise point on it.  Gains so
    large that ``||W x||`` underflows to 0 for a word with ones, which would
    make its transmit vector infinite, raise ``SingularChannelError``.
    """
    h = as_gains(gains)
    n = h.shape[-1]
    if h.shape[-2:] != (n, n):
        raise ValueError("the word table requires a square channel")
    if scheme not in ("ci", "oap"):
        raise ValueError(f"unknown scheme {scheme!r}")
    words = combination_matrix(n)
    x = words.astype(float)
    k = x.sum(axis=1, keepdims=True)
    m = h @ precoder.w
    mx = x @ m.mT
    wx = x @ precoder.w.mT
    norm = np.linalg.norm(wx, axis=-1, keepdims=True)
    if not (norm[..., 1:, :] > 0.0).all():      # row 0 is the all-zero word
        raise SingularChannelError("the transmit scaling 1/||W x|| is not finite: "
                                   "the channel gains are too large")
    beta = 1.0 / np.where(k > 0, norm, 1.0)    # fixed at 1 for the all-zero word
    if scheme == "ci":
        scale = beta
        slicer = beta * m.diagonal(axis1=-2, axis2=-1)[..., None, :]
    else:
        if renormalize:
            beta = beta / np.maximum(k, 1.0)
        scale = beta * k
        on = words == 1
        own = beta * np.where(on, mx, (1.0 - x) @ m.mT)
        slicer = np.where(on, k, n - k) * own
    receive = scale * mx
    return WordTable(scheme=scheme, words=words, transmit=scale * wx, slicer=slicer,
                     margin=np.where(words == 1, 1.0, -1.0) * (receive - 0.5 * slicer))
