"""References that only the tests need, kept apart from the program.

Dense noise thresholds with the slicer's tie rule, the noiseless error count
they imply, the per-word transmit scaling from its defining formula, and the
line-of-sight gain of one luminaire-detector pair of a layout; and
``simulated_z``, which reads the thresholds ``simulate`` counts against so
tests can compare them.
"""

import numpy as np

from vlcmimo import montecarlo
from vlcmimo.channel import _los_gains
from vlcmimo.precoding import ci_precoder


def wrong_decisions(table) -> np.ndarray:
    """Where the noiseless slicer errs: a receive value at the threshold decides 0.

    So a 1 errs at margin <= 0 and a 0 at margin < 0.
    """
    return np.where(table.words == 1, table.margin <= 0.0, table.margin < 0.0)


def noiseless_errors(table) -> int:
    """Detection errors over every word of ``table`` with the noise disabled."""
    return int(np.count_nonzero(wrong_decisions(table)))


def thresholds(table, gp: float, sig) -> np.ndarray:
    """Dense ``z = gp * margin / sig``; where ``sig`` is 0, -inf if the slicer errs, else +inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.divide(gp * table.margin, sig)
    np.copyto(z, np.where(wrong_decisions(table), -np.inf, np.inf),
              where=~(np.asarray(sig) > 0))
    return z


def beta(h, x) -> float:
    """Transmit scaling ``1 / ||W x||`` of one word; 1 for the all-zero word."""
    vec = np.asarray(x, dtype=float)
    return float(1.0 / np.linalg.norm(ci_precoder(h).w @ vec)) if vec.any() else 1.0


def simulated_z(h, cfg, h_hat=None) -> np.ndarray:
    """The (words, detectors) thresholds ``simulate`` counts its draws against."""
    gpm, sig, _, _ = montecarlo._group([(h, cfg.scheme, h_hat)], [cfg.snr_db], cfg.noise,
                                       cfg.renormalize_oap)
    return montecarlo._Thresholds(gpm, sig)[:, :][0]


def los_gain(layout, i=0, j=0) -> float:
    """Line-of-sight gain from luminaire ``j`` to detector ``i`` of ``layout``."""
    return float(_los_gains(layout, *layout.detector_positions[i])[j])
