#!/usr/bin/env python3
"""Study: SNR advantage of adaptive precoding vs plain inversion.

Tabulates, for each luminaire spacing and array order, the SNR each scheme
needs to reach a target error rate (analytic curves, fine grid) and the
resulting gap.  No Monte Carlo involved, runs in seconds.  A layout that
does not fit the room is printed as a skipped row.
"""

import argparse
import sys

import numpy as np

from vlcmimo.analytic import exact_ber
from vlcmimo.channel import (GeometryError, PhotoDetector, build_channel_matrix,
                             square_grid_layout)
from vlcmimo.config import NoiseConfig
from vlcmimo.noise import sigma_stack
from vlcmimo.precoding import ci_precoder, word_table


def error_rates(h, pre, scheme, snrs) -> list[float]:
    """Average exact error rate of ``scheme`` with precoder ``pre`` at each SNR,
    from one ``exact_ber`` call."""
    table = word_table(h.gains, pre, scheme)
    sig = sigma_stack(h, NoiseConfig(), table.transmit, snrs)
    return [float(np.mean(r)) for r in exact_ber(table, h.responsivity * h.power, sig)]


def crossing(h, pre, scheme, level, snrs):
    prev = None
    for snr, ber in zip(snrs, error_rates(h, pre, scheme, snrs)):
        if prev is not None and prev[1] >= level >= ber > 0:
            x0, y0 = prev
            return x0 + (np.log10(level) - np.log10(y0)) \
                * (snr - x0) / (np.log10(ber) - np.log10(y0))
        prev = (snr, ber)
    return float("nan")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--level", type=float, default=1e-3,
                        help="target error rate (default 1e-3)")
    parser.add_argument("--orders", type=int, nargs="*", default=[4])
    parser.add_argument("--spacings", type=float, nargs="*",
                        default=[0.25, 0.5, 1.0])
    parser.add_argument("--fov", type=float, default=60.0)
    args = parser.parse_args()

    snrs = np.arange(60.0, 150.0, 0.25)
    print(f"target error rate {args.level:g}, detector fov {args.fov} deg")
    print(f"{'order':>6} {'spacing':>8} {'cond(HH^T)':>11} "
          f"{'inversion':>10} {'adaptive':>9} {'gap dB':>7}")
    for n in args.orders:
        for sp in args.spacings:
            try:
                h = build_channel_matrix(
                    square_grid_layout(n, sp, detector=PhotoDetector(fov=args.fov)))
            except GeometryError as err:
                print(f"{n:>6} {sp:>8.2f} skipped: {err}")
                continue
            pre = ci_precoder(h.gains)
            ci = crossing(h, pre, "ci", args.level, snrs)
            oap = crossing(h, pre, "oap", args.level, snrs)
            print(f"{n:>6} {sp:>8.2f} {pre.condition_number:>11.3g} "
                  f"{ci:>10.2f} {oap:>9.2f} {ci - oap:>7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
