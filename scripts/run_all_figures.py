#!/usr/bin/env python3
"""Run every named experiment preset and collect the CSV outputs.

All eight take about 1 s (Monte Carlo at 2e6 symbols per point).  Each
preset's summary line gives its wall time and the process's peak resident
memory so far.
"""

import argparse
import resource
import sys
import time

from vlcmimo.config import PRESET_NAMES, preset
from vlcmimo.runner import (run_ber_sweep, run_channel_map, run_mobility,
                            run_throughput_sweep)

RECIPES = {
    "fig3a": run_channel_map,
    "fig3b": run_channel_map,
    "fig3c": run_channel_map,
    "fig4": run_ber_sweep,
    "fig5": run_ber_sweep,
    "fig6": run_mobility,
    "fig7": run_ber_sweep,
    "fig8": run_throughput_sweep,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--only", nargs="*", choices=PRESET_NAMES,
                        help="subset of presets to run")
    args = parser.parse_args()

    names = args.only or list(RECIPES)
    for name in names:
        start = time.monotonic()
        paths = RECIPES[name](preset(name), args.out, progress=True)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024   # KiB on Linux
        print(f"{name}: {time.monotonic() - start:.1f}s, peak {peak_mb:.1f} MB -> "
              + ", ".join(str(p) for p in paths))
    return 0


if __name__ == "__main__":
    sys.exit(main())
