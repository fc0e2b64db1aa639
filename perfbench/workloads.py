"""The four benchmark workloads, built only from public vlcmimo calls.

Each workload is one or more resolved experiment configs plus the runner
recipes that consume each of them.  Several configs run side by side on the
workload's ``threads``, the way a batch of figures would.  Recipes are looked
up on ``vlcmimo.runner`` at call time, so a traced run sees the wrappers
installed on that module.  The workload seed is forwarded as the config
``seed``; nothing else depends on it.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import vlcmimo.runner
from vlcmimo.config import ExperimentConfig, config_from_dict, preset

# Link-experiment detector of the presets: wide enough that neighbouring
# luminaires stay in view, so the channel has inter-link coupling.
_WIDE_FOV = {"fov_deg": 60.0}
# Few SNR points at high error rates: every Monte Carlo row sees thousands of
# errors with few symbols, so the word tables, not the symbol kernel, dominate.
_WIDE_SWEEP = {"snr_start_db": 80.0, "snr_stop_db": 90.0, "snr_step_db": 10.0}
_WIDE_SYMBOLS = 10_000


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload: config recipes and the runner calls on them."""

    name: str
    why: str
    recipes: tuple[str, ...]    # vlcmimo.runner function names, run in order
    build: object               # seed -> tuple of ExperimentConfig

    def configs(self, seed: int) -> tuple[ExperimentConfig, ...]:
        """The resolved, validated configs for one workload seed."""
        return tuple(cfg.validate() for cfg in self.build(seed))

    def run(self, cfgs, out_dir, threads: int) -> list:
        """Run every recipe once per config; return the CSV paths written.

        With several configs, each runs on its own worker (at most
        ``threads`` at a time) and the CSVs come back in config order.
        """
        if len(cfgs) == 1:
            return self._run_one(cfgs[0], out_dir, threads)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            runs = list(pool.map(lambda cfg: self._run_one(cfg, out_dir, threads), cfgs))
        return [p for csvs in runs for p in csvs]

    def _run_one(self, cfg: ExperimentConfig, out_dir, threads: int) -> list:
        csvs = []
        for recipe in self.recipes:
            fn = getattr(vlcmimo.runner, recipe)
            if recipe == "run_channel_map":
                paths = fn(cfg, out_dir)
            else:
                paths = fn(cfg, out_dir, threads=threads)
            csvs.extend(p for p in paths if p.suffix == ".csv")
        return csvs


def _mc_fig4(seed: int) -> tuple[ExperimentConfig]:
    cfg = preset("fig4")
    # Every sixth SNR point of the preset (70 to 130 dB in 12 dB steps) keeps
    # an iteration near a second while each row still runs enough symbols for
    # the kernel, not the closed forms, to dominate.
    sweep = dataclasses.replace(cfg.sweep, snr_step_db=12.0)
    mc = dataclasses.replace(cfg.montecarlo, n_symbols=150_000)
    return (dataclasses.replace(cfg, seed=seed, sweep=sweep, montecarlo=mc),)


def _wide_perfect(seed: int) -> tuple[ExperimentConfig]:
    return (config_from_dict({
        "name": "wide_perfect", "seed": seed,
        "layout": {"n_links": 4, "spacing_m": 0.5, "detector": _WIDE_FOV},
        "mimo_orders": [8, 9],
        "sweep": _WIDE_SWEEP,
        "montecarlo": {"n_symbols": _WIDE_SYMBOLS},
    }),)


def _wide_outdated(seed: int) -> tuple[ExperimentConfig]:
    return (config_from_dict({
        "name": "wide_outdated", "seed": seed,
        "layout": {"n_links": 10, "spacing_m": 0.5, "detector": _WIDE_FOV},
        "csi": {"mode": "outdated", "model": "uniform", "mobile_user": 0},
        "mobility": {"speed_mps": 1.0, "elapsed_times_s": [0.02]},
        "sweep": _WIDE_SWEEP,
        "montecarlo": {"n_symbols": _WIDE_SYMBOLS},
    }),)


def _gain_raster(seed: int) -> tuple[ExperimentConfig, ...]:
    # Two maps side by side rather than one: the raster is a pure-Python loop,
    # so the two workers take turns on the interpreter lock and the run is
    # spread over both CPUs.  One map alone stays on one CPU, and on a shared
    # host that CPU's speed can halve or double for seconds at a time.
    return tuple(dataclasses.replace(preset(name), seed=seed) for name in ("fig3a", "fig3b"))


WORKLOADS = {w.name: w for w in (
    Workload("mc_fig4",
             "fig4 (4x4, 3 spacings, 6 SNR points, ci+oap) at 150k symbols: "
             "Monte Carlo simulate dominates, word tables are tiny",
             ("run_ber_sweep",), _mc_fig4),
    Workload("wide_perfect",
             "8x8 and 9x9 ber-sweep then throughput-sweep, few symbols: "
             "256/512-word tables rebuilt per point, closed forms dominate",
             ("run_ber_sweep", "run_throughput_sweep"), _wide_perfect),
    Workload("wide_outdated",
             "10x10 mobility with outdated CSI: stale precoder and the outdated "
             "bounds, the path a perfect-CSI-only speed-up would miss",
             ("run_mobility",), _wide_outdated),
    Workload("gain_raster",
             "fig3a and fig3b channel-maps (80x80 cells each) on two workers: "
             "geometry and CSV writing are the whole run",
             ("run_channel_map",), _gain_raster),
)}
