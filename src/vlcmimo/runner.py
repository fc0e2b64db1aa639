"""Experiment recipes: run sweeps over the config's layouts, write CSV results + metadata.

Output files are data-only and deterministic: a given (config, seed) pair
reproduces byte-identical CSV bodies.  Every CSV starts with '#' comment
lines carrying the config hash and seed, then a header row; floats are
written in shortest round-trip decimal.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import throughput as analytic_throughput
from .channel import build_channel_matrix, gain_map
from .config import ConfigError, ExperimentConfig, _resolved_hash
from .csi import perturb_channel
from .montecarlo import sweep
from .noise import sigma_stack
from .precoding import ci_precoder, word_table

__all__ = [
    "run_channel_map",
    "run_ber_sweep",
    "run_throughput_sweep",
    "run_mobility",
]


def _join_per_pd(values) -> str:
    return "|".join(map(str, values.tolist()))


def _atomic_write(path: Path, lines):
    """Write the text ``lines`` to a temporary file, then rename it to ``path``.

    The temporary file is removed if writing or renaming fails.
    """
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as f:
            f.writelines(lines)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write(cfg: ExperimentConfig, out_dir, kind: str, command: str, header: list[str], rows,
           extras: dict, progress: bool) -> list[Path]:
    """Make ``out_dir`` and write ``<name>_<kind>.csv`` and its metadata there.

    The CSV has comment lines with the config hash, seed and name, the header
    and ``rows``, formatted one row at a time.  Rows hold Python scalars
    (``tolist()``, ``float()``, ints and strs), so ``str`` gives each cell; for
    a float that is its shortest round-trip repr.  The metadata holds the
    command, package version, hash, seed, resolved config and ``extras``.
    Recipes call this last, so one that raises leaves no directory behind.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolved = cfg.resolved()
    config_hash = _resolved_hash(resolved)
    csv_path = out / f"{cfg.name}_{kind}.csv"
    head = [f"# config_hash={config_hash}", f"# seed={cfg.seed}",
            f"# name={cfg.name}", ",".join(header)]
    body = (",".join(map(str, row)) for row in rows)
    _atomic_write(csv_path, (line + "\n" for line in itertools.chain(head, body)))
    meta_path = out / f"{cfg.name}_{kind}_meta.json"
    meta = {"command": command, "package_version": __version__, "config_hash": config_hash,
            "seed": cfg.seed, "resolved_config": resolved, **extras}
    _atomic_write(meta_path, [json.dumps(meta, indent=2, sort_keys=True) + "\n"])
    if progress:
        print(f"wrote {csv_path}", file=sys.stderr)
    return [csv_path, meta_path]


def _snr_points(cfg: ExperimentConfig) -> tuple[float, ...]:
    """The swept SNR grid; physical noise has no SNR axis."""
    return () if cfg.noise.mode == "physical" else cfg.sweep.points()


def _curve_rows(curve, *columns) -> list[list]:
    """A row per point: SNR, scheme, knowledge, ``columns``, closed form, Monte Carlo.

    An outdated row's closed form is a bound (``is_bound`` 1), a perfect one exact.
    """
    return [[snr, curve.scheme, curve.csi_mode, *columns, _join_per_pd(row),
             float(np.mean(row)), int(curve.csi_mode == "outdated"), est.average_ber,
             est.average_halfwidth, est.symbols_run]
            for snr, est, row in zip(curve.snr_db, curve.estimates, curve.analytic)]


def _report(curve):
    """One progress line per point of ``curve`` on stderr."""
    for p, est, row in zip(curve.snr_db, curve.estimates, curve.analytic):
        print(f"  snr {p:7.2f} dB [{curve.scheme}/{curve.csi_mode}]: "
              f"mc {est.average_ber:.3e}  analytic {np.mean(row):.3e}", file=sys.stderr)


def _sweep_rows(cfg: ExperimentConfig, cases, points, progress) -> tuple[list, list]:
    """Rows of every ``(heading, columns, (h, scheme, h_hat))`` case from one sweep of
    ``cfg``, and its curves.

    With ``progress``, each case's heading and point lines follow in case
    order once the sweep is done.
    """
    curves = sweep([case for _, _, case in cases], points, seed=cfg.seed,
                   montecarlo=cfg.montecarlo, noise=cfg.noise,
                   renormalize_oap=cfg.renormalize_oap)
    rows = []
    for (heading, columns, _), curve in zip(cases, curves):
        if progress:
            print(heading, file=sys.stderr)
            _report(curve)
        rows += _curve_rows(curve, *columns)
    return rows, curves


def _one_layout(cfg: ExperimentConfig, command: str):
    """Raise ``ConfigError`` if a recipe of ``cfg.layout`` alone is given variant axes."""
    axes = [k for k in ("spacings_m", "semi_angles_deg", "mimo_orders") if getattr(cfg, k)]
    if axes:
        raise ConfigError(f"{command} runs the layout alone; it takes no {', '.join(axes)}")


def run_channel_map(cfg: ExperimentConfig, out_dir, progress: bool = False) -> list[Path]:
    """Rasterize the total-gain field of ``cfg.layout`` as a CSV grid (rows = y).

    Each distinct cell value is formatted once and its text reused for every
    cell that holds it: the field of view zeroes most of the room and the
    centred grid repeats the rest by mirror symmetry, so a paper raster has
    a few hundred distinct values among thousands of cells.  Values are told
    apart by bit pattern, so ``-0.0``, each NaN and neighbouring floats keep
    their own text, and the bytes are those of a ``repr`` per cell.  Each
    row reaches ``_write`` as its y and its cells already joined.  A raster
    with no repeats pays one sort of its cells for nothing.
    Variant axes raise ``ConfigError`` before anything is written.
    """
    _one_layout(cfg, "channel-map")
    (layout,) = cfg.layouts.values()
    field = gain_map(layout, cfg.map_resolution_m)
    header = ["y_m"] + [repr(float(x)) for x in field.x_centers]
    bits, inverse = np.unique(field.values.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    cells = text[inverse.reshape(field.values.shape)].tolist()
    rows = ([float(y), ",".join(values)] for y, values in zip(field.y_centers, cells))
    return _write(cfg, out_dir, "gain_map", "channel-map", header, rows, {
        "grid_shape": list(field.values.shape),
        "peak_gain": float(field.values.max()),
    }, progress)


def _stale_estimate(cfg: ExperimentConfig, h, bound: float) -> np.ndarray:
    """The mobile user's stale estimate of ``h`` within ``bound`` (one draw, keyed by the seed)."""
    return perturb_channel(h, bound, model=cfg.csi.model, seed=cfg.seed,
                           row=cfg.csi.mobile_user, worst_case_sign=cfg.csi.worst_case_sign)


def run_ber_sweep(cfg: ExperimentConfig, out_dir, threads: int | None = None,
                  progress: bool = False) -> list[Path]:
    """Monte Carlo + analytic error rates over the SNR grid for every variant.

    With ``noise.mode: physical`` there is no SNR axis; each variant/scheme
    contributes a single row computed at the device noise level (snr_db
    column carries nan).  With ``csi.mode: outdated`` each variant's stale
    estimate uses its first ``cfg.error_bounds`` entry, the bound of its own
    layout at the first ``mobility.elapsed_times_s`` entry only, recorded
    per variant as ``error_bounds`` and the entry as ``error_bound_elapsed_s``
    in the metadata; ``mobility`` sweeps every entry.
    ``channel_condition_numbers`` holds per variant the condition number of
    the gains its precoder inverted, the estimate's under outdated
    knowledge, as the sweep's curves carry it.  Every variant and scheme goes
    to one ``sweep`` call (see there), so rows share draws across schemes and
    variants as well as along SNR.  ``threads`` has no effect: the sweep
    runs in the calling thread.  It is accepted, unchecked, only because the
    benchmark workloads still pass it.
    """
    points = _snr_points(cfg)
    outdated = cfg.csi.mode == "outdated"
    header = ["snr_db", "scheme", "csi_mode", "n_links", "spacing_m", "semi_angle_deg",
              "analytic_per_pd", "analytic_avg_ber", "is_bound",
              "mc_avg_ber", "mc_halfwidth_95", "symbols"]
    cases = []
    keys = []
    bounds = {}
    for (n, sp, ang), layout in cfg.layouts.items():
        h = build_channel_matrix(layout)
        key = f"{n}x{n}@{sp}m/{ang}deg"
        h_hat = None
        if outdated:
            bounds[key] = cfg.error_bounds[n, sp, ang][0]
            h_hat = _stale_estimate(cfg, h, bounds[key])
        keys += [key] * len(cfg.schemes)
        cases += [(f"[{cfg.name}] {n}x{n} spacing={sp} angle={ang} scheme={scheme}",
                   (n, sp, ang), (h, scheme, h_hat))
                  for scheme in cfg.schemes]
    rows, curves = _sweep_rows(cfg, cases, points, progress)
    extras = {
        "noise_mode": cfg.noise.mode,
        "snr_points_db": list(points),
        "channel_condition_numbers": {key: curve.condition_number
                                      for key, curve in zip(keys, curves)},
    }
    if outdated:
        extras["error_bounds"] = bounds
        extras["error_bound_elapsed_s"] = cfg.mobility.elapsed_times_s[0]
    return _write(cfg, out_dir, "ber", "ber-sweep", header, rows, extras, progress)


def run_throughput_sweep(cfg: ExperimentConfig, out_dir, threads: int | None = None,
                         progress: bool = False) -> list[Path]:
    """Word-averaged normalized throughput over the SNR grid for every variant.

    Each variant and scheme builds one word table, and ``analytic.throughput``
    reduces it over the noise deviations of ``noise.sigma_stack``, as the
    error-rate closed forms do.  With ``noise.mode: physical`` there is no
    SNR axis: each variant/scheme is one row at the device noise level, its
    snr_db nan, as in ``run_ber_sweep``.  ``threads`` has no effect, as in
    ``run_ber_sweep``.  The table is the perfect-CSI one, so ``csi.mode:
    outdated`` raises ``ConfigError`` before anything is written.
    """
    if cfg.csi.mode == "outdated":
        raise ConfigError("throughput-sweep computes perfect-CSI throughput; "
                          "it takes no csi.mode: outdated")
    points = _snr_points(cfg)
    header = ["snr_db", "scheme", "n_links", "spacing_m", "semi_angle_deg",
              "throughput_bits_per_hz"]
    rows = []
    for (n, sp, ang), layout in cfg.layouts.items():
        h = build_channel_matrix(layout)
        pre = ci_precoder(h.gains)
        for scheme in cfg.schemes:
            if progress:
                print(f"[{cfg.name}] throughput {n}x{n} spacing={sp} scheme={scheme}",
                      file=sys.stderr)
            table = word_table(h.gains, pre, scheme, renormalize=cfg.renormalize_oap)
            th = analytic_throughput(table, h, sigma_stack(h, cfg.noise, table.transmit, points))
            rows += [[snr, scheme, n, sp, ang, t]
                     for snr, t in zip(points or (math.nan,), th.tolist())]
    return _write(cfg, out_dir, "throughput", "throughput-sweep", header, rows,
                  {"noise_mode": cfg.noise.mode, "snr_points_db": list(points)}, progress)


def run_mobility(cfg: ExperimentConfig, out_dir, threads: int | None = None,
                 progress: bool = False) -> list[Path]:
    """Outdated-knowledge sweeps over the configured mobility intervals.

    Each interval draws one stale estimate, shared by every scheme.  With
    ``noise.mode: physical`` each interval/scheme is one row at the device
    noise level, as in ``run_ber_sweep``.  Every interval and scheme goes to
    one ``sweep`` call, so rows share draws across schemes and intervals as
    well as along SNR.  No elapsed time or a variant axis raises
    ``ConfigError`` before anything is written: the intervals are of
    ``cfg.layout`` alone.  ``threads`` has no effect, as in ``run_ber_sweep``.
    """
    if not cfg.mobility.elapsed_times_s:
        raise ConfigError("mobility needs at least one mobility.elapsed_times_s")
    _one_layout(cfg, "mobility")
    points = _snr_points(cfg)
    ((variant, layout),) = cfg.layouts.items()
    h = build_channel_matrix(layout)
    header = ["snr_db", "scheme", "csi_mode", "csi_model", "elapsed_s", "velocity_mps",
              "error_bound", "analytic_per_pd", "analytic_avg_ber", "is_bound",
              "mc_avg_ber", "mc_halfwidth_95", "symbols"]
    cases = []
    bounds = {}
    for elapsed, bound in zip(cfg.mobility.elapsed_times_s, cfg.error_bounds[variant]):
        h_hat = _stale_estimate(cfg, h, bound)
        bounds[repr(float(elapsed))] = bound
        cases += [(f"[{cfg.name}] mobility t={elapsed}s bound={bound:.3e} scheme={scheme}",
                   (cfg.csi.model, elapsed, float(cfg.mobility.speed_mps), bound),
                   (h, scheme, h_hat))
                  for scheme in cfg.schemes]
    rows, _ = _sweep_rows(cfg, cases, points, progress)
    return _write(cfg, out_dir, "mobility", "mobility", header, rows, {
        "snr_points_db": list(points),
        "error_bounds": bounds,
    }, progress)
