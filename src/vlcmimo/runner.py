"""Experiment recipes: build layouts, run sweeps, write CSV results + metadata.

Output files are data-only and deterministic: a given (config, seed) pair
reproduces byte-identical CSV bodies regardless of worker count.  Every CSV
starts with '#' comment lines carrying the config hash and seed, then a
header row; floats are written in shortest round-trip decimal.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analytic import throughput as analytic_throughput
from .channel import (build_channel_matrix, concentrator_gain,
                      distance_gain_prefactor, gain_map, lambertian_order)
from .config import ExperimentConfig, _resolved_hash
from .csi import MobilityEvent, error_bound, perturb_channel
from .montecarlo import SimConfig, _threads, sweep
from .noise import sigma_from_transmit_snr
from .precoding import ci_precoder

__all__ = [
    "run_channel_map",
    "run_ber_sweep",
    "run_throughput_sweep",
    "run_mobility",
]


def _join_per_pd(values) -> str:
    return "|".join(map(str, values.tolist()))


def _atomic_write(path: Path, lines):
    """Write the text ``lines`` to a temporary file, then rename it to ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as f:
            f.writelines(lines)
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise
    finally:
        if tmp.exists():
            tmp.unlink(missing_ok=True)


def _identity(cfg: ExperimentConfig) -> dict:
    """Config hash, seed and resolved config of a run, resolved once per recipe."""
    resolved = cfg.resolved()
    return {"config_hash": _resolved_hash(resolved), "seed": cfg.seed,
            "resolved_config": resolved}


def _write_csv(path: Path, cfg: ExperimentConfig, config_hash: str, header: list[str], rows):
    """Write the comment lines, header and ``rows``, formatting one row at a time.

    Rows hold Python scalars (``tolist()``, ``float()``, ints and strs), so
    ``str`` gives each cell; for a float that is its shortest round-trip repr.
    """
    head = [f"# config_hash={config_hash}", f"# seed={cfg.seed}",
            f"# name={cfg.name}", ",".join(header)]
    body = (",".join(map(str, row)) for row in rows)
    _atomic_write(path, (line + "\n" for line in itertools.chain(head, body)))


def _write_metadata(path: Path, identity: dict, command: str, extras: dict):
    meta = {"command": command, "package_version": __version__, **identity, **extras}
    _atomic_write(path, [json.dumps(meta, indent=2, sort_keys=True) + "\n"])


def _sim_config(cfg: ExperimentConfig, scheme: str, outdated: bool) -> SimConfig:
    return SimConfig(
        n_symbols=cfg.montecarlo.n_symbols,
        seed=cfg.seed,
        scheme=scheme,
        csi_mode="outdated" if outdated else "perfect",
        noise_mode=cfg.noise.mode,
        noise_params=cfg.noise.params(),
        early_stop_errors=cfg.montecarlo.early_stop_errors,
        block_size=cfg.montecarlo.block_size,
        renormalize_oap=cfg.renormalize_oap,
    )


def _stale_estimate(cfg: ExperimentConfig, h, bound: float) -> np.ndarray:
    """The transmitter's gains after the mobile user moved: one draw, keyed by the seed."""
    return perturb_channel(h, bound, model=cfg.csi.model, seed=cfg.seed,
                           rows=(cfg.csi.mobile_user,),
                           worst_case_sign=cfg.csi.worst_case_sign).h_hat


def _snr_points(cfg: ExperimentConfig) -> tuple[float, ...]:
    """The swept SNR grid; physical noise has no SNR axis."""
    return () if cfg.noise.mode == "physical" else cfg.sweep.points()


def _curve_rows(curve, *columns) -> list[list]:
    """A row per point: SNR, scheme, knowledge, ``columns``, closed form, Monte Carlo."""
    return [[snr, curve.scheme, curve.csi_mode, *columns, _join_per_pd(ana.per_pd),
             ana.average, int(ana.is_bound), est.average_ber, est.average_halfwidth,
             est.symbols_run]
            for snr, est, ana in zip(curve.snr_db, curve.estimates, curve.analytic)]


def _report(curve):
    """One progress line per point of ``curve`` on stderr."""
    for p, est, ana in zip(curve.snr_db, curve.estimates, curve.analytic):
        print(f"  snr {p:7.2f} dB [{curve.scheme}/{curve.csi_mode}]: "
              f"mc {est.average_ber:.3e}  analytic {ana.average:.3e}", file=sys.stderr)


def _sweep_rows(cases, points, threads, progress) -> list[list]:
    """Rows of every ``(heading, columns, (h, SimConfig, h_hat))`` case from one sweep.

    With ``progress``, each case's heading and point lines follow in case
    order once the sweep is done.
    """
    curves = sweep([case for _, _, case in cases], points, threads=threads)
    rows = []
    for (heading, columns, _), curve in zip(cases, curves):
        if progress:
            print(heading, file=sys.stderr)
            _report(curve)
        rows += _curve_rows(curve, *columns)
    return rows


def run_channel_map(cfg: ExperimentConfig, out_dir, progress: bool = False) -> list[Path]:
    """Rasterize the total-gain field and write it as a CSV grid (rows = y)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    layout = cfg.build_layout()
    field = gain_map(layout, cfg.map_resolution_m)
    header = ["y_m"] + [repr(float(x)) for x in field.x_centers]
    rows = ([float(y), *values.tolist()] for y, values in zip(field.y_centers, field.values))
    csv_path = out / f"{cfg.name}_gain_map.csv"
    identity = _identity(cfg)
    _write_csv(csv_path, cfg, identity["config_hash"], header, rows)
    meta_path = out / f"{cfg.name}_gain_map_meta.json"
    _write_metadata(meta_path, identity, "channel-map", {
        "grid_shape": list(field.values.shape),
        "peak_gain": float(field.values.max()),
    })
    if progress:
        print(f"wrote {csv_path}", file=sys.stderr)
    return [csv_path, meta_path]


def _mobility_bound(cfg: ExperimentConfig, elapsed_s: float) -> tuple[float, float]:
    """Worst-case gain error and realized speed for one mobility interval."""
    lay = cfg.layout
    det = lay.detector
    lum_z = lay.luminaire_z_m if lay.luminaire_z_m is not None else lay.room_z_m
    z = lum_z - lay.receiver_plane_z_m
    m = lambertian_order(lay.semi_angle_deg)
    g = concentrator_gain(0.0, det.fov_deg, det.refractive_index)
    varpi = distance_gain_prefactor(det.area_m2, det.filter_gain, g, m,
                                    plane_separation=z)
    event = MobilityEvent(
        start_xy=cfg.mobility.start_xy_m,
        end_xy=cfg.mobility.end_xy(elapsed_s),
        plane_separation=z,
        elapsed_time=elapsed_s,
    )
    return error_bound(event, varpi, m), event.max_velocity


def run_ber_sweep(cfg: ExperimentConfig, out_dir, threads: int | None = None,
                  progress: bool = False) -> list[Path]:
    """Monte Carlo + analytic error rates over the SNR grid for every variant.

    With ``noise.mode: physical`` there is no SNR axis; each variant/scheme
    contributes a single row computed at the device noise level (snr_db
    column carries nan).  With ``csi.mode: outdated`` the stale estimate uses
    the gain-error bound of the first ``mobility.elapsed_times_s`` entry only,
    recorded as ``error_bound_elapsed_s`` in the metadata; ``mobility`` sweeps
    every entry.  Every variant and scheme goes to one ``sweep`` call (see
    there), so rows share draws across schemes and variants as well as along
    SNR.  ``threads`` below 1 raises ``ValueError`` before anything is written.
    """
    _threads(threads)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    points = _snr_points(cfg)
    outdated = cfg.csi.mode == "outdated"
    header = ["snr_db", "scheme", "csi_mode", "n_links", "spacing_m", "semi_angle_deg",
              "analytic_per_pd", "analytic_avg_ber", "is_bound",
              "mc_avg_ber", "mc_halfwidth_95", "symbols"]
    cases = []
    conditions = {}
    if outdated:
        elapsed = cfg.mobility.elapsed_times_s[0]
        bound, _ = _mobility_bound(cfg, elapsed)
    for n, sp, ang in cfg.variants():
        layout = cfg.build_layout(n_links=n, spacing=sp, semi_angle=ang)
        h = build_channel_matrix(layout)
        conditions[f"{n}x{n}@{sp}m/{ang}deg"] = ci_precoder(h.gains).condition_number
        h_hat = _stale_estimate(cfg, h, bound) if outdated else None
        cases += [(f"[{cfg.name}] {n}x{n} spacing={sp} angle={ang} scheme={scheme}",
                   (n, sp, ang), (h, _sim_config(cfg, scheme, outdated), h_hat))
                  for scheme in cfg.schemes]
    rows = _sweep_rows(cases, points, threads, progress)
    csv_path = out / f"{cfg.name}_ber.csv"
    identity = _identity(cfg)
    _write_csv(csv_path, cfg, identity["config_hash"], header, rows)
    meta_path = out / f"{cfg.name}_ber_meta.json"
    extras = {
        "noise_mode": cfg.noise.mode,
        "snr_points_db": list(points),
        "channel_condition_numbers": conditions,
        "threads_note": "results are independent of the worker count",
    }
    if outdated:
        extras["error_bound"] = bound
        extras["error_bound_elapsed_s"] = elapsed
    _write_metadata(meta_path, identity, "ber-sweep", extras)
    if progress:
        print(f"wrote {csv_path}", file=sys.stderr)
    return [csv_path, meta_path]


def run_throughput_sweep(cfg: ExperimentConfig, out_dir, threads: int | None = None,
                         progress: bool = False) -> list[Path]:
    """Word-averaged normalized throughput over the SNR grid for every variant.

    Each variant and scheme builds one word table for the whole grid.
    ``threads`` is checked as the other recipes check it, below 1 raising
    ``ValueError`` before anything is written, and is otherwise unused:
    throughput is closed-form only and runs in the calling thread.
    """
    _threads(threads)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    points = cfg.sweep.points()
    header = ["snr_db", "scheme", "n_links", "spacing_m", "semi_angle_deg",
              "throughput_bits_per_hz"]
    rows = []
    for n, sp, ang in cfg.variants():
        layout = cfg.build_layout(n_links=n, spacing=sp, semi_angle=ang)
        h = build_channel_matrix(layout)
        pre = ci_precoder(h.gains)
        sigmas = [sigma_from_transmit_snr(snr, h.responsivity, h.power) for snr in points]
        for scheme in cfg.schemes:
            if progress:
                print(f"[{cfg.name}] throughput {n}x{n} spacing={sp} scheme={scheme}",
                      file=sys.stderr)
            th = analytic_throughput(scheme, h, pre, sigmas, h.responsivity, h.power)
            rows += [[snr, scheme, n, sp, ang, t] for snr, t in zip(points, th.tolist())]
    csv_path = out / f"{cfg.name}_throughput.csv"
    identity = _identity(cfg)
    _write_csv(csv_path, cfg, identity["config_hash"], header, rows)
    meta_path = out / f"{cfg.name}_throughput_meta.json"
    _write_metadata(meta_path, identity, "throughput-sweep", {"snr_points_db": list(points)})
    if progress:
        print(f"wrote {csv_path}", file=sys.stderr)
    return [csv_path, meta_path]


def run_mobility(cfg: ExperimentConfig, out_dir, threads: int | None = None,
                 progress: bool = False) -> list[Path]:
    """Outdated-knowledge sweeps over the configured mobility intervals.

    Each interval draws one stale estimate, shared by every scheme.  With
    ``noise.mode: physical`` each interval/scheme is one row at the device
    noise level, as in ``run_ber_sweep``.  Every interval and scheme goes to
    one ``sweep`` call, so rows share draws across schemes and intervals as
    well as along SNR.  ``threads`` below 1 raises ``ValueError`` before
    anything is written.
    """
    _threads(threads)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    points = _snr_points(cfg)
    layout = cfg.build_layout()
    h = build_channel_matrix(layout)
    header = ["snr_db", "scheme", "csi_mode", "csi_model", "elapsed_s", "velocity_mps",
              "error_bound", "analytic_per_pd", "analytic_avg_ber", "is_bound",
              "mc_avg_ber", "mc_halfwidth_95", "symbols"]
    cases = []
    bounds = {}
    for elapsed in cfg.mobility.elapsed_times_s:
        bound, velocity = _mobility_bound(cfg, elapsed)
        bounds[repr(float(elapsed))] = bound
        h_hat = _stale_estimate(cfg, h, bound)
        cases += [(f"[{cfg.name}] mobility t={elapsed}s bound={bound:.3e} scheme={scheme}",
                   (cfg.csi.model, elapsed, velocity, bound),
                   (h, _sim_config(cfg, scheme, True), h_hat))
                  for scheme in cfg.schemes]
    rows = _sweep_rows(cases, points, threads, progress)
    csv_path = out / f"{cfg.name}_mobility.csv"
    identity = _identity(cfg)
    _write_csv(csv_path, cfg, identity["config_hash"], header, rows)
    meta_path = out / f"{cfg.name}_mobility_meta.json"
    _write_metadata(meta_path, identity, "mobility", {
        "snr_points_db": list(points),
        "error_bounds": bounds,
    })
    if progress:
        print(f"wrote {csv_path}", file=sys.stderr)
    return [csv_path, meta_path]
