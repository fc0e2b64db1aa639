"""Experiment recipes: build layouts, run sweeps, write CSV results + metadata.

Output files are data-only and deterministic: a given (config, seed) pair
reproduces byte-identical CSV bodies regardless of worker count.  Every CSV
starts with '#' comment lines carrying the config hash and seed, then a
header row; floats are written in shortest round-trip decimal.
"""

from __future__ import annotations

import dataclasses
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
from .config import ExperimentConfig
from .csi import MobilityEvent, error_bound
from .montecarlo import SimConfig, _analytic_for, _stale_gains, simulate, sweep
from .noise import sigma_from_transmit_snr
from .precoding import ci_precoder

__all__ = [
    "run_channel_map",
    "run_ber_sweep",
    "run_throughput_sweep",
    "run_mobility",
]


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _join_per_pd(values) -> str:
    return "|".join(repr(float(v)) for v in values)


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


def _write_csv(path: Path, cfg: ExperimentConfig, header: list[str], rows):
    """Write the comment lines, header and ``rows``, formatting one row at a time."""
    head = [f"# config_hash={cfg.config_hash()}", f"# seed={cfg.seed}",
            f"# name={cfg.name}", ",".join(header)]
    body = (",".join(_fmt(v) for v in row) for row in rows)
    _atomic_write(path, (line + "\n" for line in itertools.chain(head, body)))


def _write_metadata(path: Path, cfg: ExperimentConfig, command: str, extras: dict):
    meta = {
        "command": command,
        "package_version": __version__,
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "resolved_config": cfg.resolved(),
    }
    meta.update(extras)
    _atomic_write(path, [json.dumps(meta, indent=2, sort_keys=True) + "\n"])


def _sim_config(cfg: ExperimentConfig, scheme: str, csi_bound: float = 0.0) -> SimConfig:
    outdated = cfg.csi.mode == "outdated"
    return SimConfig(
        n_symbols=cfg.montecarlo.n_symbols,
        seed=cfg.seed,
        scheme=scheme,
        csi_mode="outdated" if outdated else "perfect",
        csi_model=cfg.csi.model,
        csi_bound=csi_bound,
        csi_rows=(cfg.csi.mobile_user,),
        csi_sign=cfg.csi.worst_case_sign,
        noise_mode="swept",
        noise_params=cfg.noise.params(),
        early_stop_errors=cfg.montecarlo.early_stop_errors,
        block_size=cfg.montecarlo.block_size,
        renormalize_oap=cfg.renormalize_oap,
    )


def run_channel_map(cfg: ExperimentConfig, out_dir, progress: bool = False) -> list[Path]:
    """Rasterize the total-gain field and write it as a CSV grid (rows = y)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    layout = cfg.build_layout()
    field = gain_map(layout, cfg.map_resolution_m)
    header = ["y_m"] + [repr(float(x)) for x in field.x_centers]
    rows = ([float(y), *values.tolist()] for y, values in zip(field.y_centers, field.values))
    csv_path = out / f"{cfg.name}_gain_map.csv"
    _write_csv(csv_path, cfg, header, rows)
    meta_path = out / f"{cfg.name}_gain_map_meta.json"
    _write_metadata(meta_path, cfg, "channel-map", {
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


def _physical_point(cfg: ExperimentConfig, h, scheme: str, bound: float):
    """One physical-noise run: signal-dependent sigma, no SNR axis."""
    sim = dataclasses.replace(_sim_config(cfg, scheme, bound),
                              noise_mode="physical")
    h_hat = _stale_gains(h, sim) if sim.csi_mode == "outdated" else None
    return simulate(h, sim, h_hat=h_hat), _analytic_for(h, sim, h_hat)


def run_ber_sweep(cfg: ExperimentConfig, out_dir, threads: int | None = None,
                  progress: bool = False) -> list[Path]:
    """Monte Carlo + analytic error rates over the SNR grid for every variant.

    With ``noise.mode: physical`` there is no SNR axis; each variant/scheme
    contributes a single row computed at the device noise level (snr_db
    column carries nan).  With ``csi.mode: outdated`` the stale estimate uses
    the gain-error bound of the first ``mobility.elapsed_times_s`` entry only,
    recorded as ``error_bound_elapsed_s`` in the metadata; ``mobility`` sweeps
    every entry.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    physical = cfg.noise.mode == "physical"
    points = cfg.sweep.points()
    header = ["snr_db", "scheme", "csi_mode", "n_links", "spacing_m", "semi_angle_deg",
              "analytic_per_pd", "analytic_avg_ber", "is_bound",
              "mc_avg_ber", "mc_halfwidth_95", "symbols"]
    rows = []
    conditions = {}
    bound = 0.0
    if cfg.csi.mode == "outdated":
        elapsed = cfg.mobility.elapsed_times_s[0]
        bound, _ = _mobility_bound(cfg, elapsed)
    for n, sp, ang in cfg.variants():
        layout = cfg.build_layout(n_links=n, spacing=sp, semi_angle=ang)
        h = build_channel_matrix(layout)
        conditions[f"{n}x{n}@{sp}m/{ang}deg"] = ci_precoder(h.gains).condition_number
        for scheme in cfg.schemes:
            if progress:
                print(f"[{cfg.name}] {n}x{n} spacing={sp} angle={ang} scheme={scheme}",
                      file=sys.stderr)
            if physical:
                est, ana = _physical_point(cfg, h, scheme, bound)
                rows.append([float("nan"), scheme, cfg.csi.mode, n, sp, ang,
                             _join_per_pd(ana.per_pd), ana.average, int(ana.is_bound),
                             est.average_ber, est.average_halfwidth, est.symbols_run])
                continue
            curve = sweep(h, points, _sim_config(cfg, scheme, bound),
                          threads=threads, progress=progress)
            for snr, est, ana in zip(curve.snr_db, curve.estimates, curve.analytic):
                rows.append([snr, scheme, curve.csi_mode, n, sp, ang,
                             _join_per_pd(ana.per_pd), ana.average, int(ana.is_bound),
                             est.average_ber, est.average_halfwidth, est.symbols_run])
    csv_path = out / f"{cfg.name}_ber.csv"
    _write_csv(csv_path, cfg, header, rows)
    meta_path = out / f"{cfg.name}_ber_meta.json"
    extras = {
        "noise_mode": cfg.noise.mode,
        "snr_points_db": [] if physical else list(points),
        "channel_condition_numbers": conditions,
        "threads_note": "results are independent of the worker count",
    }
    if cfg.csi.mode == "outdated":
        extras["error_bound"] = bound
        extras["error_bound_elapsed_s"] = elapsed
    _write_metadata(meta_path, cfg, "ber-sweep", extras)
    if progress:
        print(f"wrote {csv_path}", file=sys.stderr)
    return [csv_path, meta_path]


def run_throughput_sweep(cfg: ExperimentConfig, out_dir, threads: int | None = None,
                         progress: bool = False) -> list[Path]:
    """Word-averaged normalized throughput over the SNR grid for every variant.

    ``threads`` is accepted for the signature the recipes share and is
    unused: throughput is closed-form only and runs in the calling thread.
    """
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
        for scheme in cfg.schemes:
            if progress:
                print(f"[{cfg.name}] throughput {n}x{n} spacing={sp} scheme={scheme}",
                      file=sys.stderr)
            for snr in points:
                sigma = sigma_from_transmit_snr(snr, h.responsivity, h.power)
                th = analytic_throughput(scheme, h, pre, sigma,
                                         h.responsivity, h.power)
                rows.append([snr, scheme, n, sp, ang, th])
    csv_path = out / f"{cfg.name}_throughput.csv"
    _write_csv(csv_path, cfg, header, rows)
    meta_path = out / f"{cfg.name}_throughput_meta.json"
    _write_metadata(meta_path, cfg, "throughput-sweep", {"snr_points_db": list(points)})
    if progress:
        print(f"wrote {csv_path}", file=sys.stderr)
    return [csv_path, meta_path]


def run_mobility(cfg: ExperimentConfig, out_dir, threads: int | None = None,
                 progress: bool = False) -> list[Path]:
    """Outdated-knowledge sweeps over the configured mobility intervals."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    points = cfg.sweep.points()
    layout = cfg.build_layout()
    h = build_channel_matrix(layout)
    header = ["snr_db", "scheme", "csi_mode", "csi_model", "elapsed_s", "velocity_mps",
              "error_bound", "analytic_per_pd", "analytic_avg_ber", "is_bound",
              "mc_avg_ber", "mc_halfwidth_95", "symbols"]
    rows = []
    bounds = {}
    for elapsed in cfg.mobility.elapsed_times_s:
        bound, velocity = _mobility_bound(cfg, elapsed)
        bounds[repr(float(elapsed))] = bound
        for scheme in cfg.schemes:
            if progress:
                print(f"[{cfg.name}] mobility t={elapsed}s bound={bound:.3e} "
                      f"scheme={scheme}", file=sys.stderr)
            sim = _sim_config(cfg, scheme, bound)
            if sim.csi_mode != "outdated":
                sim = dataclasses.replace(sim, csi_mode="outdated", csi_bound=bound)
            curve = sweep(h, points, sim, threads=threads, progress=progress)
            for snr, est, ana in zip(curve.snr_db, curve.estimates, curve.analytic):
                rows.append([snr, scheme, curve.csi_mode, cfg.csi.model, elapsed,
                             velocity, bound,
                             _join_per_pd(ana.per_pd), ana.average, int(ana.is_bound),
                             est.average_ber, est.average_halfwidth, est.symbols_run])
    csv_path = out / f"{cfg.name}_mobility.csv"
    _write_csv(csv_path, cfg, header, rows)
    meta_path = out / f"{cfg.name}_mobility_meta.json"
    _write_metadata(meta_path, cfg, "mobility", {
        "snr_points_db": list(points),
        "error_bounds": bounds,
    })
    if progress:
        print(f"wrote {csv_path}", file=sys.stderr)
    return [csv_path, meta_path]
