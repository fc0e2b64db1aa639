"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
whole suite is deterministic (fixed seeds) and finishes in a few minutes.
"""

import time

import numpy as np
import pytest

from vlcmimo.analytic import (ber_ci_outdated, ber_ci_perfect, ber_oap_outdated,
                              ber_oap_perfect, q_function, throughput)
from vlcmimo.channel import (ChannelMatrix, build_channel_matrix,
                             concentrator_gain, distance_gain_prefactor,
                             lambertian_order, square_grid_layout)
from vlcmimo.config import preset
from vlcmimo.csi import MobilityEvent, error_bound, perturb_channel
from vlcmimo.montecarlo import SimConfig, simulate
from vlcmimo.noise import sigma_from_transmit_snr
from vlcmimo.precoding import ci_precoder, word_table
from vlcmimo.runner import run_ber_sweep

import oracle


def report(num: int, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


def analytic_curve(h, scheme, snrs):
    fn = ber_oap_perfect if scheme == "oap" else ber_ci_perfect
    out = []
    for s in snrs:
        sigma = sigma_from_transmit_snr(s, h.responsivity, h.power)
        out.append(fn(h, sigma, h.responsivity, h.power).mean())
    return np.array(out)


def crossing_db(snrs, bers, level=1e-3):
    """Log-linear interpolated SNR where the curve crosses the level."""
    for i in range(len(bers) - 1):
        if bers[i] >= level >= bers[i + 1] and bers[i + 1] > 0:
            x0, x1 = snrs[i], snrs[i + 1]
            y0, y1 = np.log10(bers[i]), np.log10(bers[i + 1])
            return float(x0 + (np.log10(level) - y0) * (x1 - x0) / (y1 - y0))
    raise AssertionError(f"curve never crosses {level}")


def test_criterion_1_zero_interference():
    """Unscaled inversion cancels every cross link on random valid layouts."""
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    worst = 0.0
    for _ in range(100):
        layout = square_grid_layout(
            4,
            spacing=float(rng.uniform(0.4, 1.2)),
            semi_angle_half_power=float(rng.uniform(15.0, 60.0)),
            fov=float(rng.uniform(50.0, 90.0)),
            receiver_plane_z=float(rng.uniform(0.5, 1.2)),
        )
        h = build_channel_matrix(layout)
        pre = ci_precoder(h.gains)
        residual = h.gains @ pre.w - np.eye(4)
        np.fill_diagonal(residual, 0.0)
        worst = max(worst, float(np.abs(residual).max()))
    elapsed = time.monotonic() - start
    ok = worst < 1e-9 and elapsed < 1.0
    line = report(1, ok, f"max off-diagonal residual {worst:.2e} (<1e-9), "
                         f"{elapsed:.2f}s (<1s)")
    assert ok, line


def test_criterion_2_power_normalization():
    """beta * W * x has unit norm for every word on random channels."""
    rng = np.random.default_rng(2002)
    start = time.monotonic()
    worst = 0.0
    sizes = [2, 3, 4, 5, 6, 8] * 4
    for n in sizes[:20]:
        h = 1e-3 * (np.eye(n) + 0.3 * rng.uniform(0.0, 1.0, size=(n, n)))
        norms = np.linalg.norm(word_table(h, ci_precoder(h), "ci").transmit[1:], axis=1)
        worst = max(worst, float(np.abs(norms - 1.0).max()))
    elapsed = time.monotonic() - start
    ok = worst < 1e-10 and elapsed < 5.0
    line = report(2, ok, f"max |norm-1| {worst:.2e} (<1e-10), {elapsed:.2f}s (<5s)")
    assert ok, line


def test_criterion_3_analytic_monte_carlo_agreement():
    """2e6-symbol estimates sit within 3 binomial errors of the closed forms."""
    cfg = preset("fig4")
    h = build_channel_matrix(cfg.build_layout(spacing=1.0))
    snrs = [74.0 + 2.0 * i for i in range(11)]   # covers rates down past 1e-4
    n_symbols = 2_000_000
    checked = 0
    worst_dev = 0.0
    ok = True
    for scheme in ("ci", "oap"):
        ana = analytic_curve(h, scheme, snrs)
        for snr, p in zip(snrs, ana):
            if p < 1e-4:
                continue
            est = simulate(h, SimConfig(n_symbols=n_symbols, seed=33,
                                        scheme=scheme, snr_db=snr))
            se = np.sqrt(p * (1.0 - p) / (n_symbols * h.gains.shape[0]))
            dev = abs(est.average_ber - p) / se
            worst_dev = max(worst_dev, dev)
            checked += 1
            if dev > 3.0:
                ok = False
    line = report(3, ok, f"{checked} points checked, worst deviation "
                         f"{worst_dev:.2f} standard errors (<3)")
    assert ok and checked >= 10, line


def test_criterion_4_adaptive_gain_at_1e3():
    """Inversion needs 8 +- 3 dB more SNR at BER 1e-3 (smallest spacing pair)."""
    cfg = preset("fig4")
    h = build_channel_matrix(cfg.build_layout(spacing=0.25))
    snrs = np.arange(100.0, 130.0, 0.25)
    gap = crossing_db(snrs, analytic_curve(h, "ci", snrs)) \
        - crossing_db(snrs, analytic_curve(h, "oap", snrs))
    ok = 5.0 <= gap <= 11.0
    line = report(4, ok, f"SNR gap at BER 1e-3 is {gap:.2f} dB (8 +- 3 dB window)")
    assert ok, line


def test_criterion_5_spacing_ordering():
    """Tighter luminaire packing strictly raises the error rate, both schemes."""
    cfg = preset("fig4")
    snr = 95.0
    ok = True
    detail = []
    for scheme in ("ci", "oap"):
        vals = []
        for sp in (0.25, 0.5, 1.0):
            h = build_channel_matrix(cfg.build_layout(spacing=sp))
            sigma = sigma_from_transmit_snr(snr, h.responsivity, h.power)
            fn = ber_oap_perfect if scheme == "oap" else ber_ci_perfect
            vals.append(fn(h, sigma, h.responsivity, h.power).mean())
        strict = vals[0] > vals[1] > vals[2]
        ok = ok and strict
        detail.append(f"{scheme}: " + ">".join(f"{v:.1e}" for v in vals))
    line = report(5, ok, f"at {snr} dB " + "; ".join(detail))
    assert ok, line


def test_criterion_6_semi_angle_robustness():
    """Widening the source lobe 15->30 deg costs inversion strictly more SNR."""
    cfg = preset("fig5")
    snrs = np.arange(80.0, 140.0, 0.25)
    penalty = {}
    for scheme in ("ci", "oap"):
        cross = {}
        for angle in (15.0, 30.0):
            h = build_channel_matrix(cfg.build_layout(semi_angle=angle))
            cross[angle] = crossing_db(snrs, analytic_curve(h, scheme, snrs))
        penalty[scheme] = cross[30.0] - cross[15.0]
    ok = penalty["ci"] > penalty["oap"]
    line = report(6, ok, f"penalty ci={penalty['ci']:.2f} dB > "
                         f"oap={penalty['oap']:.2f} dB")
    assert ok, line


def test_criterion_7_outdated_bound_validity():
    """Estimates under a uniform stale error never exceed the bound + 3 SE."""
    cfg = preset("fig6")
    h = build_channel_matrix(cfg.build_layout())
    lay = cfg.layout
    z = lay.room_z_m - lay.receiver_plane_z_m
    m = lambertian_order(lay.semi_angle_deg)
    g = concentrator_gain(lay.detector.fov_deg, lay.detector.refractive_index)
    varpi = distance_gain_prefactor(lay.detector.area_m2, lay.detector.filter_gain,
                                    g, m, plane_separation=z)
    event = MobilityEvent(start_xy=(0.0, 0.0), end_xy=(0.1, 0.0),
                          plane_separation=z, elapsed_time=0.1)
    bound_e = error_bound(event, varpi, m)
    h_hat = perturb_channel(h, bound_e, model="uniform", seed=77)
    snrs = [76.0 + 4.0 * i for i in range(6)]
    n_symbols = 500_000
    ok = True
    margins = []
    for scheme in ("ci", "oap"):
        bound_fn = ber_oap_outdated if scheme == "oap" else ber_ci_outdated
        for snr in snrs:
            sigma = sigma_from_transmit_snr(snr, h.responsivity, h.power)
            bound = bound_fn(h, h_hat, sigma, h.responsivity, h.power).mean()
            est = simulate(h, SimConfig(n_symbols=n_symbols, seed=77, scheme=scheme,
                                        snr_db=snr, csi_mode="outdated"),
                           h_hat=h_hat)
            se = max(est.average_stderr(), 1e-12)
            margins.append((bound + 3 * se) - est.average_ber)
            if est.average_ber > bound + 3 * se:
                ok = False
    line = report(7, ok, f"relative gain error {bound_e / h.gains[0, 0]:.1%}; "
                         f"min bound margin {min(margins):.2e} over "
                         f"{len(margins)} points")
    assert ok, line


def test_criterion_8_noiseless_exactness():
    """Zero noise, exhaustive words: no detection errors for either scheme."""
    start = time.monotonic()
    total = 0
    for n in (2, 4, 8):
        h = build_channel_matrix(square_grid_layout(n, 0.5, fov=60.0))
        for scheme in ("ci", "oap"):
            total += oracle.noiseless_errors(word_table(h.gains, ci_precoder(h.gains), scheme))
    elapsed = time.monotonic() - start
    ok = total == 0 and elapsed < 1.0
    line = report(8, ok, f"{total} errors over all words for n in (2,4,8), "
                         f"{elapsed:.2f}s (<1s)")
    assert ok, line


def test_criterion_9_unit_oracles():
    """Closed-form corner values are exact."""
    m60 = lambertian_order(60.0)
    g = concentrator_gain(15.0, 1.5)
    g_expected = 2.25 / np.sin(np.radians(15.0)) ** 2
    q0 = float(q_function(0.0))
    ok = (m60 == 1.0
          and abs(g - g_expected) <= 1e-12 * g_expected
          and abs(q0 - 0.5) <= 1e-15)
    line = report(9, ok, f"m(60deg)={m60!r}, concentrator dev "
                         f"{abs(g - g_expected) / g_expected:.1e}, Q(0)={q0!r}")
    assert ok, line


def test_criterion_10_throughput_ordering():
    """Adaptive 8x8 throughput beats inversion at the top of the sweep."""
    cfg = preset("fig8")
    h = build_channel_matrix(cfg.build_layout(n_links=8))
    pre = ci_precoder(h.gains)
    snr = cfg.sweep.points()[-1]
    sigma = sigma_from_transmit_snr(snr, h.responsivity, h.power)
    t_ci, t_oap = (throughput(word_table(h, pre, scheme), h, sigma) for scheme in ("ci", "oap"))
    ok = t_oap > t_ci
    line = report(10, ok, f"8x8 at {snr} dB: adaptive {t_oap:.3f} > "
                          f"inversion {t_ci:.3f} bits/s/Hz")
    assert ok, line


def test_criterion_11_reproducibility(tmp_path, monkeypatch):
    """Identical config and seed give byte-identical CSV across thread counts.

    Workers are capped at the CPUs, so four CPUs are claimed for the 4-thread
    run to start four workers on any host.
    """
    from vlcmimo import montecarlo
    from vlcmimo.config import config_from_dict
    monkeypatch.setattr(montecarlo, "_cpus", lambda: 4)
    cfg = config_from_dict({
        "name": "repro",
        "layout": {"n_links": 2, "spacing_m": 0.5, "detector": {"fov_deg": 60.0}},
        "sweep": {"snr_start_db": 80.0, "snr_stop_db": 88.0, "snr_step_db": 4.0},
        "montecarlo": {"n_symbols": 60_000},
        "seed": 424242,
    })
    bodies = []
    for run, threads in (("a", 1), ("b", 4), ("c", 1)):
        out = tmp_path / run
        paths = run_ber_sweep(cfg, out, threads=threads)
        bodies.append(paths[0].read_bytes())
    ok = bodies[0] == bodies[1] == bodies[2]
    line = report(11, ok, f"3 runs (threads 1/4/1) -> "
                          f"{len(set(bodies))} distinct CSV bodies (want 1)")
    assert ok, line
