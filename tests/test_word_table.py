"""The batched word table against the literal per-word transmit pipeline.

The reference forms every word's equal-symbol mask T, scaling and masked
precoder W T literally and propagates it, one word at a time; it does not use
the ``T x = k x`` identity the table relies on.  Vector quantities are
compared relative to their largest entry: receive means of "off" detectors are
pure residual interference, zero up to rounding under perfect knowledge.

Forming ``H @ W`` cancels large precoder entries down to O(1) amplitudes, so
both sides carry a relative rounding error of about eps * kappa(H), which
passes 1e-12 once the luminaires crowd together (kappa(H) ~ 1e5 for four
links at 0.05 m, ~1e9 for eight or nine); the tolerance is the larger of the
two.  An error-rate term Q(a) turns a relative error d in its argument into
about a^2 d, with a^2 ~ 2 ln(1/Q).
"""

import dataclasses

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vlcmimo.analytic import (ber_ci_outdated, ber_ci_perfect, ber_oap_outdated,
                              ber_oap_perfect, exact_ber, outdated_bound, q_function,
                              throughput)
from vlcmimo.channel import PhotoDetector, build_channel_matrix, square_grid_layout
from vlcmimo.csi import perturb_channel
from vlcmimo import analytic, montecarlo, runner
from vlcmimo.config import NoiseConfig, config_from_dict
from vlcmimo.montecarlo import SimConfig, sweep
from vlcmimo.noise import (physical_sigma, shot_variance, sigma_stack, thermal_variance,
                           total_sigma)
from vlcmimo.precoding import ci_precoder, combination_matrix, word_table

import oracle

RTOL = 1e-12
SNRS_DB = (85.0, 105.0, 125.0)   # from rates near 1/2 down to deep tails
VARIANTS = [("ci", False), ("oap", False), ("oap", True)]


def one_sweep(h, points, cfg, h_hat=None):
    """``sweep`` of the one case ``(h, cfg.scheme, h_hat)`` with ``cfg``'s run settings."""
    return sweep([(h, cfg.scheme, h_hat)], points, seed=cfg.seed, montecarlo=cfg,
                 noise=cfg.noise, renormalize_oap=cfg.renormalize_oap)[0]


def assert_close(got, want, tol):
    want = np.asarray(want, dtype=float)
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max())


def assert_rates_close(got, want, tol):
    want = np.asarray(want, dtype=float)
    amplification = 1.0 + 2.0 * np.log(1.0 / np.maximum(want, np.finfo(float).tiny))
    excess = np.abs(got - want) - tol * amplification * want
    assert np.all(excess <= 0.0), (got, want)


def reference_table(gains, h_hat, scheme, renormalize):
    """beta, transmit, receive, slicer and signed margin, word by word."""
    pre = ci_precoder(h_hat)
    rows = []
    for w in combination_matrix(gains.shape[1]):
        x = w.astype(float)
        if scheme == "oap":
            group = (w[:, None] == w[None, :]).astype(float)
            beta = oracle.beta(h_hat, group @ x if renormalize else x)
            wd = pre.w @ group
        else:
            beta = oracle.beta(h_hat, x)
            wd = pre.w
            group = np.eye(len(w))
        ups = beta * (gains @ wd)
        receive, slicer = ups @ x, np.einsum("ij,ij->i", ups, group)
        margin = [r - s / 2 if bit else s / 2 - r for r, s, bit in zip(receive, slicer, w)]
        rows.append((beta, beta * (wd @ x), receive, slicer, margin))
    return [np.array(col) for col in zip(*rows)]


def reference_sigma(h, transmit):
    """Physical-noise deviations, one shot variance per word and detector."""
    params = NoiseConfig()
    thermal = thermal_variance(h.detector_area, params)
    return np.array([[total_sigma(shot_variance(row, np.clip(h.power * t, 0.0, None),
                                                h.responsivity, params), thermal)
                      for row in h.gains] for t in transmit])


def reference_ber(ref, words, sig, gp, outdated):
    """Word-by-word exact error rate (fresh) or upper bound (stale).

    The bound takes each word's smaller hypothesis margin, ``slicer/2 -
    |interf|`` with the leakage ``interf = receive - slicer * x``.
    """
    _, _, receive, slicer, margin = ref
    acc = np.zeros(words.shape[1])
    for s, w in enumerate(words):
        if outdated:
            interf = receive[s] - slicer[s] * w
            acc += q_function(gp * (0.5 * slicer[s] - np.abs(interf)) / sig[s])
        else:
            acc += q_function(gp * margin[s] / sig[s])
    return acc / len(words)


def reference_throughput(scheme, gains, sigma, gp):
    """Word-averaged sum-rate with the mask formed for every word."""
    pre = ci_precoder(gains)
    total = 0.0
    for w in combination_matrix(gains.shape[1]):
        if not w.any():
            continue
        x = w.astype(float)
        beta = oracle.beta(gains, x)
        if scheme == "ci":
            amp = beta * np.diag(gains @ pre.w)
        else:
            mask = (w[:, None] == w[None, :]).astype(float)
            amp = beta * ((gains @ (pre.w @ mask) * mask) @ x)
        total += float(np.sum(np.log2(1.0 + gp * amp / (2.0 * sigma))))
    return total / 2 ** gains.shape[1]


@pytest.mark.parametrize("csi", ["perfect", "stale"])
@pytest.mark.parametrize("spacing", [0.25, 0.5, 0.05])
@pytest.mark.parametrize("n", [1, 2, 4, 8, 9])
def test_table_matches_per_word_pipeline(n, spacing, csi):
    h = build_channel_matrix(square_grid_layout(n, spacing, detector=PhotoDetector(fov=60.0)))
    gains = h.gains
    h_hat = gains
    if csi == "stale":
        h_hat = perturb_channel(h, 0.02 * gains[0, 0], model="uniform", seed=3)
    tol = max(RTOL, np.finfo(float).eps * np.linalg.cond(gains),
              np.finfo(float).eps * np.linalg.cond(h_hat))
    gp = h.responsivity * h.power
    sigmas = [gp * 10.0 ** (-snr / 20.0) for snr in SNRS_DB]
    words = combination_matrix(n)
    tables = {}
    for scheme, renormalize in VARIANTS:
        ref = reference_table(gains, h_hat, scheme, renormalize)
        table = tables[scheme, renormalize] = word_table(
            gains, ci_precoder(h_hat), scheme, renormalize=renormalize)
        assert np.array_equal(table.words, words)
        for got, want in zip((table.transmit, table.transmit @ gains.T,
                              table.slicer, table.margin), ref[1:]):
            assert_close(got, want, tol)
        if csi == "perfect":
            # Fresh gains: every margin is half the slicer amplitude, the old closed form.
            assert_close(table.margin, 0.5 * ref[3], tol)
        if scheme == "ci" or renormalize:
            # Unit transmit power for every word but the silent all-zero one.
            norms = np.linalg.norm(table.transmit[1:], axis=1)
            assert np.abs(norms - 1.0).max() <= RTOL
        ref_sig = reference_sigma(h, ref[1])
        physical = physical_sigma(gains, h.power * table.transmit, h.detector_area,
                                  h.responsivity, NoiseConfig())
        assert_close(physical, ref_sig, tol)

        noises = [("swept", snr, sigma, np.full((len(words), n), sigma))
                  for snr, sigma in zip(SNRS_DB, sigmas)]
        for noise_mode, snr, noise, sig in noises + [("physical", None, physical, ref_sig)]:
            cfg = SimConfig(scheme=scheme, renormalize_oap=renormalize,
                            csi_mode="perfect" if csi == "perfect" else "outdated",
                            noise=NoiseConfig(mode=noise_mode), snr_db=snr)
            assert_close(oracle.simulated_z(h, cfg, None if csi == "perfect" else h_hat),
                         gp * ref[4] / sig, tol)

            if csi == "stale" and renormalize:
                continue
            if noise_mode == "physical":
                # per-word deviations: the closed form on the table, as sweep runs it
                got = (exact_ber if csi == "perfect" else outdated_bound)(table, gp, noise)
            elif csi == "perfect":
                if scheme == "ci":
                    got = ber_ci_perfect(h, noise, h.responsivity, h.power)
                else:
                    got = ber_oap_perfect(h, noise, h.responsivity, h.power,
                                          renormalize=renormalize)
            else:
                fn = ber_ci_outdated if scheme == "ci" else ber_oap_outdated
                got = fn(h, h_hat, noise, h.responsivity, h.power)
            want = reference_ber(ref, words, sig, gp, csi == "stale")
            assert_rates_close(got, want, tol)

    # Renormalized, the adaptive scheme sends W x / ||W x|| like inversion.
    assert_close(tables["oap", True].transmit, tables["ci", False].transmit, RTOL)

    for scheme in ("ci", "oap"):
        fresh = word_table(gains, ci_precoder(gains), scheme)
        for sigma in sigmas:
            got = throughput(fresh, h, sigma)
            assert got == pytest.approx(reference_throughput(scheme, gains, sigma, gp),
                                        rel=tol)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8),
       spacings=st.lists(st.sampled_from([0.05, 0.25, 0.5]), min_size=1, max_size=4),
       stale=st.booleans(), seed=st.integers(0, 1000))
@example(n=5, spacings=[0.05, 0.5], stale=True, seed=361)   # condition numbers 1 ulp apart
def test_stack_equals_its_elements(n, spacings, stale, seed):
    """A stacked build is the 2-D build of each element, bit for bit.

    The precoder and its condition number, every ``WordTable`` field, and the
    ``exact_ber`` and ``outdated_bound`` rows over a stacked deviation (swept
    points, then physical per-word noise) of ci, oap and renormalized oap,
    on fresh or stale estimates of arrays whose spacings may differ.
    """
    hs = [build_channel_matrix(square_grid_layout(n, sp, detector=PhotoDetector(fov=60.0)))
          for sp in spacings]
    hats = [perturb_channel(h, 0.02 * h.gains[0, 0], seed=seed + i) if stale else h.gains
            for i, h in enumerate(hs)]
    stacked = ci_precoder(np.stack(hats))
    alone = [ci_precoder(hat) for hat in hats]
    assert np.array_equal(stacked.w, [p.w for p in alone])
    assert np.array_equal(stacked.condition_number, [p.condition_number for p in alone])
    gp = np.array([h.responsivity * h.power for h in hs])
    for scheme, renormalize in VARIANTS:
        table = word_table(np.stack([h.gains for h in hs]), stacked, scheme, renormalize)
        tables = [word_table(h.gains, p, scheme, renormalize) for h, p in zip(hs, alone)]
        for field in dataclasses.fields(table):
            got = getattr(table, field.name)
            if field.name in ("scheme", "words"):
                assert all(np.array_equal(got, getattr(t, field.name)) for t in tables)
            else:
                assert np.array_equal(got, [getattr(t, field.name) for t in tables])
        for mode, points in (("swept", SNRS_DB), ("physical", [None])):
            sig = [sigma_stack(h, NoiseConfig(mode=mode), t.transmit, points)
                   for h, t in zip(hs, tables)]
            for rate in (exact_ber, outdated_bound):
                rows = rate(table, gp, np.stack(sig))
                assert rows.shape == (len(hs), len(points), n)
                assert np.array_equal(rows, [rate(t, g, s) for t, g, s in zip(tables, gp, sig)])
            with pytest.raises(ValueError, match="stacked table"):
                exact_ber(table, gp, sig[0])


@pytest.mark.parametrize("n, spacing", [(4, 0.05), (8, 0.05), (9, 0.05), (9, 0.5)])
def test_beta_matches_exact_quadratic_form(n, spacing):
    """beta = (x^T (H H^T)^-1 x)^(-1/2), evaluated to 60 digits from the same gains.

    Forming H H^T squares kappa(H); a scaling read off the SVD precoder keeps
    the error within eps * kappa(H), also where kappa(H)^2 passes 1/eps.
    """
    gains = build_channel_matrix(
        square_grid_layout(n, spacing, detector=PhotoDetector(fov=60.0))).gains
    rows = np.unique(np.r_[1, 2 ** n - 1, np.random.default_rng(n).integers(1, 2 ** n, 30)])
    words = combination_matrix(n)[rows]
    with mpmath.workdps(60):
        h = mpmath.matrix(gains.tolist())
        inv = mpmath.inverse(h * h.T)
        exact = [1 / mpmath.sqrt((x.T * inv * x)[0])
                 for x in (mpmath.matrix(w.tolist()) for w in words)]
    exact = np.array(exact, dtype=float)
    bound = np.finfo(float).eps * np.linalg.cond(gains)
    beta = [oracle.beta(gains, x) for x in words]
    np.testing.assert_allclose(beta, exact, rtol=bound, atol=0.0)


def test_tie_decides_zero():
    """A margin of exactly 0: without noise a 1 errs and a 0 does not; with noise Q = 1/2."""
    table = word_table(np.eye(2), ci_precoder(np.eye(2)), "ci")
    table = dataclasses.replace(table, margin=np.zeros_like(table.margin))
    z = oracle.thresholds(table, 1.0, 0.0)
    assert np.array_equal(z, np.where(table.words == 1, -np.inf, np.inf))
    assert oracle.noiseless_errors(table) == 4
    assert np.array_equal(q_function(oracle.thresholds(table, 1.0, 0.5)), np.full((4, 2), 0.5))


@pytest.mark.parametrize("sig", [0.5, 0.0, np.array([[[0.5, 0.0]], [[0.0, 0.25]]])],
                         ids=["noisy", "noiseless", "stack-with-zeros"])
def test_thresholds_written_in_place(sig):
    """z is gp * margin / sig, and +-inf wherever sig is 0, in a stack as well."""
    gains = np.array([[1.0, 0.3], [0.2, 0.9]])
    table = word_table(gains, ci_precoder(gains), "oap")
    want = oracle.thresholds(table, 2.0, sig)
    assert want.shape == np.broadcast_shapes(np.shape(sig), table.margin.shape)
    noisy = np.broadcast_to(np.asarray(sig) > 0, want.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        assert np.array_equal(want[noisy], np.broadcast_to(2.0 * table.margin / sig,
                                                           want.shape)[noisy])
    wrong = np.where(table.words == 1, table.margin <= 0.0, table.margin < 0.0)
    assert np.array_equal(np.isinf(want), np.broadcast_to(~(np.asarray(sig) > 0), want.shape))
    assert np.array_equal(want[np.isinf(want)] < 0,
                          np.broadcast_to(wrong, want.shape)[np.isinf(want)])


SWEEP_CONFIGS = [
    SimConfig(n_symbols=3000, seed=5, scheme="ci"),
    SimConfig(n_symbols=3000, seed=5, scheme="oap", renormalize_oap=True),
    SimConfig(n_symbols=3000, seed=5, scheme="ci", csi_mode="outdated"),
    SimConfig(n_symbols=3000, seed=5, scheme="oap", csi_mode="outdated"),
]
SWEEP_SNRS = (80.0, 90.0, 100.0, 110.0)


def sweep_estimate(h, cfg):
    """The stale estimate an outdated sweep config runs with, else None."""
    if cfg.csi_mode == "outdated":
        return perturb_channel(h, 2e-7, seed=cfg.seed)
    return None


def count_builds(monkeypatch) -> list:
    """Record every table the program builds: its gains, scheme and renormalization.

    ``word_table`` builds afresh on every call, one table per element of a
    stacked call, so each element of each call its callers in ``analytic``,
    ``montecarlo`` and ``runner`` make is one build.
    """
    built = []

    def counted(gains, precoder, scheme, renormalize=False):
        for g in np.reshape(gains, (-1, *np.shape(gains)[-2:])):
            built.append((g.tobytes(), scheme, renormalize))
        return word_table(gains, precoder, scheme, renormalize=renormalize)

    monkeypatch.setattr(analytic, "word_table", counted)
    monkeypatch.setattr(montecarlo, "word_table", counted)
    monkeypatch.setattr(runner, "word_table", counted)
    return built


@pytest.mark.parametrize("cfg", SWEEP_CONFIGS)
def test_sweep_builds_one_table(monkeypatch, tmp_path, cfg):
    """Monte Carlo and the closed form at every SNR point share one word table.

    The runner draws the stale estimate once per variant and hands the same
    one to every scheme, so a two-variant sweep builds one table per
    (variant, scheme), whether alone or as an element of a stacked build,
    and makes one draw per variant.  The throughput sweep also builds one
    table per (variant, scheme) for its whole SNR grid, with the config's
    renormalization.
    """
    h = build_channel_matrix(square_grid_layout(4, 0.5, detector=PhotoDetector(fov=60.0)))
    built = count_builds(monkeypatch)
    one_sweep(h, SWEEP_SNRS, cfg, h_hat=sweep_estimate(h, cfg))
    assert built == [(h.gains.tobytes(), cfg.scheme, cfg.renormalize_oap)]

    draws = []

    def counted_perturb(*args, **kwargs):
        draws.append(args[1])
        return perturb_channel(*args, **kwargs)

    monkeypatch.setattr(runner, "perturb_channel", counted_perturb)
    built.clear()
    exp = config_from_dict({
        "name": "tables", "seed": cfg.seed, "schemes": ["ci", "oap"],
        "renormalize_oap": cfg.renormalize_oap, "csi": {"mode": cfg.csi_mode},
        "layout": {"n_links": 4, "detector": {"fov_deg": 60.0}},
        "spacings_m": [0.5, 1.0],
        "sweep": {"snr_start_db": 80.0, "snr_stop_db": 110.0, "snr_step_db": 10.0},
        "montecarlo": {"n_symbols": cfg.n_symbols}})
    variants = [build_channel_matrix(layout) for layout in exp.layouts.values()]
    one_each = sorted((v.gains.tobytes(), s, cfg.renormalize_oap)
                      for v in variants for s in ("ci", "oap"))
    assert len(set(one_each)) == 2 * 2
    runner.run_ber_sweep(exp, tmp_path)
    assert sorted(built) == one_each
    assert len(draws) == (len(variants) if cfg.csi_mode == "outdated" else 0)

    built.clear()
    # Throughput is of the perfect-CSI table; an outdated config is refused.
    perfect = dataclasses.replace(exp, csi=dataclasses.replace(exp.csi, mode="perfect"))
    runner.run_throughput_sweep(perfect, tmp_path)
    assert sorted(built) == one_each


def test_kept_table_is_read_only():
    """Every array a caller keeps from a table is read-only."""
    gains = build_channel_matrix(
        square_grid_layout(2, 0.5, detector=PhotoDetector(fov=60.0))).gains
    for scheme in ("ci", "oap"):
        table = word_table(gains, ci_precoder(gains), scheme)
        for field in dataclasses.fields(table):
            value = getattr(table, field.name)
            if isinstance(value, np.ndarray):
                with pytest.raises(ValueError):
                    value[0] = 1.0
