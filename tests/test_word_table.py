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

import mpmath
import numpy as np
import pytest

from vlcmimo.analytic import (PhysicalNoise, ber_ci_outdated, ber_ci_perfect,
                              ber_oap_outdated, ber_oap_perfect, combination_matrix,
                              q_function, throughput)
from vlcmimo.channel import build_channel_matrix, square_grid_layout
from vlcmimo.csi import perturb_channel
from vlcmimo.montecarlo import SimConfig, _word_tables
from vlcmimo.noise import NoiseParams, shot_variance, total_sigma
from vlcmimo.precoding import ci_precoder, scaling_beta, word_table

RTOL = 1e-12
SNRS_DB = (85.0, 105.0, 125.0)   # the outdated bounds saturate at the low end
VARIANTS = [("ci", False), ("oap", False), ("oap", True)]


def assert_close(got, want, tol):
    want = np.asarray(want, dtype=float)
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max())


def assert_rates_close(got, want, tol):
    want = np.asarray(want, dtype=float)
    amplification = 1.0 + 2.0 * np.log(1.0 / np.maximum(want, np.finfo(float).tiny))
    excess = np.abs(got - want) - tol * amplification * want
    assert np.all(excess <= 0.0), (got, want)


def reference_table(gains, h_hat, scheme, renormalize):
    """beta, transmit, receive, own and slicer amplitudes, word by word."""
    pre = ci_precoder(h_hat)
    rows = []
    for w in combination_matrix(gains.shape[1]).a:
        x = w.astype(float)
        if scheme == "oap":
            group = (w[:, None] == w[None, :]).astype(float)
            beta = scaling_beta(h_hat, group @ x if renormalize else x)
            wd = pre.w @ group
        else:
            beta = scaling_beta(h_hat, x)
            wd = pre.w
            group = np.eye(len(w))
        ups = beta * (gains @ wd)
        rows.append((beta, beta * (wd @ x), ups @ x, np.diag(ups),
                     np.einsum("ij,ij->i", ups, group)))
    return [np.array(col) for col in zip(*rows)]


def reference_sigma(h, transmit):
    """Physical-noise deviations, one shot variance per word and detector."""
    params = NoiseParams()
    model = PhysicalNoise(h.gains, h.detector_area, h.responsivity, params)
    return np.array([[total_sigma(shot_variance(row, np.clip(h.power * t, 0.0, None),
                                                h.responsivity, params), model.thermal)
                      for row in h.gains] for t in transmit])


def reference_ber(ref, words, sig, gp, scheme, outdated):
    """Word-by-word exact error rate (fresh) or upper bound (stale)."""
    _, _, receive, own, slicer = ref
    acc = np.zeros(words.shape[1])
    for s, w in enumerate(words):
        if not outdated:
            acc += q_function(gp * slicer[s] / (2.0 * sig[s]))
            continue
        interf = receive[s] - own[s] * w
        extra = slicer[s] if scheme == "oap" else 0.0
        acc += 2.0 * (q_function(gp * (0.5 * own[s] - interf) / sig[s])
                      + q_function(gp * (1.5 * own[s] + extra + interf) / sig[s]))
    acc /= len(words)
    return np.clip(acc, 0.0, 1.0) if outdated else acc


def reference_throughput(scheme, gains, sigma, gp):
    """Word-averaged sum-rate with the mask formed for every word."""
    pre = ci_precoder(gains)
    total = 0.0
    for w in combination_matrix(gains.shape[1]).a:
        if not w.any():
            continue
        x = w.astype(float)
        beta = scaling_beta(gains, x)
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
    h = build_channel_matrix(square_grid_layout(n, spacing, fov=60.0))
    gains = h.gains
    h_hat = gains
    if csi == "stale":
        h_hat = perturb_channel(h, 0.02 * gains[0, 0], model="uniform", seed=3).h_hat
    tol = max(RTOL, np.finfo(float).eps * np.linalg.cond(gains),
              np.finfo(float).eps * np.linalg.cond(h_hat))
    gp = h.responsivity * h.power
    sigmas = [gp * 10.0 ** (-snr / 20.0) for snr in SNRS_DB]
    physical = PhysicalNoise(gains, h.detector_area, h.responsivity, NoiseParams())
    words = combination_matrix(n).a
    tables = {}
    for scheme, renormalize in VARIANTS:
        ref = reference_table(gains, h_hat, scheme, renormalize)
        table = tables[scheme, renormalize] = word_table(
            gains, ci_precoder(h_hat), scheme, renormalize=renormalize)
        assert np.array_equal(table.words, words)
        for got, want in zip((table.beta, table.transmit, table.receive, table.own,
                              table.slicer), ref):
            assert_close(got, want, tol)
        if scheme == "ci" or renormalize:
            # Unit transmit power for every word but the silent all-zero one.
            norms = np.linalg.norm(table.transmit[1:], axis=1)
            assert np.abs(norms - 1.0).max() <= RTOL
        ref_sig = reference_sigma(h, ref[1])
        assert_close(physical(table.words, h.power * table.transmit), ref_sig, tol)

        noises = [("swept", snr, sigma, np.full((len(words), n), sigma))
                  for snr, sigma in zip(SNRS_DB, sigmas)]
        for noise_mode, snr, noise, sig in noises + [("physical", None, physical, ref_sig)]:
            cfg = SimConfig(scheme=scheme, renormalize_oap=renormalize,
                            csi_mode="perfect" if csi == "perfect" else "outdated",
                            noise_mode=noise_mode, snr_db=snr)
            _, means, taus, mc_sig = _word_tables(h, cfg, h_hat=h_hat)
            assert_close(means, gp * ref[2], tol)
            assert_close(taus, 0.5 * gp * ref[4], tol)
            assert_close(mc_sig, sig, tol)

            if csi == "perfect":
                if scheme == "ci":
                    got = ber_ci_perfect(h, noise, h.responsivity, h.power)
                else:
                    got = ber_oap_perfect(h, noise, h.responsivity, h.power,
                                          renormalize=renormalize)
            elif renormalize:
                continue
            else:
                fn = ber_ci_outdated if scheme == "ci" else ber_oap_outdated
                got = fn(h, h_hat, noise, h.responsivity, h.power)
            want = reference_ber(ref, words, sig, gp, scheme, csi == "stale")
            assert_rates_close(got.per_pd, want, tol)

    # Renormalized, the adaptive scheme sends W x / ||W x|| like inversion.
    assert_close(tables["oap", True].transmit, tables["ci", False].transmit, RTOL)

    for scheme in ("ci", "oap"):
        for sigma in sigmas:
            got = throughput(scheme, h, ci_precoder(gains), sigma, h.responsivity, h.power)
            assert got == pytest.approx(reference_throughput(scheme, gains, sigma, gp),
                                        rel=tol)


@pytest.mark.parametrize("n, spacing", [(4, 0.05), (8, 0.05), (9, 0.05), (9, 0.5)])
def test_beta_matches_exact_quadratic_form(n, spacing):
    """beta = (x^T (H H^T)^-1 x)^(-1/2), evaluated to 60 digits from the same gains.

    Forming H H^T squares kappa(H); a scaling read off the SVD precoder keeps
    the error within eps * kappa(H), also where kappa(H)^2 passes 1/eps.
    """
    gains = build_channel_matrix(square_grid_layout(n, spacing, fov=60.0)).gains
    rows = np.unique(np.r_[1, 2 ** n - 1, np.random.default_rng(n).integers(1, 2 ** n, 30)])
    words = combination_matrix(n).a[rows]
    with mpmath.workdps(60):
        h = mpmath.matrix(gains.tolist())
        inv = mpmath.inverse(h * h.T)
        exact = [1 / mpmath.sqrt((x.T * inv * x)[0])
                 for x in (mpmath.matrix(w.tolist()) for w in words)]
    exact = np.array(exact, dtype=float)
    bound = np.finfo(float).eps * np.linalg.cond(gains)
    for scheme in ("ci", "oap"):
        beta = word_table(gains, ci_precoder(gains), scheme).beta[rows]
        np.testing.assert_allclose(beta, exact, rtol=bound, atol=0.0)
