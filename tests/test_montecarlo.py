"""Monte Carlo engine tests: determinism, noiseless exactness, consistency."""

import numpy as np
import pytest

from vlcmimo.analytic import ber_ci_perfect, q_function
from vlcmimo.channel import ChannelMatrix, build_channel_matrix, square_grid_layout
from vlcmimo.montecarlo import SimConfig, exhaustive_noiseless_errors, simulate, sweep
from vlcmimo.noise import sigma_from_transmit_snr
from vlcmimo.precoding import ci_precoder, word_table


def channel(n=4, spacing=0.5, fov=60.0):
    return build_channel_matrix(square_grid_layout(n, spacing, fov=fov))


class TestDeterminism:
    def test_identical_seed_identical_counts(self):
        h = channel()
        cfg = SimConfig(n_symbols=120_000, seed=99, scheme="oap", snr_db=85.0)
        a = simulate(h, cfg)
        b = simulate(h, cfg)
        assert np.array_equal(a.per_pd_errors, b.per_pd_errors)
        assert a.symbols_run == b.symbols_run

    def test_block_size_invariance(self):
        # partitioning must not change the per-block streams' union semantics:
        # counts are reproducible for a fixed block size regardless of call order
        h = channel()
        cfg = SimConfig(n_symbols=70_000, seed=5, scheme="ci", snr_db=85.0,
                        block_size=4096)
        first = simulate(h, cfg).per_pd_errors
        again = simulate(h, cfg).per_pd_errors
        assert np.array_equal(first, again)

    def test_sweep_thread_count_invariance(self):
        h = channel()
        cfg = SimConfig(n_symbols=30_000, seed=7, scheme="ci", snr_db=0.0)
        points = [80.0, 84.0, 88.0, 92.0]
        serial = sweep(h, points, cfg, threads=1)
        pooled = sweep(h, points, cfg, threads=4)
        for a, b in zip(serial.estimates, pooled.estimates):
            assert np.array_equal(a.per_pd_errors, b.per_pd_errors)

    def test_different_seeds_differ(self):
        h = channel()
        a = simulate(h, SimConfig(n_symbols=50_000, seed=1, snr_db=85.0))
        b = simulate(h, SimConfig(n_symbols=50_000, seed=2, snr_db=85.0))
        assert not np.array_equal(a.per_pd_errors, b.per_pd_errors)


class TestNoiselessExactness:
    @pytest.mark.parametrize("n", [2, 4, 8])
    @pytest.mark.parametrize("scheme", ["ci", "oap"])
    def test_zero_errors_over_all_words(self, n, scheme):
        h = channel(n=n)
        cfg = SimConfig(scheme=scheme, noise_mode="noiseless")
        assert exhaustive_noiseless_errors(h, cfg) == 0

    def test_noiseless_simulation_runs_clean(self):
        h = channel()
        cfg = SimConfig(n_symbols=20_000, seed=3, scheme="oap", noise_mode="noiseless")
        assert simulate(h, cfg).per_pd_errors.sum() == 0


class TestEstimatorConsistency:
    def test_scalar_channel_closed_form(self):
        # single on-off link with unit gain: error probability Q(u/2) per word
        h = ChannelMatrix(gains=np.array([[1.0]]), power=1.0, responsivity=1.0)
        snr = 8.0
        sigma = sigma_from_transmit_snr(snr, 1.0, 1.0)
        expected = float(q_function(1.0 / (2 * sigma)))
        cfg = SimConfig(n_symbols=1_000_000, seed=17, scheme="ci", snr_db=snr)
        est = simulate(h, cfg)
        se = np.sqrt(expected * (1 - expected) / cfg.n_symbols)
        assert abs(est.average_ber - expected) < 3 * se

    def test_matches_analytic_at_moderate_rate(self):
        h = channel()
        snr = 85.0
        sigma = sigma_from_transmit_snr(snr, h.responsivity, h.power)
        ana = ber_ci_perfect(h, sigma, h.responsivity, h.power).average
        est = simulate(h, SimConfig(n_symbols=400_000, seed=23, snr_db=snr))
        se = est.average_stderr()
        assert abs(est.average_ber - ana) < 3 * se


class TestEnergyAccounting:
    def test_debug_check_passes_for_valid_channel(self):
        h = channel()
        cfg = SimConfig(n_symbols=1_000, seed=1, scheme="ci", snr_db=85.0)
        simulate(h, cfg)  # must not raise
        table = word_table(h, ci_precoder(h), "ci")
        norms = np.linalg.norm(table.transmit[1:], axis=1)
        assert np.allclose(norms, 1.0, rtol=0, atol=1e-12)


class TestEarlyStopAndValidation:
    def test_early_stop_bounds_symbols(self):
        h = channel()
        cfg = SimConfig(n_symbols=2_000_000, seed=9, scheme="ci", snr_db=70.0,
                        early_stop_errors=500, block_size=8192)
        est = simulate(h, cfg)
        assert est.symbols_run < cfg.n_symbols
        assert est.per_pd_errors.min() >= 500

    def test_early_stop_floor_enforced(self):
        with pytest.raises(ValueError):
            SimConfig(early_stop_errors=50)

    def test_swept_mode_needs_snr(self):
        with pytest.raises(ValueError):
            SimConfig(noise_mode="swept", snr_db=float("-inf"))
        h = channel()
        with pytest.raises(ValueError):
            simulate(h, SimConfig(noise_mode="swept", snr_db=None, n_symbols=10))

    def test_bad_scheme_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(scheme="mmse", snr_db=80.0)


class TestOutdatedSimulation:
    def test_zero_bound_matches_perfect(self):
        h = channel()
        base = SimConfig(n_symbols=60_000, seed=31, scheme="ci", snr_db=85.0)
        stale = SimConfig(n_symbols=60_000, seed=31, scheme="ci", snr_db=85.0,
                          csi_mode="outdated", csi_bound=0.0)
        a = simulate(h, base)
        b = simulate(h, stale)
        assert np.array_equal(a.per_pd_errors, b.per_pd_errors)

    def test_perturbation_degrades_high_snr(self):
        h = channel(spacing=1.0)
        snr = 94.0
        bound = 0.15 * h.gains[0, 0]
        fresh = simulate(h, SimConfig(n_symbols=300_000, seed=13, snr_db=snr))
        stale = simulate(h, SimConfig(n_symbols=300_000, seed=13, snr_db=snr,
                                      csi_mode="outdated", csi_model="worst_case",
                                      csi_bound=bound))
        assert stale.per_pd_errors.sum() > 5 * fresh.per_pd_errors.sum()

    def test_sweep_pairs_bound_with_estimate(self):
        h = channel(spacing=1.0)
        bound = 0.02 * h.gains[0, 0]
        cfg = SimConfig(n_symbols=50_000, seed=3, scheme="oap", snr_db=0.0,
                        csi_mode="outdated", csi_bound=bound)
        curve = sweep(h, [80.0, 90.0], cfg)
        for ana in curve.analytic:
            assert ana.is_bound
            assert ana.csi == "outdated"


class TestBerEstimate:
    def test_rates_and_halfwidth(self):
        h = channel()
        est = simulate(h, SimConfig(n_symbols=100_000, seed=2, snr_db=82.0))
        assert np.allclose(est.per_pd_ber, est.per_pd_errors / est.symbols_run)
        p = est.per_pd_ber
        expected_hw = 1.96 * np.sqrt(p * (1 - p) / est.symbols_run)
        assert np.allclose(est.halfwidth_95, expected_hw)
