"""Monte Carlo engine tests: determinism, noiseless exactness, consistency."""

import dataclasses

import numpy as np
import pytest

from vlcmimo.analytic import (PhysicalNoise, ber_ci_perfect, ber_oap_outdated,
                              ber_oap_perfect, q_function, sigma_table)
from vlcmimo.channel import ChannelMatrix, build_channel_matrix, square_grid_layout
from vlcmimo.csi import perturb_channel
from vlcmimo.montecarlo import (SimConfig, _block_errors, _thresholds,
                                exhaustive_noiseless_errors, simulate, sweep)
from vlcmimo.noise import NoiseParams, sigma_from_transmit_snr
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


def block_rng(seed, block):
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy=(seed, block))))


class TestStratifiedBlocks:
    """Nine links (512 words): block sizes that 2^n divides, that it does not, and below 2^n."""

    @pytest.mark.parametrize("block_size", [1024, 1000, 100])
    def test_symbol_count_kept(self, block_size):
        h = channel(n=9)
        cfg = SimConfig(n_symbols=2_345, seed=4, scheme="oap", snr_db=80.0,
                        block_size=block_size)
        assert simulate(h, cfg).symbols_run == cfg.n_symbols

    @pytest.mark.parametrize("nb", [1024, 1000, 100])
    def test_every_word_gets_its_share(self, nb):
        # A threshold of -inf on one word makes every symbol of that word an
        # error on every detector, so the counts read off that word's share.
        n_words, n_r = 512, 9
        counts = []
        for w in range(n_words):
            z = np.full((n_words, n_r), np.inf)
            z[w] = -np.inf
            errors = _block_errors(z[None], nb, block_rng(11, 0))[0]
            assert np.all(errors == errors[0])
            counts.append(errors[0])
        assert sum(counts) == nb
        assert min(counts) >= nb // n_words

    def test_sweep_thread_invariance_with_leftover_words(self):
        h = channel(n=9)
        cfg = SimConfig(n_symbols=1_050, seed=8, scheme="ci", snr_db=0.0, block_size=100)
        points = [70.0, 74.0, 78.0]
        serial = sweep(h, points, cfg, threads=1)
        pooled = sweep(h, points, cfg, threads=4)
        assert sum(e.per_pd_errors.sum() for e in serial.estimates) > 0
        for a, b in zip(serial.estimates, pooled.estimates):
            assert np.array_equal(a.per_pd_errors, b.per_pd_errors)
            assert a.symbols_run == b.symbols_run == cfg.n_symbols


def physical_channel():
    """Four links at 0.1 mW with a cold, dark front end: shot noise sets sigma.

    Thermal and background noise would otherwise swamp the signal-dependent
    term; here sigma spreads by about 13 % across words.
    """
    h = dataclasses.replace(channel(), power=1e-4)
    return h, NoiseParams(i_bg=1e-12, temperature=0.01)


class TestLiteralSlicer:
    """One block's draws replayed through the slicer as written: y > tau decides 1."""

    @pytest.mark.parametrize("noise_mode", ["swept", "physical"])
    @pytest.mark.parametrize("scheme", ["ci", "oap"])
    def test_kernel_counts_match_literal_slicer(self, noise_mode, scheme):
        if noise_mode == "physical":
            h, params = physical_channel()
            cfg = SimConfig(scheme=scheme, noise_mode="physical", noise_params=params)
            noise = PhysicalNoise(h.gains, h.detector_area, h.responsivity, params)
        else:
            h = channel()
            cfg = SimConfig(scheme=scheme, snr_db=78.0)
            noise = sigma_from_transmit_snr(78.0, h.responsivity, h.power)
        nb = 50_007                      # 3125 symbols per word, 7 left over
        cfg = dataclasses.replace(cfg, n_symbols=nb, block_size=nb, seed=21)
        table = word_table(h.gains, ci_precoder(h.gains), scheme)
        gp = h.responsivity * h.power
        words, means, taus = table.words, gp * table.receive, 0.5 * gp * table.slicer
        sig = np.broadcast_to(sigma_table(noise, table, h.power), means.shape)
        n_words, n_r = means.shape
        per, extra = divmod(nb, n_words)

        rng = block_rng(cfg.seed, 0)
        strat = rng.standard_normal((n_words, n_r, per))
        widx = rng.integers(0, n_words, size=extra)
        draws = np.concatenate([strat.transpose(0, 2, 1).reshape(-1, n_r),
                                rng.standard_normal((extra, n_r))])
        word = np.concatenate([np.repeat(np.arange(n_words), per), widx])
        bits = words.astype(bool)[word]
        # Each draw is the noise in the direction away from the symbol's bit.
        noise = np.where(bits, -draws, draws)
        y = means[word] + noise * sig[word]
        literal = np.count_nonzero((y > taus[word]) != bits, axis=0)

        est = simulate(h, cfg)
        assert literal.sum() > 100
        assert np.array_equal(est.per_pd_errors, literal)


class TestAgainstClosedForm:
    """|z| <= 5 of the stratified estimate against the exact closed form."""

    @staticmethod
    def z_score(est, exact):
        n = est.symbols_run * len(est.per_pd_errors)
        assert exact * n >= 100
        return (est.average_ber - exact) / np.sqrt(exact * (1.0 - exact) / n)

    @pytest.mark.parametrize("scheme", ["ci", "oap"])
    def test_physical_noise(self, scheme):
        h, params = physical_channel()
        noise = PhysicalNoise(h.gains, h.detector_area, h.responsivity, params)
        table = word_table(h.gains, ci_precoder(h.gains), "ci")
        table_sig = sigma_table(noise, table, h.power)
        assert np.ptp(table_sig[1:], axis=0).min() > 0.1 * table_sig.mean()
        fn = ber_oap_perfect if scheme == "oap" else ber_ci_perfect
        exact = fn(h, noise, h.responsivity, h.power).average
        est = simulate(h, SimConfig(n_symbols=200_000, seed=41, scheme=scheme,
                                    noise_mode="physical", noise_params=params))
        assert abs(self.z_score(est, exact)) <= 5.0

    @pytest.mark.parametrize("scheme", ["ci", "oap"])
    def test_nine_link_swept_point(self, scheme):
        h = channel(n=9)
        snr = 80.0
        sigma = sigma_from_transmit_snr(snr, h.responsivity, h.power)
        fn = ber_oap_perfect if scheme == "oap" else ber_ci_perfect
        exact = fn(h, sigma, h.responsivity, h.power).average
        est = simulate(h, SimConfig(n_symbols=100_000, seed=43, scheme=scheme,
                                    snr_db=snr, block_size=4_000))
        assert abs(self.z_score(est, exact)) <= 5.0


@pytest.mark.parametrize("noise_mode", ["swept", "physical"])
@pytest.mark.parametrize("scheme, renormalize", [("ci", False), ("oap", False), ("oap", True)])
def test_closed_form_is_mean_tail_of_kernel_thresholds(scheme, renormalize, noise_mode):
    """The exact rate and the kernel read one rule: per_pd is the word mean of Q(z)."""
    if noise_mode == "physical":
        h, params = physical_channel()
        cfg = SimConfig(noise_mode="physical", noise_params=params)
        noise = PhysicalNoise(h.gains, h.detector_area, h.responsivity, params)
    else:
        h = channel(spacing=0.25)
        cfg = SimConfig(snr_db=90.0)
        noise = sigma_from_transmit_snr(90.0, h.responsivity, h.power)
    cfg = dataclasses.replace(cfg, scheme=scheme, renormalize_oap=renormalize)
    if scheme == "oap":
        got = ber_oap_perfect(h, noise, h.responsivity, h.power, renormalize=renormalize)
    else:
        got = ber_ci_perfect(h, noise, h.responsivity, h.power)
    assert np.array_equal(got.per_pd, q_function(_thresholds(h, cfg)).mean(axis=0))


def test_renormalized_outdated_sweep_uses_renormalized_bound():
    h = channel()
    bound = 0.02 * h.gains[0, 0]
    cfg = SimConfig(n_symbols=2_000, seed=12, scheme="oap", snr_db=0.0,
                    csi_mode="outdated", csi_bound=bound, renormalize_oap=True)
    row = sweep(h, [100.0], cfg, threads=1).analytic[0]
    h_hat = perturb_channel(h, bound, model="uniform", seed=cfg.seed).h_hat
    sigma = sigma_from_transmit_snr(100.0, h.responsivity, h.power)
    args = (h, h_hat, sigma, h.responsivity, h.power)
    renormalized = ber_oap_outdated(*args, renormalize=True).per_pd
    assert np.array_equal(row.per_pd, renormalized)
    assert not np.array_equal(renormalized, ber_oap_outdated(*args).per_pd)


class TestSweepSharesOneStream:
    """One (seed, block) stream per sweep: every row is its standalone simulate."""

    POINTS = [92.0, 96.0, 100.0, 104.0]

    @staticmethod
    def config(scheme="ci", **kw):
        # 15 blocks; at 200 errors per detector the low-SNR points stop early.
        return SimConfig(n_symbols=60_000, seed=3, scheme=scheme, early_stop_errors=200,
                         block_size=4096, **kw)

    @pytest.mark.parametrize("kw", [
        {"scheme": "ci"},
        {"scheme": "oap", "renormalize_oap": True},
        {"scheme": "oap", "csi_mode": "outdated", "csi_bound": 2e-7},
    ], ids=["ci", "oap-renormalized", "oap-outdated"])
    def test_rows_equal_standalone_simulate(self, kw):
        h = channel()
        cfg = self.config(**kw)
        curve = sweep(h, self.POINTS, cfg, threads=2)
        for snr, est in zip(curve.snr_db, curve.estimates):
            alone = simulate(h, dataclasses.replace(cfg, snr_db=snr))
            assert np.array_equal(est.per_pd_errors, alone.per_pd_errors)
            assert est.symbols_run == alone.symbols_run

    def test_low_snr_points_stop_in_earlier_blocks(self):
        curve = sweep(channel(), self.POINTS, self.config(), threads=2)
        runs = [est.symbols_run for est in curve.estimates]
        assert runs[0] < runs[1] < runs[2] < runs[3] == 60_000
        stopped = [est for est in curve.estimates if est.symbols_run < 60_000]
        assert all(est.per_pd_errors.min() >= 200 for est in stopped)

    @pytest.mark.parametrize("early_stop", [None, 200])
    def test_counts_identical_across_threads(self, early_stop):
        h = channel()
        cfg = dataclasses.replace(self.config(), early_stop_errors=early_stop)
        curves = [sweep(h, self.POINTS, cfg, threads=t) for t in (1, 2, 4)]
        for rows in zip(*(c.estimates for c in curves)):
            assert all(np.array_equal(r.per_pd_errors, rows[0].per_pd_errors)
                       and r.symbols_run == rows[0].symbols_run for r in rows)

    def test_progress_prints_one_line_per_point(self, capsys):
        cfg = dataclasses.replace(self.config(), n_symbols=5_000)
        sweep(channel(), self.POINTS, cfg, threads=2, progress=True)
        lines = capsys.readouterr().err.splitlines()
        assert [line.split()[1] for line in lines] == [f"{p:.2f}" for p in self.POINTS]

    @pytest.mark.parametrize("scheme, renormalize",
                             [("ci", False), ("oap", False), ("oap", True)])
    def test_closed_forms_equal_per_point_functions(self, scheme, renormalize):
        h = channel(spacing=0.25)
        points = np.arange(60.0, 141.0, 4.0)
        cfg = SimConfig(n_symbols=1, scheme=scheme, renormalize_oap=renormalize)
        curve = sweep(h, points, cfg, threads=1)
        for snr, row in zip(curve.snr_db, curve.analytic):
            sigma = sigma_from_transmit_snr(snr, h.responsivity, h.power)
            if scheme == "oap":
                want = ber_oap_perfect(h, sigma, h.responsivity, h.power,
                                       renormalize=renormalize)
            else:
                want = ber_ci_perfect(h, sigma, h.responsivity, h.power)
            assert np.array_equal(row.per_pd, want.per_pd)
            assert (row.scheme, row.csi, row.is_bound) == (scheme, "perfect", False)
