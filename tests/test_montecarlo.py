"""Monte Carlo engine tests: determinism, noiseless exactness, consistency."""

import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from vlcmimo import montecarlo, runner
from vlcmimo.analytic import (ber_ci_outdated, ber_ci_perfect, ber_oap_outdated,
                              ber_oap_perfect, exact_ber, outdated_bound, q_function,
                              sigma_table)
from vlcmimo.channel import (ChannelMatrix, PhotoDetector, build_channel_matrix,
                             square_grid_layout)
from vlcmimo.config import MonteCarloConfig, NoiseConfig, config_from_dict, preset
from vlcmimo.csi import perturb_channel
from vlcmimo.montecarlo import (SimConfig, _block_errors, _compared_errors, _sorted_errors,
                                _sorts, simulate, sweep)
from vlcmimo.noise import physical_sigma, sigma_from_transmit_snr
from vlcmimo.precoding import ci_precoder, word_table
from vlcmimo.runner import run_ber_sweep, run_mobility

import oracle


def channel(n=4, spacing=0.5, fov=60.0):
    return build_channel_matrix(square_grid_layout(n, spacing, detector=PhotoDetector(fov=fov)))


def settings(cfg) -> dict:
    """The run settings a ``SimConfig`` gives a whole sweep, as ``sweep`` keywords."""
    return {"seed": cfg.seed, "montecarlo": cfg, "noise": cfg.noise,
            "renormalize_oap": cfg.renormalize_oap}


def one_sweep(h, points, cfg, h_hat=None):
    """``sweep`` of the one case ``(h, cfg.scheme, h_hat)`` with ``cfg``'s run settings."""
    return sweep([(h, cfg.scheme, h_hat)], points, **settings(cfg))[0]


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
        assert oracle.noiseless_errors(word_table(h.gains, ci_precoder(h.gains), scheme)) == 0


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
        ana = ber_ci_perfect(h, sigma, h.responsivity, h.power).mean()
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


class TestValidation:
    def test_swept_mode_needs_snr(self):
        with pytest.raises(ValueError):
            SimConfig(noise=NoiseConfig(mode="swept"), snr_db=float("-inf"))
        h = channel()
        with pytest.raises(ValueError):
            simulate(h, SimConfig(noise=NoiseConfig(mode="swept"), snr_db=None, n_symbols=10))

    def test_bad_scheme_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(scheme="mmse", snr_db=80.0)


class TestOutdatedSimulation:
    def test_zero_bound_matches_perfect(self):
        h = channel()
        base = SimConfig(n_symbols=60_000, seed=31, scheme="ci", snr_db=85.0)
        stale = SimConfig(n_symbols=60_000, seed=31, scheme="ci", snr_db=85.0,
                          csi_mode="outdated")
        a = simulate(h, base)
        b = simulate(h, stale, h_hat=perturb_channel(h, 0.0, seed=stale.seed))
        assert np.array_equal(a.per_pd_errors, b.per_pd_errors)

    def test_perturbation_degrades_high_snr(self):
        h = channel(spacing=1.0)
        snr = 94.0
        bound = 0.15 * h.gains[0, 0]
        fresh = simulate(h, SimConfig(n_symbols=300_000, seed=13, snr_db=snr))
        h_hat = perturb_channel(h, bound, model="worst_case", seed=13)
        stale = simulate(h, SimConfig(n_symbols=300_000, seed=13, snr_db=snr,
                                      csi_mode="outdated"), h_hat=h_hat)
        assert stale.per_pd_errors.sum() > 5 * fresh.per_pd_errors.sum()

    def test_sweep_pairs_bound_with_estimate(self):
        h = channel(spacing=1.0)
        bound = 0.02 * h.gains[0, 0]
        cfg = SimConfig(n_symbols=50_000, seed=3, scheme="oap", snr_db=0.0,
                        csi_mode="outdated")
        h_hat = perturb_channel(h, bound, seed=cfg.seed)
        curve = one_sweep(h, [80.0, 90.0], cfg, h_hat=h_hat)
        assert curve.csi_mode == "outdated"
        # rows: snr, scheme, csi_mode, analytic_per_pd, analytic_avg_ber, is_bound, ...
        assert [row[5] for row in runner._curve_rows(curve)] == [1, 1]


class TestBerEstimate:
    def test_rates_and_halfwidth(self):
        h = channel()
        est = simulate(h, SimConfig(n_symbols=100_000, seed=2, snr_db=82.0))
        p = est.per_pd_errors / est.symbols_run
        halfwidth = 1.96 * np.sqrt(p * (1 - p) / est.symbols_run)
        assert est.average_ber == pytest.approx(p.mean(), rel=1e-12)
        assert np.all(halfwidth > 0.0)      # every detector erred
        pooled = 1.96 * np.sqrt(p.mean() * (1 - p.mean()) / (est.symbols_run * len(p)))
        assert est.average_halfwidth == pytest.approx(pooled, rel=1e-12)


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

    @pytest.mark.parametrize("n, cfg, points", [
        (9, SimConfig(n_symbols=1_050, seed=8, block_size=100), [70.0, 74.0, 78.0]),
        (2, SimConfig(n_symbols=64, block_size=1), [60.0, 80.0]),
    ], ids=["leftover-words", "one-symbol-blocks"])
    def test_sweep_counts_every_symbol(self, n, cfg, points):
        """Blocks below 2^n symbols and a last short block: every point runs every symbol."""
        h = channel(n=n)
        curve = one_sweep(h, points, cfg)
        assert sum(e.per_pd_errors.sum() for e in curve.estimates) > 0
        for snr, est in zip(points, curve.estimates):
            alone = simulate(h, dataclasses.replace(cfg, snr_db=snr))
            assert np.array_equal(est.per_pd_errors, alone.per_pd_errors)
            assert est.symbols_run == cfg.n_symbols


def physical_channel():
    """Four links at 0.1 mW with a cold, dark front end: shot noise sets sigma.

    Thermal and background noise would otherwise swamp the signal-dependent
    term; here sigma spreads by about 13 % across words.
    """
    h = dataclasses.replace(channel(), power=1e-4)
    return h, NoiseConfig(mode="physical", background_current_a=1e-12, temperature_k=0.01)


def table_sigma(h, table, params) -> np.ndarray:
    """Physical-noise deviations of every word of ``table`` and detector."""
    return physical_sigma(h.gains, h.power * table.transmit, h.detector_area, h.responsivity,
                          params)


def literal_slicer_errors(table, gains, gp: float, sig: np.ndarray, nb: int,
                          seed: int) -> np.ndarray:
    """Errors per detector of block 0 of ``seed``, every symbol through ``y > tau`` as written.

    The receive means are the table's transmit vectors through the true
    ``gains``, formed here.  Each word's ``nb // n_words`` symbols are pairs
    first: one draw d is the noise of two symbols, d then -d.  The unpaired
    symbol of an odd share and then the leftover words are single draws.
    """
    words, taus = table.words, 0.5 * gp * table.slicer
    means = gp * (table.transmit @ gains.T)
    sig = np.broadcast_to(sig, means.shape)
    n_words, n_r = means.shape
    per, extra = divmod(nb, n_words)
    pairs, odd = divmod(per, 2)

    rng = block_rng(seed, 0)
    paired = rng.standard_normal((n_words, n_r, pairs))
    widx = rng.integers(0, n_words, size=extra)
    paired = np.concatenate([paired, -paired], axis=-1)
    draws = np.concatenate([paired.transpose(0, 2, 1).reshape(-1, n_r),
                            rng.standard_normal((odd * n_words + extra, n_r))])
    word = np.concatenate([np.repeat(np.arange(n_words), 2 * pairs),
                           np.arange(odd * n_words), widx])
    bits = words.astype(bool)[word]
    # Each draw is the noise in the direction away from the symbol's bit.
    noise = np.where(bits, -draws, draws)
    y = means[word] + noise * sig[word]
    return np.count_nonzero((y > taus[word]) != bits, axis=0)


class TestLiteralSlicer:
    """One block's draws replayed through the slicer as written: y > tau decides 1."""

    NB = 50_007                      # 3125 symbols per word (1562 pairs and one), 7 left over

    @pytest.mark.parametrize("noise_mode", ["swept", "physical"])
    @pytest.mark.parametrize("scheme", ["ci", "oap"])
    def test_kernel_counts_match_literal_slicer(self, noise_mode, scheme):
        if noise_mode == "physical":
            h, params = physical_channel()
            cfg = SimConfig(scheme=scheme, noise=params)
        else:
            h = channel()
            cfg = SimConfig(scheme=scheme, snr_db=78.0)
        nb = self.NB
        cfg = dataclasses.replace(cfg, n_symbols=nb, block_size=nb, seed=21)
        table = word_table(h.gains, ci_precoder(h.gains), scheme)
        gp = h.responsivity * h.power
        if noise_mode == "physical":
            noise = table_sigma(h, table, params)
        else:
            noise = sigma_table(sigma_from_transmit_snr(78.0, h.responsivity, h.power), table)
        literal = literal_slicer_errors(table, h.gains, gp, noise, nb, cfg.seed)

        est = simulate(h, cfg)
        assert literal.sum() > 100
        assert np.array_equal(est.per_pd_errors, literal)

    @pytest.mark.parametrize("scheme", ["ci", "oap"])
    def test_outdated_counts_match_literal_slicer(self, scheme):
        """A stale precoder with negative margins: those words err without noise (z < 0)."""
        h = channel()
        cfg = SimConfig(scheme=scheme, csi_mode="outdated", snr_db=78.0, n_symbols=self.NB,
                        block_size=self.NB, seed=21)
        h_hat = perturb_channel(h, 0.3 * h.gains[0, 0], model="uniform", seed=1)
        table = word_table(h.gains, ci_precoder(h_hat), scheme)
        assert (table.margin < 0).any()
        gp = h.responsivity * h.power
        noise = sigma_table(sigma_from_transmit_snr(78.0, h.responsivity, h.power), table)
        literal = literal_slicer_errors(table, h.gains, gp, noise, self.NB, cfg.seed)

        est = simulate(h, cfg, h_hat=h_hat)
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
        table = word_table(h.gains, ci_precoder(h.gains), "ci")
        table_sig = table_sigma(h, table, params)
        assert np.ptp(table_sig[1:], axis=0).min() > 0.1 * table_sig.mean()
        table = word_table(h.gains, ci_precoder(h.gains), scheme)
        exact = float(np.mean(exact_ber(table, h.responsivity * h.power,
                                        table_sigma(h, table, params))))
        est = simulate(h, SimConfig(n_symbols=200_000, seed=41, scheme=scheme, noise=params))
        assert abs(self.z_score(est, exact)) <= 5.0

    @pytest.mark.parametrize("scheme", ["ci", "oap"])
    def test_nine_link_swept_point(self, scheme):
        h = channel(n=9)
        snr = 80.0
        sigma = sigma_from_transmit_snr(snr, h.responsivity, h.power)
        fn = ber_oap_perfect if scheme == "oap" else ber_ci_perfect
        exact = fn(h, sigma, h.responsivity, h.power).mean()
        est = simulate(h, SimConfig(n_symbols=100_000, seed=43, scheme=scheme,
                                    snr_db=snr, block_size=4_000))
        assert abs(self.z_score(est, exact)) <= 5.0

    @pytest.mark.parametrize("scheme", ["ci", "oap"])
    def test_stale_fig6_point(self, scheme):
        """fig6's 0.3 s uniform estimate at 90 dB: the exact rate on the stale table."""
        cfg = preset("fig6")
        h = build_channel_matrix(*cfg.layouts.values())
        (bounds,) = cfg.error_bounds.values()
        bound = dict(zip(cfg.mobility.elapsed_times_s, bounds))[0.3]
        h_hat = runner._stale_estimate(cfg, h, bound)
        table = word_table(h.gains, ci_precoder(h_hat), scheme)
        sigma = sigma_from_transmit_snr(90.0, h.responsivity, h.power)
        exact = float(np.mean(exact_ber(table, h.responsivity * h.power,
                                        sigma_table(sigma, table))))
        est = simulate(h, SimConfig(n_symbols=200_000, seed=47, scheme=scheme, snr_db=90.0,
                                    csi_mode="outdated"), h_hat=h_hat)
        assert abs(self.z_score(est, exact)) <= 5.0


def test_fig6_monte_carlo_within_outdated_bound(tmp_path):
    """No fig6 row's Monte Carlo rate exceeds its outdated bound by more than 3 SE."""
    cfg = preset("fig6")
    cfg = dataclasses.replace(cfg, montecarlo=dataclasses.replace(cfg.montecarlo,
                                                                  n_symbols=100_000))
    csv_path, _ = run_mobility(cfg, tmp_path)
    header, *rows = [line.split(",") for line in csv_path.read_text().splitlines()
                     if not line.startswith("#")]
    col = {name: i for i, name in enumerate(header)}
    assert len(rows) == 3 * 2 * 21
    for row in rows:
        mc, bound, halfwidth = (float(row[col[c]]) for c in
                                ("mc_avg_ber", "analytic_avg_ber", "mc_halfwidth_95"))
        assert row[col["is_bound"]] == "1"
        assert mc <= bound + 3.0 * halfwidth / 1.96, row


@pytest.mark.parametrize("noise_mode", ["swept", "physical"])
@pytest.mark.parametrize("scheme, renormalize", [("ci", False), ("oap", False), ("oap", True)])
def test_closed_form_is_mean_tail_of_kernel_thresholds(scheme, renormalize, noise_mode):
    """The exact rate and the kernel read one rule: per_pd is the word mean of Q(z)."""
    if noise_mode == "physical":
        h, params = physical_channel()
        cfg = SimConfig(noise=params)
    else:
        h = channel(spacing=0.25)
        cfg = SimConfig(snr_db=90.0)
        noise = sigma_from_transmit_snr(90.0, h.responsivity, h.power)
    cfg = dataclasses.replace(cfg, scheme=scheme, renormalize_oap=renormalize)
    if noise_mode == "physical":
        table = word_table(h.gains, ci_precoder(h.gains), scheme, renormalize=renormalize)
        got = exact_ber(table, h.responsivity * h.power, table_sigma(h, table, params))
    elif scheme == "oap":
        got = ber_oap_perfect(h, noise, h.responsivity, h.power, renormalize=renormalize)
    else:
        got = ber_ci_perfect(h, noise, h.responsivity, h.power)
    assert np.array_equal(got, q_function(oracle.simulated_z(h, cfg)).mean(axis=0))


def test_renormalized_outdated_sweep_uses_renormalized_bound():
    h = channel()
    bound = 0.02 * h.gains[0, 0]
    cfg = SimConfig(n_symbols=2_000, seed=12, scheme="oap", snr_db=0.0,
                    csi_mode="outdated", renormalize_oap=True)
    h_hat = perturb_channel(h, bound, model="uniform", seed=cfg.seed)
    row = one_sweep(h, [100.0], cfg, h_hat=h_hat).analytic[0]
    sigma = sigma_from_transmit_snr(100.0, h.responsivity, h.power)
    args = (h, h_hat, sigma, h.responsivity, h.power)
    renormalized = ber_oap_outdated(*args, renormalize=True)
    assert np.array_equal(row, renormalized)
    assert not np.array_equal(renormalized, ber_oap_outdated(*args))


class TestSweepSharesOneStream:
    """One (seed, block) stream per sweep: every row is its standalone simulate."""

    POINTS = [92.0, 96.0, 100.0, 104.0]

    @staticmethod
    def config(scheme="ci", **kw):
        return SimConfig(n_symbols=60_000, seed=3, scheme=scheme, block_size=4096, **kw)

    @pytest.mark.parametrize("kw", [
        {"scheme": "ci"},
        {"scheme": "oap", "renormalize_oap": True},
        {"scheme": "oap", "csi_mode": "outdated"},
    ], ids=["ci", "oap-renormalized", "oap-outdated"])
    def test_rows_equal_standalone_simulate(self, kw):
        h = channel()
        cfg = self.config(**kw)
        h_hat = None
        if cfg.csi_mode == "outdated":
            h_hat = perturb_channel(h, 2e-7, seed=cfg.seed)
        curve = one_sweep(h, self.POINTS, cfg, h_hat=h_hat)
        for snr, est in zip(curve.snr_db, curve.estimates):
            alone = simulate(h, dataclasses.replace(cfg, snr_db=snr), h_hat=h_hat)
            assert np.array_equal(est.per_pd_errors, alone.per_pd_errors)
            assert est.symbols_run == alone.symbols_run

    def test_progress_prints_one_line_per_point(self, capsys):
        cfg = dataclasses.replace(self.config(), n_symbols=5_000)
        runner._report(one_sweep(channel(), self.POINTS, cfg))
        lines = capsys.readouterr().err.splitlines()
        assert [line.split()[1] for line in lines] == [f"{p:.2f}" for p in self.POINTS]

    @pytest.mark.parametrize("scheme, renormalize",
                             [("ci", False), ("oap", False), ("oap", True)])
    def test_closed_forms_equal_per_point_functions(self, scheme, renormalize):
        h = channel(spacing=0.25)
        points = np.arange(60.0, 141.0, 4.0)
        cfg = SimConfig(n_symbols=1, scheme=scheme, renormalize_oap=renormalize)
        curve = one_sweep(h, points, cfg)
        for snr, row in zip(curve.snr_db, curve.analytic):
            sigma = sigma_from_transmit_snr(snr, h.responsivity, h.power)
            if scheme == "oap":
                want = ber_oap_perfect(h, sigma, h.responsivity, h.power,
                                       renormalize=renormalize)
            else:
                want = ber_ci_perfect(h, sigma, h.responsivity, h.power)
            assert np.array_equal(row, want)
        assert (curve.scheme, curve.csi_mode) == (scheme, "perfect")
        assert [row[5] for row in runner._curve_rows(curve)] == [0] * len(points)


def spy_paths(monkeypatch) -> list:
    """The count path of every block from now on: "sorted" or "compared".

    A block counts its chunks one at a time, so the paths its chunks took are
    gathered per block and recorded once; a block whose chunks took both
    would record "compared+sorted".
    """
    taken, paths = [], set()
    for name, fn in (("sorted", _sorted_errors), ("compared", _compared_errors)):
        def wrapped(draws, z, name=name, fn=fn):
            paths.add(name)
            return fn(draws, z)
        monkeypatch.setattr(montecarlo, f"_{name}_errors", wrapped)

    def block_errors(*args, fn=montecarlo._block_errors):
        paths.clear()
        errors = fn(*args)
        taken.append("+".join(sorted(paths)))
        return errors
    monkeypatch.setattr(montecarlo, "_block_errors", block_errors)
    return taken


class TestSortedCounting:
    """Counting from sorted draws gives exactly the compared counts."""

    WORDS, DETECTORS = 16, 4

    def z_with_edges(self, draws: np.ndarray, n_points: int) -> np.ndarray:
        """Random thresholds, then ties with drawn values, infinities and signed zeros."""
        rng = np.random.default_rng(11)
        z = rng.normal(1.0, 1.5, (n_points, self.WORDS, self.DETECTORS))
        z[0] = draws[:, :, 0]
        z[1] = draws[:, :, -1]
        z[2], z[3], z[4], z[5] = np.inf, -np.inf, 0.0, -0.0
        z[6] = np.where(rng.random(z[6].shape) < 0.5, np.inf, -np.inf)
        z[7] = np.where(rng.random(z[7].shape) < 0.5, 0.0, -0.0)
        return z

    @pytest.mark.parametrize("per", [1, 5, 300])
    def test_paths_agree_on_shared_draws(self, per):
        draws = np.random.default_rng(5).standard_normal((self.WORDS, self.DETECTORS, per))
        draws[..., :per // 3] = 0.0
        draws[..., per // 3:2 * per // 3] = -0.0
        draws[0, 0, -1] = 0.5
        z = self.z_with_edges(draws, 20)
        z[8] = 0.5
        want = _compared_errors(draws.copy(), z)
        assert np.array_equal(_sorted_errors(draws.copy(), z), want)
        # each draw is a pair of symbols, d and -d
        assert want[2].sum() == 0 and want[3].sum() == 2 * draws.size

    @pytest.mark.parametrize("pairs", [1, 5, 300])
    def test_pairs_count_literally(self, pairs):
        """Hand-made pair draws: both paths count ``d > z`` and ``-d > z`` as written."""
        draws = np.random.default_rng(7).standard_normal((self.WORDS, self.DETECTORS, pairs))
        flat = draws.reshape(-1)
        flat[::7], flat[1::7], flat[2::11], flat[3::11] = 0.0, -0.0, np.inf, -np.inf
        z = self.z_with_edges(draws, 24)
        z[8], z[9] = np.abs(draws[..., 0]), -np.abs(draws[..., -1])   # ties with |d|
        z[10] = -draws[..., 0]
        z[12:] = -np.abs(z[12:])
        literal = ((draws[None] > z[..., None]).sum(axis=(1, 3))
                   + (-draws[None] > z[..., None]).sum(axis=(1, 3)))
        assert (z < 0).any() and (z >= 0).any()
        for count in (_compared_errors, _sorted_errors):
            assert np.array_equal(count(draws.copy(), z), literal)

    @pytest.mark.parametrize("path", ["sorted", "compared"])
    @pytest.mark.parametrize("per, extra", [(1, 0), (3, 5), (301, 0), (301, 7)])
    def test_odd_shares_count_literally(self, monkeypatch, path, per, extra):
        """Each word's unpaired symbol and the leftover words are single draws, on both paths."""
        nb = self.WORDS * per + extra
        first = block_rng(2, 0).standard_normal((self.WORDS, self.DETECTORS, max(per // 2, 1)))
        z = self.z_with_edges(first, 24)
        z[12:] *= -1.0
        monkeypatch.setattr(montecarlo, "_sorts", lambda n_points, per: path == "sorted")
        got = _block_errors(z, nb, block_rng(2, 0))
        assert got.sum() > 0
        assert np.array_equal(got, whole_block_errors(z, nb, block_rng(2, 0)))

    @pytest.mark.parametrize("per", [montecarlo._SORT_MIN_PER - 1, montecarlo._SORT_MIN_PER,
                                     4096])
    @pytest.mark.parametrize("extra", [0, 7])
    def test_block_counts_equal_forced_compare(self, monkeypatch, per, extra):
        n_points = 128        # enough points that the row length decides the path
        nb = self.WORDS * per + extra
        rng = lambda: np.random.Generator(np.random.SFC64(21))  # noqa: E731
        z = self.z_with_edges(rng().standard_normal((self.WORDS, self.DETECTORS, per)),
                              n_points)
        taken = spy_paths(monkeypatch)
        chosen = montecarlo._block_errors(z, nb, rng())
        assert taken == ["sorted" if per >= montecarlo._SORT_MIN_PER else "compared"]
        monkeypatch.setattr(montecarlo, "_sorts", lambda n_points, per: False)
        assert np.array_equal(chosen, montecarlo._block_errors(z, nb, rng()))
        assert taken[-1] == "compared"

    def test_dense_sweep_rows_equal_standalone_simulate(self, monkeypatch):
        h = channel()
        points = np.arange(70.0, 131.0, 4.0)     # 16 points per scheme
        # a block of 4096 symbols per word, which sorts, then one of 91 per word
        # and 8 leftover, which compares
        cfgs = [SimConfig(n_symbols=67_000, seed=4, scheme=scheme) for scheme in ("ci", "oap")]
        taken = spy_paths(monkeypatch)
        curves = sweep([(h, cfg.scheme, None) for cfg in cfgs], points, **settings(cfgs[0]))
        assert "sorted" in taken and "compared" in taken
        for cfg, curve in zip(cfgs, curves):
            for snr, est in zip(curve.snr_db, curve.estimates):
                alone = simulate(h, dataclasses.replace(cfg, snr_db=snr))
                assert np.array_equal(est.per_pd_errors, alone.per_pd_errors)
                assert est.symbols_run == alone.symbols_run


def whole_block_errors(z: np.ndarray, nb: int, rng: np.random.Generator) -> np.ndarray:
    """Reference block: the whole block drawn at once, every point compared with every draw.

    Each word's ``per // 2`` pair draws d count ``d > z`` and ``-d > z``; the
    unpaired symbol of an odd share, then the leftover words, are single draws.
    """
    n_words, n_r = z.shape[1:]
    per, extra = divmod(nb, n_words)
    draws = rng.standard_normal((n_words, n_r, per // 2))
    errors = ((draws[None] > z[..., None]).sum(axis=(1, 3))
              + (-draws[None] > z[..., None]).sum(axis=(1, 3)))
    widx = np.arange(n_words if per % 2 else 0)
    if extra:
        widx = np.concatenate([widx, rng.integers(0, n_words, size=extra)])
    draws = rng.standard_normal((len(widx), n_r))
    errors += (draws[None] > z[:, widx]).sum(axis=1)
    return errors


def whole_block_loop(z: np.ndarray, cfg: SimConfig) -> list[tuple]:
    """Reference block loop: (errors, symbols) per point, blocks folded one by one."""
    errors = np.zeros(z.shape[::2], dtype=np.int64)
    done = 0
    for k, start in enumerate(range(0, cfg.n_symbols, cfg.block_size)):
        nb = min(cfg.block_size, cfg.n_symbols - start)
        errors += whole_block_errors(z, nb, block_rng(cfg.seed, k))
        done += nb
    return [(e.tolist(), done) for e in errors]


class TestChunkedDraws:
    """A block drawn and counted in word chunks counts exactly what one whole draw does.

    Four links (16 words, 4 detectors) and blocks of 300 symbols per word
    plus 7 leftover words.  Budgets: one word (and one leftover word) per
    chunk, 3 words per chunk (which 16 does not divide), and the whole block.
    """

    WORDS, DETECTORS, PER, EXTRA = 16, 4, 300, 7
    BUDGETS = {"one-word": 1, "three-words": 3 * 4 * 300 + 1, "whole-block": 1 << 40}

    def z(self, n_points: int) -> np.ndarray:
        """Thresholds from 0 to about 3 with noise, some tied with 0.0 and +-inf."""
        rng = np.random.default_rng(3)
        z = (np.linspace(0.0, 3.0, n_points)[:, None, None]
             + rng.normal(0.0, 0.5, (n_points, self.WORDS, self.DETECTORS)))
        z[0, 0], z[-1, 1], z[1, 2] = 0.0, np.inf, -np.inf
        return z

    @pytest.mark.parametrize("budget", list(BUDGETS.values()), ids=list(BUDGETS))
    @pytest.mark.parametrize("n_points, path", [(3, "compared"), (32, "sorted")])
    @pytest.mark.parametrize("extra", [0, EXTRA])
    def test_block_equals_whole_draw(self, monkeypatch, budget, n_points, path, extra):
        monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", budget)
        taken = spy_paths(monkeypatch)
        z = self.z(n_points)
        nb = self.WORDS * self.PER + extra
        got = montecarlo._block_errors(z, nb, block_rng(6, 2))
        assert taken == [path]
        assert np.array_equal(got, whole_block_errors(z, nb, block_rng(6, 2)))

    @pytest.mark.parametrize("budget", list(BUDGETS.values()), ids=list(BUDGETS))
    def test_block_loop_equals_whole_draws(self, monkeypatch, budget):
        # Three blocks of 300 per word and 7 leftover (sorted), then 131 per word
        # and 4 leftover (compared).
        cfg = SimConfig(n_symbols=3 * 4807 + 2100, seed=9, block_size=4807)
        monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", budget)
        taken = spy_paths(monkeypatch)
        z = self.z(32)
        got = montecarlo._count_errors(z, cfg.seed, cfg)
        assert "sorted" in taken and "compared" in taken
        want = whole_block_loop(z, cfg)
        assert [(e.per_pd_errors.tolist(), e.symbols_run) for e in got] == want
        assert {n for _, n in want} == {cfg.n_symbols}


class TestThresholdsFromMargins:
    """The block loop counts the same from margins and deviations as from the dense z.

    Four links; blocks of 256 symbols per word and 5 leftover words (which
    sort at the 40 points of two swept cases), then 62 per word and 8 leftover
    (which compare).
    """

    CFG = SimConfig(n_symbols=4101 + 1000, seed=13, block_size=4101)

    @staticmethod
    def loop(mode: str) -> tuple:
        """A ci and an oap case's stacked gp * margin, deviations and dense z.

        Swept noise has 20 points per case, physical noise one.
        """
        h, params = physical_channel() if mode == "physical" else (channel(), None)
        gp = h.responsivity * h.power
        gpm, sigs, dense = [], [], []
        for scheme in ("ci", "oap"):
            table = word_table(h.gains, ci_precoder(h.gains), scheme)
            if mode == "swept":
                sig = np.stack([sigma_table(sigma_from_transmit_snr(snr, h.responsivity,
                                                                    h.power), table)
                                for snr in np.linspace(70.0, 98.5, 20)])[:, None, :]
            else:
                sig = table_sigma(h, table, params)[None]
            gpm.append(gp * table.margin)
            sigs.append(sig)
            dense.append(oracle.thresholds(table, gp, sig))
        return np.stack(gpm), np.stack(sigs), np.concatenate(dense)

    @pytest.mark.parametrize("noise", ["swept", "physical"])
    def test_counts_equal_dense_thresholds(self, monkeypatch, noise):
        gpm, sig, dense = self.loop(noise)
        z = montecarlo._Thresholds(gpm, sig)
        assert z.shape == dense.shape == ((20 if noise == "swept" else 1) * 2, 16, 4)
        taken = spy_paths(monkeypatch)
        got = montecarlo._count_errors(z, self.CFG.seed, self.CFG)
        want = montecarlo._count_errors(dense, self.CFG.seed, self.CFG)
        assert [(e.per_pd_errors.tolist(), e.symbols_run) for e in got] == \
            [(e.per_pd_errors.tolist(), e.symbols_run) for e in want]
        assert sum(e.per_pd_errors.sum() for e in got) > 0
        assert ("sorted" in taken) == (noise == "swept")

    def test_chunks_equal_dense_thresholds(self):
        widx = np.array([3, 3, 15, 0, 9])
        for noise in ("swept", "physical"):
            gpm, sig, dense = self.loop(noise)
            z = montecarlo._Thresholds(gpm, sig)
            assert np.array_equal(z[:, 5:11], dense[:, 5:11])
            assert np.array_equal(z[:, widx], dense[:, widx])


def test_sweep_memory_does_not_grow_with_its_points(tmp_path):
    """More SNR points leave a sweep's peak memory where it was.

    A 12-link ber-sweep (two cases of 4096 words x 12 detectors): thresholds
    are formed a word chunk at a time and the closed forms sum over word
    chunks, so 20 more points add only their deviations and rows, against
    7.9 MB of thresholds a stored stack would add.  A 10-link one at 10 000
    symbols (4 pairs per word) divides its pairs' thresholds in chunks sized
    by its points too, against 4.5 MB more when sized by its pairs alone.
    """
    def peak_bytes(n_links: int, n_symbols: int, n_points: int) -> int:
        cfg = config_from_dict({
            "name": f"mem{n_points}", "seed": 3, "montecarlo": {"n_symbols": n_symbols},
            "layout": {"n_links": n_links, "spacing_m": 0.5, "detector": {"fov_deg": 60.0}},
            "sweep": {"snr_start_db": 80.0, "snr_stop_db": 80.0 + 2.0 * (n_points - 1),
                      "snr_step_db": 2.0}})
        tracemalloc.start()
        try:
            run_ber_sweep(cfg, tmp_path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for n_links, n_symbols in ((12, 3000), (10, 10_000)):
        few, many = (peak_bytes(n_links, n_symbols, n) for n in (4, 24))
        assert many - few <= 64 * 1024, (n_links, few, many)


def test_sweep_drops_each_table_before_building_the_next(monkeypatch):
    """A sweep builds its second case's word table without holding the first.

    Two 12-link cases: a table holds about 2 MB, so the second build starts
    within 0.5 MB of the first only if neither the sweep nor ``word_table``
    keeps it, and no more than the first case's ``gp * margin`` (0.4 MB),
    deviations and closed form are left.
    """
    starts = []

    def traced(*args, **kwargs):
        starts.append(tracemalloc.get_traced_memory()[0])
        return word_table(*args, **kwargs)
    monkeypatch.setattr(montecarlo, "word_table", traced)
    h = channel(n=12)
    cases = [(h, s, None) for s in ("ci", "oap")]
    tracemalloc.start()
    try:
        sweep(cases, [80.0, 84.0, 88.0, 92.0], **settings(SimConfig(n_symbols=3000, seed=3)))
    finally:
        tracemalloc.stop()
    assert len(starts) == 2
    assert starts[1] - starts[0] <= 500_000


def test_cases_build_in_stacks_within_the_budget(monkeypatch):
    """A scheme's cases share one stacked build while they fit ``_CHUNK_CELLS``.

    Three 4-link spacings of ci and oap at 6 points (1152 cells per scheme)
    are two builds of three elements, in case order; two 12-link cases at 4
    points (196 608 cells each) are built alone, as is every case of a
    sweep whose budget holds fewer than two.
    """
    built = []

    def traced(gains, *args, **kwargs):
        built.append(len(gains))
        return word_table(gains, *args, **kwargs)
    monkeypatch.setattr(montecarlo, "word_table", traced)
    points = [70.0, 82.0, 94.0, 106.0, 118.0, 130.0]
    run = {"seed": 0, "montecarlo": MonteCarloConfig(n_symbols=2000), "noise": NoiseConfig()}
    cases = [(channel(spacing=sp), s, None) for sp in (0.25, 0.5, 1.0) for s in ("ci", "oap")]
    stacked = sweep(cases, points, **run)
    assert built == [3, 3]
    wide = [(channel(n=12, spacing=sp), "ci", None) for sp in (0.25, 0.5)]
    built.clear()
    sweep(wide, points[:4], **run)
    assert built == [1, 1]
    built.clear()
    monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", len(points) * 16 * 4)
    alone = sweep(cases, points, **run)
    assert built == [1] * 6
    for a, b in zip(stacked, alone):
        assert np.array_equal(a.analytic, b.analytic)
        assert [e.per_pd_errors.tolist() for e in a.estimates] == \
            [e.per_pd_errors.tolist() for e in b.estimates]


def test_block_loop_holds_one_copy_of_the_margins(monkeypatch):
    """When the first block starts, a sweep holds its cases' ``gp * margin`` once.

    Two 12-link cases: each ``gp * margin`` is 0.39 MB and the block loop's
    stacked copy holds both, so a second copy of either, or a kept word table
    (2.4 MB), would lift what the sweep holds then by at least 0.39 MB.
    """
    held = []
    block = montecarlo._block_errors

    def traced(*args, **kwargs):
        if not held:
            held.append(tracemalloc.get_traced_memory()[0])
        return block(*args, **kwargs)
    h = channel(n=12)
    cases = [(h, s, None) for s in ("ci", "oap")]
    run = settings(SimConfig(n_symbols=3000, seed=3))
    sweep(cases, [80.0], **run)     # so the modules a sweep imports lazily are loaded
    monkeypatch.setattr(montecarlo, "_block_errors", traced)
    tracemalloc.start()
    try:
        sweep(cases, [80.0, 84.0, 88.0, 92.0], **run)
    finally:
        tracemalloc.stop()
    stacked = 2 * (1 << 12) * 12 * 8
    assert stacked <= held[0] < 1.5 * stacked


def block_shapes(cfg, n_points: int) -> set:
    """(points, symbols per word) of every block of a recipe's one-stack block loop."""
    mc = cfg.montecarlo
    words = 1 << cfg.layout.n_links
    return {(n_points, min(mc.block_size, mc.n_symbols - start) // words)
            for start in range(0, mc.n_symbols, mc.block_size)}


class TestCountPathSelection:
    @staticmethod
    def fig4(**sweep):
        cfg = preset("fig4")
        cfg = dataclasses.replace(cfg, sweep=dataclasses.replace(cfg.sweep, **sweep))
        return cfg, len(cfg.sweep.points()) * len(list(cfg.variants())) * len(cfg.schemes)

    def test_full_fig4_sorts(self):
        cfg, n_points = self.fig4()
        assert n_points == 186
        assert all(_sorts(*shape) for shape in block_shapes(cfg, n_points))

    def test_benchmark_fig4_sorts(self):
        # 150k symbols and every sixth SNR point: 36 points, 4096 then 1183 per word
        cfg, n_points = self.fig4(snr_step_db=12.0)
        cfg = dataclasses.replace(cfg, montecarlo=dataclasses.replace(
            cfg.montecarlo, n_symbols=150_000))
        shapes = block_shapes(cfg, n_points)
        assert shapes == {(36, 4096), (36, 1183)}
        assert all(_sorts(*shape) for shape in shapes)

    @pytest.mark.parametrize("n_points, per", [
        (4, 9),         # 10 links, 2 SNR points x 2 schemes at 10k symbols
        (4, 4096),      # few points, long rows
        (400, 9),       # many points, short rows
        (16, 256),      # too little work per row to repay the sort
    ])
    def test_small_stacks_and_short_rows_compare(self, n_points, per):
        assert not _sorts(n_points, per)

    def test_one_point_simulate_compares(self, monkeypatch):
        taken = spy_paths(monkeypatch)
        simulate(channel(), SimConfig(n_symbols=140_000, seed=2, snr_db=90.0))
        assert taken == ["compared"] * 3


class TestRunnerRowsAreOneSweep:
    """Every ber row is ``simulate`` plus the closed form, with the runner's one estimate."""

    BASE = {"name": "rows", "seed": 11, "montecarlo": {"n_symbols": 20_000, "block_size": 4096},
            "sweep": {"snr_start_db": 84.0, "snr_stop_db": 92.0, "snr_step_db": 4.0},
            "mobility": {"speed_mps": 1.0, "elapsed_times_s": [0.1, 0.3]}}
    PHYSICAL = {"noise": {"mode": "physical", "background_current_a": 1e-12,
                          "temperature_k": 0.01},
                "layout": {"n_links": 4, "spacing_m": 0.5, "power_per_led_w": 1e-8,
                           "detector": {"fov_deg": 60.0}}}
    SWEPT = {"layout": {"n_links": 4, "spacing_m": 1.0, "detector": {"fov_deg": 60.0}}}
    CLOSED_FORMS = {("ci", False): ber_ci_perfect, ("oap", False): ber_oap_perfect,
                    ("ci", True): ber_ci_outdated, ("oap", True): ber_oap_outdated}

    @pytest.mark.parametrize("extra", [
        {**PHYSICAL, "csi": {"mode": "perfect"}},
        {**PHYSICAL, "csi": {"mode": "outdated"}},
        {**SWEPT, "csi": {"mode": "outdated", "model": "worst_case", "mobile_user": 1}},
    ], ids=["physical-perfect", "physical-outdated", "worst-case-user-1"])
    def test_rows_equal_simulate_and_closed_form(self, tmp_path, extra):
        cfg = config_from_dict({**self.BASE, **extra})
        csv_path, meta_path = run_ber_sweep(cfg, tmp_path)
        lines = [line for line in csv_path.read_text().splitlines() if not line.startswith("#")]
        header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
        meta = json.loads(meta_path.read_text())
        h = build_channel_matrix(*cfg.layouts.values())
        outdated = cfg.csi.mode == "outdated"
        h_hat = None
        if outdated:
            (bound,) = meta["error_bounds"].values()
            h_hat = perturb_channel(h, bound, model=cfg.csi.model, seed=cfg.seed,
                                    row=cfg.csi.mobile_user,
                                    worst_case_sign=cfg.csi.worst_case_sign)
            assert bound > 0.0
        physical = cfg.noise.mode == "physical"
        points = [float("nan")] if physical else list(cfg.sweep.points())
        assert len(rows) == len(cfg.schemes) * len(points)
        assert meta["snr_points_db"] == ([] if physical else points)
        errors = 0
        for row, (scheme, snr) in zip(rows, [(s, p) for s in cfg.schemes for p in points]):
            sim = SimConfig(n_symbols=20_000, seed=cfg.seed, scheme=scheme,
                            csi_mode=cfg.csi.mode, noise=cfg.noise,
                            snr_db=None if physical else snr, block_size=4096)
            est = simulate(h, sim, h_hat=h_hat)
            if physical:
                table = word_table(h.gains, ci_precoder(h.gains if h_hat is None else h_hat),
                                   scheme)
                rate = outdated_bound if outdated else exact_ber
                ana = rate(table, h.responsivity * h.power, table_sigma(h, table, cfg.noise))
            else:
                noise = sigma_from_transmit_snr(snr, h.responsivity, h.power)
                args = (h, h_hat) if outdated else (h,)
                ana = self.CLOSED_FORMS[scheme, outdated](*args, noise, h.responsivity,
                                                          h.power)
            want = {"snr_db": repr(snr), "scheme": scheme, "csi_mode": cfg.csi.mode,
                    "analytic_per_pd": "|".join(repr(float(v)) for v in ana),
                    "analytic_avg_ber": repr(float(ana.mean())),
                    "is_bound": str(int(outdated)),
                    "mc_avg_ber": repr(est.average_ber),
                    "mc_halfwidth_95": repr(est.average_halfwidth),
                    "symbols": str(est.symbols_run)}
            assert {k: row[header.index(k)] for k in want} == want
            errors += int(est.per_pd_errors.sum())
        assert errors > 100

    @pytest.mark.parametrize("physical", [False, True])
    def test_outdated_without_estimate_raises(self, physical):
        h, params = physical_channel()
        cfg = SimConfig(n_symbols=100, csi_mode="outdated", snr_db=None if physical else 90.0,
                        noise=params if physical else NoiseConfig())
        with pytest.raises(ValueError, match="h_hat"):
            simulate(h, cfg)

    @pytest.mark.parametrize("physical", [False, True])
    def test_perfect_with_estimate_raises(self, physical):
        """A stale estimate is never silently dropped: perfect knowledge takes none."""
        h, params = physical_channel()
        cfg = SimConfig(n_symbols=100, snr_db=None if physical else 90.0,
                        noise=params if physical else NoiseConfig())
        h_hat = perturb_channel(h, 2e-7, seed=1)
        with pytest.raises(ValueError, match="h_hat"):
            simulate(h, cfg, h_hat=h_hat)

    @pytest.mark.parametrize("shape", [(3, 4), (4, 4, 1), (2, 4, 4)])
    def test_estimate_of_another_shape_raises(self, shape):
        """An estimate whose shape is not its channel's is refused before anything is built."""
        h = channel()
        cfg = SimConfig(n_symbols=100, csi_mode="outdated")
        h_hat = np.full(shape, h.gains[0, 0])
        with pytest.raises(ValueError, match="h_hat"):
            one_sweep(h, [90.0], cfg, h_hat=h_hat)
        with pytest.raises(ValueError, match="h_hat"):
            sweep([(h, "ci", None), (h, "oap", h_hat)], [90.0], **settings(cfg))


class TestRecipeSharesOneBlockLoop:
    """One block loop per draw shape serves every case of a recipe, row for row.

    The reference is the runner with ``sweep`` called once per case.
    """

    BASE = {"name": "grp", "seed": 5, "schemes": ["ci", "oap"],
            "montecarlo": {"n_symbols": 24_000, "block_size": 2048},
            "layout": {"n_links": 4, "spacing_m": 0.5, "detector": {"fov_deg": 60.0}},
            "sweep": {"snr_start_db": 80.0, "snr_stop_db": 96.0, "snr_step_db": 4.0},
            "mobility": {"speed_mps": 1.0, "elapsed_times_s": [0.02, 0.1, 0.3]}}
    RUNS = {
        "spacings": (run_ber_sweep, {"spacings_m": [0.25, 0.5, 1.0]}),
        "orders": (run_ber_sweep, {"mimo_orders": [2, 3], "sweep": {
            "snr_start_db": 76.0, "snr_stop_db": 92.0, "snr_step_db": 4.0}}),
        "outdated": (run_ber_sweep, {"spacings_m": [0.5, 1.0], "csi": {"mode": "outdated"}}),
        "mobility": (run_mobility, {"csi": {"mode": "outdated"}}),
        "physical": (run_ber_sweep, {
            "spacings_m": [0.25, 0.5, 1.0],
            "noise": {"mode": "physical", "background_current_a": 1e-12,
                      "temperature_k": 0.01},
            "layout": {"n_links": 4, "spacing_m": 0.5, "power_per_led_w": 1e-8,
                       "detector": {"fov_deg": 60.0}}}),
    }

    @classmethod
    def run(cls, name, tmp_path, **extra):
        recipe, run_extra = cls.RUNS[name]
        cfg = config_from_dict({**cls.BASE, **run_extra, **extra})
        return [p.read_text() for p in recipe(cfg, tmp_path)]

    @staticmethod
    def per_case(monkeypatch):
        """Make the runner call ``sweep`` once per case, as one-case sweeps."""
        def one_at_a_time(cases, *args, **kwargs):
            return [sweep([case], *args, **kwargs)[0] for case in cases]
        monkeypatch.setattr(runner, "sweep", one_at_a_time)

    @staticmethod
    def count_calls(monkeypatch, module, name) -> list:
        calls = []
        fn = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
        return calls

    @pytest.mark.parametrize("name", list(RUNS))
    def test_rows_equal_one_sweep_per_case(self, monkeypatch, tmp_path, name):
        grouped = self.run(name, tmp_path / "grouped")
        with monkeypatch.context() as m:
            self.per_case(m)
            reference = self.run(name, tmp_path / "ref")
        assert grouped == reference
        body = [line.split(",") for line in reference[0].splitlines()
                if not line.startswith("#")]
        symbols = {int(row[body[0].index("symbols")]) for row in body[1:]}
        assert symbols == {24_000}

    @pytest.mark.parametrize("name, groups", [("spacings", 1), ("orders", 2),
                                              ("outdated", 1), ("mobility", 1),
                                              ("physical", 1)])
    def test_one_block_loop_per_draw_shape(self, monkeypatch, tmp_path, name, groups):
        loops = self.count_calls(monkeypatch, montecarlo, "_count_errors")
        self.run(name, tmp_path)
        assert len(loops) == groups

    def test_one_generator_per_block_and_draw_shape(self, monkeypatch, tmp_path):
        generators = self.count_calls(monkeypatch, np.random, "SFC64")
        self.run("orders", tmp_path, montecarlo={"n_symbols": 10_000, "block_size": 4096})
        assert len(generators) == 3 * 2

    def test_wide_cases_share_one_block_loop(self, monkeypatch, tmp_path):
        """ci and oap on 12 links share one block loop however many thresholds they have.

        90 points (80-258 dB) of 4096 words x 12 detectors: 4.4 million
        thresholds per case.
        """
        wide = {"spacings_m": [0.5], "montecarlo": {"n_symbols": 2000},
                "layout": {"n_links": 12, "spacing_m": 0.5, "detector": {"fov_deg": 60.0}},
                "sweep": {"snr_start_db": 80.0, "snr_stop_db": 258.0, "snr_step_db": 2.0}}
        loops = self.count_calls(monkeypatch, montecarlo, "_count_errors")
        grouped = self.run("spacings", tmp_path / "grouped", **wide)
        assert len(loops) == 1 and loops[0][0].shape[0] == 2 * 90
        with monkeypatch.context() as m:
            self.per_case(m)
            assert self.run("spacings", tmp_path / "ref", **wide) == grouped

    @pytest.mark.parametrize("name", ["spacings", "mobility"])
    def test_progress_lines_unchanged(self, capsys, tmp_path, name):
        """Each case's heading, then its point lines, as when it ran alone."""
        def recipe_sweep(cfg, h, scheme, h_hat):
            return sweep([(h, scheme, h_hat)], cfg.sweep.points(), seed=cfg.seed,
                         montecarlo=cfg.montecarlo, noise=cfg.noise,
                         renormalize_oap=cfg.renormalize_oap)[0]

        recipe, extra = self.RUNS[name]
        cfg = config_from_dict({**self.BASE, **extra,
                                "montecarlo": {"n_symbols": 4096, "block_size": 2048}})
        want = []
        if recipe is run_mobility:
            h = build_channel_matrix(*cfg.layouts.values())
            (bounds,) = cfg.error_bounds.values()
            for elapsed, bound in zip(cfg.mobility.elapsed_times_s, bounds):
                h_hat = runner._stale_estimate(cfg, h, bound)
                for scheme in cfg.schemes:
                    want.append(f"[grp] mobility t={elapsed}s bound={bound:.3e} "
                                f"scheme={scheme}")
                    runner._report(recipe_sweep(cfg, h, scheme, h_hat))
                    want += capsys.readouterr().err.splitlines()
        else:
            for (n, sp, ang), layout in cfg.layouts.items():
                h = build_channel_matrix(layout)
                for scheme in cfg.schemes:
                    want.append(f"[grp] {n}x{n} spacing={sp} angle={ang} scheme={scheme}")
                    runner._report(recipe_sweep(cfg, h, scheme, None))
                    want += capsys.readouterr().err.splitlines()
        csv_path, _ = recipe(cfg, tmp_path, progress=True)
        want.append(f"wrote {csv_path}")
        assert len(want) == 3 * len(cfg.schemes) * 6 + 1
        assert capsys.readouterr().err.splitlines() == want

    @pytest.mark.parametrize("recipe", [run_ber_sweep, run_mobility, runner.run_throughput_sweep])
    def test_threads_changes_no_byte(self, tmp_path, recipe):
        """``threads``, still passed by the benchmark workloads, has no effect on the files."""
        cfg = config_from_dict(self.BASE)
        plain = [p.read_bytes() for p in recipe(cfg, tmp_path / "plain")]
        given = [p.read_bytes() for p in recipe(cfg, tmp_path / "threads", threads=2)]
        assert given == plain
