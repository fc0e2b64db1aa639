"""Closed-form error-rate and throughput tests.

Monte Carlo cross-checks of the closed forms live in the acceptance suite;
here the oracles are independent formula reductions and quadrature.
"""

import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

from vlcmimo import analytic
from vlcmimo.analytic import (ber_ci_outdated, ber_ci_perfect,
                              ber_oap_outdated, ber_oap_perfect, exact_ber,
                              outdated_bound, q_function, sigma_table, throughput)
from vlcmimo.channel import (ChannelMatrix, PhotoDetector, build_channel_matrix,
                             square_grid_layout)
from vlcmimo.csi import perturb_channel
from vlcmimo.config import NoiseConfig, config_from_dict
from vlcmimo.noise import physical_sigma, sigma_from_transmit_snr, sigma_stack
from vlcmimo.precoding import WordTable, ci_precoder, combination_matrix, word_table
from vlcmimo.runner import run_throughput_sweep


def channel(n=4, spacing=0.5, fov=60.0):
    return build_channel_matrix(square_grid_layout(n, spacing, detector=PhotoDetector(fov=fov)))


class TestQFunction:
    def test_zero_is_half(self):
        assert abs(q_function(0.0) - 0.5) < 1e-15

    def test_symmetry(self):
        for x in (0.3, 1.0, 2.5):
            assert q_function(x) + q_function(-x) == pytest.approx(1.0, abs=1e-14)

    def test_tail_against_quadrature(self):
        # oracle: numeric integration of the standard normal density
        oracle, err = quad(lambda t: math.exp(-t * t / 2) / math.sqrt(2 * math.pi),
                           1.2816, np.inf)
        assert err < 1e-9
        assert q_function(1.2816) == pytest.approx(oracle, rel=1e-9)
        assert q_function(1.2816) == pytest.approx(0.100, rel=1e-2)

    def test_monotone_decreasing(self):
        xs = np.linspace(-3, 6, 40)
        qs = q_function(xs)
        assert np.all(np.diff(qs) < 0)

    # Branch points of Cody's approximations, x = sqrt(2) * (0.46875, 4).
    EDGES = (0.46875 * math.sqrt(2.0), 4.0 * math.sqrt(2.0))

    @classmethod
    def grid(cls):
        """[-9, 38.4] plus each branch point (either sign) and both its neighbours."""
        edges = [e for edge in cls.EDGES for s in (-1.0, 1.0)
                 for e in (np.nextafter(s * edge, -np.inf), s * edge,
                           np.nextafter(s * edge, np.inf), s * edge * (1 - 1e-9),
                           s * edge * (1 + 1e-9))]
        return np.concatenate([np.linspace(-9.0, 38.4, 1201), edges])

    def test_against_50_digit_reference(self):
        xs = self.grid()
        with mpmath.workdps(50):
            want = np.array([float(mpmath.erfc(mpmath.mpf(x) / mpmath.sqrt(2)) / 2)
                             for x in xs])
        got = q_function(xs)
        live = want > 1e-300
        assert live.sum() > 1100
        rel = np.abs(got[live] - want[live]) / want[live]
        assert rel.max() <= 2e-15, (rel.max(), xs[live][rel.argmax()])
        assert np.all(got[~live] <= 1e-300)

    def test_exact_values_and_shapes(self):
        assert q_function(0.0) == 0.5
        assert q_function(np.inf) == 0.0
        assert q_function(-np.inf) == 1.0
        assert np.isnan(q_function(np.nan))
        assert np.ndim(q_function(1.0)) == 0
        assert q_function(np.zeros((2, 3))).shape == (2, 3)
        assert q_function(np.array(2.0)).shape == ()
        assert q_function(np.empty((0, 4))).shape == (0, 4)
        got = q_function([[-np.inf, np.nan], [0.0, np.inf]])
        np.testing.assert_array_equal(got, [[1.0, np.nan], [0.5, 0.0]])

    def test_symmetry_to_rounding(self):
        xs = self.grid()
        assert np.abs(q_function(xs) + q_function(-xs) - 1.0).max() <= 1e-15

    def test_agrees_with_scipy_erfc(self):
        xs = self.grid()
        want = 0.5 * erfc(xs / np.sqrt(2.0))
        live = want > 1e-300
        np.testing.assert_allclose(q_function(xs)[live], want[live], rtol=3e-13, atol=0.0)


class TestCombinationMatrix:
    def test_single_transmitter(self):
        assert np.array_equal(combination_matrix(1), [[0], [1]])

    def test_two_transmitters_counting_order(self):
        assert np.array_equal(combination_matrix(2),
                              [[0, 0], [0, 1], [1, 0], [1, 1]])

    def test_row_count_and_extremes(self):
        for n in (1, 3, 6):
            a = combination_matrix(n)
            assert a.shape == (2**n, n)
            assert a.dtype == np.uint8 and not a.flags.writeable
            assert not a[0].any()
            assert a[-1].all()

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            combination_matrix(17)


class TestBerCiPerfect:
    def test_identity_channel_closed_form(self):
        # independent reduction: mean over words of Q(u beta_s / 2),
        # beta = 1/sqrt(#ones), all-zero word pinned at beta = 1
        h = ChannelMatrix(gains=np.eye(4), power=1.0, responsivity=1.0)
        u = 200.0
        sigma = 1.0 / u
        words = combination_matrix(4)
        expected = np.mean([q_function((1.0 if not w.any() else w.sum() ** -0.5)
                                       / (2 * sigma))
                            for w in words])
        res = ber_ci_perfect(h, sigma, 1.0, 1.0)
        assert res.mean() == pytest.approx(expected, rel=1e-12)

    def test_saturates_at_half(self):
        h = channel()
        res = ber_ci_perfect(h, 1e12, h.responsivity, h.power)
        assert res.mean() == pytest.approx(0.5, rel=1e-6)

    def test_in_unit_interval_and_decreasing(self):
        h = channel()
        prev = 0.5
        for snr in (60.0, 70.0, 80.0, 90.0, 100.0):
            s = sigma_from_transmit_snr(snr, h.responsivity, h.power)
            avg = ber_ci_perfect(h, s, h.responsivity, h.power).mean()
            assert 0.0 <= avg <= 0.5
            assert avg < prev
            prev = avg


class TestBerOapPerfect:
    def test_single_link_equals_inversion(self):
        h = ChannelMatrix(gains=np.array([[1.0]]), power=1.0)
        for snr in (5.0, 10.0, 15.0):
            s = sigma_from_transmit_snr(snr, 1.0, 1.0)
            a = ber_ci_perfect(h, s, 1.0, 1.0).mean()
            b = ber_oap_perfect(h, s, 1.0, 1.0).mean()
            assert a == pytest.approx(b, rel=1e-14)
            # scalar on-off keying error probability
            assert a == pytest.approx(float(q_function(1.0 / (2 * s))), rel=1e-12)

    def test_identity_channel_group_reduction(self):
        # per word each detector faces Q(u * |group| * beta / 2)
        h = ChannelMatrix(gains=np.eye(4), power=1.0)
        sigma = 0.02
        words = combination_matrix(4)
        acc = np.zeros(4)
        for w in words:
            k = w.sum()
            beta = 1.0 if k == 0 else k ** -0.5
            for i in range(4):
                group = np.sum(w == w[i])
                acc[i] += float(q_function(group * beta / (2 * sigma)))
        expected = acc / len(words)
        res = ber_oap_perfect(h, sigma, 1.0, 1.0)
        assert np.allclose(res, expected, rtol=1e-12)

    def test_never_worse_than_inversion(self):
        h = channel()
        for snr in (70.0, 80.0, 90.0, 100.0):
            s = sigma_from_transmit_snr(snr, h.responsivity, h.power)
            ci = ber_ci_perfect(h, s, h.responsivity, h.power).mean()
            oap = ber_oap_perfect(h, s, h.responsivity, h.power).mean()
            assert oap <= ci + 1e-15

    def test_renormalized_variant_never_beats_literal(self):
        # power-fair scaling shrinks every per-word margin by the group factor
        h = channel()
        for snr in (75.0, 85.0, 95.0):
            s = sigma_from_transmit_snr(snr, h.responsivity, h.power)
            fair = ber_oap_perfect(h, s, h.responsivity, h.power, renormalize=True)
            literal = ber_oap_perfect(h, s, h.responsivity, h.power)
            assert np.all(fair >= literal - 1e-15)
            assert np.all(fair <= 0.5 + 1e-12)


class TestBerOutdatedBounds:
    def setup_method(self):
        self.h = channel(spacing=1.0)
        self.bound = 0.02 * self.h.gains[0, 0]
        self.h_hat = perturb_channel(self.h, self.bound, model="uniform", seed=3)

    def test_fresh_estimate_dominates_perfect(self):
        for snr in (75.0, 85.0, 95.0):
            s = sigma_from_transmit_snr(snr, self.h.responsivity, self.h.power)
            exact = ber_ci_perfect(self.h, s, self.h.responsivity, self.h.power)
            bound = ber_ci_outdated(self.h, self.h.gains, s,
                                    self.h.responsivity, self.h.power)
            assert bound.mean() >= exact.mean()

    def test_oap_fresh_estimate_dominates_perfect(self):
        for snr in (75.0, 85.0, 95.0):
            s = sigma_from_transmit_snr(snr, self.h.responsivity, self.h.power)
            exact = ber_oap_perfect(self.h, s, self.h.responsivity, self.h.power)
            bound = ber_oap_outdated(self.h, self.h.gains, s,
                                     self.h.responsivity, self.h.power)
            assert bound.mean() >= exact.mean()

    def test_bound_monotone_in_error_under_worst_case(self):
        s = sigma_from_transmit_snr(85.0, self.h.responsivity, self.h.power)
        values = []
        for scale in (0.0, 0.01, 0.03, 0.06, 0.1):
            b = scale * self.h.gains[0, 0]
            est = perturb_channel(self.h, b, model="worst_case", seed=0)
            res = ber_ci_outdated(self.h, est, s,
                                  self.h.responsivity, self.h.power)
            values.append(res.mean())
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_bounds_clamped_to_unit_interval(self):
        s = sigma_from_transmit_snr(40.0, self.h.responsivity, self.h.power)
        for fn in (ber_ci_outdated, ber_oap_outdated):
            res = fn(self.h, self.h_hat, s, self.h.responsivity, self.h.power)
            assert np.all(res >= 0.0) and np.all(res <= 1.0)


# Both perturbation models, and every sign of the worst case.
STALE_MODELS = [("uniform", "pessimistic"), ("worst_case", "pessimistic"),
                ("worst_case", "plus"), ("worst_case", "minus")]


@pytest.mark.parametrize("spacing", [0.25, 0.5, 1.0])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_outdated_bound_bounds_exact_rate(n, spacing):
    """``outdated_bound >= exact_ber`` per detector on stale tables, and equal on fresh ones.

    Over three gain-error sizes, each variant, swept SNRs and physical noise.
    ``q_function`` is not monotone at the ulp, so the bound may sit a
    relative 1e-15 below.  With fresh gains the leakage is rounding, of about
    eps * kappa(H) relative to the slicer amplitude, which Q(a) amplifies by
    about a^2 ~ 2 ln(1/Q).
    """
    h = channel(n, spacing)
    gp = h.responsivity * h.power
    points = tuple(np.arange(70.0, 131.0, 2.0))
    tol = max(1e-12, np.finfo(float).eps * np.linalg.cond(h.gains))
    stale = [perturb_channel(h, size * h.gains[0, 0], model=model, seed=7,
                             worst_case_sign=sign)
             for size in (0.005, 0.02, 0.1) for model, sign in STALE_MODELS]
    for scheme, renormalize in (("ci", False), ("oap", False), ("oap", True)):
        for i, h_hat in enumerate([h.gains, *stale]):
            table = word_table(h.gains, ci_precoder(h_hat), scheme, renormalize=renormalize)
            for mode in ("swept", "physical"):
                sig = sigma_stack(h, NoiseConfig(mode=mode), table.transmit, points)
                bound, exact = outdated_bound(table, gp, sig), exact_ber(table, gp, sig)
                assert np.all(bound >= exact * (1.0 - 1e-15))
                if i == 0:
                    depth = 1.0 + 2.0 * np.log(1.0 / np.maximum(exact, np.finfo(float).tiny))
                    assert np.all(bound - exact <= tol * depth * exact)


@pytest.mark.parametrize("n", [2, 4, 8])
def test_outdated_bound_reads_the_smaller_hypothesis_margin(n):
    """The bound's ``min(margin, slicer - margin)`` is ``slicer/2 - |H t - slicer x|``.

    The receive means ``H t`` are formed here from the table's transmit
    vectors and the true gains, apart from the table's margin.  A word's
    margin is ``slicer/2 + interf`` for a 1 and ``slicer/2 - interf`` for a 0,
    so the two agree up to rounding: n * eps * kappa of the word's slicer
    amplitude, kappa the larger condition number of H and its estimate.
    ``outdated_bound`` then lies between the word means of Q at that
    independent margin moved by the tolerance either way, as Q decreases.
    """
    h = channel(n, 0.5)
    gp = h.responsivity * h.power
    stale = [perturb_channel(h, size * h.gains[0, 0], model=model, seed=7,
                             worst_case_sign=sign)
             for size in (0.005, 0.02, 0.1) for model, sign in STALE_MODELS]
    for h_hat in stale:
        kappa = max(np.linalg.cond(h.gains), np.linalg.cond(h_hat))
        for scheme, renormalize in (("ci", False), ("oap", False), ("oap", True)):
            table = word_table(h.gains, ci_precoder(h_hat), scheme, renormalize=renormalize)
            leakage = table.transmit @ h.gains.T - table.slicer * table.words
            margin = 0.5 * table.slicer - np.abs(leakage)
            tol = n * np.finfo(float).eps * kappa * np.abs(table.slicer).max(axis=1, keepdims=True)
            smaller = np.minimum(table.margin, table.slicer - table.margin)
            assert np.all(np.abs(smaller - margin) <= tol)
            for snr in (70.0, 90.0, 110.0, 130.0):
                sig = sigma_table(sigma_from_transmit_snr(snr, h.responsivity, h.power), table)
                bound = outdated_bound(table, gp, sig)
                low = q_function(gp * (margin + tol) / sig).mean(axis=0)
                high = q_function(gp * (margin - tol) / sig).mean(axis=0)
                assert np.all((low <= bound) & (bound <= high))


def stale_stack(n: int, scheme: str, snrs) -> tuple:
    """A stale-precoder table of ``n`` links, its gp and a swept sigma stack at ``snrs``."""
    h = channel(n, spacing=1.0 if n <= 4 else 0.5)
    h_hat = perturb_channel(h, 0.02 * h.gains[0, 0], model="uniform", seed=3)
    table = word_table(h.gains, ci_precoder(h_hat), scheme)
    sig = np.stack([sigma_table(sigma_from_transmit_snr(snr, h.responsivity, h.power), table)
                    for snr in snrs])[:, None, :]
    return table, h.responsivity * h.power, sig


class TestPointChunks:
    """A closed form over a stack of points equals its one-point calls, however chunked.

    Four links: 16 words x 4 detectors and 7 points.  Point budgets: one word
    and one point per chunk, the whole table and 3 points per chunk (which 7
    points do not divide), and the whole stack.  Word budgets: one word, 3
    words (which 16 words do not divide) and the whole table per chunk.
    """

    @pytest.mark.parametrize("budget", [1, 3 * 16 * 4, 1 << 40],
                             ids=["one-point", "three-points", "whole-stack"])
    @pytest.mark.parametrize("scheme", ["ci", "oap"])
    @pytest.mark.parametrize("rate", [exact_ber, outdated_bound])
    def test_rows_equal_one_point_calls(self, monkeypatch, budget, scheme, rate):
        monkeypatch.setattr(analytic, "_CHUNK_CELLS", budget)
        table, gp, sig = stale_stack(4, scheme, np.arange(70.0, 101.0, 5.0))
        rows = rate(table, gp, sig)
        assert rows.shape == (7, 4)
        for r, s in zip(rows, sig):
            assert np.array_equal(r, rate(table, gp, s[0]))

    @pytest.mark.parametrize("words", [1, 3, 16], ids=["one-word", "three-words", "whole-table"])
    @pytest.mark.parametrize("scheme", ["ci", "oap"])
    @pytest.mark.parametrize("rate", [exact_ber, outdated_bound])
    def test_word_chunks_equal_one_point_calls(self, monkeypatch, words, scheme, rate):
        monkeypatch.setattr(analytic, "_CHUNK_CELLS", words * 4)
        table, gp, sig = stale_stack(4, scheme, np.arange(70.0, 101.0, 5.0))
        rows = rate(table, gp, sig)
        for r, s in zip(rows, sig):
            assert np.array_equal(r, rate(table, gp, s[0]))
        monkeypatch.setattr(analytic, "_CHUNK_CELLS", 1 << 40)
        assert np.allclose(rows, rate(table, gp, sig), rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("scheme", ["ci", "oap"])
    def test_twelve_links_span_several_chunks(self, scheme):
        """4096 words x 12 detectors take two word chunks; the mean is the whole table's."""
        table, gp, sig = stale_stack(12, scheme, [80.0, 95.0, 110.0])
        assert table.margin.size > analytic._CHUNK_CELLS
        rows = exact_ber(table, gp, sig)
        whole = np.stack([q_function(gp * table.margin / s).mean(axis=-2) for s in sig])
        assert rows.min() > 0.0
        assert np.allclose(rows, whole, rtol=1e-13, atol=0.0)
        for r, s in zip(rows, sig):
            assert np.array_equal(r, exact_ber(table, gp, s[0]))


def one_word(table: WordTable, index: int) -> WordTable:
    """The table of word ``index`` alone: its throughput is that word's sum-rate."""
    return WordTable(**{f.name: getattr(table, f.name) if f.name == "scheme"
                        else getattr(table, f.name)[[index]] for f in dataclasses.fields(table)})


class TestThroughput:
    def test_vanishes_with_noise(self):
        h = channel()
        th = throughput(word_table(h, ci_precoder(h.gains), "ci"), h, 1e15)
        assert th == pytest.approx(0.0, abs=1e-9)

    def test_all_ones_word_constructive_dominance(self):
        h = channel()
        pre = ci_precoder(h.gains)
        s = sigma_from_transmit_snr(90.0, h.responsivity, h.power)
        ci, oap = (throughput(one_word(word_table(h, pre, scheme), -1), h, s)
                   for scheme in ("ci", "oap"))
        assert combination_matrix(4)[-1].all()     # the all-ones word
        assert oap >= ci

    def test_zero_word_carries_no_rate(self):
        h = channel()
        pre = ci_precoder(h.gains)
        for scheme in ("ci", "oap"):
            rate = throughput(one_word(word_table(h, pre, scheme), 0), h, 1e-3)
            assert not combination_matrix(4)[0].any()  # the all-zero word
            assert rate == 0.0

    def test_zero_power_gives_zero_rate(self):
        h = channel()
        dark = ChannelMatrix(h.gains, power=0.0, responsivity=1.0)
        pre = ci_precoder(h.gains)
        sig = np.full((1, 1, 4), 1e-3)
        assert throughput(word_table(dark, pre, "ci"), dark, sig).tolist() == [0.0]
        assert throughput(word_table(dark, pre, "oap"), dark, sig).tolist() == [0.0]

    @pytest.mark.parametrize("n", [8, 9])
    @pytest.mark.parametrize("scheme", ["ci", "oap"])
    def test_sigma_grid_equals_one_sigma_calls(self, n, scheme):
        """One call over a sigma stack gives each one-sigma call bit for bit."""
        h = channel(n=n)
        table = word_table(h, ci_precoder(h.gains), scheme)
        sigmas = [np.full(n, sigma_from_transmit_snr(snr, h.responsivity, h.power))
                  for snr in (70.0, 85.0, 100.0, 115.0, 130.0)]
        sigmas.append(np.linspace(0.5, 1.5, n) * sigmas[2])     # one per detector
        grid = throughput(table, h, np.stack(sigmas)[:, None, :])
        singles = [float(throughput(table, h, s)) for s in sigmas]
        assert grid.tolist() == singles
        assert len(set(singles)) == len(singles)

    @pytest.mark.parametrize("scheme", ["ci", "oap"])
    def test_sixteen_link_peak_does_not_grow_with_points(self, scheme):
        """The reduction holds word chunks, never a (points or words) x detectors stack."""
        h = channel(n=16)
        table = word_table(h, ci_precoder(h.gains), scheme)
        peaks = []
        for n_points in (2, 31):
            sig = sigma_stack(h, NoiseConfig(), table.transmit, np.linspace(70.0, 130.0, n_points))
            tracemalloc.start()
            try:
                rates = throughput(table, h, sig)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert rates.shape == (n_points,)
        assert max(peaks) <= 1.1 * min(peaks)
        assert max(peaks) < table.margin.nbytes       # one (2^16, 16) float64 array

    def test_sweep_follows_renormalize_oap(self, tmp_path):
        """Renormalized, oap rows are the renormalized table's word mean; ci rows stay."""
        base = {"name": "tput", "schemes": ["ci", "oap"],
                "layout": {"n_links": 4, "spacing_m": 1.0, "detector": {"fov_deg": 60.0}},
                "sweep": {"snr_start_db": 80.0, "snr_stop_db": 100.0, "snr_step_db": 10.0}}
        rows = {}
        for renormalize in (False, True):
            cfg = config_from_dict({**base, "renormalize_oap": renormalize})
            csv_path, _ = run_throughput_sweep(cfg, tmp_path / str(renormalize))
            lines = csv_path.read_text().splitlines()[4:]
            rows[renormalize] = [(float(snr), scheme, float(value)) for snr, scheme, *_, value
                                 in (line.split(",") for line in lines)]
        h = build_channel_matrix(*cfg.layouts.values())
        table = word_table(h.gains, ci_precoder(h.gains), "oap", renormalize=True)
        oap = [(snr, value) for snr, scheme, value in rows[True] if scheme == "oap"]
        assert [value for _, value in oap] == [
            float(throughput(table, h, sigma_from_transmit_snr(snr, h.responsivity, h.power)))
            for snr, _ in oap]
        assert len(oap) == 3
        assert [r for r in rows[True] if r[1] == "ci"] == [r for r in rows[False] if r[1] == "ci"]
        assert [r for r in rows[True] if r[1] == "oap"] != [r for r in rows[False]
                                                            if r[1] == "oap"]


class TestPhysicalNoiseMode:
    def test_sigma_table_word_dependence(self):
        h = channel()

        def model(transmit):
            return physical_sigma(h.gains, transmit, h.detector_area, h.responsivity,
                                  NoiseConfig())
        quiet = model(np.zeros(4))
        loud = model(np.full(4, 9.0))
        assert np.all(loud > quiet)

    def test_exact_ber_accepts_per_word_sigma(self):
        h = channel()
        table = word_table(h.gains, ci_precoder(h.gains), "ci")
        sig = physical_sigma(h.gains, h.power * table.transmit, h.detector_area,
                             h.responsivity, NoiseConfig())
        per_pd = exact_ber(table, h.responsivity * h.power, sig)
        assert np.all(per_pd >= 0.0) and np.all(per_pd <= 0.5)
