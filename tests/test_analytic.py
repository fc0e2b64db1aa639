"""Closed-form error-rate and throughput tests.

Monte Carlo cross-checks of the closed forms live in the acceptance suite;
here the oracles are independent formula reductions and quadrature.
"""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import erfc

from vlcmimo import analytic
from vlcmimo.analytic import (PhysicalNoise, _word_rates, ber_ci_outdated,
                              ber_ci_perfect, ber_oap_outdated, ber_oap_perfect,
                              exact_ber, outdated_bound, q_function, sigma_table,
                              throughput)
from vlcmimo.channel import ChannelMatrix, build_channel_matrix, square_grid_layout
from vlcmimo.csi import perturb_channel
from vlcmimo.noise import NoiseParams, sigma_from_transmit_snr
from vlcmimo.precoding import ci_precoder, combination_matrix, word_table


def channel(n=4, spacing=0.5, fov=60.0):
    return build_channel_matrix(square_grid_layout(n, spacing, fov=fov))


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
        assert res.average == pytest.approx(expected, rel=1e-12)

    def test_saturates_at_half(self):
        h = channel()
        res = ber_ci_perfect(h, 1e12, h.responsivity, h.power)
        assert res.average == pytest.approx(0.5, rel=1e-6)

    def test_in_unit_interval_and_decreasing(self):
        h = channel()
        prev = 0.5
        for snr in (60.0, 70.0, 80.0, 90.0, 100.0):
            s = sigma_from_transmit_snr(snr, h.responsivity, h.power)
            avg = ber_ci_perfect(h, s, h.responsivity, h.power).average
            assert 0.0 <= avg <= 0.5
            assert avg < prev
            prev = avg


class TestBerOapPerfect:
    def test_single_link_equals_inversion(self):
        h = ChannelMatrix(gains=np.array([[1.0]]), power=1.0)
        for snr in (5.0, 10.0, 15.0):
            s = sigma_from_transmit_snr(snr, 1.0, 1.0)
            a = ber_ci_perfect(h, s, 1.0, 1.0).average
            b = ber_oap_perfect(h, s, 1.0, 1.0).average
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
        assert np.allclose(res.per_pd, expected, rtol=1e-12)

    def test_never_worse_than_inversion(self):
        h = channel()
        for snr in (70.0, 80.0, 90.0, 100.0):
            s = sigma_from_transmit_snr(snr, h.responsivity, h.power)
            ci = ber_ci_perfect(h, s, h.responsivity, h.power).average
            oap = ber_oap_perfect(h, s, h.responsivity, h.power).average
            assert oap <= ci + 1e-15

    def test_renormalized_variant_never_beats_literal(self):
        # power-fair scaling shrinks every per-word margin by the group factor
        h = channel()
        for snr in (75.0, 85.0, 95.0):
            s = sigma_from_transmit_snr(snr, h.responsivity, h.power)
            fair = ber_oap_perfect(h, s, h.responsivity, h.power, renormalize=True)
            literal = ber_oap_perfect(h, s, h.responsivity, h.power)
            assert np.all(fair.per_pd >= literal.per_pd - 1e-15)
            assert np.all(fair.per_pd <= 0.5 + 1e-12)


class TestBerOutdatedBounds:
    def setup_method(self):
        self.h = channel(spacing=1.0)
        self.bound = 0.02 * self.h.gains[0, 0]
        self.h_hat = perturb_channel(self.h, self.bound, model="uniform", seed=3).h_hat

    def test_fresh_estimate_dominates_perfect(self):
        for snr in (75.0, 85.0, 95.0):
            s = sigma_from_transmit_snr(snr, self.h.responsivity, self.h.power)
            exact = ber_ci_perfect(self.h, s, self.h.responsivity, self.h.power)
            bound = ber_ci_outdated(self.h, self.h.gains, s,
                                    self.h.responsivity, self.h.power)
            assert bound.average >= exact.average
            assert bound.is_bound

    def test_oap_fresh_estimate_dominates_perfect(self):
        for snr in (75.0, 85.0, 95.0):
            s = sigma_from_transmit_snr(snr, self.h.responsivity, self.h.power)
            exact = ber_oap_perfect(self.h, s, self.h.responsivity, self.h.power)
            bound = ber_oap_outdated(self.h, self.h.gains, s,
                                     self.h.responsivity, self.h.power)
            assert bound.average >= exact.average

    def test_bound_monotone_in_error_under_worst_case(self):
        s = sigma_from_transmit_snr(85.0, self.h.responsivity, self.h.power)
        values = []
        for scale in (0.0, 0.01, 0.03, 0.06, 0.1):
            b = scale * self.h.gains[0, 0]
            est = perturb_channel(self.h, b, model="worst_case", seed=0)
            res = ber_ci_outdated(self.h, est.h_hat, s,
                                  self.h.responsivity, self.h.power)
            values.append(res.average)
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_bounds_clamped_to_unit_interval(self):
        s = sigma_from_transmit_snr(40.0, self.h.responsivity, self.h.power)
        for fn in (ber_ci_outdated, ber_oap_outdated):
            res = fn(self.h, self.h_hat, s, self.h.responsivity, self.h.power)
            assert np.all(res.per_pd >= 0.0) and np.all(res.per_pd <= 1.0)


def stale_stack(n: int, scheme: str, snrs) -> tuple:
    """A stale-precoder table of ``n`` links, its gp and a swept sigma stack at ``snrs``."""
    h = channel(n, spacing=1.0 if n <= 4 else 0.5)
    h_hat = perturb_channel(h, 0.02 * h.gains[0, 0], model="uniform", seed=3).h_hat
    table = word_table(h.gains, ci_precoder(h_hat), scheme)
    sig = np.stack([sigma_table(sigma_from_transmit_snr(snr, h.responsivity, h.power),
                                table, h.power) for snr in snrs])[:, None, :]
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


class TestThroughput:
    def test_vanishes_with_noise(self):
        h = channel()
        pre = ci_precoder(h.gains)
        (th,) = throughput("ci", h, pre, [1e15], h.responsivity, h.power)
        assert th == pytest.approx(0.0, abs=1e-9)

    def test_all_ones_word_constructive_dominance(self):
        h = channel()
        pre = ci_precoder(h.gains)
        s = sigma_from_transmit_snr(90.0, h.responsivity, h.power)
        ci, oap = (_word_rates(word_table(h, pre, scheme), s, h.responsivity, h.power)
                   for scheme in ("ci", "oap"))
        assert combination_matrix(4)[-1].all()     # the all-ones word
        assert oap[-1] >= ci[-1]

    def test_zero_word_carries_no_rate(self):
        h = channel()
        pre = ci_precoder(h.gains)
        for scheme in ("ci", "oap"):
            rates = _word_rates(word_table(h, pre, scheme), 1e-3, h.responsivity, h.power)
            assert not combination_matrix(4)[0].any()  # the all-zero word
            assert rates[0] == 0.0

    def test_zero_power_gives_zero_rate(self):
        h = channel()
        pre = ci_precoder(h.gains)
        assert throughput("ci", h, pre, [1e-3], 1.0, 0.0).tolist() == [0.0]
        assert throughput("oap", h, pre, [1e-3], 1.0, 0.0).tolist() == [0.0]

    @pytest.mark.parametrize("n", [8, 9])
    @pytest.mark.parametrize("scheme", ["ci", "oap"])
    def test_sigma_grid_equals_one_sigma_calls(self, n, scheme):
        """One call over a sigma grid gives each one-sigma call bit for bit."""
        h = channel(n=n)
        pre = ci_precoder(h.gains)
        sigmas = [sigma_from_transmit_snr(snr, h.responsivity, h.power)
                  for snr in (70.0, 85.0, 100.0, 115.0, 130.0)]
        sigmas.append(np.linspace(0.5, 1.5, n) * sigmas[2])     # one per detector
        grid = throughput(scheme, h, pre, sigmas, h.responsivity, h.power)
        singles = [throughput(scheme, h, pre, [s], h.responsivity, h.power)[0]
                   for s in sigmas]
        assert grid.tolist() == singles
        assert len(set(singles)) == len(singles)


class TestPhysicalNoiseMode:
    def test_sigma_table_word_dependence(self):
        h = channel()
        model = PhysicalNoise(h.gains, h.detector_area, h.responsivity, NoiseParams())
        quiet = model(np.zeros(4))
        loud = model(np.full(4, 9.0))
        assert np.all(loud > quiet)

    def test_ber_accepts_callable_sigma(self):
        h = channel()
        model = PhysicalNoise(h.gains, h.detector_area, h.responsivity, NoiseParams())
        res = ber_ci_perfect(h, model, h.responsivity, h.power)
        assert np.all(res.per_pd >= 0.0) and np.all(res.per_pd <= 0.5)
