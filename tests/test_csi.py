"""Mobility error bound and stale-channel perturbation tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlcmimo.channel import (Luminaire, PhotoDetector, build_channel_matrix,
                             distance_gain_prefactor, square_grid_layout)
from vlcmimo.csi import error_bound, perturb_channel
from vlcmimo.precoding import ci_precoder, word_table

import oracle

Z = 2.25
M = Luminaire(15.0).lambertian_order
VARPI = distance_gain_prefactor(1e-4, 1.0, PhotoDetector(fov=60.0).concentrator_gain, M,
                                plane_separation=Z)


def channel_4x4():
    return build_channel_matrix(square_grid_layout(4, 1.0, detector=PhotoDetector(fov=60.0)))


def residuals(h, h_hat, scheme="ci"):
    """Word table of a precoder derived from ``h_hat`` and its leakage.

    The leakage ``receive - slicer * words``, with the receive means ``H t``
    formed here from the table's transmit vectors, is what reaches each
    detector beyond its slicer amplitude: the other links' symbols under
    inversion, the links outside its equal-symbol group under the adaptive
    scheme.
    """
    table = word_table(h.gains, ci_precoder(h_hat), scheme)
    return table, table.transmit @ h.gains.T - table.slicer * table.words


class TestErrorBound:
    def test_zero_displacement(self):
        assert error_bound((0.3, 0.1), (0.3, 0.1), Z, VARPI, M) == 0.0

    def test_tangential_move_is_free(self):
        r = 0.5
        assert error_bound((r, 0.0), (0.0, r), Z, VARPI, M) == pytest.approx(0.0, abs=1e-20)

    def test_radial_move_monotone(self):
        bounds = [error_bound((0.0, 0.0), (dx, 0.0), Z, VARPI, M)
                  for dx in (0.05, 0.1, 0.2, 0.4)]
        assert all(b > 0 for b in bounds)
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_matches_direct_evaluation(self):
        d1 = math.sqrt(0.1**2 + Z**2)
        d2 = math.sqrt(0.3**2 + 0.1**2 + Z**2)
        expected = VARPI * abs(d2 ** -(M + 3) - d1 ** -(M + 3))
        assert error_bound((0.1, 0.0), (0.3, 0.1), Z, VARPI, M) == pytest.approx(
            expected, rel=1e-13)

    def test_plane_separation_must_be_positive(self):
        with pytest.raises(ValueError, match="plane separation"):
            error_bound((0.0, 0.0), (0.1, 0.0), 0.0, VARPI, M)

    @given(angle=st.floats(0.0, 2 * math.pi), r1=st.floats(0.05, 0.6),
           r2=st.floats(0.05, 0.6))
    @settings(max_examples=50, deadline=None)
    def test_rotation_invariance(self, angle, r1, r2):
        c, s = math.cos(angle), math.sin(angle)
        assert error_bound((r1 * c, r1 * s), (r2 * c, r2 * s), Z, VARPI, M) == pytest.approx(
            error_bound((r1, 0.0), (r2, 0.0), Z, VARPI, M), rel=1e-9, abs=1e-18)


class TestPerturbChannel:
    def test_zero_bound_is_exact(self):
        h = channel_4x4()
        est = perturb_channel(h, 0.0, model="uniform", seed=1)
        assert np.array_equal(est, h.gains)

    def test_uniform_support(self):
        h = channel_4x4()
        bound = 0.2 * h.gains[0, 0]
        worst = 0.0
        for seed in range(200):
            est = perturb_channel(h, bound, model="uniform", seed=seed)
            dev = np.abs(est - h.gains)
            assert dev[1:].max() == 0.0          # only the mobile row moves
            worst = max(worst, dev[0].max())
        assert worst <= bound
        assert worst > 0.5 * bound               # support actually explored

    def test_never_negative(self):
        h = channel_4x4()
        bound = 10.0 * h.gains.max()
        for seed in range(50):
            est = perturb_channel(h, bound, model="uniform", seed=seed)
            assert np.all(est >= 0.0)

    def test_worst_case_pessimistic_signs(self):
        # overestimated desired path, underestimated interference paths
        h = channel_4x4()
        bound = 0.1 * h.gains[0, 0]
        est = perturb_channel(h, bound, model="worst_case", seed=0)
        assert est[0, 0] == pytest.approx(h.gains[0, 0] + bound, rel=1e-12)
        for j in range(1, 4):
            assert est[0, j] == pytest.approx(
                max(h.gains[0, j] - bound, 0.0), rel=1e-12)

    def test_deterministic_given_seed(self):
        h = channel_4x4()
        a = perturb_channel(h, 1e-5, model="uniform", seed=42)
        b = perturb_channel(h, 1e-5, model="uniform", seed=42)
        assert np.array_equal(a, b)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            perturb_channel(channel_4x4(), 1e-6, model="gaussian")

    @pytest.mark.parametrize("model", ["uniform", "worst_case"])
    def test_only_the_given_row_moves(self, model):
        h = channel_4x4()
        bound = 0.1 * h.gains[2, 2]
        est = perturb_channel(h, bound, model=model, seed=5, row=2)
        dev = np.abs(est - h.gains)
        assert np.all(np.delete(dev, 2, axis=0) == 0.0)
        assert 0.0 < dev[2].max() <= bound * (1.0 + 1e-12)     # up to rounding
        if model == "worst_case":       # pessimistic: the desired gain is overestimated
            assert est[2, 2] == pytest.approx(h.gains[2, 2] + bound, rel=1e-12)

    def test_invalid_arguments_rejected(self):
        h = channel_4x4()
        with pytest.raises(IndexError):
            perturb_channel(h, 1e-6, row=4)
        with pytest.raises(ValueError, match="nonnegative"):
            perturb_channel(h, -1e-6)
        with pytest.raises(ValueError, match="sign"):
            perturb_channel(h, 1e-6, model="worst_case", worst_case_sign="up")


class TestResidualMatrix:
    def test_fresh_estimate_gives_scaled_identity(self):
        h = channel_4x4()
        table, leakage = residuals(h, h.gains)
        beta = np.array([oracle.beta(h.gains, x) for x in table.words])[:, None]
        assert np.allclose(table.slicer, beta, rtol=0.0, atol=1e-9 * beta.min())
        assert np.allclose(leakage, 0.0, atol=1e-9 * beta.min())

    def test_fresh_estimate_masked_gives_scaled_mask(self):
        h = channel_4x4()
        table, leakage = residuals(h, h.gains, scheme="oap")
        betas = [oracle.beta(h.gains, x) for x in table.words]
        for word, beta, slicer, leak in zip(table.words, betas, table.slicer, leakage):
            mask = (word[:, None] == word[None, :]).astype(float)   # explicit product oracle
            assert np.allclose(slicer, beta * mask.sum(axis=1), rtol=0.0, atol=1e-9 * beta)
            # Fresh gains: each detector receives its slicer amplitude times its bit.
            assert np.allclose(leak, 0.0, rtol=0.0, atol=1e-9 * beta)

    def test_leakage_grows_with_bound(self):
        h = channel_4x4()
        leakage = []
        for scale in (0.001, 0.01, 0.05, 0.1):
            bound = scale * h.gains[0, 0]
            est = perturb_channel(h, bound, model="worst_case", seed=0)
            _, leak = residuals(h, est)
            leakage.append(np.abs(leak).max())
        assert all(a < b for a, b in zip(leakage, leakage[1:]))

    def test_worst_case_diagonal_shift_direction(self):
        # lowering the desired gain estimate raises the realized diagonal residual
        h = channel_4x4()
        bound = 0.05 * h.gains[0, 0]
        est = perturb_channel(h, bound, model="worst_case", seed=0,
                              worst_case_sign="minus")
        stale, _ = residuals(h, est)
        fresh, _ = residuals(h, h.gains)
        s = 0b1000                      # the word [1, 0, 0, 0]
        assert np.array_equal(stale.words[s], [1, 0, 0, 0])
        assert stale.slicer[s, 0] > fresh.slicer[s, 0]

