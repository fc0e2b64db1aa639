"""Channel-inversion precoder, scaling factor and adaptive word-table tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vlcmimo.channel import build_channel_matrix, square_grid_layout
from vlcmimo.precoding import (PINV_TOLERANCE, SingularChannelError, ci_precoder,
                               combination_matrix, word_table)

import oracle


def random_channel(rng, n):
    """Well-conditioned nonnegative random gain matrix."""
    return np.eye(n) + 0.25 * rng.uniform(0.0, 1.0, size=(n, n))


class TestCiPrecoder:
    def test_identity(self):
        pre = ci_precoder(np.eye(3))
        assert np.allclose(pre.w, np.eye(3), atol=1e-14)
        assert pre.condition_number == pytest.approx(1.0, rel=1e-12)

    def test_diagonal(self):
        d = np.diag([2.0, 4.0, 0.5])
        pre = ci_precoder(d)
        assert np.allclose(pre.w, np.diag([0.5, 0.25, 2.0]), atol=1e-14)

    def test_random_inverse_residual(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            h = random_channel(rng, 4)
            pre = ci_precoder(h)
            res = h @ pre.w - np.eye(4)
            assert np.abs(res).max() < 1e-9

    def test_matches_generic_linear_solve(self):
        rng = np.random.default_rng(5)
        h = random_channel(rng, 4)
        pre = ci_precoder(h)
        # independent oracle: right inverse via the normal equations
        oracle = h.T @ np.linalg.solve(h @ h.T, np.eye(4))
        assert np.allclose(pre.w, oracle, rtol=1e-9, atol=1e-12)

    def test_rank_deficient_raises_with_context(self):
        h = np.array([[1.0, 2.0], [2.0, 4.0]])  # rank one
        with pytest.raises(SingularChannelError, match="2x2"):
            ci_precoder(h)

    def test_tolerance_boundary_raises_at_equality(self):
        """A singular value at exactly ``PINV_TOLERANCE`` times the largest is rank deficient."""
        with pytest.raises(SingularChannelError):
            ci_precoder(np.diag([1.0, PINV_TOLERANCE]))
        ci_precoder(np.diag([1.0, np.nextafter(PINV_TOLERANCE, 1.0)]))

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_stack_names_its_rank_deficient_element(self, bad):
        """A stack raises when any one element is at or below the tolerance, and names it."""
        stack = np.stack([np.eye(2)] * 3)
        stack[bad] = np.diag([1.0, PINV_TOLERANCE])
        with pytest.raises(SingularChannelError, match=f"2x2 channel {bad} of the stack"):
            ci_precoder(stack)
        stack[bad] = np.diag([1.0, np.nextafter(PINV_TOLERANCE, 1.0)])
        assert ci_precoder(stack).w.shape == (3, 2, 2)

    def test_wide_matrix_right_inverse(self):
        rng = np.random.default_rng(7)
        h = rng.uniform(0.5, 1.5, size=(3, 5))
        pre = ci_precoder(h)
        assert np.allclose(h @ pre.w, np.eye(3), atol=1e-10)


def betas(h) -> np.ndarray:
    """The transmit scaling of every word, in ``combination_matrix`` order."""
    return np.array([oracle.beta(h, x) for x in combination_matrix(len(h))])


class TestScalingBeta:
    def test_identity_channel_counts_ones(self):
        k = combination_matrix(4)[1:].sum(axis=1)
        np.testing.assert_allclose(betas(np.eye(4))[1:], 1.0 / np.sqrt(k), rtol=1e-12)

    def test_unit_transmit_norm_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            h = random_channel(rng, 4)
            for transmit in word_table(h, ci_precoder(h), "ci").transmit[1:]:
                assert np.linalg.norm(transmit) == pytest.approx(1.0, abs=1e-10)

    def test_all_zero_word_degenerates_to_one(self):
        assert betas(np.eye(4))[0] == 1.0

    def test_renormalized_masked_norm(self):
        rng = np.random.default_rng(9)
        h = random_channel(rng, 4)
        table = word_table(h, ci_precoder(h), "oap", renormalize=True)
        norms = np.linalg.norm(table.transmit[1:], axis=1)
        assert np.allclose(norms, 1.0, rtol=0.0, atol=1e-10)


class TestOapPrecoder:
    def test_noiseless_receive_is_masked_word(self):
        # y = beta * (H W T) x = beta * T x when the inversion is exact
        rng = np.random.default_rng(4)
        h = random_channel(rng, 4)
        table = word_table(h, ci_precoder(h), "oap")
        for word, beta, y in zip(table.words, betas(h), table.transmit @ h.T):
            mask = (word[:, None] == word[None, :]).astype(float)
            expected = beta * (mask @ word)  # explicit multiply
            assert np.allclose(y, expected, atol=1e-9)


class TestAmplitudeDominance:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_constructive_amplitude_at_least_inverted(self, n):
        layout = square_grid_layout(n, 0.5, fov=60.0)
        h = build_channel_matrix(layout).gains
        pre = ci_precoder(h)
        ci = word_table(h, pre, "ci")
        oap = word_table(h, pre, "oap")
        for word, beta, y_oap, y_ci in zip(oap.words, betas(h), oap.transmit @ h.T,
                                           ci.transmit @ h.T):
            k = int(word.sum())
            for i in range(n):
                if word[i] == 1:
                    assert y_oap[i] == pytest.approx(beta * k, rel=1e-9)
                    assert y_oap[i] >= y_ci[i] - 1e-12
                else:
                    assert abs(y_oap[i]) < 1e-9 * max(beta, 1e-300)

    @given(st.integers(0, 255))
    @settings(max_examples=40, deadline=None)
    def test_beta_symmetry_under_channel_symmetry(self, widx):
        # circulant-symmetric channel: words related by the symmetry share beta
        h = np.array([[1.0, 0.3, 0.1, 0.3],
                      [0.3, 1.0, 0.3, 0.1],
                      [0.1, 0.3, 1.0, 0.3],
                      [0.3, 0.1, 0.3, 1.0]])
        word = np.array([(widx >> j) & 1 for j in range(4)])
        rolled = np.roll(word, 1)
        # row s of the table is the word whose bits, most significant first, spell s
        index = [int("".join(map(str, w)), 2) for w in (word, rolled)]
        beta = betas(h)
        assert beta[index[0]] == pytest.approx(beta[index[1]], rel=1e-10)
