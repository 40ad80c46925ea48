import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from geoflora.losses import AslParams, LabeledScores, asl_grad, asl_loss, bce_loss, samples_f1
from oracles import samples_f1_oracle

BCE_PARAMS = AslParams(0.0, 0.0, 0.0)


def data(y, p):
    return LabeledScores(np.asarray(y, dtype=float), np.asarray(p, dtype=float))


def random_data(rng, n, p_lo=0.02, p_hi=0.98):
    return data(rng.integers(0, 2, n), rng.uniform(p_lo, p_hi, n))


class TestAslLoss:
    def test_positive_closed_form(self):
        assert asl_loss(data([1.0], [0.5]), BCE_PARAMS) == pytest.approx(-math.log(0.5), abs=1e-6)

    def test_clipped_negative_is_zero(self):
        assert asl_loss(data([0.0], [0.2]), AslParams(0.0, 1.0, 0.3)) == 0.0

    def test_negative_closed_form(self):
        expected = 0.85 * -math.log(0.1)
        assert asl_loss(data([0.0], [0.9]), AslParams(0.0, 1.0, 0.05)) == pytest.approx(expected, abs=1e-6)

    def test_clip_boundary_zero_even_with_gamma_zero(self):
        # 0^0 at the clip boundary resolves to a silenced negative
        assert asl_loss(data([0.0], [0.3]), AslParams(0.0, 0.0, 0.3)) == 0.0
        assert asl_loss(data([0.0], [0.3]), AslParams(0.0, 0.0, 0.2)) > 0.0

    def test_reduces_to_bce(self, rng):
        d = random_data(rng, 10_000, 0.001, 0.999)
        assert asl_loss(d, BCE_PARAMS) == pytest.approx(bce_loss(d), abs=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(50):
            d = random_data(rng, 32, 0.001, 0.999)
            params = AslParams(rng.uniform(0, 4), rng.uniform(0, 4), rng.uniform(0, 0.5))
            assert asl_loss(d, params) >= 0.0

    @given(st.floats(0.0, 0.4), st.floats(0.0, 0.5), st.integers(0, 2**32 - 1))
    def test_negative_term_antitone_in_clip(self, m1, dm, seed):
        rng = np.random.default_rng(seed)
        d = random_data(rng, 16)
        g = float(rng.uniform(0, 3))
        lo = asl_loss(d, AslParams(0.0, g, m1))
        hi = asl_loss(d, AslParams(0.0, g, min(m1 + dm, 0.99)))
        assert hi <= lo + 1e-12

    def test_param_validation(self):
        with pytest.raises(ValueError):
            AslParams(-0.1, 0.0, 0.0)
        with pytest.raises(ValueError):
            AslParams(0.0, 0.0, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="equally long"):
            LabeledScores(np.array([1.0, 0.0]), np.array([0.5]))
        with pytest.raises(ValueError, match="binary"):
            LabeledScores(np.array([0.5]), np.array([0.5]))


class TestAslGrad:
    def test_positive_closed_form(self):
        # at gamma = 0, m = 0 the gradient is exactly BCE's, clamp ends included
        p = np.array([-0.5, 0.0, 1e-9, 1e-7, 0.1, 0.5, 0.9, 1.0 - 1e-7, 1.0, 1.5])
        p_hat = np.clip(p, 1e-7, 1.0 - 1e-7)
        n = 2 * p.size
        grad = asl_grad(data([1.0] * p.size + [0.0] * p.size, np.concatenate((p, p))), BCE_PARAMS)
        assert np.array_equal(grad[: p.size], -1.0 / p_hat / n)
        assert np.array_equal(grad[p.size :], 1.0 / (1.0 - p_hat) / n)

    def test_flat_region_below_clip(self):
        grad = asl_grad(data([0.0], [0.1]), AslParams(0.0, 2.0, 0.3))
        assert grad[0] == 0.0

    def test_kink_returns_subgradient_zero_with_warning(self):
        with pytest.warns(RuntimeWarning, match="kink"):
            grad = asl_grad(data([0.0], [0.3]), AslParams(0.0, 0.5, 0.3))
        assert grad[0] == 0.0

    def test_matches_central_finite_differences(self, rng):
        h = 1e-5
        for _ in range(20):
            n = 16
            params = AslParams(float(rng.uniform(0, 4)), float(rng.uniform(0, 4)), float(rng.uniform(0, 0.3)))
            y = rng.integers(0, 2, n).astype(float)
            p = rng.uniform(0.02, 0.98, n)
            p[np.abs(p - params.clip_m) < 1e-3] += 2e-3  # stay off the kink
            analytic = asl_grad(data(y, p), params)
            for i in range(n):
                up, down = p.copy(), p.copy()
                up[i] += h
                down[i] -= h
                fd = (asl_loss(data(y, up), params) - asl_loss(data(y, down), params)) / (2 * h)
                assert abs(analytic[i] - fd) <= 1e-6


class TestBce:
    def test_perfect_prediction_costs_epsilon(self):
        assert bce_loss(data([1.0], [1.0])) == pytest.approx(1e-7, rel=1e-3)

    def test_half_probability(self):
        assert bce_loss(data([1.0], [0.5])) == pytest.approx(-math.log(0.5), abs=1e-12)


class TestSamplesF1:
    def test_hand_example(self):
        assert samples_f1({1: {1, 2, 3}}, {1: {2, 3, 4}}) == pytest.approx(2 / 3, abs=1e-6)

    def test_exact_match_scores_one(self):
        assert samples_f1({1: {4, 5}, 2: {9}}, {1: {4, 5}, 2: {9}}) == 1.0

    def test_disjoint_scores_zero(self):
        assert samples_f1({1: {1, 2}}, {1: {3, 4}}) == 0.0

    def test_empty_vs_empty_scores_one(self):
        assert samples_f1({1: set()}, {1: set()}) == 1.0

    def test_in_unit_interval_and_matches_oracle(self, rng):
        for _ in range(200):
            ids = rng.choice(1000, size=rng.integers(1, 12), replace=False)
            truth = {int(i): set(rng.choice(20, rng.integers(0, 6), replace=False).tolist()) for i in ids}
            pred = {int(i): set(rng.choice(20, rng.integers(0, 6), replace=False).tolist()) for i in ids}
            f1 = samples_f1(truth, pred)
            assert 0.0 <= f1 <= 1.0
            assert f1 == pytest.approx(samples_f1_oracle(truth, pred), abs=1e-15)

    def test_permutation_invariant(self, rng):
        truth = {i: {int(x) for x in rng.choice(10, 3, replace=False)} for i in range(1, 30)}
        pred = {i: {int(x) for x in rng.choice(10, 3, replace=False)} for i in range(1, 30)}
        shuffled_truth = dict(sorted(truth.items(), key=lambda kv: -kv[0]))
        assert samples_f1(truth, pred) == samples_f1(shuffled_truth, pred)

    def test_id_mismatch_lists_offenders(self):
        with pytest.raises(ValueError, match=r"missing from predictions \[2\]"):
            samples_f1({1: set(), 2: set()}, {1: set(), 3: set()})

    def test_id_mismatch_message_is_bounded(self):
        with pytest.raises(ValueError) as exc:
            samples_f1({i: set() for i in range(100)}, {i: set() for i in range(75, 200)})
        message = str(exc.value)
        assert "missing from predictions [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, ...] (75 in total)" in message
        assert "unexpected [100, 101, 102, 103, 104, 105, 106, 107, 108, 109, ...] (100 in total)" in message

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="no surveys"):
            samples_f1({}, {})
