import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdhash.errors import CapacityError, ConfigError, DomainError
from hdhash.rbm import (
    Rbm,
    RbmGradients,
    cd_gradients,
    cd_gradients_with_stats,
    exact_loglik,
    exact_loglik_grad,
    free_energy,
    gibbs_chain,
    hash_bits,
    penalty_gradients,
    prob_h_given_v,
    prob_v_given_h,
    reg_objective_terms,
    surrogate_hidden,
    update,
)

from oracles import (
    central_difference,
    grad_close,
    rbm_conditional_h_direct,
    rbm_conditional_v_direct,
    rbm_energy_direct,
    rbm_loglik_direct,
    rbm_penalty_direct,
)

SURROGATE_AT_BETA10 = 0.9999999979388463  # (tanh(10) + 1) / 2, frozen from math.tanh


def random_rbm(v_dim, h_dim, gen, scale=0.5, beta=10.0, cd_steps=1):
    return Rbm(gen.normal(size=(h_dim, v_dim)) * scale,
               gen.normal(size=v_dim) * scale,
               gen.normal(size=h_dim) * scale,
               beta=beta, cd_steps=cd_steps)


def random_binary(gen, shape):
    return (gen.random(shape) < 0.5).astype(np.float64)


class TestConditionals:
    def test_zero_parameters_give_half(self):
        m = Rbm(np.zeros((3, 2)), np.zeros(2), np.zeros(3))
        np.testing.assert_allclose(prob_h_given_v(m, [1, 0]), 0.5)
        np.testing.assert_allclose(prob_v_given_h(m, [0, 1, 1]), 0.5)

    def test_log3_gives_three_quarters(self):
        m = Rbm([[np.log(3.0)]], [0.0], [0.0])
        np.testing.assert_allclose(prob_h_given_v(m, [1]), [0.75], atol=1e-15)

    def test_sign_flip_symmetry(self):
        gen = np.random.default_rng(0)
        m = random_rbm(4, 3, gen)
        flipped = Rbm(-m.w, m.vis_bias, -m.hid_bias, beta=m.beta)
        v = random_binary(gen, 4)
        np.testing.assert_allclose(prob_h_given_v(flipped, v),
                                   1.0 - prob_h_given_v(m, v), atol=1e-12)

    def test_one_by_one_matches_enumeration(self):
        m = Rbm([[0.8]], [-0.3], [0.4])
        for h in ([0.0], [1.0]):
            np.testing.assert_allclose(
                prob_v_given_h(m, h),
                rbm_conditional_v_direct(m.w, m.vis_bias, m.hid_bias, h),
                atol=1e-12)

    def test_joint_consistency_random_models(self):
        # conditionals from the energy's sigmoids equal those from the
        # enumerated joint for models up to 12 total units
        for seed, (vd, hd) in enumerate([(3, 2), (4, 3), (6, 5), (2, 6)]):
            gen = np.random.default_rng(40 + seed)
            m = random_rbm(vd, hd, gen, scale=0.8)
            v = random_binary(gen, vd)
            h = random_binary(gen, hd)
            np.testing.assert_allclose(
                prob_h_given_v(m, v),
                rbm_conditional_h_direct(m.w, m.vis_bias, m.hid_bias, v),
                atol=1e-10)
            np.testing.assert_allclose(
                prob_v_given_h(m, h),
                rbm_conditional_v_direct(m.w, m.vis_bias, m.hid_bias, h),
                atol=1e-10)


class TestFreeEnergy:
    def test_matches_hidden_marginalization(self):
        gen = np.random.default_rng(1)
        m = random_rbm(3, 2, gen)
        v = random_binary(gen, 3)
        states = [(a, b) for a in (0.0, 1.0) for b in (0.0, 1.0)]
        direct = -np.log(sum(np.exp(-rbm_energy_direct(m.w, m.vis_bias, m.hid_bias, v, h))
                             for h in states))
        assert free_energy(m, v) == pytest.approx(direct, abs=1e-12)


class TestGibbsChain:
    def test_deterministic_per_seed(self):
        m = Rbm(np.zeros((4, 4)), np.zeros(4), np.zeros(4), cd_steps=2)
        v0 = np.array([1.0, 0.0, 1.0, 0.0])
        a = gibbs_chain(m, v0, 123)[0]
        b = gibbs_chain(m, v0, 123)[0]
        np.testing.assert_array_equal(a, b)
        # different seed is allowed to differ; over many seeds it must
        outs = {tuple(gibbs_chain(m, v0, s)[0]) for s in range(64)}
        assert len(outs) > 1

    def test_strong_biases_saturate(self):
        m = Rbm(np.zeros((3, 5)), np.full(5, 20.0), np.full(3, 20.0))
        ones = 0
        for s in range(1000):
            v = gibbs_chain(m, np.zeros(5), s)[0]
            ones += int(np.all(v == 1.0))
        assert ones >= 990

    @given(st.integers(1, 9), st.integers(1, 7), st.integers(1, 7), st.integers(1, 4),
           st.integers(0, 2 ** 40), st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_matrix_equals_rows_with_xor_seeds(self, n, v_dim, h_dim, steps, master,
                                               model_seed):
        # row i of one batched call is the single-row chain seeded master ^ i
        gen = np.random.default_rng(model_seed)
        m = random_rbm(v_dim, h_dim, gen, scale=1.5, cd_steps=steps)
        batch = random_binary(gen, (n, v_dim))
        v, p_start, p_end = gibbs_chain(m, batch, master)
        assert v.shape == batch.shape and p_end.shape == (n, h_dim)
        for i in range(n):
            v_i, p_start_i, p_end_i = gibbs_chain(m, batch[i], master ^ i)
            np.testing.assert_array_equal(v[i], v_i)
            np.testing.assert_allclose(p_start[i], p_start_i, rtol=1e-14, atol=0)
            np.testing.assert_allclose(p_end[i], p_end_i, rtol=1e-14, atol=0)

    def test_negative_seed_rejected(self):
        m = Rbm(np.zeros((2, 2)), np.zeros(2), np.zeros(2))
        with pytest.raises(ConfigError):
            gibbs_chain(m, np.zeros(2), -1)

    @pytest.mark.parametrize("seed", [np.random.default_rng(0), 1.5, None],
                             ids=["generator", "float", "none"])
    def test_non_int_seed_rejected(self, seed):
        m = Rbm(np.zeros((2, 2)), np.zeros(2), np.zeros(2))
        with pytest.raises(ConfigError):
            gibbs_chain(m, np.zeros(2), seed)


class TestSurrogate:
    def test_midpoint(self):
        m = Rbm(np.zeros((2, 3)), np.zeros(3), np.zeros(2), beta=10.0)
        np.testing.assert_allclose(surrogate_hidden(m, [1, 0, 1]), 0.5)

    def test_beta10_at_one(self):
        m = Rbm([[1.0]], [0.0], [0.0], beta=10.0)
        np.testing.assert_allclose(surrogate_hidden(m, [1]), [SURROGATE_AT_BETA10],
                                   rtol=0, atol=1e-15)

    def test_sharpness_approaches_step(self):
        pre = 0.05
        vals = []
        for beta in (1.0, 10.0, 100.0):
            m = Rbm([[pre]], [0.0], [0.0], beta=beta)
            vals.append(surrogate_hidden(m, [1])[0])
        assert vals[0] < vals[1] < vals[2] < 1.0
        neg = []
        for beta in (1.0, 10.0, 100.0):
            m = Rbm([[-pre]], [0.0], [0.0], beta=beta)
            neg.append(surrogate_hidden(m, [1])[0])
        assert neg[0] > neg[1] > neg[2] > 0.0


class TestRegObjective:
    def test_zero_weights(self):
        gen = np.random.default_rng(3)
        m = random_rbm(4, 3, gen)
        assert reg_objective_terms(m, random_binary(gen, (5, 4)), 0.0, 0.0) == 0.0

    def test_constant_half_outputs(self):
        v_dim, h_dim, n, lam = 4, 3, 6, 0.8
        m = Rbm(np.zeros((h_dim, v_dim)), np.zeros(v_dim), np.zeros(h_dim))
        batch = random_binary(np.random.default_rng(4), (n, v_dim))
        expected_balance = 0.5 * lam * h_dim * (0.5 * n) ** 2
        assert reg_objective_terms(m, batch, lam, 0.0) == pytest.approx(expected_balance)

    def test_matches_direct_summation(self):
        gen = np.random.default_rng(5)
        m = random_rbm(4, 3, gen, beta=4.0)
        batch = random_binary(gen, (5, 4))
        for mode in ("batch", "per_sample"):
            expected = rbm_penalty_direct(m.w, m.vis_bias, m.hid_bias, m.beta,
                                          batch, 0.3, 0.7, mode)
            assert reg_objective_terms(m, batch, 0.3, 0.7, mode) == pytest.approx(
                expected, abs=1e-10)

    def test_negative_weights_rejected(self):
        m = Rbm(np.zeros((1, 1)), np.zeros(1), np.zeros(1))
        with pytest.raises(ConfigError):
            reg_objective_terms(m, [[1.0]], -1.0, 0.0)


class TestPenaltyGradients:
    @pytest.mark.parametrize("mode", ["batch", "per_sample"])
    def test_matches_finite_differences(self, mode):
        for seed in range(5):
            gen = np.random.default_rng(200 + seed)
            m = random_rbm(4, 3, gen, beta=float(gen.uniform(1, 8)))
            batch = random_binary(gen, (3, 4))
            lam, mu = float(gen.choice([0.0, 0.1, 1.0])), float(gen.choice([0.1, 1.0]))
            g = penalty_gradients(m, batch, lam, mu, mode)

            def f(params):
                return reg_objective_terms(
                    Rbm(params[0], params[1], params[2], beta=m.beta),
                    batch, lam, mu, mode)

            num = central_difference(f, [m.w, m.vis_bias, m.hid_bias])
            assert grad_close(g.d_w, num[0])
            assert grad_close(g.d_vis_bias, num[1])
            assert grad_close(g.d_hid_bias, num[2])

    def test_no_visible_bias_gradient(self):
        gen = np.random.default_rng(6)
        m = random_rbm(3, 2, gen)
        g = penalty_gradients(m, random_binary(gen, (4, 3)), 1.0, 1.0)
        np.testing.assert_array_equal(g.d_vis_bias, 0.0)


class TestCdGradients:
    def test_zero_steps_zero_penalty_cancels(self):
        # With no penalty, the gradient is exactly the chain's CD statistics.
        gen = np.random.default_rng(7)
        m = random_rbm(4, 3, gen, cd_steps=2)
        batch = random_binary(gen, (5, 4))
        g = cd_gradients(m, batch, 0.0, 0.0, rng=0)
        v_end, p_start, p_end = gibbs_chain(m, batch, 0)
        np.testing.assert_array_equal(g.d_w, p_end.T @ v_end - p_start.T @ batch)
        np.testing.assert_array_equal(g.d_vis_bias, (v_end - batch).sum(axis=0))
        np.testing.assert_array_equal(g.d_hid_bias, (p_end - p_start).sum(axis=0))

    def test_deterministic_per_seed(self):
        gen = np.random.default_rng(8)
        m = random_rbm(5, 3, gen)
        batch = random_binary(gen, (4, 5))
        a = cd_gradients(m, batch, 0.1, 0.1, rng=99)
        b = cd_gradients(m, batch, 0.1, 0.1, rng=99)
        np.testing.assert_array_equal(a.d_w, b.d_w)
        np.testing.assert_array_equal(a.d_vis_bias, b.d_vis_bias)
        np.testing.assert_array_equal(a.d_hid_bias, b.d_hid_bias)

    def test_mean_cd_direction_tracks_exact_gradient(self):
        # the CD-1 estimate of the log-likelihood gradient (the negation of
        # the objective gradient, which descends -lnL) aligns with the exact
        # enumerated gradient
        gen = np.random.default_rng(9)
        m = random_rbm(4, 3, gen, cd_steps=1)
        batch = np.array([[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 1.0, 1.0]])
        acc = None
        runs = 2000
        for s in range(runs):
            g = cd_gradients(m, batch, 0.0, 0.0, rng=s)
            vec = np.concatenate([g.d_w.ravel(), g.d_vis_bias, g.d_hid_bias])
            acc = vec if acc is None else acc + vec
        mean_cd_loglik_grad = -acc / runs
        ge = exact_loglik_grad(m, batch)
        exact = np.concatenate([ge.d_w.ravel(), ge.d_vis_bias, ge.d_hid_bias])
        cos = float(mean_cd_loglik_grad @ exact
                    / (np.linalg.norm(mean_cd_loglik_grad) * np.linalg.norm(exact)))
        assert cos > 0.5

    def test_stats_carry_endpoints(self):
        gen = np.random.default_rng(10)
        m = random_rbm(3, 2, gen)
        batch = random_binary(gen, (4, 3))
        _, v_end = cd_gradients_with_stats(m, batch, 0.0, 0.0, rng=1)
        assert v_end.shape == batch.shape
        assert np.all((v_end == 0) | (v_end == 1))


class TestExactLoglik:
    def test_uniform_model_gradient(self):
        n, v_dim, h_dim = 3, 4, 2
        m = Rbm(np.zeros((h_dim, v_dim)), np.zeros(v_dim), np.zeros(h_dim))
        g = exact_loglik_grad(m, np.zeros((n, v_dim)))
        # data says always 0, the uniform model expects 0.5
        np.testing.assert_allclose(g.d_vis_bias, n * (0.0 - 0.5))

    def test_matches_direct_enumeration(self):
        gen = np.random.default_rng(11)
        m = random_rbm(4, 3, gen, scale=0.7)
        batch = random_binary(gen, (3, 4))
        expected = rbm_loglik_direct(m.w, m.vis_bias, m.hid_bias, batch)
        assert exact_loglik(m, batch) == pytest.approx(expected, abs=1e-10)

    def test_gradient_matches_finite_differences(self):
        gen = np.random.default_rng(12)
        m = random_rbm(4, 3, gen)
        batch = random_binary(gen, (3, 4))
        g = exact_loglik_grad(m, batch)

        def f(params):
            return exact_loglik(Rbm(params[0], params[1], params[2]), batch)

        num = central_difference(f, [m.w, m.vis_bias, m.hid_bias])
        np.testing.assert_allclose(g.d_w, num[0], atol=1e-6)
        np.testing.assert_allclose(g.d_vis_bias, num[1], atol=1e-6)
        np.testing.assert_allclose(g.d_hid_bias, num[2], atol=1e-6)

    def test_capacity_limit(self):
        m = Rbm(np.zeros((12, 12)), np.zeros(12), np.zeros(12))
        with pytest.raises(CapacityError):
            exact_loglik_grad(m, np.zeros((1, 12)))
        with pytest.raises(CapacityError):
            exact_loglik(m, np.zeros((1, 12)))


class TestUpdate:
    def test_zero_gradients(self):
        gen = np.random.default_rng(13)
        m = random_rbm(3, 2, gen)
        zero = RbmGradients(np.zeros((2, 3)), np.zeros(3), np.zeros(2))
        out = update(m, zero, 0.5)
        np.testing.assert_array_equal(out.w, m.w)

    def test_arithmetic(self):
        m = Rbm(np.zeros((1, 1)), [1.0], [0.0])
        g = RbmGradients(np.zeros((1, 1)), np.array([2.0]), np.zeros(1))
        out = update(m, g, 0.25)
        np.testing.assert_allclose(out.vis_bias, [0.5])

    def test_alpha_positive(self):
        m = Rbm(np.zeros((1, 1)), np.zeros(1), np.zeros(1))
        g = RbmGradients(np.zeros((1, 1)), np.zeros(1), np.zeros(1))
        with pytest.raises(ConfigError):
            update(m, g, 0.0)

    def test_preserves_beta_and_steps(self):
        m = Rbm(np.zeros((1, 1)), np.zeros(1), np.zeros(1), beta=7.0, cd_steps=3)
        g = RbmGradients(np.ones((1, 1)), np.ones(1), np.ones(1))
        out = update(m, g, 0.1)
        assert out.beta == 7.0 and out.cd_steps == 3


class TestHash:
    def test_zero_parameters_all_ones(self):
        m = Rbm(np.zeros((4, 3)), np.zeros(3), np.zeros(4))
        np.testing.assert_array_equal(hash_bits(m, [1, 0, 1]), [1, 1, 1, 1])

    def test_bias_signs(self):
        m = Rbm(np.zeros((2, 3)), np.zeros(3), [-5.0, 5.0])
        np.testing.assert_array_equal(hash_bits(m, [1, 1, 0]), [0, 1])

    def test_positive_scale_invariance(self):
        gen = np.random.default_rng(14)
        m = random_rbm(5, 4, gen)
        scaled = Rbm(3.7 * m.w, m.vis_bias, 3.7 * m.hid_bias, beta=m.beta)
        for _ in range(10):
            v = random_binary(gen, 5)
            np.testing.assert_array_equal(hash_bits(m, v), hash_bits(scaled, v))

    def test_non_binary_rejected(self):
        m = Rbm(np.zeros((2, 2)), np.zeros(2), np.zeros(2))
        with pytest.raises(DomainError):
            hash_bits(m, [0.5, 0.0])

    def test_batch_matches_single(self):
        gen = np.random.default_rng(15)
        m = random_rbm(4, 3, gen)
        batch = random_binary(gen, (6, 4))
        bits = hash_bits(m, batch)
        assert bits.dtype == np.uint8 and bits.shape == (6, 3)
        for i in range(6):
            np.testing.assert_array_equal(bits[i], hash_bits(m, batch[i]))


class TestLearningSignal:
    def test_cd1_raises_exact_loglik_6v4h(self):
        gen = np.random.default_rng(16)
        m = Rbm(gen.random((4, 6)), gen.random(6), gen.random(4), cd_steps=1)
        patterns = np.array([[1.0, 0.0, 1.0, 0.0, 1.0, 0.0],
                             [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]])
        before = exact_loglik(m, patterns) / 2
        cur = m
        for step in range(500):
            g = cd_gradients(cur, patterns, 0.0, 0.0, rng=step)
            cur = update(cur, g, 0.05)
        after = exact_loglik(cur, patterns) / 2
        assert after > before
