import numpy as np
import pytest

from hdhash.errors import DomainError, ShapeError
from hdhash.sae import (
    SaeLayer,
    SaeStack,
    binarize_pm,
    encode_stack,
    forward,
    gradients,
    objective,
    sgd_step,
)

from oracles import central_difference, grad_close, sae_objective_direct

TANH_HALF = 0.46211715726000974  # tanh(0.5), frozen from math.tanh
TANH_ONE = 0.7615941559557649    # tanh(1.0)


def glorot(q, p, gen):
    s = np.sqrt(6.0 / (p + q))
    return gen.uniform(-s, s, size=(q, p))


def descend(layer, batch, lam, mu, alpha, steps):
    """steps plain gradient-descent updates of one layer on one batch."""
    for _ in range(steps):
        layer = sgd_step(layer, gradients(layer, batch, lam, mu), alpha)
    return layer


def random_layer(p, q, gen, scale=0.4):
    return SaeLayer(gen.normal(size=(q, p)) * scale,
                    gen.normal(size=q) * scale,
                    gen.normal(size=(p, q)) * scale,
                    gen.normal(size=p) * scale)


class TestForward:
    def test_zero_parameters(self):
        layer = SaeLayer(np.zeros((3, 2)), np.zeros(3), np.zeros((2, 3)), np.zeros(2))
        np.testing.assert_array_equal(forward(layer, [0.7, -0.3]), np.zeros(3))

    def test_tanh_value(self):
        layer = SaeLayer([[1.0]], [0.0], [[1.0]], [0.0])
        np.testing.assert_allclose(forward(layer, [0.5]), [TANH_HALF], rtol=0, atol=1e-15)

    def test_shape_error(self):
        layer = SaeLayer(np.zeros((3, 2)), np.zeros(3), np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ShapeError):
            forward(layer, [1.0, 2.0, 3.0])

    def test_batch_matches_rows(self):
        gen = np.random.default_rng(0)
        layer = random_layer(4, 3, gen)
        batch = gen.uniform(-1, 1, size=(5, 4))
        stacked = forward(layer, batch)
        for i in range(5):
            np.testing.assert_allclose(stacked[i], forward(layer, batch[i]),
                                       rtol=0, atol=1e-14)


class TestReconstruct:
    """The reconstruction term of objective (lam = mu = 0): the decoder
    tanh(dec_w @ v + dec_b) against the input."""

    def test_zero_parameters(self):
        layer = SaeLayer(np.zeros((1, 2)), np.zeros(1), np.zeros((2, 1)), np.zeros(2))
        # the zero decoder reconstructs 0, so R = 1/2 ||x||^2
        assert objective(layer, [[0.4, -0.3]], 0.0, 0.0) == pytest.approx(0.125)

    def test_formula(self):
        # encoder output 0.25 decodes to (tanh(2 * 0.25), tanh(1))
        layer = SaeLayer(np.zeros((1, 2)), [np.arctanh(0.25)],
                         [[2.0], [0.0]], [0.0, 1.0])
        expected = 0.5 * (TANH_HALF ** 2 + TANH_ONE ** 2)
        assert objective(layer, np.zeros((1, 2)), 0.0, 0.0) == pytest.approx(
            expected, rel=1e-14)


class TestObjective:
    def test_zero_batch_zero_params(self):
        q = 3
        layer = SaeLayer(np.zeros((q, 2)), np.zeros(q), np.zeros((2, q)), np.zeros(2))
        batch = np.zeros((4, 2))
        mu = 0.8
        # zero outputs: only the decorrelation distance to I remains
        assert objective(layer, batch, 0.0, mu, "per_sample") == pytest.approx(0.5 * mu * 4 * q)
        assert objective(layer, batch, 0.0, mu, "batch") == pytest.approx(0.5 * mu * q)

    def test_symmetric_outputs_kill_balance(self):
        # +c and -c rows cancel in the balance sum
        gen = np.random.default_rng(4)
        layer = SaeLayer(gen.normal(size=(3, 3)), np.zeros(3),
                         gen.normal(size=(3, 3)), np.zeros(3))
        x = gen.uniform(-0.5, 0.5, size=3)
        batch = np.stack([x, -x])  # odd tanh => outputs are +c and -c
        with_balance = objective(layer, batch, 5.0, 0.0, "batch")
        without = objective(layer, batch, 0.0, 0.0, "batch")
        assert with_balance == pytest.approx(without)

    def test_matches_direct_summation(self):
        gen = np.random.default_rng(7)
        layer = random_layer(3, 4, gen)
        batch = gen.uniform(-1, 1, size=(5, 3))
        for mode in ("batch", "per_sample"):
            expected = sae_objective_direct(layer.enc_w, layer.enc_b, layer.dec_w,
                                            layer.dec_b, batch, 0.3, 0.7, mode)
            assert objective(layer, batch, 0.3, 0.7, mode) == pytest.approx(expected, abs=1e-10)

    def test_returned_output_is_forward(self):
        gen = np.random.default_rng(8)
        layer = random_layer(6, 4, gen)
        batch = gen.uniform(-1, 1, size=(9, 6))
        for mode in ("batch", "per_sample"):
            r, v = objective(layer, batch, 0.3, 0.7, mode, return_output=True)
            assert r == objective(layer, batch, 0.3, 0.7, mode)
            assert v.tobytes() == forward(layer, batch).tobytes()


def finite_difference_layer(layer, batch, lam, mu, mode, step=1e-5):
    def f(params):
        return objective(SaeLayer(*params), batch, lam, mu, mode)
    return central_difference(
        f, [layer.enc_w, layer.enc_b, layer.dec_w, layer.dec_b], step)


class TestGradients:
    def test_zero_everything(self):
        layer = SaeLayer(np.zeros((2, 3)), np.zeros(2), np.zeros((3, 2)), np.zeros(3))
        g = gradients(layer, np.zeros((2, 3)), 0.0, 0.0)
        np.testing.assert_array_equal(g.d_enc_w, 0.0)

    @pytest.mark.parametrize("mode", ["batch", "per_sample"])
    def test_matches_finite_differences(self, mode):
        gen = np.random.default_rng(11)
        layer = random_layer(6, 4, gen)
        batch = gen.uniform(-1, 1, size=(3, 6))
        g = gradients(layer, batch, 0.4, 0.9, mode)
        num = finite_difference_layer(layer, batch, 0.4, 0.9, mode)
        for ana, fd in zip((g.d_enc_w, g.d_enc_b, g.d_dec_w, g.d_dec_b), num):
            assert grad_close(ana, fd)

    def test_plain_autoencoder_backprop(self):
        # lam = mu = 0 reduces to reconstruction-only gradients
        gen = np.random.default_rng(13)
        layer = random_layer(5, 3, gen)
        batch = gen.uniform(-1, 1, size=(4, 5))
        g = gradients(layer, batch, 0.0, 0.0)
        num = finite_difference_layer(layer, batch, 0.0, 0.0, "batch")
        for ana, fd in zip((g.d_enc_w, g.d_enc_b, g.d_dec_w, g.d_dec_b), num):
            assert grad_close(ana, fd)


class TestSgdStep:
    def test_zero_gradients_is_identity(self):
        layer = random_layer(3, 2, np.random.default_rng(0))
        g = gradients(layer, np.zeros((1, 3)), 0.0, 0.0)
        zero = type(g)(np.zeros_like(g.d_enc_w), np.zeros_like(g.d_enc_b),
                       np.zeros_like(g.d_dec_w), np.zeros_like(g.d_dec_b))
        out = sgd_step(layer, zero, 0.5)
        np.testing.assert_array_equal(out.enc_w, layer.enc_w)
        np.testing.assert_array_equal(out.dec_b, layer.dec_b)

    def test_arithmetic(self):
        layer = SaeLayer([[0.0]], [1.0], [[0.0]], [0.0])
        g = gradients(layer, [[0.0]], 0.0, 0.0)
        g = type(g)(np.zeros((1, 1)), np.array([0.5]), np.zeros((1, 1)), np.zeros(1))
        out = sgd_step(layer, g, 0.1)
        np.testing.assert_allclose(out.enc_b, [0.95])

    def test_descent_direction(self):
        # a small step never raises the objective materially
        for i in range(20):
            gen = np.random.default_rng(100 + i)
            p, q = int(gen.integers(2, 7)), int(gen.integers(2, 7))
            n = int(gen.integers(2, 6))
            layer = random_layer(p, q, gen)
            batch = gen.uniform(-1, 1, size=(n, p))
            lam = float(gen.choice([0.0, 0.1, 1.0]))
            mu = float(gen.choice([0.0, 0.1, 1.0]))
            mode = ("batch", "per_sample")[i % 2]
            before = objective(layer, batch, lam, mu, mode)
            stepped = sgd_step(layer, gradients(layer, batch, lam, mu, mode), 1e-3)
            after = objective(stepped, batch, lam, mu, mode)
            assert after <= before + 1e-9


class TestTrainLayer:
    """A layer trained the way the pipeline does it: gradients, then sgd_step."""

    def test_low_rank_data_reconstruction_improves(self):
        # 8-D observations generated from a 2-D latent plane
        gen = np.random.default_rng(5)
        latent = gen.uniform(-1, 1, size=(40, 2))
        data = np.tanh(latent @ gen.normal(size=(2, 8)))
        init = np.random.default_rng(11)
        layer = SaeLayer(glorot(2, 8, init), np.zeros(2), glorot(8, 2, init), np.zeros(8))
        initial = objective(layer, data, 0.0, 0.0)
        layer = descend(layer, data, 0.0, 0.0, 0.05, 200)
        final = objective(layer, data, 0.0, 0.0)
        assert final < 0.5 * initial


class TestBalancePressure:
    def test_balance_norm_decreases_with_lambda(self):
        batch = np.random.default_rng(3).uniform(-1, 1, size=(12, 6))

        def final_balance(lam):
            gen = np.random.default_rng(9)
            layer = SaeLayer(glorot(4, 6, gen), gen.uniform(-0.1, 0.1, 4),
                             glorot(6, 4, gen), gen.uniform(-0.1, 0.1, 6))
            layer = descend(layer, batch, lam, 0.0, 0.01, 100)
            return np.linalg.norm(forward(layer, batch).sum(axis=0))

        norms = [final_balance(lam) for lam in (0.0, 0.1, 1.0, 10.0)]
        assert all(a > b for a, b in zip(norms, norms[1:]))


class TestEncodeStack:
    def test_zero_stack(self):
        layers = (SaeLayer(np.zeros((3, 4)), np.zeros(3), np.zeros((4, 3)), np.zeros(4)),
                  SaeLayer(np.zeros((2, 3)), np.zeros(2), np.zeros((3, 2)), np.zeros(3)))
        stack = SaeStack(layers)
        np.testing.assert_array_equal(encode_stack(stack, np.ones(4)), np.zeros(2))

    def test_single_layer_is_forward(self):
        gen = np.random.default_rng(2)
        layer = random_layer(4, 3, gen)
        x = gen.uniform(-1, 1, size=4)
        np.testing.assert_array_equal(encode_stack(SaeStack((layer,)), x),
                                      forward(layer, x))

    def test_matches_manual_composition(self):
        gen = np.random.default_rng(3)
        l1, l2 = random_layer(5, 4, gen), random_layer(4, 2, gen)
        x = gen.uniform(-1, 1, size=5)
        np.testing.assert_array_equal(encode_stack(SaeStack((l1, l2)), x),
                                      forward(l2, forward(l1, x)))

    def test_chain_mismatch(self):
        gen = np.random.default_rng(4)
        with pytest.raises(ShapeError):
            SaeStack((random_layer(5, 4, gen), random_layer(3, 2, gen)))

    def test_output_range_open_interval(self):
        gen = np.random.default_rng(6)
        stack = SaeStack((random_layer(6, 5, gen, scale=1.5),
                          random_layer(5, 3, gen, scale=1.5)))
        x = gen.uniform(-1, 1, size=(50, 6))
        out = encode_stack(stack, x)
        assert np.all(np.abs(out) < 1.0)


class TestBinarize:
    def test_threshold_and_tie(self):
        np.testing.assert_array_equal(binarize_pm([0.3, -0.2, 0.0]), [1, 0, 1])

    def test_all_negative(self):
        np.testing.assert_array_equal(binarize_pm([-1.0, -0.5]), [0, 0])

    def test_scale_invariance(self):
        v = np.random.default_rng(0).normal(size=20)
        np.testing.assert_array_equal(binarize_pm(2.0 * v), binarize_pm(v))
        np.testing.assert_array_equal(binarize_pm(0.001 * v), binarize_pm(v))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_is_a_domain_error(self, bad):
        with pytest.raises(DomainError, match="non-finite"):
            binarize_pm([0.5, bad])
