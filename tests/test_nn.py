import numpy as np
import pytest

from aplt import cluster, nn
from aplt.errors import DimensionMismatchError, NonFiniteError
from model_helpers import identity_encoder


def random_model(rng, d=5, h=7, e=4, C=3, feature_norm=True):
    return nn.EncoderModel.init(d, h, e, C, rng, feature_norm=feature_norm)


def zero_grads(m):
    return {name: np.zeros_like(value) for name, value in m.params().items()}


def numeric_gradient(loss_fn, m, step=1e-4):
    """Central finite differences over every parameter of the model."""
    grads = {}
    for name in nn.PARAM_NAMES:
        theta = getattr(m, name)
        g = np.zeros_like(theta)
        it = np.nditer(theta, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = theta[idx]
            theta[idx] = orig + step
            up = loss_fn(m)
            theta[idx] = orig - step
            down = loss_fn(m)
            theta[idx] = orig
            g[idx] = (up - down) / (2 * step)
        grads[name] = g
    return grads


def max_rel_error(analytic, numeric):
    worst = 0.0
    for name in nn.PARAM_NAMES:
        a, n = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def draw_batch_off_kinks(rng, m, n, step=1e-4):
    """Sample a batch where central differences are a valid oracle: no
    pre-activation near the rectifier kink, and no sample with every hidden
    unit dead (normalizing a zero vector has no derivative to compare)."""
    for _ in range(100):
        x = rng.normal(size=(n, m.input_dim))
        z1 = x @ m.w1 + m.b1
        v = np.maximum(z1, 0.0) @ m.w2 + m.b2
        if np.abs(z1).min() > 50 * step and np.linalg.norm(v, axis=1).min() > 1e-2:
            return x
    raise AssertionError("could not find a kink-free batch")


class TestForward:
    def test_identity_encoder_passes_input_through(self):
        m = identity_encoder(3)
        x = np.array([[0.5, -2.0, 1.25], [3.0, 0.0, -0.75]])
        assert np.allclose(nn.forward_features(m, x), x, atol=0, rtol=0)

    def test_feature_norm_gives_unit_rows(self):
        rng = np.random.default_rng(0)
        m = random_model(rng, feature_norm=True)
        F = nn.forward_features(m, rng.normal(size=(10, 5)))
        assert np.abs(np.linalg.norm(F, axis=1) - 1.0).max() < 1e-6

    def test_matches_straight_line_matmul_oracle(self):
        rng = np.random.default_rng(42)
        m = random_model(rng, feature_norm=False)
        x = rng.normal(size=(4, 5))
        expected = np.empty((4, 4))
        for i in range(4):
            z1 = m.w1.T @ x[i] + m.b1
            a1 = np.where(z1 > 0, z1, 0.0)
            expected[i] = m.w2.T @ a1 + m.b2
        assert np.abs(nn.forward_features(m, x) - expected).max() < 1e-12

    def test_dimension_mismatch(self):
        m = random_model(np.random.default_rng(1))
        with pytest.raises(DimensionMismatchError):
            nn.forward_features(m, np.zeros((2, 9)))


class TestForwardLogits:
    def test_zero_head_is_uniform(self):
        rng = np.random.default_rng(3)
        m = random_model(rng, C=12)
        m.hw = np.zeros_like(m.hw)
        m.hb = np.zeros_like(m.hb)
        p = nn.forward_logits(m, rng.normal(size=(6, 5)))
        assert np.abs(p - 1.0 / 12).max() < 1e-12

    def test_softmax_shift_invariance(self):
        logits = np.array([[2.0, 2.0, 2.0]])
        assert np.allclose(nn.softmax(logits), 1 / 3)
        shifted = nn.softmax(np.array([[1.0, 5.0, -2.0]]))
        assert np.allclose(nn.softmax(np.array([[1.0, 5.0, -2.0]]) + 100.0), shifted)

    def test_two_class_hand_value(self):
        p = nn.softmax(np.array([[1.0, 0.0]]))
        e = np.e
        assert p[0, 0] == pytest.approx(e / (e + 1), abs=1e-12)
        assert p[0, 1] == pytest.approx(1 / (e + 1), abs=1e-12)
        assert p[0, 0] == pytest.approx(0.7311, abs=5e-5)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        m = random_model(rng)
        p = nn.forward_logits(m, rng.normal(size=(32, 5)))
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-6
        assert (p >= 0).all()


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(5)
        m = random_model(rng)
        x = rng.normal(size=(3, 5))
        g = nn.backward(m, x, d_probs=np.zeros((3, 3)), d_feats=np.zeros((3, 4)))
        for name in nn.PARAM_NAMES:
            assert np.all(g[name] == 0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradient_check_both_paths(self, seed):
        rng = np.random.default_rng(seed)
        m = random_model(rng)
        x = draw_batch_off_kinks(rng, m, n=6)
        y = rng.integers(0, 3, size=6)
        coeffs = rng.normal(size=4)

        def loss_of(model):
            p = nn.forward_logits(model, x)
            f = nn.forward_features(model, x)
            ce = -np.log(p[np.arange(6), y]).mean()
            return ce + float((f * coeffs).sum())

        p = nn.forward_logits(m, x)
        d_probs = np.zeros_like(p)
        d_probs[np.arange(6), y] = -1.0 / (6 * p[np.arange(6), y])
        d_feats = np.tile(coeffs, (6, 1))
        analytic = nn.backward(m, x, d_probs=d_probs, d_feats=d_feats)
        numeric = numeric_gradient(loss_of, m)
        assert max_rel_error(analytic, numeric) < 1e-4

    def test_duplicated_sample_doubles_contribution(self):
        rng = np.random.default_rng(12)
        m = random_model(rng)
        x = rng.normal(size=(1, 5))
        dF = rng.normal(size=(1, 4))
        single = nn.backward(m, x, d_feats=dF)
        doubled = nn.backward(m, np.vstack([x, x]), d_feats=np.vstack([dF, dF]))
        for name in nn.PARAM_NAMES:
            assert np.allclose(doubled[name], 2 * single[name], atol=1e-12)


class TestBackwardReusesForward:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("upstream", ["probs", "feats", "both"])
    def test_given_activations_equal_recomputed_bit_for_bit(self, seed, upstream):
        rng = np.random.default_rng(seed)
        d, h, e, C, B = rng.integers(1, 9, size=5)
        m = random_model(rng, d, h, e, C, feature_norm=bool(seed % 3))
        x = rng.normal(size=(B, d))
        kwargs = {}
        if upstream in ("probs", "both"):
            kwargs["d_probs"] = rng.normal(size=(B, C))
        if upstream in ("feats", "both"):
            kwargs["d_feats"] = rng.normal(size=(B, e))
        recomputed = nn.backward(m, x, **kwargs)
        # with the head's probabilities, and without (backward then adds them)
        for acts in (nn.forward(m, x, head=True), nn.forward(m, x)):
            reused = nn.backward(m, x, **kwargs, acts=acts)
            for name in nn.PARAM_NAMES:
                assert reused[name].tobytes() == recomputed[name].tobytes(), name


class TestSgdStep:
    def test_zero_gradients_zero_decay_freeze_parameters(self):
        rng = np.random.default_rng(0)
        m = random_model(rng)
        before = {k: v.copy() for k, v in m.params().items()}
        state = nn.OptimizerState(weight_decay=0.0)
        nn.sgd_step(m, state, zero_grads(m), lr=0.5)
        for name in nn.PARAM_NAMES:
            assert np.array_equal(getattr(m, name), before[name])

    def test_scalar_hand_values(self):
        m = identity_encoder(1)
        m.hb = np.array([1.0])
        state = nn.OptimizerState(weight_decay=0.0)
        grads = zero_grads(m)
        grads["hb"] = np.array([1.0])
        nn.sgd_step(m, state, grads, lr=0.1)
        assert state.buffers["hb"][0] == pytest.approx(1.0)
        assert m.hb[0] == pytest.approx(0.9)
        # momentum accumulates: the second identical gradient moves farther
        nn.sgd_step(m, state, grads, lr=0.1)
        assert state.buffers["hb"][0] == pytest.approx(1.9)
        assert m.hb[0] == pytest.approx(0.9 - 0.19)

    def test_weight_decay_coupled_into_gradient(self):
        m = identity_encoder(1)
        m.hb = np.array([2.0])
        state = nn.OptimizerState(weight_decay=0.1)
        nn.sgd_step(m, state, zero_grads(m), lr=1.0)
        assert m.hb[0] == pytest.approx(2.0 - 0.1 * 2.0)

    def test_nonfinite_gradient_aborts(self):
        m = identity_encoder(2)
        grads = zero_grads(m)
        grads["w1"][0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            nn.sgd_step(m, nn.OptimizerState(), grads, lr=0.1)


class TestCosineLr:
    def test_endpoints_and_midpoint(self):
        assert nn.cosine_lr(0, 55, 0.002) == pytest.approx(0.002)
        assert nn.cosine_lr(55, 55, 0.002) == pytest.approx(0.0, abs=1e-18)
        assert nn.cosine_lr(10, 20, 0.002) == pytest.approx(0.001)


class TestCheckpoint:
    def test_round_trip_exact_with_bank(self, tmp_path):
        rng = np.random.default_rng(77)
        m = random_model(rng)
        bank = cluster.PrototypeBank(
            rho=rng.normal(size=(3, 4)), counts=np.array([4, 5, 6]), build_epoch=15)
        path = tmp_path / "ckpt.npz"
        nn.save_checkpoint(path, m, bank=bank, extra={"note": "t"})
        m2, bank2, extra = nn.load_checkpoint(path)
        for name in nn.PARAM_NAMES:
            assert np.array_equal(getattr(m2, name), getattr(m, name))
        assert m2.feature_norm == m.feature_norm
        assert np.array_equal(bank2.rho, bank.rho)
        assert np.array_equal(bank2.counts, bank.counts)
        assert bank2.build_epoch == 15
        assert extra == {"note": "t"}

    def test_round_trip_without_bank(self, tmp_path):
        m = random_model(np.random.default_rng(1), feature_norm=False)
        path = tmp_path / "ckpt.npz"
        nn.save_checkpoint(path, m)
        m2, bank2, _ = nn.load_checkpoint(path)
        assert bank2 is None
        assert m2.feature_norm is False


def test_training_path_determinism():
    def train(seed):
        rng = np.random.default_rng(seed)
        m = random_model(rng)
        state = nn.OptimizerState()
        x = rng.normal(size=(8, 5))
        y = rng.integers(0, 3, size=8)
        for step in range(20):
            p = nn.forward_logits(m, x)
            d_probs = np.zeros_like(p)
            d_probs[np.arange(8), y] = -1.0 / (8 * p[np.arange(8), y])
            grads = nn.backward(m, x, d_probs=d_probs)
            nn.sgd_step(m, state, grads, nn.cosine_lr(step, 20, 0.002))
        return m

    a, b = train(123), train(123)
    for name in nn.PARAM_NAMES:
        assert np.array_equal(getattr(a, name), getattr(b, name))
