import copy
import json
import pickle

import numpy as np
import pytest

import oracle_step as oracle
from aplt import cluster, nn
from aplt.errors import ApltError, DataFormatError, DimensionMismatchError, NonFiniteError
from model_helpers import identity_encoder


def random_model(rng, d=5, h=7, e=4, C=3):
    return nn.EncoderModel.init(d, h, e, C, rng)


def optimizer(weight_decay=0.0005):
    return nn.OptimizerState(momentum=0.9, weight_decay=weight_decay)


def numeric_gradient(loss_fn, m, step=1e-4):
    """Central finite differences over every parameter of the model, laid
    out like ``m.theta``."""
    theta = m.theta
    g = np.zeros_like(theta)
    for i, orig in enumerate(theta.copy()):
        theta[i] = orig + step
        up = loss_fn(m)
        theta[i] = orig - step
        down = loss_fn(m)
        theta[i] = orig
        g[i] = (up - down) / (2 * step)
    return g


def max_rel_error(analytic, numeric):
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float(np.max(np.abs(analytic - numeric) / denom))


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
        # unit-norm rows come out as they went in; other rows, scaled to unit norm
        m = identity_encoder(3)
        x = np.array([[0.6, -0.8, 0.0], [0.0, 0.0, -1.0]])
        assert np.allclose(nn.forward_features(m, x), x, atol=1e-15, rtol=0)
        x = np.array([[0.5, -2.0, 1.25], [3.0, 0.0, -0.75]])
        expected = x / np.linalg.norm(x, axis=1, keepdims=True)
        assert np.array_equal(nn.forward_features(m, x), expected)

    def test_feature_norm_gives_unit_rows(self):
        rng = np.random.default_rng(0)
        m = random_model(rng)
        F = nn.forward_features(m, rng.normal(size=(10, 5)))
        assert np.abs(np.linalg.norm(F, axis=1) - 1.0).max() < 1e-6

    def test_matches_straight_line_matmul_oracle(self):
        rng = np.random.default_rng(42)
        m = random_model(rng)
        x = rng.normal(size=(4, 5))
        expected = np.empty((4, 4))
        for i in range(4):
            z1 = m.w1.T @ x[i] + m.b1
            a1 = np.where(z1 > 0, z1, 0.0)
            v = m.w2.T @ a1 + m.b2
            expected[i] = v / np.sqrt(v @ v)
        assert np.abs(nn.forward_features(m, x) - expected).max() < 1e-12

    def test_dimension_mismatch(self):
        m = random_model(np.random.default_rng(1))
        with pytest.raises(DimensionMismatchError):
            nn.forward_features(m, np.zeros((2, 9)))
        # one row must come as a (1, d) array, not a (d,) vector
        with pytest.raises(DimensionMismatchError, match=r"input shape \(5,\) != \(n, 5\)"):
            nn.forward(m, np.zeros(5))


class TestForwardLogits:
    def test_zero_head_is_uniform(self):
        rng = np.random.default_rng(3)
        m = random_model(rng, C=12)
        m.hw[...] = 0.0
        m.hb[...] = 0.0
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


def three_buffer_softmax(logits):
    """The softmax before it worked in one buffer: the reference."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("seed", range(20))
def test_one_buffer_softmax_equals_three_buffer_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    B, C = int(rng.integers(1, 200)), int(rng.integers(1, 120))
    logits = rng.normal(size=(B, C)) * 10.0 ** rng.uniform(-3, 3.5)
    cells = rng.random((B, C))
    logits[cells < 0.05] = 1e300
    logits[cells > 0.95] = -np.inf
    logits[0] = -np.inf  # a row with no finite logit is all NaN either way
    with np.errstate(invalid="ignore"):  # -inf - -inf
        expected = three_buffer_softmax(logits)
        got = nn.softmax(logits)
    assert got is logits  # computed in the buffer it was given
    assert np.array_equal(got, expected, equal_nan=True)


class TestEncodeRows:
    """Blocked encoding gives every row the features of one pass over all
    rows, bit for bit."""

    def model(self):
        return nn.EncoderModel.init(32, 64, 32, 12, np.random.default_rng(3))

    @pytest.mark.parametrize("extra", ["-1", "0", "+1", "3x+5"])
    def test_equals_one_pass(self, extra):
        m = self.model()
        block = nn._block_rows(m)
        n = {"-1": block - 1, "0": block, "+1": block + 1, "3x+5": 3 * block + 5}[extra]
        X = np.random.default_rng(4).normal(size=(n, 32))
        got = nn.encode_rows(m, X)
        assert got.shape == (n, 32)
        assert np.array_equal(got, nn.forward(m, X).feats)

    def test_gathered_rows_equal_one_pass_over_the_subset(self):
        m = self.model()
        rng = np.random.default_rng(5)
        X = rng.normal(size=(4 * nn._block_rows(m), 32))
        rows = np.sort(rng.choice(X.shape[0], size=2 * nn._block_rows(m) + 1, replace=False))
        assert np.array_equal(nn.encode_rows(m, X, rows), nn.forward(m, X[rows]).feats)

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9, 10])
    def test_small_blocks_never_leave_a_one_row_tail(self, monkeypatch, n):
        m = self.model()
        monkeypatch.setattr(nn, "_BLOCK_BYTES", 1)
        assert nn._block_rows(m) == 4
        sizes = []
        forward_features = nn.forward_features

        def counted(m, x):
            sizes.append(x.shape[0])
            return forward_features(m, x)

        monkeypatch.setattr(nn, "forward_features", counted)
        X = np.random.default_rng(6).normal(size=(n, 32))
        assert np.array_equal(nn.encode_rows(m, X), nn.forward(m, X).feats)
        assert sum(sizes) == n and max(sizes) <= 4
        assert n < 2 or min(sizes) >= 2


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(5)
        m = random_model(rng)
        x = rng.normal(size=(3, 5))
        g = nn.backward(m, x, nn.forward(m, x),
                        d_logits=np.zeros((3, 3)), d_feats=np.zeros((3, 4)))
        assert g.shape == m.theta.shape
        assert np.all(g == 0.0)

    def test_upstream_gradients_are_checked(self):
        rng = np.random.default_rng(5)
        m = random_model(rng)  # d=5, e=4, C=3
        x = rng.normal(size=(3, 5))
        acts = nn.forward(m, x)
        with pytest.raises(ApltError, match="at least one upstream gradient"):
            nn.backward(m, x, acts)
        with pytest.raises(DimensionMismatchError, match="d_logits shape mismatch"):
            nn.backward(m, x, acts, d_logits=np.zeros((3, 4)))
        with pytest.raises(DimensionMismatchError, match="d_feats shape mismatch"):
            nn.backward(m, x, acts, d_feats=np.zeros((3, 3)))
        with pytest.raises(DimensionMismatchError, match=r"input shape \(5,\)"):
            nn.backward(m, x[0], acts, d_feats=np.zeros((3, 4)))

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

        acts = nn.forward(m, x)
        d_logits = nn.head_probs(m, acts.feats)  # mean cross-entropy: (p - onehot(y)) / 6
        d_logits[np.arange(6), y] -= 1.0
        d_logits /= 6
        d_feats = np.tile(coeffs, (6, 1))
        analytic = nn.backward(m, x, acts, d_logits=d_logits, d_feats=d_feats)
        numeric = numeric_gradient(loss_of, m)
        assert max_rel_error(analytic, numeric) < 1e-4

    def test_duplicated_sample_doubles_contribution(self):
        rng = np.random.default_rng(12)
        m = random_model(rng)
        x = rng.normal(size=(1, 5))
        dF = rng.normal(size=(1, 4))
        xx = np.vstack([x, x])
        single = nn.backward(m, x, nn.forward(m, x), d_feats=dF)
        doubled = nn.backward(m, xx, nn.forward(m, xx), d_feats=np.vstack([dF, dF]))
        assert np.allclose(doubled, 2 * single, atol=1e-12)


class TestBackwardReusesForward:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("upstream", ["probs", "feats", "both"])
    def test_given_activations_equal_recomputed_bit_for_bit(self, seed, upstream):
        rng = np.random.default_rng(seed)
        d, h, e, C, B = rng.integers(1, 9, size=5)
        m = random_model(rng, d, h, e, C)
        x = rng.normal(size=(B, d))
        up_probs = rng.normal(size=(B, C)) if upstream in ("probs", "both") else None
        up_feats = rng.normal(size=(B, e)) if upstream in ("feats", "both") else None
        recomputed = oracle.backward(m, x, up_probs, up_feats)  # runs its own forward
        acts = nn.forward(m, x)
        # the same upstream, on the head's logits
        d_logits = (None if up_probs is None
                    else oracle.softmax_jvp(nn.head_probs(m, acts.feats), up_probs))
        got = nn.backward(m, x, acts, d_logits=d_logits, d_feats=up_feats)
        assert got.tobytes() == recomputed.tobytes()


class TestSgdStep:
    def test_zero_gradients_zero_decay_freeze_parameters(self):
        rng = np.random.default_rng(0)
        m = random_model(rng)
        before = m.theta.copy()
        nn.sgd_step(m, optimizer(weight_decay=0.0), np.zeros_like(m.theta), lr=0.5)
        assert np.array_equal(m.theta, before)

    def test_scalar_hand_values(self):
        m = identity_encoder(1)
        m.hb[0] = 1.0
        state = optimizer(weight_decay=0.0)
        grad = np.zeros_like(m.theta)
        m.params(grad)["hb"][0] = 1.0
        nn.sgd_step(m, state, grad, lr=0.1)
        assert m.params(state.velocity)["hb"][0] == pytest.approx(1.0)
        assert m.hb[0] == pytest.approx(0.9)
        # momentum accumulates: the second identical gradient moves farther
        nn.sgd_step(m, state, grad, lr=0.1)
        assert m.params(state.velocity)["hb"][0] == pytest.approx(1.9)
        assert m.hb[0] == pytest.approx(0.9 - 0.19)

    def test_weight_decay_coupled_into_gradient(self):
        m = identity_encoder(1)
        m.hb[0] = 2.0
        nn.sgd_step(m, optimizer(weight_decay=0.1), np.zeros_like(m.theta), lr=1.0)
        assert m.hb[0] == pytest.approx(2.0 - 0.1 * 2.0)

    def test_nonfinite_gradient_aborts(self):
        # the first element of the first block, one inside, and the last of the last
        m = identity_encoder(2)
        before = m.theta.copy()
        for name, index, bad in [("w1", (0, 0), np.nan), ("b2", (1,), np.inf),
                                 ("hb", (-1,), np.nan)]:
            grad = np.zeros_like(m.theta)
            m.params(grad)[name][index] = bad
            with pytest.raises(NonFiniteError, match=f"nonfinite gradient in {name};"):
                nn.sgd_step(m, optimizer(), grad, lr=0.1)
            assert np.array_equal(m.theta, before)


class TestFlatParameters:
    def test_named_parameters_are_views_into_theta(self):
        m = random_model(np.random.default_rng(4))
        params = m.params()
        assert list(params) == list(nn.PARAM_NAMES)
        assert m.theta.shape == (sum(p.size for p in params.values()),)
        assert np.array_equal(np.concatenate([p.ravel() for p in params.values()]), m.theta)
        for name in nn.PARAM_NAMES:
            view = getattr(m, name)
            assert np.shares_memory(view, m.theta)
            assert np.array_equal(view, params[name])
        m.theta[-1] = 7.0
        assert m.hb[-1] == 7.0

    def test_rebinding_a_parameter_raises(self):
        m = random_model(np.random.default_rng(4))
        for name in (*nn.PARAM_NAMES, "theta"):
            with pytest.raises(AttributeError):
                setattr(m, name, np.zeros_like(getattr(m, name)))

    @pytest.mark.parametrize("duplicate", [copy.deepcopy,
                                           lambda m: pickle.loads(pickle.dumps(m))],
                             ids=["deepcopy", "pickle"])
    def test_copy_views_alias_the_copy_and_step_alone(self, duplicate):
        m = random_model(np.random.default_rng(6))
        twin = duplicate(m)
        before = m.theta.copy()
        for name in nn.PARAM_NAMES:
            assert np.shares_memory(getattr(twin, name), twin.theta), name
            assert not np.shares_memory(getattr(twin, name), m.theta), name
        grad = np.random.default_rng(7).normal(size=m.theta.shape)
        twin_before = twin.params()["w1"].copy()
        nn.sgd_step(twin, optimizer(), grad, lr=0.1)
        assert not np.array_equal(twin.w1, twin_before)
        assert not np.array_equal(twin.hb, m.hb)
        assert m.theta.tobytes() == before.tobytes()


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
        assert m2.theta.tobytes() == m.theta.tobytes()
        for name in nn.PARAM_NAMES:
            assert getattr(m2, name).shape == getattr(m, name).shape
        assert np.array_equal(bank2.rho, bank.rho)
        assert np.array_equal(bank2.counts, bank.counts)
        assert bank2.build_epoch == 15
        assert extra == {"note": "t"}

    def test_round_trip_without_bank(self, tmp_path):
        m = random_model(np.random.default_rng(1))
        path = tmp_path / "ckpt.npz"
        nn.save_checkpoint(path, m)
        m2, bank2, _ = nn.load_checkpoint(path)
        assert bank2 is None
        assert np.array_equal(m2.theta, m.theta)
        with np.load(path) as z:
            assert json.loads(bytes(z["meta"]).decode())["feature_norm"] is True

    def test_false_feature_norm_flag_rejected(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        nn.save_checkpoint(path, random_model(np.random.default_rng(1)))
        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        meta = json.loads(bytes(arrays["meta"]).decode())
        meta["feature_norm"] = False
        arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(DataFormatError, match="meta.feature_norm is false") as err:
            nn.load_checkpoint(path)
        assert str(path) in str(err.value)


def test_training_path_determinism():
    def train(seed):
        rng = np.random.default_rng(seed)
        m = random_model(rng)
        state = optimizer()
        x = rng.normal(size=(8, 5))
        y = rng.integers(0, 3, size=8)
        for step in range(20):
            acts = nn.forward(m, x)
            d_logits = nn.head_probs(m, acts.feats)  # (p - onehot(y)) / 8
            d_logits[np.arange(8), y] -= 1.0
            d_logits /= 8
            grads = nn.backward(m, x, acts, d_logits=d_logits)
            nn.sgd_step(m, state, grads, nn.cosine_lr(step, 20, 0.002))
        return m

    a, b = train(123), train(123)
    assert np.array_equal(a.theta, b.theta)
