"""The online step's numeric path against its straightforward version
(``oracle_step.py``), byte for byte: encoder forward and backward, the
masked cross-entropy, the prototype margin and both augmentations. The gate
(``tools/gate_outputs.py``) checks the same property end to end in about a
minute and a half; these checks take seconds and name the function that
moved."""

import numpy as np
import pytest

import oracle_step as oracle
from aplt import augment, cluster, fixmatch, nn, proto

SEEDS = range(20)


def same(a, b):
    """Equal bytes, shape and dtype; None only against None."""
    if a is None or b is None:
        return a is None and b is None
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def draw_model(rng, C=None, dims=None):
    d, h, e = rng.integers(1, 9, size=3) if dims is None else dims
    m = nn.EncoderModel.init(d, h, e, C or int(rng.integers(1, 9)), rng)
    m.theta[:] += rng.normal(scale=0.1, size=m.theta.size)  # nonzero biases too
    return m


def zero_row_model(rng):
    """A model whose encoder maps the zero row to v = 0: b1 <= 0 keeps the
    hidden layer off there, and b2 = 0, so the row's norm is _NORM_FLOOR."""
    m = draw_model(rng)
    m.b1[:] = -np.abs(m.b1)
    m.b2[:] = 0.0
    return m


def draw_batch(rng, m, B=None):
    return rng.normal(size=(B or int(rng.integers(1, 70)), m.input_dim))


def draw_bank(rng, C, e):
    rho = rng.normal(size=(C, e))
    rho /= np.linalg.norm(rho, axis=1, keepdims=True)
    return cluster.PrototypeBank(rho=rho, counts=np.ones(C, dtype=np.int64))


def cases(seed):
    """(model, batch) pairs for one seed: a random batch, a one-row batch,
    a batch whose first row hits the norm floor, and a batch on a model with
    the zero biases ``EncoderModel.init`` gives, as every run starts. Its
    first row is zero, as a fully masked strong view is, so that row's
    pre-activations sit exactly on the rectifier's kink."""
    rng = np.random.default_rng(seed)
    m = draw_model(rng)
    z = zero_row_model(rng)
    zx = draw_batch(rng, z)
    zx[0] = 0.0
    pairs = [(m, draw_batch(rng, m)), (m, draw_batch(rng, m, B=1)), (z, zx)]
    init = nn.EncoderModel.init(*rng.integers(1, 9, size=4), rng)  # last: the draws above stay
    ix = draw_batch(rng, init)
    ix[0] = 0.0
    return pairs + [(init, ix)]


def bench_cases(seed):
    """(model, batch) pairs at the shapes every bench workload steps at:
    B=64, d=32, h=64 and e=32, with C=12 and with C=100. OpenBLAS picks its
    kernels by shape, so the small ``cases`` do not stand for these."""
    rng = np.random.default_rng(5000 + seed)
    models = [draw_model(rng, C, dims=(32, 64, 32)) for C in (12, 100)]
    return [(m, draw_batch(rng, m, B=64)) for m in models]


@pytest.mark.parametrize("seed", SEEDS)
def test_forward_matches(seed):
    for m, x in cases(seed):
        new, old = nn.forward(m, x), oracle.forward(m, x, head=True)
        assert len(new) == 4 and all(same(a, b) for a, b in zip(new, old))
        assert same(nn.head_probs(m, new.feats), old.probs)
        assert same(nn.forward_logits(m, x), old.probs)


def test_zero_row_hits_the_norm_floor():
    m, x = cases(0)[2]
    acts = nn.forward(m, x)
    assert acts.norms[0, 0] == nn._NORM_FLOOR and not acts.feats[0].any()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("upstream", ["probs", "feats", "both"])
def test_backward_matches(seed, upstream):
    """``upstream="probs"`` draws a gradient on the head's probabilities; the
    oracle's ``softmax_jvp`` turns it into the one on the logits that
    ``nn.backward`` takes."""
    rng = np.random.default_rng(1000 + seed)
    for m, x in cases(seed) + bench_cases(seed):
        B = x.shape[0]
        up_probs = rng.normal(size=(B, m.num_classes)) if upstream in ("probs", "both") else None
        up_feats = rng.normal(size=(B, m.feature_dim)) if upstream in ("feats", "both") else None
        want = oracle.backward(m, x, up_probs, up_feats)
        acts = nn.forward(m, x)
        d_logits = (None if up_probs is None
                    else oracle.softmax_jvp(nn.head_probs(m, acts.feats), up_probs))
        assert same(nn.backward(m, x, acts, d_logits=d_logits, d_feats=up_feats), want)


def masks(rng, B):
    """None (every row kept) and the masks: all kept, random, none kept."""
    return [None, np.ones(B, dtype=bool), rng.random(B) < 0.5, np.zeros(B, dtype=bool)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scale", [1.0, 1e4])
def test_masked_ce_matches(seed, scale):
    """scale 1e4 makes the head's softmax underflow to exact zeros, so some
    targets' probabilities are 0 and hit the log floor."""
    rng = np.random.default_rng(2000 + seed)
    for m, x in cases(seed) + bench_cases(seed):
        m.hw[:] *= scale
        targets = rng.integers(0, m.num_classes, size=x.shape[0])
        for kept in masks(rng, x.shape[0]):
            value, grad = fixmatch._masked_ce(m, x, targets, kept)
            old_kept = np.ones(x.shape[0], dtype=bool) if kept is None else kept
            want_value, want_grad = oracle._masked_ce(m, x, targets, old_kept)
            assert repr(value) == repr(want_value)
            assert same(grad, want_grad)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scale", [1.0, 1e4])
def test_masked_ce_logit_gradient_is_the_softmax_jvp(monkeypatch, seed, scale):
    """The gradient ``_masked_ce`` hands ``nn.backward`` is, entry for entry
    and signed zeros included, the oracle's softmax JVP of its one-hot
    upstream. (The sums of the backward wash out a zero's sign, so
    ``test_masked_ce_matches`` cannot see it.)"""
    seen, backward = [], nn.backward

    def capture(m, x, acts, d_logits=None, d_feats=None):
        seen.append(d_logits)
        return backward(m, x, acts, d_logits=d_logits, d_feats=d_feats)

    monkeypatch.setattr(nn, "backward", capture)
    rng = np.random.default_rng(6000 + seed)
    for m, x in cases(seed) + bench_cases(seed):
        m.hw[:] *= scale
        B = x.shape[0]
        rows, targets = np.arange(B), rng.integers(0, m.num_classes, size=B)
        p = oracle.forward(m, x, head=True).probs
        py = np.maximum(p[rows, targets], oracle._P_FLOOR)
        for kept in masks(rng, B):
            fixmatch._masked_ce(m, x, targets, kept)
            if kept is None or kept.any():  # else there is no backward
                d_probs = np.zeros_like(p)
                d_probs[rows, targets] = np.where(True if kept is None else kept,
                                                  -1.0 / (B * py), 0.0)
                assert same(seen.pop(), oracle.softmax_jvp(p, d_probs))
            assert not seen


@pytest.mark.parametrize("seed", SEEDS)
def test_margin_matches(seed):
    rng = np.random.default_rng(3000 + seed)
    cfg = proto.MarginConfig(temperature=float(rng.choice([0.1, 1.0])))
    for m, x in cases(seed):
        C = int(rng.integers(1, 9))
        bank = draw_bank(rng, C, m.feature_dim)
        F = nn.forward(m, x).feats
        B = F.shape[0]
        targets = rng.integers(0, C, size=B)
        all_kept = np.ones(B, dtype=bool)
        pairs = [(proto._margin(bank, F, targets, kept, cfg),
                  oracle._margin(bank, F, targets, all_kept if kept is None else kept, cfg))
                 for kept in masks(rng, B)]
        pairs.append((proto.margin_loss_labeled(bank, F, targets, cfg),
                      oracle._margin(bank, F, targets, all_kept, cfg)))
        for new, old in pairs:
            assert repr(new.value) == repr(old.value) and new.pass_count == old.pass_count
            assert same(new.d_feats, old.d_feats)


@pytest.mark.parametrize("kept_idx", [[], [0, 1, 2, 3, 4], [1, 3]],
                         ids=["all_masked", "all_kept", "some_kept"])
def test_unlabeled_margin_matches(kept_idx):
    rng = np.random.default_rng(4)
    m = draw_model(rng)
    bank = draw_bank(rng, 3, m.feature_dim)
    F = nn.forward(m, draw_batch(rng, m, B=5)).feats
    targets = np.full(5, -1, dtype=np.int64)
    targets[kept_idx] = np.arange(len(kept_idx)) % 3
    cfg = proto.MarginConfig()
    new = proto.margin_loss_unlabeled(bank, F, targets, cfg)
    kept = targets >= 0
    if kept.any():
        old = oracle._margin(bank, F, np.where(kept, targets, 0), kept, cfg)
        old_value, old_d = old.value, old.d_feats
    else:
        old_value, old_d = 0.0, np.zeros_like(F)
    assert repr(new.value) == repr(old_value) and new.pass_count == len(kept_idx)
    assert same(new.d_feats, old_d)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("mask_prob", [0.0, 0.1, 1.0])
def test_augmentations_match_and_draw_alike(seed, mask_prob):
    cfg = augment.AugmentConfig(strong_mask_prob=mask_prob)
    x = np.random.default_rng(seed).normal(size=(int(seed) + 1, 6))
    for name in ("weak", "strong"):
        new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        new = getattr(augment, name)(x, cfg, new_rng)
        assert same(new, getattr(oracle, name)(x, cfg, old_rng))
        assert new_rng.bit_generator.state == old_rng.bit_generator.state
