import numpy as np
import pytest

from aplt import augment, fixmatch, nn
from aplt.errors import EmptyBatchError, InvalidParameterError
from model_helpers import confident_model, identity_encoder

NO_AUG = augment.AugmentConfig(weak_sigma=0.0, strong_sigma=0.0, strong_mask_prob=0.0)
FM = fixmatch.FixMatchConfig()


def rng():
    return np.random.default_rng(0)


class TestSupervisedLoss:
    def test_perfectly_confident_model_has_zero_loss(self):
        m = confident_model(3)
        x = np.eye(3)  # sample i sits on coordinate i
        y = np.arange(3)
        out = fixmatch.supervised_loss(m, x, y, NO_AUG, rng())
        assert out.value == 0.0

    def test_uniform_predictor_gives_log_C(self):
        m = identity_encoder(12, hw=np.zeros((12, 12)))
        x = np.random.default_rng(1).normal(size=(8, 12))
        y = np.random.default_rng(2).integers(0, 12, size=8)
        out = fixmatch.supervised_loss(m, x, y, NO_AUG, rng())
        assert out.value == pytest.approx(np.log(12), abs=1e-12)
        assert out.value == pytest.approx(2.4849, abs=1e-4)

    def test_duplicated_batch_keeps_mean(self):
        m = identity_encoder(3)
        x = np.random.default_rng(3).normal(size=(4, 3))
        y = np.array([0, 1, 2, 0])
        once = fixmatch.supervised_loss(m, x, y, NO_AUG, rng())
        twice = fixmatch.supervised_loss(m, np.vstack([x, x]), np.tile(y, 2),
                                         NO_AUG, rng())
        assert twice.value == pytest.approx(once.value, abs=1e-12)

    def test_empty_batch_rejected(self):
        m = identity_encoder(2)
        with pytest.raises(EmptyBatchError):
            fixmatch.supervised_loss(m, np.zeros((0, 2)), np.zeros(0, dtype=int),
                                     NO_AUG, rng())


class TestUnlabeledLoss:
    def test_all_below_threshold_is_inert(self):
        m = identity_encoder(2)  # mild logits, confidence ~0.5-0.7
        x = np.array([[0.1, 0.0], [0.0, 0.2]])
        out = fixmatch.unlabeled_loss(m, x, FM, NO_AUG, rng())
        assert out.value == 0.0
        assert out.pass_count == 0
        for g in out.grads.values():
            assert np.all(g == 0.0)

    def test_hand_evaluated_contribution(self):
        # weak view keeps x: q = softmax(x) = (0.97, 0.03);
        # strong view is fully masked to the origin: probs (0.5, 0.5)
        m = identity_encoder(2)
        aug = augment.AugmentConfig(weak_sigma=0.0, strong_sigma=0.0,
                                    strong_mask_prob=1.0)
        x = np.log([[0.97, 0.03]])
        out = fixmatch.unlabeled_loss(m, x, FM, aug, rng())
        assert out.pass_count == 1
        assert out.value == pytest.approx(-np.log(0.5), abs=1e-12)
        assert out.value == pytest.approx(0.6931, abs=1e-4)

    def test_threshold_disabled_equals_self_cross_entropy(self):
        m = identity_encoder(3)
        cfg = fixmatch.FixMatchConfig(tau=1e-9)
        x = np.random.default_rng(5).normal(size=(6, 3))
        out = fixmatch.unlabeled_loss(m, x, cfg, NO_AUG, rng())
        q = nn.forward_logits(m, x)
        expected = -np.log(q[np.arange(6), q.argmax(axis=1)]).mean()
        assert out.pass_count == 6
        assert out.value == pytest.approx(expected, abs=1e-12)

    def test_pseudo_labels_come_from_weak_view(self):
        # weak view = x (class 0 confident); strong view masked to origin.
        # the supervising label must be the weak argmax, never the strong one
        m = identity_encoder(2)
        aug = augment.AugmentConfig(weak_sigma=0.0, strong_sigma=0.0,
                                    strong_mask_prob=1.0)
        x = np.array([[5.0, 0.0]])
        out = fixmatch.unlabeled_loss(m, x, FM, aug, rng())
        assert out.pseudo_labels.tolist() == [0]

    def test_masked_samples_contribute_zero_gradient(self):
        m = identity_encoder(2)
        confident = np.array([[10.0, 0.0]])
        mixed = np.array([[10.0, 0.0], [0.1, 0.0]])  # second row is masked
        lone = fixmatch.unlabeled_loss(m, confident, FM, NO_AUG, rng())
        both = fixmatch.unlabeled_loss(m, mixed, FM, NO_AUG, rng())
        assert both.pass_count == 1
        for name in nn.PARAM_NAMES:
            # same contribution averaged over B=2 instead of B=1
            assert np.allclose(both.grads[name], 0.5 * lone.grads[name], atol=1e-12)

    def test_raising_tau_never_increases_pass_count(self):
        m = identity_encoder(4)
        x = np.random.default_rng(7).normal(scale=2.0, size=(32, 4))
        counts = []
        for tau in [0.3, 0.5, 0.7, 0.9, 0.99, 1.0]:
            cfg = fixmatch.FixMatchConfig(tau=tau)
            out = fixmatch.unlabeled_loss(m, x, cfg, NO_AUG,
                                          np.random.default_rng(11))
            counts.append(out.pass_count)
        assert counts == sorted(counts, reverse=True)


class TestWarmupObjective:
    def test_zero_unsup_equals_supervised(self):
        m = identity_encoder(2)
        sup = fixmatch.supervised_loss(m, np.array([[1.0, 0.0]]), np.array([0]),
                                       NO_AUG, rng())
        unsup = fixmatch.unlabeled_loss(m, np.array([[0.1, 0.0]]), FM, NO_AUG, rng())
        assert unsup.value == 0.0
        total = fixmatch.warmup_objective(sup, unsup)
        assert total.value == sup.value
        for name in nn.PARAM_NAMES:
            assert np.array_equal(total.grads[name], sup.grads[name])

    def test_values_add(self):
        a = fixmatch.BatchLoss(value=0.5, pass_count=1, grads={"w1": np.ones(2)})
        b = fixmatch.BatchLoss(value=0.25, pass_count=2, grads={"w1": np.ones(2)})
        assert fixmatch.warmup_objective(a, b).value == 0.75

    def test_total_gradient_matches_finite_differences(self):
        rng_ = np.random.default_rng(13)
        m = nn.EncoderModel.init(4, 16, 3, 3, rng_)
        xl = rng_.normal(size=(5, 4))
        y = rng_.integers(0, 3, size=5)
        xu = rng_.normal(scale=3.0, size=(5, 4))
        cfg = fixmatch.FixMatchConfig(tau=0.5)

        def total_loss(model):
            sup = fixmatch.supervised_loss(model, xl, y, NO_AUG, rng())
            unsup = fixmatch.unlabeled_loss(model, xu, cfg, NO_AUG, rng())
            return fixmatch.warmup_objective(sup, unsup)

        analytic = total_loss(m).grads
        for name in ("hw", "b2"):
            theta = getattr(m, name)
            flat_idx = (0,) if theta.ndim == 1 else (0, 0)
            orig = theta[flat_idx]
            theta[flat_idx] = orig + 1e-5
            up = total_loss(m).value
            theta[flat_idx] = orig - 1e-5
            down = total_loss(m).value
            theta[flat_idx] = orig
            fd = (up - down) / 2e-5
            assert analytic[name][flat_idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_tau_validation():
    with pytest.raises(InvalidParameterError):
        fixmatch.FixMatchConfig(tau=0.0)
    with pytest.raises(InvalidParameterError):
        fixmatch.FixMatchConfig(tau=1.5)
