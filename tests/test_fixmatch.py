import numpy as np
import pytest

from aplt import augment, config, data, engine, fixmatch, nn
from aplt.errors import EmptyBatchError, InvalidParameterError
from model_helpers import confident_model, count_encoder_passes, identity_encoder

FM = fixmatch.FixMatchConfig()


def rng():
    return np.random.default_rng(0)


def views(x, aug, gen):
    """The weak and the strong view of x, drawn in the online step's order."""
    return augment.weak(x, aug, gen), augment.strong(x, aug, gen)


class TestSupervisedLoss:
    def test_perfectly_confident_model_has_zero_loss(self):
        m = confident_model(3)
        x = np.eye(3)  # sample i sits on coordinate i
        y = np.arange(3)
        out = fixmatch.supervised_loss(m, x, y)
        assert out.value == 0.0

    def test_uniform_predictor_gives_log_C(self):
        m = identity_encoder(12, hw=np.zeros((12, 12)))
        x = np.random.default_rng(1).normal(size=(8, 12))
        y = np.random.default_rng(2).integers(0, 12, size=8)
        out = fixmatch.supervised_loss(m, x, y)
        assert out.value == pytest.approx(np.log(12), abs=1e-12)
        assert out.value == pytest.approx(2.4849, abs=1e-4)

    def test_duplicated_batch_keeps_mean(self):
        m = identity_encoder(3)
        x = np.random.default_rng(3).normal(size=(4, 3))
        y = np.array([0, 1, 2, 0])
        once = fixmatch.supervised_loss(m, x, y)
        twice = fixmatch.supervised_loss(m, np.vstack([x, x]), np.tile(y, 2))
        assert twice.value == pytest.approx(once.value, abs=1e-12)

    def test_empty_batch_rejected(self):
        m = identity_encoder(2)
        with pytest.raises(EmptyBatchError):
            fixmatch.supervised_loss(m, np.zeros((0, 2)), np.zeros(0, dtype=int))


class TestUnlabeledLoss:
    def test_all_below_threshold_is_inert(self):
        m = identity_encoder(2)  # mild logits, confidence ~0.5-0.7
        x = np.array([[0.1, 0.0], [0.0, 0.2]])
        out = fixmatch.unlabeled_loss(m, x, x, FM)
        assert out.value == 0.0
        assert out.pass_count == 0
        assert np.all(out.grad == 0.0)

    def test_hand_evaluated_contribution(self):
        # weak view keeps the unit-norm x = (1, 0): logits (log(0.97/0.03), 0),
        # so q = (0.97, 0.03); strong view is fully masked to the origin,
        # whose zero feature gives probs (0.5, 0.5)
        m = identity_encoder(2, hw=np.log(0.97 / 0.03) * np.eye(2))
        aug = augment.AugmentConfig(weak_sigma=0.0, strong_sigma=0.0,
                                    strong_mask_prob=1.0)
        x = np.array([[1.0, 0.0]])
        assert nn.forward_logits(m, x)[0] == pytest.approx([0.97, 0.03], abs=1e-12)
        out = fixmatch.unlabeled_loss(m, *views(x, aug, rng()), FM)
        assert out.pass_count == 1
        assert out.value == pytest.approx(-np.log(0.5), abs=1e-12)
        assert out.value == pytest.approx(0.6931, abs=1e-4)

    def test_threshold_disabled_equals_self_cross_entropy(self):
        m = identity_encoder(3)
        cfg = fixmatch.FixMatchConfig(tau=1e-9)
        x = np.random.default_rng(5).normal(size=(6, 3))
        out = fixmatch.unlabeled_loss(m, x, x, cfg)
        q = nn.forward_logits(m, x)
        expected = -np.log(q[np.arange(6), q.argmax(axis=1)]).mean()
        assert out.pass_count == 6
        assert out.value == pytest.approx(expected, abs=1e-12)

    def test_pseudo_labels_come_from_weak_view(self):
        # weak view = x (class 0 confident); strong view masked to origin.
        # the supervising label must be the weak argmax, never the strong one
        m = confident_model(2)
        aug = augment.AugmentConfig(weak_sigma=0.0, strong_sigma=0.0,
                                    strong_mask_prob=1.0)
        x = np.array([[1.0, 0.0]])
        out = fixmatch.unlabeled_loss(m, *views(x, aug, rng()), FM)
        assert out.pass_count == 1
        assert out.pseudo_labels.tolist() == [0]

    def test_masked_samples_contribute_zero_gradient(self):
        # unit-norm rows: (1, 0) gives confidence 0.982, (0.6, 0.8) gives 0.690
        m = identity_encoder(2, hw=4.0 * np.eye(2))
        confident = np.array([[1.0, 0.0]])
        mixed = np.array([[1.0, 0.0], [0.6, 0.8]])  # second row is masked
        lone = fixmatch.unlabeled_loss(m, confident, confident, FM)
        both = fixmatch.unlabeled_loss(m, mixed, mixed, FM)
        assert lone.pass_count == 1 and both.pass_count == 1
        assert np.any(lone.grad != 0.0)
        # same contribution averaged over B=2 instead of B=1
        assert np.allclose(both.grad, 0.5 * lone.grad, atol=1e-12)

    def test_row_at_exactly_tau_is_kept(self):
        # tau is one row's own max(q), bit for bit: "reaches tau" keeps it
        m = identity_encoder(3)
        x = np.random.default_rng(9).normal(size=(5, 3))
        conf = nn.forward_logits(m, x).max(axis=1)
        at = int(conf.argsort()[2])  # the median confidence
        out = fixmatch.unlabeled_loss(m, x, x, fixmatch.FixMatchConfig(tau=float(conf[at])))
        assert out.passed[at]
        assert out.passed.tolist() == (conf >= conf[at]).tolist() and out.pass_count == 3

    def test_raising_tau_never_increases_pass_count(self):
        m = identity_encoder(4)
        x = np.random.default_rng(7).normal(scale=2.0, size=(32, 4))
        counts = []
        for tau in [0.3, 0.5, 0.7, 0.9, 0.99, 1.0]:
            cfg = fixmatch.FixMatchConfig(tau=tau)
            out = fixmatch.unlabeled_loss(m, x, x, cfg)
            counts.append(out.pass_count)
        assert counts == sorted(counts, reverse=True)


class TestNoRowPastTau:
    def test_exact_zeros_without_the_strong_view_pass(self, monkeypatch):
        m = identity_encoder(2)  # mild logits, confidence ~0.5-0.7
        calls = count_encoder_passes(monkeypatch)
        x = np.array([[0.1, 0.0], [0.0, 0.2]])
        out = fixmatch.unlabeled_loss(m, x, x, FM)
        # only the weak view runs, as the label source
        assert calls == {"forward": 1, "backward": 0}
        assert out.value == 0.0 and out.pass_count == 0
        assert out.grad.shape == m.theta.shape and out.grad.dtype == np.float64
        assert np.all(out.grad == 0.0)

    def test_strong_view_still_drawn(self):
        # a model confident on every row leaves the stream where a mild one does
        x = np.array([[0.1, 0.0], [0.0, 0.2]])
        states = []
        for m in (identity_encoder(2), confident_model(2)):
            gen = rng()
            out = fixmatch.unlabeled_loss(m, *views(x, augment.AugmentConfig(), gen), FM)
            states.append((out.pass_count, gen.bit_generator.state))
        assert [count for count, _ in states] == [0, 2]
        assert states[0][1] == states[1][1]


class TestWarmupObjective:
    """The warm-up sum ``engine._Trainer._train_step`` forms: one fixmatch
    step from initialisation on small synthetic data, where every row stays
    below tau=0.95 and some pass tau=0.4, with the optimizer update replaced
    by a record of the gradient it was given."""

    @staticmethod
    def stepper(monkeypatch, tau):
        cfg, _ = config.resolve(None, ["mode=fixmatch", "fixmatch.batch_size=16",
                                        f"fixmatch.tau={tau}"])
        ds = data.apply_split(data.generate_synthetic(3, 6, 40, 0.15, seed=2),
                              data.SplitSpec(labeled_ratio=0.2, seed=2))
        trainer = engine._Trainer(ds, cfg)
        chunk = trainer._epoch_chunks()[0]
        views = trainer._draw(chunk)
        seen = {}

        def supervised_loss(*args, _fn=fixmatch.supervised_loss):
            seen["sup"] = out = _fn(*args)
            out.grad[0] = -0.0  # adding a zero gradient would turn it into +0.0
            seen["sup_grad"] = out.grad.copy()  # before the step adds to it
            return out

        def sgd_step(m, state, grad, lr):
            seen["grad"] = grad

        monkeypatch.setattr(fixmatch, "supervised_loss", supervised_loss)
        monkeypatch.setattr(nn, "sgd_step", sgd_step)

        def step():
            seen["value"], _, seen["uns"] = trainer._train_step(chunk, views, 0.01, 0.0)
            return seen
        return trainer.model, step

    def test_zero_unsup_equals_supervised(self, monkeypatch):
        seen = self.stepper(monkeypatch, 0.95)[1]()
        assert seen["uns"].pass_count == 0 and seen["uns"].value == 0.0
        assert seen["value"] == seen["sup"].value
        # the step keeps sup.grad itself: no zero gradient is added to it
        assert seen["grad"] is seen["sup"].grad
        assert seen["grad"].tobytes() == seen["sup_grad"].tobytes()

    def test_values_add(self, monkeypatch):
        seen = self.stepper(monkeypatch, 0.4)[1]()
        assert seen["uns"].pass_count > 0
        assert seen["value"] == seen["sup"].value + seen["uns"].value
        assert seen["grad"].tobytes() == (seen["sup_grad"] + seen["uns"].grad).tobytes()

    def test_total_gradient_matches_finite_differences(self, monkeypatch):
        m, step = self.stepper(monkeypatch, 0.4)
        seen = step()
        assert seen["uns"].pass_count > 0
        analytic = m.params(seen["grad"])
        for name in ("hw", "b2"):
            theta = getattr(m, name)
            flat_idx = (0,) if theta.ndim == 1 else (0, 0)
            orig = theta[flat_idx]
            theta[flat_idx] = orig + 1e-5
            up = step()["value"]
            theta[flat_idx] = orig - 1e-5
            down = step()["value"]
            theta[flat_idx] = orig
            fd = (up - down) / 2e-5
            assert analytic[name][flat_idx] == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_tau_validation():
    with pytest.raises(InvalidParameterError):
        fixmatch.FixMatchConfig(tau=0.0)
    with pytest.raises(InvalidParameterError):
        fixmatch.FixMatchConfig(tau=1.5)
