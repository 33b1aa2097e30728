import numpy as np
import pytest

from aplt import cluster, proto
from aplt.errors import DimensionMismatchError, EmptyBatchError

T1 = proto.MarginConfig(temperature=1.0)


def make_bank(rho, counts=None, epoch=0):
    rho = np.asarray(rho, dtype=float)
    if counts is None:
        counts = np.ones(rho.shape[0], dtype=int)
    return cluster.PrototypeBank(rho=rho, counts=np.asarray(counts),
                                 build_epoch=epoch)


def pseudo_over(n, kept_idx, kept_labels, C=2):
    return cluster.PseudoLabelSet(
        indices=np.asarray(kept_idx, dtype=int),
        labels=np.asarray(kept_labels, dtype=int),
        tau_adapt=np.zeros(C), tau_global=0.0, tau_local=np.zeros(C),
        coverage=len(kept_idx) / max(n, 1), n_unlabeled=n)


class TestPredict:
    def test_prototype_itself_is_classified_to_its_class(self):
        rho = np.eye(4)[[1, 2, 3]]  # three distinct unit prototypes
        bank = make_bank(rho)
        pred = proto.predict(bank, rho[2][None, :])
        assert pred.tolist() == [2]

    def test_identical_prototypes_tie_to_class_zero(self):
        bank = make_bank(np.tile([1.0, 0.0], (3, 1)))
        pred = proto.predict(bank, np.array([[0.3, 0.7]]))
        assert pred.tolist() == [0]

    def test_uniform_positive_scaling_preserves_predictions(self):
        rng = np.random.default_rng(4)
        rho = rng.normal(size=(5, 6))
        F = rng.normal(size=(40, 6))
        base = proto.predict(make_bank(rho), F)
        for scale in (0.01, 3.0, 1e6):
            assert np.array_equal(proto.predict(make_bank(scale * rho), F), base)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            proto.predict(make_bank(np.eye(3)), np.zeros((2, 4)))


class TestMarginLossLabeled:
    def test_identical_prototypes_give_log_C(self):
        bank = make_bank(np.tile([0.6, 0.8], (5, 1)))
        F = np.random.default_rng(0).normal(size=(7, 2))
        y = np.random.default_rng(1).integers(0, 5, size=7)
        out = proto.margin_loss_labeled(bank, F, y, T1)
        assert out.value == pytest.approx(np.log(5), abs=1e-12)

    def test_orthonormal_hand_value(self):
        bank = make_bank(np.eye(2))
        out = proto.margin_loss_labeled(bank, np.array([[1.0, 0.0]]),
                                        np.array([0]), T1)
        assert out.value == pytest.approx(-np.log(np.e / (np.e + 1)), abs=1e-12)
        assert out.value == pytest.approx(0.3133, abs=1e-4)

    def test_empty_batch_rejected(self):
        with pytest.raises(EmptyBatchError):
            proto.margin_loss_labeled(make_bank(np.eye(2)), np.zeros((0, 2)),
                                      np.zeros(0, dtype=int), T1)

    @pytest.mark.parametrize("temperature", [1.0, 0.1])
    def test_feature_gradient_matches_finite_differences(self, temperature):
        rng = np.random.default_rng(8)
        bank = make_bank(rng.normal(size=(4, 5)))
        F = rng.normal(size=(6, 5))
        y = rng.integers(0, 4, size=6)
        cfg = proto.MarginConfig(temperature=temperature)
        out = proto.margin_loss_labeled(bank, F, y, cfg)
        step = 1e-6
        for i in (0, 3):
            for j in range(5):
                Fp, Fm = F.copy(), F.copy()
                Fp[i, j] += step
                Fm[i, j] -= step
                fd = (proto.margin_loss_labeled(bank, Fp, y, cfg).value
                      - proto.margin_loss_labeled(bank, Fm, y, cfg).value) / (2 * step)
                assert out.d_feats[i, j] == pytest.approx(fd, rel=1e-4, abs=1e-10)


class TestMarginLossUnlabeled:
    def test_no_kept_samples_is_inert(self):
        bank = make_bank(np.eye(2))
        F = np.random.default_rng(2).normal(size=(4, 2))
        pseudo = pseudo_over(10, [], [])
        out = proto.margin_loss_unlabeled(bank, F, np.arange(4), pseudo, T1)
        assert out.value == 0.0
        assert out.pass_count == 0
        assert np.all(out.d_feats == 0.0)

    def test_single_kept_sample_matches_labeled_form_scaled(self):
        bank = make_bank(np.eye(2))
        rng = np.random.default_rng(3)
        F = rng.normal(size=(4, 2))
        pseudo = pseudo_over(10, kept_idx=[7], kept_labels=[1])
        out = proto.margin_loss_unlabeled(bank, F, np.array([5, 7, 8, 9]),
                                          pseudo, T1)
        single = proto.margin_loss_labeled(bank, F[1][None, :], np.array([1]), T1)
        assert out.value == pytest.approx(single.value / 4, abs=1e-12)
        assert out.pass_count == 1

    def test_dropped_rows_get_exactly_zero_gradient(self):
        bank = make_bank(np.eye(3))
        rng = np.random.default_rng(5)
        F = rng.normal(size=(5, 3))
        pseudo = pseudo_over(20, kept_idx=[2, 11], kept_labels=[0, 2], C=3)
        pool = np.array([2, 4, 11, 12, 13])
        out = proto.margin_loss_unlabeled(bank, F, pool, pseudo, T1)
        assert np.all(out.d_feats[[1, 3, 4]] == 0.0)
        assert np.any(out.d_feats[0] != 0.0)
        assert np.any(out.d_feats[2] != 0.0)


class TestTotalMargin:
    def test_gradient_additivity_by_finite_differences(self):
        rng = np.random.default_rng(11)
        bank = make_bank(rng.normal(size=(3, 4)))
        F_l = rng.normal(size=(3, 4))
        y = rng.integers(0, 3, size=3)
        F_u = rng.normal(size=(2, 4))
        pseudo = pseudo_over(5, kept_idx=[0, 4], kept_labels=[1, 2], C=3)
        pool = np.array([0, 4])

        def total(Fl, Fu):
            return (proto.margin_loss_labeled(bank, Fl, y, T1).value
                    + proto.margin_loss_unlabeled(bank, Fu, pool, pseudo, T1).value)

        sup = proto.margin_loss_labeled(bank, F_l, y, T1)
        unsup = proto.margin_loss_unlabeled(bank, F_u, pool, pseudo, T1)
        step = 1e-6
        Fp = F_l.copy(); Fp[1, 2] += step
        Fm = F_l.copy(); Fm[1, 2] -= step
        fd = (total(Fp, F_u) - total(Fm, F_u)) / (2 * step)
        assert sup.d_feats[1, 2] == pytest.approx(fd, rel=1e-4)
        Fp = F_u.copy(); Fp[0, 1] += step
        Fm = F_u.copy(); Fm[0, 1] -= step
        fd = (total(F_l, Fp) - total(F_l, Fm)) / (2 * step)
        assert unsup.d_feats[0, 1] == pytest.approx(fd, rel=1e-4)


def test_bank_digest_tracks_content():
    rng = np.random.default_rng(13)
    bank = make_bank(rng.normal(size=(3, 4)))
    d1 = bank.digest()
    assert d1 == bank.digest()
    bank.rho[0, 0] += 1e-12
    assert bank.digest() != d1
