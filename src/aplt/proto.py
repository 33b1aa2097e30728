"""Frozen prototype classifier: predictions and margin losses over features.

The bank is built offline and never trained; gradients here are taken with
respect to the features only, and the run driver routes them back through
the encoder. Scores are dot products against the per-class prototypes,
optionally sharpened by a temperature (T=1 keeps the plain dot-product
softmax; unit-norm scores live in [-1, 1], so the 0.1 default gives the
cross-entropy useful dynamic range at this scale).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cluster import PrototypeBank, PseudoLabelSet
from .errors import DimensionMismatchError, EmptyBatchError, InvalidParameterError
from .nn import softmax

_P_FLOOR = 1e-300


@dataclass(frozen=True)
class MarginConfig:
    temperature: float = 0.1
    lam: float = 1.0
    view: str = "strong"        # augmentation of the batches the margin terms see

    def __post_init__(self):
        if self.temperature <= 0:
            raise InvalidParameterError("temperature must be positive")
        if self.lam < 0:
            raise InvalidParameterError("lambda must be nonnegative")
        if self.view not in ("strong", "weak"):
            raise InvalidParameterError("view must be 'strong' or 'weak'")


@dataclass
class MarginLoss:
    value: float
    pass_count: int
    d_feats: np.ndarray  # gradient w.r.t. the feature batch; zero on masked rows


def _scores(bank: PrototypeBank, F: np.ndarray) -> np.ndarray:
    F = np.atleast_2d(np.asarray(F, dtype=np.float64))
    if F.shape[1] != bank.rho.shape[1]:
        raise DimensionMismatchError(
            f"feature dim {F.shape[1]} != prototype dim {bank.rho.shape[1]}")
    return F @ bank.rho.T


def predict(bank: PrototypeBank, F: np.ndarray) -> np.ndarray:
    """argmax over classes of F . rho_c; ties resolve to the lowest index."""
    return _scores(bank, F).argmax(axis=1)


def margin_loss_labeled(bank: PrototypeBank, F: np.ndarray, labels: np.ndarray,
                        cfg: MarginConfig) -> MarginLoss:
    """Softmax cross-entropy over prototype similarities, ground-truth targets."""
    F = np.atleast_2d(np.asarray(F, dtype=np.float64))
    labels = np.asarray(labels, dtype=np.int64)
    B = F.shape[0]
    if B == 0:
        raise EmptyBatchError("margin_loss_labeled on empty batch")
    p = softmax(_scores(bank, F) / cfg.temperature)
    py = np.maximum(p[np.arange(B), labels], _P_FLOOR)
    value = float(-np.log(py).mean())
    delta = p.copy()
    delta[np.arange(B), labels] -= 1.0
    d_feats = delta @ bank.rho / (B * cfg.temperature)
    return MarginLoss(value=value, pass_count=B, d_feats=d_feats)


def margin_loss_unlabeled(bank: PrototypeBank, F: np.ndarray,
                          pool_indices: np.ndarray, pseudo: PseudoLabelSet,
                          cfg: MarginConfig) -> MarginLoss:
    """Same form with offline pseudo-labels; discarded samples contribute
    zero loss and zero gradient but stay in the denominator."""
    F = np.atleast_2d(np.asarray(F, dtype=np.float64))
    B = F.shape[0]
    if B == 0:
        return MarginLoss(value=0.0, pass_count=0, d_feats=np.zeros_like(F))
    lookup = pseudo.label_lookup()
    targets = lookup[np.asarray(pool_indices, dtype=np.int64)]
    kept = targets >= 0
    if not kept.any():
        return MarginLoss(value=0.0, pass_count=0, d_feats=np.zeros_like(F))
    p = softmax(_scores(bank, F) / cfg.temperature)
    safe_targets = np.where(kept, targets, 0)
    py = np.maximum(p[np.arange(B), safe_targets], _P_FLOOR)
    value = float((kept * -np.log(py)).sum() / B)
    delta = p.copy()
    delta[np.arange(B), safe_targets] -= 1.0
    delta[~kept] = 0.0
    d_feats = delta @ bank.rho / (B * cfg.temperature)
    return MarginLoss(value=value, pass_count=int(kept.sum()), d_feats=d_feats)
