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

from .cluster import PrototypeBank
from .errors import DimensionMismatchError, EmptyBatchError, InvalidParameterError
from .nn import _P_FLOOR, softmax


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
    if F.ndim != 2 or F.shape[1] != bank.rho.shape[1]:
        raise DimensionMismatchError(f"feature shape {F.shape} != (n, {bank.rho.shape[1]})")
    return F @ bank.rho.T


def predict(bank: PrototypeBank, F: np.ndarray) -> np.ndarray:
    """argmax over classes of F . rho_c; ties resolve to the lowest index."""
    return _scores(bank, F).argmax(axis=1)


def _margin(bank: PrototypeBank, F: np.ndarray, targets: np.ndarray,
            kept: np.ndarray | None, cfg: MarginConfig) -> MarginLoss:
    """Softmax cross-entropy over prototype similarities. Rows where
    ``kept`` is False contribute zero loss and zero gradient but stay in
    the batch-size denominator; ``kept=None`` keeps every row."""
    B = F.shape[0]
    rows = np.arange(B)
    p = softmax(_scores(bank, F) / cfg.temperature)
    nll = -np.log(np.maximum(p[rows, targets], _P_FLOOR))
    p[rows, targets] -= 1.0
    if kept is not None:
        nll *= kept
        p[~kept] = 0.0
    return MarginLoss(value=float(np.add.reduce(nll) / B),
                      pass_count=B if kept is None else int(np.count_nonzero(kept)),
                      d_feats=p @ bank.rho / (B * cfg.temperature))


def margin_loss_labeled(bank: PrototypeBank, F: np.ndarray, labels: np.ndarray,
                        cfg: MarginConfig) -> MarginLoss:
    """Margin cross-entropy against ground-truth targets, every row kept."""
    if F.shape[0] == 0:
        raise EmptyBatchError("margin_loss_labeled on empty batch")
    return _margin(bank, F, labels, None, cfg)


def margin_loss_unlabeled(bank: PrototypeBank, F: np.ndarray, targets: np.ndarray,
                          cfg: MarginConfig) -> MarginLoss:
    """Same form against each row's offline pseudo-label (int64), -1 where
    the offline event discarded it; those rows are masked out."""
    kept = targets >= 0
    if not np.count_nonzero(kept):  # also an empty batch
        return MarginLoss(value=0.0, pass_count=0, d_feats=np.zeros(F.shape))
    return _margin(bank, F, np.where(kept, targets, 0), kept, cfg)
