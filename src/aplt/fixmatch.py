"""The warm-up objective's two terms: supervised cross-entropy and
confidence-thresholded consistency between weak and strong views of
unlabeled data. ``engine._Trainer._train_step`` adds them.

Pseudo-labels always come from the weak view; the strong view is never asked
to label anything. Samples whose weak-view confidence stays below tau
contribute exactly zero loss and zero gradient, but still count in the
batch-size denominator. Each term hands ``nn.backward`` its gradient on the
head's logits, formed in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import EmptyBatchError, InvalidParameterError


@dataclass(frozen=True)
class FixMatchConfig:
    tau: float = 0.95
    batch_size: int = 64

    def __post_init__(self):
        if not (0.0 < self.tau <= 1.0):
            raise InvalidParameterError("tau must lie in (0, 1]")
        if self.batch_size < 1:
            raise InvalidParameterError("batch_size must be positive")


@dataclass
class BatchLoss:
    """Loss value plus its flat parameter gradient (``nn.backward``'s layout).

    ``pass_count`` is how many unlabeled samples cleared the threshold
    (equals the batch size for supervised terms). ``pseudo_labels`` and
    ``passed`` are exposed so the run driver can score pseudo-label accuracy
    as an evaluation-only metric.
    """
    value: float
    pass_count: int
    grad: np.ndarray
    pseudo_labels: np.ndarray | None = None
    passed: np.ndarray | None = None


def _masked_ce(m: nn.EncoderModel, x: np.ndarray, targets: np.ndarray,
               kept: np.ndarray | None):
    """Cross-entropy of the head's prediction on x against targets, and its
    flat parameter gradient. Rows where ``kept`` is False contribute zero loss
    and zero gradient but stay in the batch-size denominator; ``kept=None``
    keeps every row. With no row kept, the encoder does not run at all."""
    if kept is not None and not np.count_nonzero(kept):
        return 0.0, np.zeros(m.theta.size)
    B = x.shape[0]
    rows = np.arange(B)
    acts = nn.forward(m, x)
    p = nn.head_probs(m, acts.feats)
    p_t = p[rows, targets]
    py = np.maximum(p_t, nn._P_FLOOR)
    nll, d_py = -np.log(py), -1.0 / (B * py)
    if kept is not None:
        nll *= kept
        d_py = np.where(kept, d_py, 0.0)
    # p * dp - p * (p . dp) for dp = d_py at the targets, signed zeros included:
    # s is p * dp's one nonzero per row, and s + 0.0 its row sum (-0.0 -> +0.0)
    s = p_t * d_py
    q = s + 0.0
    d_logits = p * (0.0 - q)[:, None]
    d_logits[rows, targets] = s - p_t * q
    return float(np.add.reduce(nll) / B), nn.backward(m, x, acts, d_logits=d_logits)


def supervised_loss(m: nn.EncoderModel, x: np.ndarray, y: np.ndarray) -> BatchLoss:
    """Mean cross-entropy of a labeled batch's weak view x against its labels y."""
    B = x.shape[0]
    if B == 0:
        raise EmptyBatchError("supervised_loss on empty batch")
    value, grad = _masked_ce(m, x, y, None)
    return BatchLoss(value=value, pass_count=B, grad=grad)


def unlabeled_loss(m: nn.EncoderModel, x: np.ndarray, x_strong: np.ndarray,
                   cfg: FixMatchConfig) -> BatchLoss:
    """Thresholded consistency: an unlabeled batch's weak view x labels its
    strong view x_strong. q = p(x); rows with max(q) >= tau supervise
    p(x_strong) through cross-entropy with argmax(q). The sum is averaged
    over the full batch size, masked-out rows included.
    """
    if x.shape[0] == 0:
        raise EmptyBatchError("unlabeled_loss on empty batch")
    q = nn.forward_logits(m, x)  # label source, no grad
    qhat = q.argmax(axis=1)
    passed = q[np.arange(qhat.size), qhat] >= cfg.tau  # each row's max(q)
    value, grad = _masked_ce(m, x_strong, qhat, passed)
    return BatchLoss(value=value, pass_count=int(np.count_nonzero(passed)), grad=grad,
                     pseudo_labels=qhat, passed=passed)
