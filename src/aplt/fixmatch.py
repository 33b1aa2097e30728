"""Warm-up objective: supervised cross-entropy plus confidence-thresholded
consistency between weak and strong views of unlabeled data.

Pseudo-labels always come from the weak view; the strong view is never asked
to label anything. Samples whose weak-view confidence stays below tau
contribute exactly zero loss and zero gradient, but still count in the
batch-size denominator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import augment, nn
from .errors import EmptyBatchError, InvalidParameterError

_P_FLOOR = 1e-300  # log/division guard; softmax underflow only


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
    """Loss value plus the parameter-gradient payload for the optimizer.

    ``pass_count`` is how many unlabeled samples cleared the threshold
    (equals the batch size for supervised terms). ``pseudo_labels`` and
    ``passed`` are exposed so the run driver can score pseudo-label accuracy
    as an evaluation-only metric.
    """
    value: float
    pass_count: int
    grads: dict = field(default_factory=dict)
    pseudo_labels: np.ndarray | None = None
    passed: np.ndarray | None = None


def supervised_loss(m: nn.EncoderModel, x: np.ndarray, y: np.ndarray,
                    aug: augment.AugmentConfig,
                    rng: np.random.Generator) -> BatchLoss:
    """Mean cross-entropy of the weak view against ground-truth labels."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.asarray(y, dtype=np.int64)
    B = x.shape[0]
    if B == 0:
        raise EmptyBatchError("supervised_loss on empty batch")
    xw = augment.weak(x, aug, rng)
    probs = nn.forward_logits(m, xw)
    py = np.maximum(probs[np.arange(B), y], _P_FLOOR)
    value = float(-np.log(py).mean())
    d_probs = np.zeros_like(probs)
    d_probs[np.arange(B), y] = -1.0 / (B * py)
    grads = nn.backward(m, xw, d_probs=d_probs)
    return BatchLoss(value=value, pass_count=B, grads=grads)


def unlabeled_loss(m: nn.EncoderModel, x: np.ndarray, cfg: FixMatchConfig,
                   aug: augment.AugmentConfig,
                   rng: np.random.Generator) -> BatchLoss:
    """Thresholded consistency: weak view labels the strong view.

    q = p(weak(x)); rows with max(q) >= tau supervise p(strong(x)) through
    cross-entropy with argmax(q). The sum is averaged over the full batch
    size, masked-out rows included.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    B = x.shape[0]
    if B == 0:
        raise EmptyBatchError("unlabeled_loss on empty batch")
    q = nn.forward_logits(m, augment.weak(x, aug, rng))  # label source, no grad
    passed = q.max(axis=1) >= cfg.tau
    qhat = q.argmax(axis=1)

    xs = augment.strong(x, aug, rng)
    probs = nn.forward_logits(m, xs)
    py = np.maximum(probs[np.arange(B), qhat], _P_FLOOR)
    value = float((passed * -np.log(py)).sum() / B)
    d_probs = np.zeros_like(probs)
    d_probs[np.arange(B), qhat] = np.where(passed, -1.0 / (B * py), 0.0)
    grads = nn.backward(m, xs, d_probs=d_probs)
    return BatchLoss(value=value, pass_count=int(passed.sum()), grads=grads,
                     pseudo_labels=qhat, passed=passed)


def warmup_objective(sup: BatchLoss, unsup: BatchLoss) -> BatchLoss:
    """Sum of the two terms, gradients included."""
    grads = {k: sup.grads[k] + unsup.grads[k] for k in sup.grads}
    return BatchLoss(value=sup.value + unsup.value,
                     pass_count=unsup.pass_count, grads=grads,
                     pseudo_labels=unsup.pseudo_labels, passed=unsup.passed)
