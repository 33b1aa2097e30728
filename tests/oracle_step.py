"""The online step's numeric path as it was written before its call diet,
kept as a bit-exact test oracle.

``forward``, ``backward``, ``_masked_ce``, ``_margin``, ``weak`` and
``strong`` are the straightforward versions of the package's functions of
the same names: every intermediate a fresh array, the norm from
``np.linalg.norm``, ``ndarray`` reduction methods, the weights through the
model's properties and the gradient written through ``params()`` views into
a zero vector. Only module prefixes changed, so that each function calls
this file's versions of the others, and the softmax Jacobian-vector product
became ``softmax_jvp``. They also keep the API from before the package's
``forward`` dropped the head and its ``backward`` took the gradient on the
logits: here ``forward(head=True)`` adds the head's probabilities, and
``backward`` takes ``d_probs``. The package's versions make fewer numpy calls and temporaries;
the tests in ``test_step_oracle.py`` require the same bytes from both.
"""

from typing import NamedTuple

import numpy as np

from aplt.errors import ApltError, DimensionMismatchError
from aplt.proto import MarginLoss

_NORM_FLOOR = 1e-12
_P_FLOOR = 1e-300


class Activations(NamedTuple):
    z1: np.ndarray
    a1: np.ndarray
    norms: np.ndarray
    feats: np.ndarray
    probs: np.ndarray | None = None


def _check_input(m, x):
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != m.input_dim:
        raise DimensionMismatchError(
            f"input dim {x.shape[1]} != model dim {m.input_dim}")
    return x


def softmax(logits):
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def head_probs(m, feats):
    logits = feats @ m.hw
    logits += m.hb
    return softmax(logits)


def forward(m, x, head=False):
    x = _check_input(m, x)
    z1 = x @ m.w1 + m.b1
    a1 = np.maximum(z1, 0.0)
    v = a1 @ m.w2 + m.b2
    norms = np.maximum(np.linalg.norm(v, axis=1, keepdims=True), _NORM_FLOOR)
    feats = v / norms
    return Activations(z1, a1, norms, feats, head_probs(m, feats) if head else None)


def softmax_jvp(p, d_probs):
    """The gradient on the logits of a softmax with outputs p, given the
    gradient d_probs on its outputs."""
    inner = (p * d_probs).sum(axis=1, keepdims=True)
    return p * d_probs - p * inner


def backward(m, x, d_probs=None, d_feats=None, acts=None):
    x = _check_input(m, x)
    if d_probs is None and d_feats is None:
        raise ApltError("backward needs at least one upstream gradient")
    if acts is None:
        acts = forward(m, x, head=d_probs is not None)
    z1, a1, norms, feats = acts.z1, acts.a1, acts.norms, acts.feats
    B = x.shape[0]

    grad = np.zeros_like(m.theta)
    g = m.params(grad)
    dF = np.zeros_like(feats)
    if d_probs is not None:
        d_probs = np.asarray(d_probs, dtype=np.float64)
        if d_probs.shape != (B, m.num_classes):
            raise DimensionMismatchError("d_probs shape mismatch")
        p = acts.probs if acts.probs is not None else head_probs(m, feats)
        d_logits = softmax_jvp(p, d_probs)
        np.matmul(feats.T, d_logits, out=g["hw"])
        d_logits.sum(axis=0, out=g["hb"])
        dF += d_logits @ m.hw.T

    if d_feats is not None:
        d_feats = np.asarray(d_feats, dtype=np.float64)
        if d_feats.shape != feats.shape:
            raise DimensionMismatchError("d_feats shape mismatch")
        dF += d_feats

    dv = (dF - feats * (feats * dF).sum(axis=1, keepdims=True)) / norms
    np.matmul(a1.T, dv, out=g["w2"])
    dv.sum(axis=0, out=g["b2"])
    dz1 = (dv @ m.w2.T) * (z1 > 0)
    np.matmul(x.T, dz1, out=g["w1"])
    dz1.sum(axis=0, out=g["b1"])
    return grad


def _masked_ce(m, x, targets, kept):
    if not kept.any():
        return 0.0, np.zeros_like(m.theta)
    B = x.shape[0]
    rows = np.arange(B)
    acts = forward(m, x, head=True)
    py = np.maximum(acts.probs[rows, targets], _P_FLOOR)
    value = float((kept * -np.log(py)).sum() / B)
    d_probs = np.zeros_like(acts.probs)
    d_probs[rows, targets] = np.where(kept, -1.0 / (B * py), 0.0)
    return value, backward(m, x, d_probs=d_probs, acts=acts)


def _scores(bank, F):
    F = np.atleast_2d(np.asarray(F, dtype=np.float64))
    if F.shape[1] != bank.rho.shape[1]:
        raise DimensionMismatchError(
            f"feature dim {F.shape[1]} != prototype dim {bank.rho.shape[1]}")
    return F @ bank.rho.T


def _margin(bank, F, targets, kept, cfg):
    B = F.shape[0]
    rows = np.arange(B)
    p = softmax(_scores(bank, F) / cfg.temperature)
    py = np.maximum(p[rows, targets], _P_FLOOR)
    value = float((kept * -np.log(py)).sum() / B)
    p[rows, targets] -= 1.0
    p[~kept] = 0.0
    d_feats = p @ bank.rho / (B * cfg.temperature)
    return MarginLoss(value=value, pass_count=int(kept.sum()), d_feats=d_feats)


def weak(x, cfg, rng):
    x = np.asarray(x, dtype=np.float64)
    return x + cfg.weak_sigma * rng.standard_normal(x.shape)


def strong(x, cfg, rng):
    x = np.asarray(x, dtype=np.float64)
    out = x + cfg.strong_sigma * rng.standard_normal(x.shape)
    if cfg.strong_mask_prob > 0.0:
        out = np.where(rng.random(x.shape) < cfg.strong_mask_prob, 0.0, out)
    return out
