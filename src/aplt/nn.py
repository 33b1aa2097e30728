"""Single-hidden-layer encoder with a softmax head, trained by hand-rolled SGD.

Forward graph:

    z1 = x @ w1 + b1          (d -> h)
    a1 = relu(z1)
    v  = a1 @ w2 + b2         (h -> e)
    F  = v / ||v||            when feature_norm, else F = v
    p  = softmax(F @ hw + hb) (e -> C)   parametric classifier

The head consumes the encoder output F, i.e. the same (unit-norm) feature
space that clustering and the prototype margin operate in, where dot
products and Euclidean distances are interchangeable.

``backward`` accepts upstream gradients on the probabilities (classifier
path) and/or on the features (prototype-margin path, which never touches
the head) and returns gradients for every parameter. Checkpoints are npz
archives holding shapes and raw float64 values, so round-trips are exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ApltError, DimensionMismatchError, NonFiniteError

PARAM_NAMES = ("w1", "b1", "w2", "b2", "hw", "hb")

_NORM_FLOOR = 1e-12  # keeps zero feature vectors from dividing by zero


@dataclass
class EncoderModel:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    hw: np.ndarray
    hb: np.ndarray
    feature_norm: bool = True

    @classmethod
    def init(cls, d: int, h: int, e: int, C: int, rng: np.random.Generator,
             feature_norm: bool = True) -> "EncoderModel":
        """He-scaled weights, zero biases."""
        return cls(
            w1=rng.normal(scale=np.sqrt(2.0 / d), size=(d, h)),
            b1=np.zeros(h),
            w2=rng.normal(scale=np.sqrt(2.0 / h), size=(h, e)),
            b2=np.zeros(e),
            hw=rng.normal(scale=np.sqrt(2.0 / e), size=(e, C)),
            hb=np.zeros(C),
            feature_norm=feature_norm,
        )

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.w2.shape[1]

    @property
    def num_classes(self) -> int:
        return self.hw.shape[1]

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}

    def copy(self) -> "EncoderModel":
        return EncoderModel(*(getattr(self, n).copy() for n in PARAM_NAMES),
                            feature_norm=self.feature_norm)


@dataclass
class OptimizerState:
    momentum: float = 0.9
    weight_decay: float = 0.0005
    buffers: dict = field(default_factory=dict)
    step_count: int = 0


def _check_input(m: EncoderModel, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != m.input_dim:
        raise DimensionMismatchError(
            f"input dim {x.shape[1]} != model dim {m.input_dim}")
    return x


def _forward_all(m: EncoderModel, x: np.ndarray):
    z1 = x @ m.w1 + m.b1
    a1 = np.maximum(z1, 0.0)
    v = a1 @ m.w2 + m.b2
    if m.feature_norm:
        norms = np.maximum(np.linalg.norm(v, axis=1, keepdims=True), _NORM_FLOOR)
        feats = v / norms
    else:
        norms = None
        feats = v
    return z1, a1, v, norms, feats


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


def forward_features(m: EncoderModel, x: np.ndarray) -> np.ndarray:
    """Encoder output F; unit L2 norm per row when feature_norm is on."""
    x = _check_input(m, x)
    return _forward_all(m, x)[4]


def forward_logits(m: EncoderModel, x: np.ndarray) -> np.ndarray:
    """Class probabilities from the parametric head (softmax rows)."""
    x = _check_input(m, x)
    feats = _forward_all(m, x)[4]
    return softmax(feats @ m.hw + m.hb)


def backward(m: EncoderModel, x: np.ndarray,
             d_probs: np.ndarray | None = None,
             d_feats: np.ndarray | None = None) -> dict[str, np.ndarray]:
    """Parameter gradients for upstream d(loss)/d(probs) and/or d(loss)/d(F).

    The margin path supplies only ``d_feats`` (prototypes are frozen, so
    nothing flows into the head); the classifier path supplies ``d_probs``.
    Both may be given at once and their contributions add.
    """
    x = _check_input(m, x)
    if d_probs is None and d_feats is None:
        raise ApltError("backward needs at least one upstream gradient")
    z1, a1, v, norms, feats = _forward_all(m, x)
    B = x.shape[0]

    grads = {}
    dF = np.zeros_like(feats)
    if d_probs is not None:
        d_probs = np.asarray(d_probs, dtype=np.float64)
        if d_probs.shape != (B, m.num_classes):
            raise DimensionMismatchError("d_probs shape mismatch")
        p = softmax(feats @ m.hw + m.hb)
        # softmax Jacobian-vector product
        inner = (p * d_probs).sum(axis=1, keepdims=True)
        d_logits = p * d_probs - p * inner
        grads["hw"] = feats.T @ d_logits
        grads["hb"] = d_logits.sum(axis=0)
        dF += d_logits @ m.hw.T
    else:
        grads["hw"] = np.zeros_like(m.hw)
        grads["hb"] = np.zeros_like(m.hb)

    if d_feats is not None:
        d_feats = np.asarray(d_feats, dtype=np.float64)
        if d_feats.shape != feats.shape:
            raise DimensionMismatchError("d_feats shape mismatch")
        dF += d_feats

    if m.feature_norm:
        dv = (dF - feats * (feats * dF).sum(axis=1, keepdims=True)) / norms
    else:
        dv = dF
    grads["w2"] = a1.T @ dv
    grads["b2"] = dv.sum(axis=0)
    dz1 = (dv @ m.w2.T) * (z1 > 0)
    grads["w1"] = x.T @ dz1
    grads["b1"] = dz1.sum(axis=0)
    return grads


def zero_grads(m: EncoderModel) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(getattr(m, name)) for name in PARAM_NAMES}


def add_grads(acc: dict, other: dict, scale: float = 1.0) -> dict:
    for name in PARAM_NAMES:
        acc[name] = acc[name] + scale * other[name]
    return acc


def sgd_step(m: EncoderModel, state: OptimizerState,
             grads: dict[str, np.ndarray], lr: float) -> None:
    """v <- mu*v + g + wd*theta ; theta <- theta - lr*v  (in place)."""
    for name in PARAM_NAMES:
        g = grads[name]
        if not np.isfinite(g).all():
            raise NonFiniteError(f"nonfinite gradient in {name}; aborting run")
        theta = getattr(m, name)
        buf = state.buffers.get(name)
        if buf is None:
            buf = np.zeros_like(theta)
        buf = state.momentum * buf + g + state.weight_decay * theta
        state.buffers[name] = buf
        setattr(m, name, theta - lr * buf)
    state.step_count += 1


def cosine_lr(epoch: int, total_epochs: int, base: float) -> float:
    return base * 0.5 * (1.0 + np.cos(np.pi * epoch / total_epochs))


# ---------------------------------------------------------------------------
# Checkpoints: npz with a json "meta" entry plus raw parameter arrays.
# A prototype bank rides along in the same file under "bank_*" keys.
# ---------------------------------------------------------------------------

def save_checkpoint(path, m: EncoderModel, bank=None, extra: dict | None = None) -> None:
    arrays = {name: getattr(m, name) for name in PARAM_NAMES}
    meta = {"format": "aplt-checkpoint-v1",
            "feature_norm": bool(m.feature_norm),
            "extra": extra or {}}
    if bank is not None:
        arrays["bank_rho"] = bank.rho
        arrays["bank_counts"] = bank.counts
        meta["bank_epoch"] = int(bank.build_epoch)
    arrays["meta"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path):
    """Returns (model, bank_or_None, extra_dict)."""
    from .cluster import PrototypeBank

    with np.load(path) as z:
        meta = json.loads(bytes(z["meta"]).decode())
        if meta.get("format") != "aplt-checkpoint-v1":
            raise ApltError("not an aplt checkpoint")
        m = EncoderModel(*(z[name] for name in PARAM_NAMES),
                         feature_norm=meta["feature_norm"])
        bank = None
        if "bank_rho" in z:
            bank = PrototypeBank(rho=z["bank_rho"], counts=z["bank_counts"],
                                 build_epoch=meta.get("bank_epoch", -1))
    return m, bank, meta.get("extra", {})
