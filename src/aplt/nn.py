"""Single-hidden-layer encoder with a softmax head, trained by hand-rolled SGD.

Forward graph:

    z1 = x @ w1 + b1          (d -> h)
    a1 = relu(z1)
    v  = a1 @ w2 + b2         (h -> e)
    F  = v / ||v||            unit-norm features
    p  = softmax(F @ hw + hb) (e -> C)   parametric classifier

The head consumes the encoder output F, i.e. the same (unit-norm) feature
space that clustering and the prototype margin operate in, where dot
products and Euclidean distances are interchangeable.

Every parameter lives in one flat vector ``theta``; ``w1`` ... ``hb`` are
views into it. ``forward`` returns every intermediate of one encoder pass,
and ``head_probs`` the head's output on its features; ``encode_rows`` gives
the features of a whole row set in bounded memory.
``backward`` takes the activations of the forward it differentiates and
upstream gradients on the head's logits (classifier path) and/or on the
features (prototype-margin path, which never touches the head), and returns
one flat gradient laid out like ``theta``: gradients add with ``+``, and
``params(grad)`` names their blocks. ``sgd_step`` updates ``theta`` and one
flat momentum buffer in place. Checkpoints are npz archives holding shapes
and raw float64 values, so round-trips are exact.
"""

from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ApltError, DataFormatError, DimensionMismatchError, NonFiniteError

PARAM_NAMES = ("w1", "b1", "w2", "b2", "hw", "hb")

_NORM_FLOOR = 1e-12  # keeps zero feature vectors from dividing by zero
_P_FLOOR = 1e-300  # log/division guard on softmax outputs; underflow only

# Budget for one row block's activations in ``encode_rows``.
_BLOCK_BYTES = 1 << 20


class EncoderModel:
    """Every parameter in one flat float64 vector ``theta``, in PARAM_NAMES
    order. ``w1`` ... ``hb`` are reshaped views into it that cannot be
    rebound, so updating ``theta`` in place updates them all. A copy
    (``copy.deepcopy`` or pickle) builds its own ``theta`` and views."""

    w1, b1, w2, b2, hw, hb = (property(lambda m, n=n: m._views[n]) for n in PARAM_NAMES)
    theta = property(lambda m: m._theta)

    def __init__(self, w1, b1, w2, b2, hw, hb):
        arrays = [np.asarray(a, dtype=np.float64) for a in (w1, b1, w2, b2, hw, hb)]
        stops = np.cumsum([a.size for a in arrays]).tolist()
        self._layout = [(name, stop - a.size, stop, a.shape)
                        for name, a, stop in zip(PARAM_NAMES, arrays, stops)]
        self._theta = np.concatenate([a.ravel() for a in arrays])
        self._views = self.params()

    def __reduce__(self):
        return EncoderModel, tuple(self.params().values())

    @classmethod
    def init(cls, d: int, h: int, e: int, C: int, rng: np.random.Generator) -> "EncoderModel":
        """He-scaled weights, zero biases."""
        return cls(rng.normal(scale=np.sqrt(2.0 / d), size=(d, h)), np.zeros(h),
                   rng.normal(scale=np.sqrt(2.0 / h), size=(h, e)), np.zeros(e),
                   rng.normal(scale=np.sqrt(2.0 / e), size=(e, C)), np.zeros(C))

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.w2.shape[1]

    @property
    def num_classes(self) -> int:
        return self.hw.shape[1]

    def params(self, vec: np.ndarray | None = None) -> dict[str, np.ndarray]:
        """Views by name into ``theta``, or into ``vec``, a flat vector laid
        out like it (a gradient)."""
        vec = self._theta if vec is None else vec
        return {name: vec[start:stop].reshape(shape) for name, start, stop, shape in self._layout}


@dataclass
class OptimizerState:
    """Momentum SGD state; ``velocity`` is laid out like ``theta``."""
    momentum: float
    weight_decay: float
    velocity: np.ndarray | None = None
    step_count: int = 0


def _check_input(m: EncoderModel, x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[1] != m._views["w1"].shape[0]:
        raise DimensionMismatchError(f"input shape {x.shape} != (n, {m.input_dim})")


class Activations(NamedTuple):
    """What one encoder pass computed: everything ``backward`` needs."""
    z1: np.ndarray
    a1: np.ndarray
    norms: np.ndarray
    feats: np.ndarray


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax computed in the buffer ``logits`` and returned: shift by
    the row max, exponentiate and normalize in place. Every caller passes a
    temporary of its own."""
    logits -= np.maximum.reduce(logits, axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= np.add.reduce(logits, axis=1, keepdims=True)
    return logits


def head_probs(m: EncoderModel, feats: np.ndarray) -> np.ndarray:
    """The head's class probabilities for the features ``feats``."""
    logits = feats @ m._views["hw"]
    logits += m._views["hb"]
    return softmax(logits)


def forward(m: EncoderModel, x: np.ndarray) -> Activations:
    """One encoder pass over the rows of x, a 2-D float64 array."""
    _check_input(m, x)
    w = m._views
    z1 = x @ w["w1"] + w["b1"]
    a1 = np.maximum(z1, 0.0)
    v = a1 @ w["w2"] + w["b2"]
    # the sum is what np.linalg.norm(v, axis=1, keepdims=True) takes the root of
    norms = np.maximum(np.sqrt(np.add.reduce(v * v, axis=1, keepdims=True)), _NORM_FLOOR)
    v /= norms
    return Activations(z1, a1, norms, v)


def forward_features(m: EncoderModel, x: np.ndarray) -> np.ndarray:
    """Encoder output F, unit L2 norm per row."""
    return forward(m, x).feats


def _block_rows(m: EncoderModel) -> int:
    """Rows per block of ``encode_rows``: about ``_BLOCK_BYTES`` of input
    and activations (x, z1, a1, v, F), and never fewer than 4."""
    return max(4, _BLOCK_BYTES // (8 * (m.input_dim + 2 * m.w1.shape[1] + 2 * m.feature_dim)))


def encode_rows(m: EncoderModel, X: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """``forward_features`` of X[rows] (of all of X without ``rows``), one
    row block at a time into one (n, e) array, so the transient memory is
    one block's activations whatever n is.

    Every row's features equal, bit for bit, those of one pass over all n
    rows (the tests check it). That holds for the encoder's own products,
    whose right operands are ``w1`` and ``w2``: measured with OpenBLAS
    0.3.31 (Haswell kernels), their gemm output rows did not depend on how
    many rows a block had. It is not a property of gemm in general. On the
    same build a transposed right operand (``dv @ w2.T``, ``F @ rho.T``)
    rounded differently for some row counts, and so did the 32×100 head
    ``hw``. A one-row product always differs, because numpy hands it to
    gemv. So the rows go in near-equal blocks of at most ``_block_rows``
    rows, and no block has one row unless n is 1.
    """
    n = X.shape[0] if rows is None else rows.size
    out = np.empty((n, m.feature_dim))
    blocks = max(1, -(-n // _block_rows(m)))
    bounds = [n * i // blocks for i in range(blocks + 1)]
    for start, stop in zip(bounds, bounds[1:]):
        out[start:stop] = forward_features(m, X[start:stop] if rows is None
                                           else X[rows[start:stop]])
    return out


def forward_logits(m: EncoderModel, x: np.ndarray) -> np.ndarray:
    """Class probabilities from the parametric head (softmax rows)."""
    return head_probs(m, forward(m, x).feats)


def backward(m: EncoderModel, x: np.ndarray, acts: Activations,
             d_logits: np.ndarray | None = None,
             d_feats: np.ndarray | None = None) -> np.ndarray:
    """Parameter gradients for upstream d(loss)/d(head logits) and/or d(loss)/d(F).

    The margin path supplies only ``d_feats`` (prototypes are frozen, so
    nothing flows into the head); the classifier path supplies ``d_logits``.
    Both may be given at once and their contributions add. ``acts`` is
    ``forward(m, x)`` of this same model and x. Returns one flat gradient laid
    out like ``m.theta``.
    """
    _check_input(m, x)
    if d_logits is None and d_feats is None:
        raise ApltError("backward needs at least one upstream gradient")
    z1, a1, norms, feats = acts
    w = m._views

    # the scalar 0.0 stands for a zero array: 0.0 + a term has its bits
    dF, head = 0.0, (np.zeros(w["hw"].size + w["hb"].size),)
    if d_logits is not None:
        if d_logits.shape != (x.shape[0], w["hb"].size):
            raise DimensionMismatchError("d_logits shape mismatch")
        head = (feats.T @ d_logits, np.add.reduce(d_logits, axis=0))
        dF += d_logits @ w["hw"].T
    if d_feats is not None:
        if d_feats.shape != feats.shape:
            raise DimensionMismatchError("d_feats shape mismatch")
        dF += d_feats

    dF -= feats * np.add.reduce(feats * dF, axis=1, keepdims=True)
    dv = np.divide(dF, norms, out=dF)
    dz1 = dv @ w["w2"].T
    dz1 *= z1 > 0
    # PARAM_NAMES order, as m.theta
    return np.concatenate((x.T @ dz1, np.add.reduce(dz1, axis=0),
                           a1.T @ dv, np.add.reduce(dv, axis=0), *head), axis=None)


def sgd_step(m: EncoderModel, state: OptimizerState, grad: np.ndarray, lr: float) -> None:
    """v <- mu*v + g + wd*theta ; theta <- theta - lr*v  (in place, over the
    flat vectors)."""
    if not np.logical_and.reduce(np.isfinite(grad)):
        first = np.flatnonzero(~np.isfinite(grad))[0]
        name = next(name for name, _, stop, _ in m._layout if first < stop)
        raise NonFiniteError(f"nonfinite gradient in {name}; aborting run")
    if state.velocity is None:
        state.velocity = np.zeros(m._theta.size)
    v, theta = state.velocity, m._theta
    v *= state.momentum
    v += grad
    v += state.weight_decay * theta
    theta -= lr * v
    state.step_count += 1


def cosine_lr(epoch: int, total_epochs: int, base: float) -> float:
    return base * 0.5 * (1.0 + np.cos(np.pi * epoch / total_epochs))


# ---------------------------------------------------------------------------
# Checkpoints: npz with a json "meta" entry plus raw parameter arrays.
# A prototype bank rides along in the same file under "bank_*" keys.
# ---------------------------------------------------------------------------

def save_checkpoint(path, m: EncoderModel, bank=None, extra: dict | None = None) -> None:
    arrays = m.params()
    meta = {"format": "aplt-checkpoint-v1", "feature_norm": True, "extra": extra or {}}
    if bank is not None:
        arrays["bank_rho"] = bank.rho
        arrays["bank_counts"] = bank.counts
        meta["bank_epoch"] = int(bank.build_epoch)
    arrays["meta"] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _misfits(arrays: dict) -> list[str]:
    """Names of the arrays whose shapes do not fit w1, w2 and hw."""
    matrices = ("w1", "w2", "hw")
    if any(arrays[name].ndim != 2 for name in matrices):
        return [name for name in matrices if arrays[name].ndim != 2]
    (d, h), e, C = arrays["w1"].shape, arrays["w2"].shape[1], arrays["hw"].shape[1]
    want = {"w1": (d, h), "b1": (h,), "w2": (h, e), "b2": (e,), "hw": (e, C), "hb": (C,),
            "bank_rho": (C, e), "bank_counts": (C,)}
    return [name for name, a in arrays.items() if a.shape != want[name]]


def load_checkpoint(path):
    """Returns (model, bank_or_None, extra_dict). A file that is not an npz
    archive, has no readable meta, carries another format tag, lacks a
    parameter array, the feature_norm flag or half of the bank pair, has a
    false feature_norm flag, or holds arrays whose shapes do not fit
    together raises DataFormatError naming the path."""
    from .cluster import PrototypeBank

    try:
        z = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise DataFormatError(f"{path}: not an npz archive ({exc})") from None
    if not isinstance(z, np.lib.npyio.NpzFile):
        raise DataFormatError(f"{path}: not an npz archive")
    with z:
        try:
            meta = json.loads(bytes(z["meta"]).decode())
        except (KeyError, ValueError) as exc:
            raise DataFormatError(f"{path}: no readable checkpoint meta ({exc})") from None
        if not isinstance(meta, dict) or meta.get("format") != "aplt-checkpoint-v1":
            raise DataFormatError(f"{path}: not an aplt-checkpoint-v1 file")
        bank_names = ("bank_rho", "bank_counts")
        names = PARAM_NAMES + (bank_names if any(n in z.files for n in bank_names) else ())
        missing = [name for name in names if name not in z.files]
        if "feature_norm" not in meta:
            missing.append("meta.feature_norm")
        if missing:
            raise DataFormatError(f"{path}: incomplete checkpoint, missing {', '.join(missing)}")
        if meta["feature_norm"] is not True:
            raise DataFormatError(f"{path}: meta.feature_norm is {json.dumps(meta['feature_norm'])}"
                                  "; only unit-norm features are supported")
        arrays = {name: z[name] for name in names}
    misfits = _misfits(arrays)
    if misfits:
        raise DataFormatError(f"{path}: array shapes do not fit together: " + ", ".join(
            f"{name} {arrays[name].shape}" for name in misfits))
    m = EncoderModel(*(arrays[name] for name in PARAM_NAMES))
    bank = None
    if "bank_rho" in arrays:
        bank = PrototypeBank(rho=arrays["bank_rho"], counts=arrays["bank_counts"],
                             build_epoch=meta.get("bank_epoch", -1))
    return m, bank, meta.get("extra", {})
