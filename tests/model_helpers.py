"""Hand-built models with exactly known behavior, for loss/gradient tests,
and a counter of the encoder passes a piece of code makes."""

import numpy as np

from aplt import nn


def identity_encoder(d, hw=None, hb=None):
    """Encoder whose feature output is its input scaled to unit norm, so a
    unit-norm x passes through unchanged.

    Splits each coordinate into positive and negative parts in the hidden
    layer (h = 2d) and reassembles them, so the rectifier never clips.
    """
    w1 = np.concatenate([np.eye(d), -np.eye(d)], axis=1)   # d -> 2d
    w2 = np.concatenate([np.eye(d), -np.eye(d)], axis=0)   # 2d -> d
    C = d if hw is None else np.asarray(hw).shape[1]
    return nn.EncoderModel(
        w1=w1, b1=np.zeros(2 * d),
        w2=w2, b2=np.zeros(d),
        hw=np.eye(d) if hw is None else np.asarray(hw, dtype=float),
        hb=np.zeros(C) if hb is None else np.asarray(hb, dtype=float),
    )


def confident_model(d, scale=1000.0):
    """Identity encoder whose head predicts class=argmax coordinate with
    probability 1.0 in float64 for unit-norm inputs along an axis (logit gaps
    overflow the softmax tail)."""
    return identity_encoder(d, hw=scale * np.eye(d))


def count_encoder_passes(monkeypatch):
    """Counts calls of nn.forward (every encoder forward, including those of
    forward_features and forward_logits) and of nn.backward from here on, in
    a dict that updates as they run."""
    calls = {"forward": 0, "backward": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(nn, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(nn, name, counted)
    return calls
