"""Weak/strong augmentation in feature space.

Weak = small isotropic Gaussian jitter. Strong = bigger jitter followed by
random coordinate masking, which destroys information the way aggressive
input augmentation does. Labels are never consulted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError


@dataclass(frozen=True)
class AugmentConfig:
    weak_sigma: float = 0.05
    strong_sigma: float = 0.20
    strong_mask_prob: float = 0.10

    def __post_init__(self):
        if self.weak_sigma < 0 or self.strong_sigma < 0:
            raise InvalidParameterError("sigmas must be nonnegative")
        if not (0.0 <= self.strong_mask_prob <= 1.0):
            raise InvalidParameterError("strong_mask_prob must lie in [0, 1]")
        if self.weak_sigma > self.strong_sigma:
            raise InvalidParameterError("weak_sigma must not exceed strong_sigma")


def weak(x: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    noise = rng.standard_normal(x.shape)  # x + sigma * noise, made in the noise's buffer
    return np.add(x, np.multiply(cfg.weak_sigma, noise, out=noise), out=noise)


def strong(x: np.ndarray, cfg: AugmentConfig, rng: np.random.Generator) -> np.ndarray:
    out = rng.standard_normal(x.shape)
    np.add(x, np.multiply(cfg.strong_sigma, out, out=out), out=out)
    if cfg.strong_mask_prob > 0.0:
        np.putmask(out, rng.random(x.shape) < cfg.strong_mask_prob, 0.0)
    return out
