"""Weight initialization schemes for the autodiff modules."""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np


def xavier_uniform(shape: Tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform initialization for weight matrices."""
    fan_in = shape[0] if len(shape) > 0 else 1
    fan_out = shape[1] if len(shape) > 1 else shape[0]
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def uniform_embedding(shape: Tuple[int, ...], rng: np.random.Generator, scale: float = 0.1) -> np.ndarray:
    """Small uniform initialization for embedding tables."""
    return rng.uniform(-scale, scale, size=shape)
