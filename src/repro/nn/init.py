"""Weight initializers (numpy Generators keep everything reproducible).

Every initializer returns ``DEFAULT_DTYPE`` (float64) explicitly rather
than relying on numpy's sampling defaults, so parameter precision is a
stated contract — the ``SH005`` rule in :mod:`repro.analyze.probe`
flags any model whose parameters drift from it.
"""

from __future__ import annotations

import math

import numpy as np

from ..autodiff.tensor import DEFAULT_DTYPE


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot uniform: U(-a, a), a = gain * sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = _fans(shape)
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(DEFAULT_DTYPE, copy=False)


def xavier_normal(shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    fan_in, fan_out = _fans(shape)
    std = gain * math.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=shape).astype(DEFAULT_DTYPE, copy=False)


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    fan_in, _ = _fans(shape)
    bound = math.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(DEFAULT_DTYPE, copy=False)


def uniform(shape: tuple[int, ...], rng: np.random.Generator, bound: float) -> np.ndarray:
    return rng.uniform(-bound, bound, size=shape).astype(DEFAULT_DTYPE, copy=False)


def normal(shape: tuple[int, ...], rng: np.random.Generator, std: float = 1.0) -> np.ndarray:
    return rng.normal(0.0, std, size=shape).astype(DEFAULT_DTYPE, copy=False)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape, dtype=DEFAULT_DTYPE)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    """Fan-in/fan-out following the PyTorch convention."""
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive
