"""Composite differentiable functions built on top of the primitives.

These mirror ``torch.nn.functional``: stateless operations used by both the
core TGCRN modules and the baselines.
"""

from __future__ import annotations

import numpy as np

from .tensor import DEFAULT_DTYPE, Tensor, ensure_tensor, get_symbolic_handler, is_grad_enabled


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    x = ensure_tensor(x)
    handler = get_symbolic_handler()  # set only by the engine's capture/replay
    if handler is not None:
        symbolic = handler.softmax(x, axis)
        if symbolic is not None:
            return symbolic
    shifted_data = x.data - x.data.max(axis=axis, keepdims=True)
    exp_data = np.exp(shifted_data)
    out_data = exp_data / exp_data.sum(axis=axis, keepdims=True)

    def backward_fn(grad):
        # d softmax: s * (g - sum(g * s))
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (grad - dot))

    return Tensor._make(out_data, (x,), backward_fn)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax."""
    x = ensure_tensor(x)
    handler = get_symbolic_handler()  # set only by the engine's capture/replay
    if handler is not None:
        symbolic = handler.log_softmax(x, axis)
        if symbolic is not None:
            return symbolic
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_norm
    soft = np.exp(out_data)

    def backward_fn(grad):
        x._accumulate(grad - soft * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), backward_fn)


def dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: identity at eval, scaled mask during training."""
    if not training or p <= 0.0:
        return x
    keep = 1.0 - p
    mask = (rng.random(x.shape) < keep).astype(DEFAULT_DTYPE) / keep
    return x * Tensor(mask)


def mae_loss(prediction: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Mean absolute error — the paper's L_error (Eq. 18)."""
    target = ensure_tensor(target)
    return (prediction - target).abs().mean()


def mse_loss(prediction: Tensor, target: Tensor | np.ndarray) -> Tensor:
    """Mean squared error."""
    target = ensure_tensor(target)
    diff = prediction - target
    return (diff * diff).mean()


def huber_loss(prediction: Tensor, target: Tensor | np.ndarray, delta: float = 1.0) -> Tensor:
    """Huber loss, useful for heavy-tailed traffic flows."""
    target = ensure_tensor(target)
    diff = prediction - target
    abs_diff = diff.abs()
    quadratic = (diff * diff) * 0.5
    linear = abs_diff * delta - 0.5 * delta * delta
    from .tensor import where

    return where(abs_diff.data <= delta, quadratic, linear).mean()


def gumbel_softmax(
    logits: Tensor,
    temperature: float,
    rng: np.random.Generator,
    hard: bool = False,
    axis: int = -1,
) -> Tensor:
    """Gumbel-softmax relaxation used by the GTS baseline's discrete graphs.

    During forward with ``hard=True`` the output is one-hot, but gradients
    flow through the soft sample (straight-through estimator).
    """
    uniform = rng.random(logits.shape)
    gumbel_noise = -np.log(-np.log(uniform + 1e-20) + 1e-20)
    noisy = logits + Tensor(gumbel_noise)
    soft = softmax(noisy * (1.0 / temperature), axis=axis)
    if not hard:
        return soft
    hard_data = (soft.data == soft.data.max(axis=axis, keepdims=True)).astype(DEFAULT_DTYPE)
    # Straight-through: hard output, soft gradient.
    return soft + Tensor(hard_data - soft.data)


def one_hot(indices: np.ndarray, num_classes: int) -> np.ndarray:
    """Plain (non-differentiable) one-hot encoder for integer indices."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros(indices.shape + (num_classes,), dtype=DEFAULT_DTYPE)
    np.put_along_axis(out, indices[..., None], 1.0, axis=-1)
    return out


def l2_norm(x: Tensor, axis: int = -1, keepdims: bool = False, eps: float = 1e-12) -> Tensor:
    """Euclidean norm along ``axis`` with a numerical floor."""
    return ((x * x).sum(axis=axis, keepdims=keepdims) + eps).sqrt()


def pairwise_euclidean(a: Tensor, b: Tensor) -> Tensor:
    """Distance between two batches of vectors, shape (..., d) -> (...,)."""
    diff = a - b
    return l2_norm(diff, axis=-1)
