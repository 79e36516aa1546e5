"""Reverse-mode automatic differentiation over numpy arrays.

This module is the computational substrate for the whole reproduction: the
paper's models were implemented in PyTorch, which is not available in this
environment, so we provide a small define-by-run autodiff engine with the
same semantics (dynamic graph, ``backward()`` on a scalar loss, gradient
accumulation into ``Tensor.grad``).

The engine is deliberately simple: a :class:`Tensor` wraps an
``numpy.ndarray`` and remembers the closure that propagates its output
gradient to its parents.  ``backward()`` runs the closures in reverse
topological order.  All primitives are broadcasting-aware; broadcast axes
are summed out on the way back (:func:`unbroadcast`).
"""

from __future__ import annotations

import contextlib
from time import perf_counter
from typing import Callable, Iterable, Sequence

import numpy as np

DEFAULT_DTYPE = np.float64

# Global switch consulted when building the graph.  Inside ``no_grad()``
# blocks no backward closures are recorded, mirroring torch.no_grad().
_GRAD_ENABLED = True

# --------------------------------------------------------------------- #
# observability hook points (installed by repro.obs.trace)
#
# ``_MAKE_HOOK(data, backward_fn)`` fires on every op result so a tracer
# can count calls and bytes; ``_BACKWARD_OP_HOOK(backward_fn, started,
# seconds)`` fires after each backward closure with its wall-time.  Both
# default to None; the disabled cost is one global load + None check.
# --------------------------------------------------------------------- #

_MAKE_HOOK: Callable[[np.ndarray, Callable | None], None] | None = None
_BACKWARD_OP_HOOK: Callable[[Callable, float, float], None] | None = None

# ``_SYM_HANDLER`` lets the execution engine (repro.autodiff.engine), its
# only user, intercept the module-level ops below while it captures or
# replays a step: consumers bind these names at import time, so patching
# the module attribute would not reach them.  A hook that returns None lets
# the real implementation run; the disabled cost is one global load + None
# check.
_SYM_HANDLER = None


def set_symbolic_handler(handler):
    """Install (or clear) the engine's op handler; returns the previous one."""
    global _SYM_HANDLER
    previous, _SYM_HANDLER = _SYM_HANDLER, handler
    return previous


def get_symbolic_handler():
    """The active engine op handler, or None."""
    return _SYM_HANDLER


def set_make_hook(hook: Callable | None) -> Callable | None:
    """Install (or clear) the op-creation hook; returns the previous one."""
    global _MAKE_HOOK
    previous, _MAKE_HOOK = _MAKE_HOOK, hook
    return previous


def set_backward_op_hook(hook: Callable | None) -> Callable | None:
    """Install (or clear) the per-closure backward hook; returns the previous one."""
    global _BACKWARD_OP_HOOK
    previous, _BACKWARD_OP_HOOK = _BACKWARD_OP_HOOK, hook
    return previous


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction."""
    global _GRAD_ENABLED
    previous, _GRAD_ENABLED = _GRAD_ENABLED, False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether operations currently record gradients."""
    return _GRAD_ENABLED


def unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing over broadcast axes."""
    if grad.shape == shape:
        return grad
    # Sum out leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(value) -> np.ndarray:
    """Coerce to a numpy array; numeric payloads become ``DEFAULT_DTYPE``."""
    arr = np.asarray(value)
    if arr.dtype == np.bool_:
        return arr
    return arr.astype(DEFAULT_DTYPE, copy=False)


class Tensor:
    """A numpy array with an optional gradient and a backward closure.

    Parameters
    ----------
    data:
        Array-like payload; floats are coerced to ``DEFAULT_DTYPE``.
    requires_grad:
        Whether gradients should accumulate into ``self.grad``.
    parents:
        Tensors this one was computed from (internal).
    backward_fn:
        Closure mapping ``self.grad`` into the parents' ``grad`` (internal).
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward_fn: Callable[[np.ndarray], None] | None = None,
    ):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = tuple(parents) if self.requires_grad or backward_fn else ()
        self._backward_fn = backward_fn if _GRAD_ENABLED else None

    # ------------------------------------------------------------------ #
    # basic protocol
    # ------------------------------------------------------------------ #

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({np.array2string(self.data, precision=4, threshold=8)}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # graph construction / backward
    # ------------------------------------------------------------------ #

    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"], backward_fn) -> "Tensor":
        """Build an op result, recording the closure only if needed."""
        if _MAKE_HOOK is not None:
            _MAKE_HOOK(data, backward_fn)
        needs_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        if not needs_grad:
            return Tensor(data)
        return Tensor(data, requires_grad=True, parents=parents, backward_fn=backward_fn)

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data, dtype=DEFAULT_DTYPE)
        self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (mandatory scalar seed for losses).
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data, dtype=DEFAULT_DTYPE)
        else:
            grad = np.asarray(grad, dtype=DEFAULT_DTYPE)
            if grad.shape != self.data.shape:
                raise ValueError(f"seed gradient shape {grad.shape} != tensor shape {self.data.shape}")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        hook = _BACKWARD_OP_HOOK
        if hook is None:
            for node in reversed(topo):
                if node._backward_fn is not None and node.grad is not None:
                    node._backward_fn(node.grad)
        else:
            for node in reversed(topo):
                if node._backward_fn is not None and node.grad is not None:
                    started = perf_counter()
                    node._backward_fn(node.grad)
                    hook(node._backward_fn, started, perf_counter() - started)

    # ------------------------------------------------------------------ #
    # arithmetic
    # ------------------------------------------------------------------ #

    def __add__(self, other) -> "Tensor":
        other = ensure_tensor(other)
        out_data = self.data + other.data

        def backward_fn(grad):
            self._accumulate(unbroadcast(grad, self.shape))
            other._accumulate(unbroadcast(grad, other.shape))

        return Tensor._make(out_data, (self, other), backward_fn)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = ensure_tensor(other)
        out_data = self.data - other.data

        def backward_fn(grad):
            self._accumulate(unbroadcast(grad, self.shape))
            other._accumulate(unbroadcast(-grad, other.shape))

        return Tensor._make(out_data, (self, other), backward_fn)

    def __rsub__(self, other) -> "Tensor":
        return ensure_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = ensure_tensor(other)
        out_data = self.data * other.data

        def backward_fn(grad):
            self._accumulate(unbroadcast(grad * other.data, self.shape))
            other._accumulate(unbroadcast(grad * self.data, other.shape))

        return Tensor._make(out_data, (self, other), backward_fn)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = ensure_tensor(other)
        out_data = self.data / other.data

        def backward_fn(grad):
            self._accumulate(unbroadcast(grad / other.data, self.shape))
            other._accumulate(unbroadcast(-grad * self.data / (other.data ** 2), other.shape))

        return Tensor._make(out_data, (self, other), backward_fn)

    def __rtruediv__(self, other) -> "Tensor":
        return ensure_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward_fn(grad):
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward_fn)

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported; use exp/log")
        out_data = self.data ** exponent

        def backward_fn(grad):
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), backward_fn)

    def __matmul__(self, other) -> "Tensor":
        other = ensure_tensor(other)
        out_data = np.matmul(self.data, other.data)

        def backward_fn(grad):
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                self._accumulate(grad * b)
                other._accumulate(grad * a)
                return
            if a.ndim == 1:  # (k,) @ (..., k, n) -> (..., n)
                ga = np.matmul(grad[..., None, :], np.swapaxes(b, -1, -2))[..., 0, :]
                self._accumulate(unbroadcast(ga, a.shape))
                gb = a[:, None] * grad[..., None, :]
                other._accumulate(unbroadcast(gb, b.shape))
                return
            if b.ndim == 1:  # (..., m, k) @ (k,) -> (..., m)
                ga = grad[..., :, None] * b[None, :]
                self._accumulate(unbroadcast(ga, a.shape))
                gb = np.matmul(np.swapaxes(a, -1, -2), grad[..., :, None])[..., 0]
                other._accumulate(unbroadcast(gb, b.shape))
                return
            ga = np.matmul(grad, np.swapaxes(b, -1, -2))
            gb = np.matmul(np.swapaxes(a, -1, -2), grad)
            self._accumulate(unbroadcast(ga, a.shape))
            other._accumulate(unbroadcast(gb, b.shape))

        return Tensor._make(out_data, (self, other), backward_fn)

    def __rmatmul__(self, other) -> "Tensor":
        return ensure_tensor(other).__matmul__(self)

    # comparisons yield plain boolean arrays (no gradients flow through them)
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)

    def __ge__(self, other):
        return self.data >= (other.data if isinstance(other, Tensor) else other)

    def __le__(self, other):
        return self.data <= (other.data if isinstance(other, Tensor) else other)

    # ------------------------------------------------------------------ #
    # elementwise functions
    # ------------------------------------------------------------------ #

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward_fn(grad):
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward_fn)

    def log(self) -> "Tensor":
        def backward_fn(grad):
            self._accumulate(grad / self.data)

        return Tensor._make(np.log(self.data), (self,), backward_fn)

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def backward_fn(grad):
            self._accumulate(grad / (2.0 * out_data))

        return Tensor._make(out_data, (self,), backward_fn)

    def sin(self) -> "Tensor":
        cos_data = np.cos(self.data)

        def backward_fn(grad):
            self._accumulate(grad * cos_data)

        return Tensor._make(np.sin(self.data), (self,), backward_fn)

    def cos(self) -> "Tensor":
        sin_data = np.sin(self.data)

        def backward_fn(grad):
            self._accumulate(-grad * sin_data)

        return Tensor._make(np.cos(self.data), (self,), backward_fn)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward_fn(grad):
            self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), backward_fn)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward_fn(grad):
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward_fn)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward_fn(grad):
            self._accumulate(grad * mask)

        return Tensor._make(self.data * mask, (self,), backward_fn)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        scale = np.where(mask, 1.0, negative_slope)

        def backward_fn(grad):
            self._accumulate(grad * scale)

        return Tensor._make(self.data * scale, (self,), backward_fn)

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward_fn(grad):
            self._accumulate(grad * sign)

        return Tensor._make(np.abs(self.data), (self,), backward_fn)

    def clip(self, low: float | None, high: float | None) -> "Tensor":
        out_data = np.clip(self.data, low, high)
        mask = np.ones_like(self.data)
        if low is not None:
            mask = mask * (self.data >= low)
        if high is not None:
            mask = mask * (self.data <= high)

        def backward_fn(grad):
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward_fn)

    # ------------------------------------------------------------------ #
    # reductions
    # ------------------------------------------------------------------ #

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward_fn(grad):
            g = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.data.ndim for a in axes)
                g = np.expand_dims(g, axis=tuple(sorted(axes)))
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._make(out_data, (self,), backward_fn)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def backward_fn(grad):
            if axis is None:
                mask = (self.data == out_data)
                g = grad * mask / mask.sum()
            else:
                expanded = self.data.max(axis=axis, keepdims=True)
                mask = (self.data == expanded)
                g = grad if keepdims else np.expand_dims(grad, axis=axis)
                g = g * mask / mask.sum(axis=axis, keepdims=True)
            self._accumulate(np.broadcast_to(g, self.shape) * 1.0)

        return Tensor._make(out_data, (self,), backward_fn)

    def min(self, axis=None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------ #
    # shape manipulation
    # ------------------------------------------------------------------ #

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        original = self.shape

        def backward_fn(grad):
            self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward_fn)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.data.ndim)))
        inverse = np.argsort(axes)

        def backward_fn(grad):
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(self.data.transpose(axes), (self,), backward_fn)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.data.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def unsqueeze(self, axis: int) -> "Tensor":
        shape = list(self.shape)
        axis = axis if axis >= 0 else axis + self.ndim + 1
        shape.insert(axis, 1)
        return self.reshape(tuple(shape))

    def squeeze(self, axis: int) -> "Tensor":
        shape = list(self.shape)
        if shape[axis] != 1:
            raise ValueError(f"cannot squeeze axis {axis} of shape {self.shape}")
        del shape[axis]
        return self.reshape(tuple(shape))

    def broadcast_to(self, shape: tuple[int, ...]) -> "Tensor":
        out_data = np.broadcast_to(self.data, shape).copy()
        original = self.shape

        def backward_fn(grad):
            self._accumulate(unbroadcast(grad, original))

        return Tensor._make(out_data, (self,), backward_fn)

    def __getitem__(self, key) -> "Tensor":
        out_data = self.data[key]

        def backward_fn(grad):
            full = np.zeros_like(self.data, dtype=DEFAULT_DTYPE)
            np.add.at(full, key, grad)
            self._accumulate(full)

        return Tensor._make(np.array(out_data, copy=True), (self,), backward_fn)


def ensure_tensor(value) -> Tensor:
    """Coerce scalars / arrays to ``Tensor`` (no-op for tensors)."""
    return value if isinstance(value, Tensor) else Tensor(value)


def tensor(data, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(*shape, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.zeros(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


def ones(*shape, requires_grad: bool = False) -> Tensor:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(np.ones(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


def randn(*shape, rng: np.random.Generator, requires_grad: bool = False) -> Tensor:
    """Standard-normal tensor; ``rng`` is mandatory so results are seedable."""
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        shape = tuple(shape[0])
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = [ensure_tensor(t) for t in tensors]
    if _SYM_HANDLER is not None:
        symbolic = _SYM_HANDLER.concat(tensors, axis)
        if symbolic is not None:
            return symbolic
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward_fn(grad):
        for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            t._accumulate(grad[tuple(index)])

    return Tensor._make(out_data, tuple(tensors), backward_fn)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient routing."""
    tensors = [ensure_tensor(t) for t in tensors]
    if _SYM_HANDLER is not None:
        symbolic = _SYM_HANDLER.stack(tensors, axis)
        if symbolic is not None:
            return symbolic
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward_fn(grad):
        slices = np.moveaxis(grad, axis, 0)
        for t, g in zip(tensors, slices):
            t._accumulate(g)

    return Tensor._make(out_data, tuple(tensors), backward_fn)


def where(condition: np.ndarray, a, b) -> Tensor:
    """Elementwise select; ``condition`` is a plain boolean array."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    if _SYM_HANDLER is not None:
        symbolic = _SYM_HANDLER.where(condition, a, b)
        if symbolic is not None:
            return symbolic
    cond = condition.data if isinstance(condition, Tensor) else condition
    cond = np.asarray(cond, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def backward_fn(grad):
        a._accumulate(unbroadcast(grad * cond, a.shape))
        b._accumulate(unbroadcast(grad * ~cond, b.shape))

    return Tensor._make(out_data, (a, b), backward_fn)


def gather_rows(table: Tensor, indices) -> Tensor:
    """Row lookup ``table[indices]`` for embeddings (integer fancy index).

    ``indices`` may be any integer array; the result has shape
    ``indices.shape + table.shape[1:]`` and gradients scatter-add back.
    """
    if _SYM_HANDLER is not None:
        symbolic = _SYM_HANDLER.gather_rows(table, indices)
        if symbolic is not None:
            return symbolic
    idx = np.asarray(indices.data if isinstance(indices, Tensor) else indices, dtype=np.int64)
    out_data = table.data[idx]

    def backward_fn(grad):
        full = np.zeros_like(table.data, dtype=DEFAULT_DTYPE)
        np.add.at(full, idx, grad)
        table._accumulate(full)

    return Tensor._make(out_data, (table,), backward_fn)


def maximum(a, b) -> Tensor:
    """Elementwise maximum with subgradient splitting ties to ``a``."""
    a, b = ensure_tensor(a), ensure_tensor(b)
    if _SYM_HANDLER is not None:
        symbolic = _SYM_HANDLER.where(True, a, b)
        if symbolic is not None:
            return symbolic
    mask = a.data >= b.data
    return where(mask, a, b)


def minimum(a, b) -> Tensor:
    a, b = ensure_tensor(a), ensure_tensor(b)
    if _SYM_HANDLER is not None:
        symbolic = _SYM_HANDLER.where(True, a, b)
        if symbolic is not None:
            return symbolic
    mask = a.data <= b.data
    return where(mask, a, b)
