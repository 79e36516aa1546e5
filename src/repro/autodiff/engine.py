"""Compile-and-replay execution engine for the numpy autodiff stack.

The eager autodiff in :mod:`repro.autodiff.tensor` re-dispatches every op
through Python overloads and rebuilds the tape on every training step,
even though the op graph of a (model, task) pair is static per shape
bucket.  This module removes that per-step overhead with a two-phase
scheme:

**Capture** — :meth:`ExecutionEngine.run` executes the step function once
in an instrumented mode: every ``Tensor`` primitive is wrapped so the op,
its operands, its static metadata (axes, shapes, keys) and its retained
backward closure are recorded in execution order, and the backward pass
is observed through the backward-op hook so the exact closure firing
order is known.  The recorded tensors *are* the plan's buffer arena —
their ``.data`` arrays are reused as preallocated outputs on every
subsequent step.

**Replay** — for later calls with the same signature (shapes, dtypes,
grad mode, caller key), the same step function runs again, but every
primitive is routed to a per-node *kernel*: a prebuilt sequence of
``out=``-style ufunc calls that writes the new values into the retained
buffers with no tensor allocation, no tape construction, and no graph
walk.  The backward pass replays the recorded closures in the captured
firing order against preset zero gradient buffers.  Every kernel mirrors
the eager ufunc sequence exactly, so replayed losses, outputs and
gradients are **bitwise identical** to eager (enforced by
``tests/test_engine_differential.py``).

Guard conditions make replay safe rather than fast-but-wrong: each node
checks operand identity (intermediates), parameter ``data`` identity
(catches rebinding), leaf value/shape/dtype compatibility, and static
metadata equality.  Any violation raises :class:`ReplayMismatch`, the
engine restores the RNG streams it snapshotted before the attempt,
resets the plan's gradient state, logs a structured ``plan_invalidated``
record, and re-runs the step eagerly — callers never see wrong numbers.
Graphs the engine cannot mirror bitwise (e.g. ``max(axis=None)`` under
grad) raise :class:`PlanUnsupported` at capture and leave the signature
permanently eager.

See ``docs/engine.md`` for the lifecycle, guard catalogue and the
``plan_invalidated`` record format.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from .tensor import (
    DEFAULT_DTYPE,
    Tensor,
    get_symbolic_handler,
    is_grad_enabled,
    set_backward_op_hook,
    set_make_hook,
    set_symbolic_handler,
)

__all__ = [
    "CompiledModel",
    "ExecutionEngine",
    "PlanUnsupported",
    "ReplayMismatch",
    "discover_rngs",
]


class PlanUnsupported(RuntimeError):
    """The captured graph uses an op the engine cannot replay bitwise."""


class ReplayMismatch(RuntimeError):
    """A guard condition failed during replay; the step falls back to eager."""

    def __init__(self, reason: str, detail: str = ""):
        self.reason = reason
        super().__init__(f"{reason}: {detail}" if detail else reason)


# Ops whose results may be CSE'd: pure functions of tensor operands and
# hashable static metadata.  Ops with raw-leaf inputs are excluded (two
# call sites could feed different leaf values through the same slots).
_CSE_OPS = frozenset({
    "add", "sub", "mul", "div", "neg", "pow", "matmul", "exp", "log",
    "sqrt", "tanh", "sigmoid", "sum", "relu", "abs", "sin", "cos",
})

# Elementwise ops, used to report fused-chain statistics.
_ELEMENTWISE_OPS = frozenset({
    "add", "sub", "mul", "div", "neg", "pow", "exp", "log", "sqrt",
    "tanh", "sigmoid", "relu", "leaky_relu", "abs", "clip", "sin",
    "cos", "where",
})

# Tensor class attributes patched during capture and replay.  Module-level
# functions (concat/stack/where/gather_rows) and the functional
# softmax/log_softmax are intercepted through the symbolic-handler seam
# instead — consumer modules bind those names at import time, so patching
# the tensor module attribute would not reach them, but every one of them
# consults ``get_symbolic_handler()`` live on each call.
_PATCHED_ATTRS = (
    "__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
    "__truediv__", "__neg__", "__pow__", "__matmul__",
    "exp", "log", "sqrt", "sin", "cos", "tanh", "sigmoid",
    "relu", "leaky_relu", "abs", "clip", "sum", "max",
    "reshape", "transpose", "broadcast_to", "__getitem__", "backward",
)

# True while a capture or replay session holds the Tensor patches.  A
# nested ExecutionEngine.run (e.g. a CompiledModel called inside an
# already-instrumented trainer step) must run plain eager so the outer
# session records its ops.
_BUSY = False


def _closure_cells(backward_fn) -> dict:
    """Free variables of a backward closure, by name.

    The eager op bodies close over exactly the state the engine needs —
    operand tensors plus derived arrays (masks, signs, softmax caches) —
    so the closure doubles as the op's capture record.
    """
    if backward_fn is None or backward_fn.__closure__ is None:
        return {}
    return dict(
        zip(backward_fn.__code__.co_freevars,
            (c.cell_contents for c in backward_fn.__closure__))
    )


def _norm_shape(shape) -> tuple:
    if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
        return tuple(shape[0])
    return tuple(shape)


def _norm_axes(axes, ndim: int) -> tuple:
    if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
        axes = tuple(axes[0])
    if not axes:
        return tuple(reversed(range(ndim)))
    return tuple(axes)


def _norm_axis(axis):
    return tuple(axis) if isinstance(axis, list) else axis


def discover_rngs(*roots) -> tuple:
    """Collect every ``np.random.Generator`` reachable from ``roots``.

    Walks module trees duck-typed (``obj.modules()``) and scans instance
    attributes, deduplicating by identity.  The engine snapshots these
    streams before each replay attempt so a failed replay can rewind any
    draws the step function already consumed before falling back to eager.
    """
    found: dict[int, np.random.Generator] = {}

    def scan(value):
        if isinstance(value, np.random.Generator):
            found[id(value)] = value

    for root in roots:
        if root is None:
            continue
        scan(root)
        modules = getattr(root, "modules", None)
        owners = list(modules()) if callable(modules) else [root]
        for owner in owners:
            for value in vars(owner).values() if hasattr(owner, "__dict__") else ():
                scan(value)
    return tuple(found.values())


def _copy_result(value):
    """Detached copies of returned tensors/arrays.

    Plan buffers are overwritten on the next step, so anything handed back
    to the caller (e.g. predictions accumulated across batches by
    ``Trainer.predict``) must not alias the arena.
    """
    if isinstance(value, Tensor):
        return Tensor(np.array(value.data, copy=True))
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, tuple):
        return tuple(_copy_result(v) for v in value)
    if isinstance(value, list):
        return [_copy_result(v) for v in value]
    return value


class _Rec:
    """One recorded op: its output tensor, closure, operands and metadata."""

    __slots__ = ("op", "out", "bfn", "operands", "meta", "cells",
                 "guards", "guards_slots", "meta_guard", "kernel", "aux_copies")

    def __init__(self, op, out, bfn, operands, meta, cells):
        self.op = op
        self.out = out
        self.bfn = bfn
        self.operands = operands
        self.meta = meta
        self.cells = cells
        self.guards = ()
        self.guards_slots = ()
        self.meta_guard = None
        self.kernel = None
        self.aux_copies = ()


# --------------------------------------------------------------------- #
# capture
# --------------------------------------------------------------------- #


class _CaptureSession:
    """Record one eager execution of the step function as a linear plan."""

    def __init__(self):
        self.records: list[_Rec] = []
        self.unsupported: list[str] = []
        self.stash = None          # backward closure of the op in flight
        self.backward_calls = 0
        self.fired = None          # backward closures in firing order
        self._saved = None
        self._prev_make = None
        self._prev_handler = None

    # -- recording ---------------------------------------------------- #

    def add(self, op, out, meta=(), names=("self",), operands=None):
        bfn, self.stash = self.stash, None
        if bfn is None:
            self.unsupported.append(f"{op}: op produced no closure")
            return
        cells = _closure_cells(bfn)
        if operands is None:
            try:
                operands = tuple(cells[n] for n in names)
            except KeyError as exc:
                self.unsupported.append(f"{op}: closure missing cell {exc}")
                return
        self.records.append(_Rec(op, out, bfn, operands, meta, cells))

    # -- Tensor method wrappers ---------------------------------------- #

    def install(self):
        global _BUSY
        _BUSY = True
        cap = self
        saved = {name: getattr(Tensor, name) for name in _PATCHED_ATTRS}
        self._saved = saved

        def binary(attr, op):
            orig = saved[attr]

            def wrapped(self, other):
                cap.stash = None
                out = orig(self, other)
                cap.add(op, out, names=("self", "other"))
                return out
            return wrapped

        def unary(attr, op):
            orig = saved[attr]

            def wrapped(self):
                cap.stash = None
                out = orig(self)
                cap.add(op, out)
                return out
            return wrapped

        for attr, op in (("__add__", "add"), ("__radd__", "add"),
                         ("__sub__", "sub"), ("__mul__", "mul"),
                         ("__rmul__", "mul"), ("__truediv__", "div"),
                         ("__matmul__", "matmul")):
            setattr(Tensor, attr, binary(attr, op))
        for attr, op in (("__neg__", "neg"), ("exp", "exp"), ("log", "log"),
                         ("sqrt", "sqrt"), ("sin", "sin"), ("cos", "cos"),
                         ("tanh", "tanh"), ("sigmoid", "sigmoid"),
                         ("relu", "relu"), ("abs", "abs")):
            setattr(Tensor, attr, unary(attr, op))

        orig_pow = saved["__pow__"]

        def w_pow(self, exponent):
            cap.stash = None
            out = orig_pow(self, exponent)
            cap.add("pow", out, meta=(exponent,))
            return out

        orig_leaky = saved["leaky_relu"]

        def w_leaky(self, negative_slope=0.01):
            cap.stash = None
            out = orig_leaky(self, negative_slope)
            cap.add("leaky_relu", out, meta=(float(negative_slope),))
            return out

        orig_clip = saved["clip"]

        def w_clip(self, low, high):
            cap.stash = None
            out = orig_clip(self, low, high)
            cap.add("clip", out, meta=(low, high))
            return out

        orig_sum = saved["sum"]

        def w_sum(self, axis=None, keepdims=False):
            cap.stash = None
            out = orig_sum(self, axis=axis, keepdims=keepdims)
            cap.add("sum", out, meta=(_norm_axis(axis), bool(keepdims)))
            return out

        orig_max = saved["max"]

        def w_max(self, axis=None, keepdims=False):
            cap.stash = None
            out = orig_max(self, axis=axis, keepdims=keepdims)
            cap.add("max", out, meta=(_norm_axis(axis), bool(keepdims)))
            return out

        orig_reshape = saved["reshape"]

        def w_reshape(self, *shape):
            cap.stash = None
            out = orig_reshape(self, *shape)
            cap.add("reshape", out, meta=(_norm_shape(shape),))
            return out

        orig_transpose = saved["transpose"]

        def w_transpose(self, *axes):
            norm = _norm_axes(axes, self.data.ndim)
            cap.stash = None
            out = orig_transpose(self, *axes)
            cap.add("transpose", out, meta=(norm,))
            return out

        orig_bcast = saved["broadcast_to"]

        def w_bcast(self, shape):
            cap.stash = None
            out = orig_bcast(self, shape)
            cap.add("broadcast_to", out, meta=(tuple(shape),))
            return out

        orig_getitem = saved["__getitem__"]

        def w_getitem(self, key):
            cap.stash = None
            # Privatize ndarray index parts: the backward closure retains
            # the key object and replay refreshes it in place, which must
            # never write into an array the caller still owns.
            if isinstance(key, np.ndarray):
                key = key.copy()
            elif isinstance(key, tuple) and any(
                    isinstance(p, np.ndarray) for p in key):
                key = tuple(p.copy() if isinstance(p, np.ndarray) else p
                            for p in key)
            out = orig_getitem(self, key)
            cap.add("getitem", out, meta=(key,))
            return out

        orig_backward = saved["backward"]

        def w_backward(self, grad=None):
            if grad is not None or cap.backward_calls:
                cap.unsupported.append(
                    "backward: seeded or repeated backward in one step")
                return orig_backward(self, grad)
            cap.backward_calls = 1
            fired = []
            prev_hook = set_backward_op_hook(None)
            if prev_hook is None:
                def hook(bfn, started, seconds):
                    fired.append(bfn)
            else:
                def hook(bfn, started, seconds):
                    fired.append(bfn)
                    prev_hook(bfn, started, seconds)
            set_backward_op_hook(hook)
            try:
                orig_backward(self, grad)
            finally:
                set_backward_op_hook(prev_hook)
            cap.fired = fired
            cap.records.append(_Rec("backward", self, None, (), (), {}))

        setattr(Tensor, "__pow__", w_pow)
        setattr(Tensor, "leaky_relu", w_leaky)
        setattr(Tensor, "clip", w_clip)
        setattr(Tensor, "sum", w_sum)
        setattr(Tensor, "max", w_max)
        setattr(Tensor, "reshape", w_reshape)
        setattr(Tensor, "transpose", w_transpose)
        setattr(Tensor, "broadcast_to", w_bcast)
        setattr(Tensor, "__getitem__", w_getitem)
        setattr(Tensor, "backward", w_backward)

        def make_hook(data, bfn):
            cap.stash = bfn
            prev = cap._prev_make
            if prev is not None:
                prev(data, bfn)

        self._prev_make = set_make_hook(make_hook)
        self._prev_handler = set_symbolic_handler(_CaptureHandler(self))

    def uninstall(self):
        global _BUSY
        for name, fn in self._saved.items():
            setattr(Tensor, name, fn)
        set_make_hook(self._prev_make)
        set_symbolic_handler(self._prev_handler)
        _BUSY = False


class _CaptureHandler:
    """Symbolic-handler shim recording the module-level ops.

    ``concat``/``stack``/``where``/``gather_rows`` and the functional
    ``softmax``/``log_softmax`` consult this handler live; the shim
    re-enters the original function with ``busy`` set (so the inner call
    computes eagerly) and records the produced node.  ``maximum`` and
    ``minimum`` probe ``where(True, a, b)`` before computing their mask;
    returning ``None`` for the literal-True probe keeps them on their
    composite eager path, whose ``where`` call is then recorded normally.
    """

    def __init__(self, cap: _CaptureSession):
        self.cap = cap
        self.busy = False

    def concat(self, tensors, axis):
        if self.busy:
            return None
        from .tensor import concat as _concat
        self.busy = True
        try:
            self.cap.stash = None
            out = _concat(tensors, axis=axis)
            cells = _closure_cells(self.cap.stash)
            self.cap.add("concat", out, meta=(axis, len(tensors)),
                         operands=tuple(cells.get("tensors", ())))
        finally:
            self.busy = False
        return out

    def stack(self, tensors, axis):
        if self.busy:
            return None
        from .tensor import stack as _stack
        self.busy = True
        try:
            self.cap.stash = None
            out = _stack(tensors, axis=axis)
            cells = _closure_cells(self.cap.stash)
            self.cap.add("stack", out, meta=(axis, len(tensors)),
                         operands=tuple(cells.get("tensors", ())))
        finally:
            self.busy = False
        return out

    def where(self, condition, a, b):
        if self.busy or condition is True:
            return None
        from .tensor import where as _where
        self.busy = True
        try:
            self.cap.stash = None
            # Privatize the retained condition buffer (refreshed in place
            # on replay — must not alias a caller-owned array).
            if isinstance(condition, Tensor):
                condition = Tensor(np.array(condition.data, copy=True))
            elif isinstance(condition, np.ndarray):
                condition = condition.copy()
            out = _where(condition, a, b)
            self.cap.add("where", out, names=("a", "b"))
        finally:
            self.busy = False
        return out

    def gather_rows(self, table, indices):
        if self.busy:
            return None
        from .tensor import gather_rows as _gather_rows
        self.busy = True
        try:
            self.cap.stash = None
            # Privatize the retained index buffer (refreshed in place on
            # replay — must not alias a caller-owned array).
            if isinstance(indices, Tensor):
                indices = Tensor(np.array(indices.data, copy=True))
            elif isinstance(indices, np.ndarray):
                indices = indices.copy()
            out = _gather_rows(table, indices)
            self.cap.add("gather_rows", out, names=("table",))
        finally:
            self.busy = False
        return out

    def softmax(self, x, axis):
        if self.busy:
            return None
        from .functional import softmax as _softmax
        self.busy = True
        try:
            self.cap.stash = None
            out = _softmax(x, axis)
            self.cap.add("softmax", out, meta=(axis,), names=("x",))
        finally:
            self.busy = False
        return out

    def log_softmax(self, x, axis):
        if self.busy:
            return None
        from .functional import log_softmax as _log_softmax
        self.busy = True
        try:
            self.cap.stash = None
            out = _log_softmax(x, axis)
            self.cap.add("log_softmax", out, meta=(axis,), names=("x",))
        finally:
            self.busy = False
        return out


# --------------------------------------------------------------------- #
# finalize: guards, kernels, CSE, backward schedule
# --------------------------------------------------------------------- #


def _leaf_guard(tensor, arr):
    """Check/refresh a non-grad leaf operand (fresh object every step).

    Mirrors ``Tensor.__init__`` coercion: bool arrays pass through, all
    other dtypes become float64 — so the refreshed buffer holds exactly
    the bytes eager mode would have wrapped.
    """
    shape = arr.shape
    is_bool = arr.dtype == np.bool_

    def check(actual):
        if isinstance(actual, Tensor):
            if actual.requires_grad:
                raise ReplayMismatch("operand_mismatch",
                                     "leaf operand became grad-requiring")
            src = actual.data
        else:
            src = np.asarray(actual)
        if src.dtype != arr.dtype:
            if is_bool or src.dtype == np.bool_:
                raise ReplayMismatch("dtype", f"leaf {src.dtype} != {arr.dtype}")
            src = src.astype(DEFAULT_DTYPE, copy=False)
            if src.dtype != arr.dtype:
                raise ReplayMismatch("dtype", f"leaf {src.dtype} != {arr.dtype}")
        if src.shape != shape:
            raise ReplayMismatch("shape", f"leaf {src.shape} != {shape}")
        if src is not arr:
            np.copyto(arr, src)
    return check


def _slot_guard(slot):
    kind = slot[0]
    if kind == "n":
        t = slot[1]

        def check(actual):
            if actual is not t:
                raise ReplayMismatch("operand_mismatch",
                                     "intermediate tensor identity changed")
        return check
    if kind == "p":
        t = slot[1]
        d = slot[2]

        def check(actual):
            if actual is not t or t.data is not d:
                raise ReplayMismatch("operand_mismatch",
                                     "parameter rebound or replaced")
        return check
    return _leaf_guard(slot[1], slot[2])


def _meta_guard(op, recorded):
    def check(meta):
        if meta != recorded:
            raise ReplayMismatch("meta_mismatch",
                                 f"{op}: {meta!r} != {recorded!r}")
    return check


def _getitem_guard(recorded_key):
    """Equality guard for index keys; ndarray parts refresh in place.

    The backward closure captured the key object itself, so copying new
    index values into the recorded arrays keeps forward and backward
    coherent for data-dependent fancy indexing.
    """
    parts0 = recorded_key if isinstance(recorded_key, tuple) else (recorded_key,)
    specs = []
    for part in parts0:
        if isinstance(part, np.ndarray):
            specs.append(("a", part))
        else:
            specs.append(("v", part))

    def check(meta):
        key = meta[0]
        parts = key if isinstance(key, tuple) else (key,)
        if len(parts) != len(specs):
            raise ReplayMismatch("meta_mismatch", "getitem key arity changed")
        for (kind, ref), part in zip(specs, parts):
            if kind == "a":
                src = np.asarray(part)
                if src.shape != ref.shape or src.dtype != ref.dtype:
                    raise ReplayMismatch("meta_mismatch",
                                         "getitem index array shape/dtype changed")
                if src is not ref:
                    np.copyto(ref, src)
            else:
                if isinstance(part, np.ndarray) or not (part is ref or part == ref):
                    raise ReplayMismatch("meta_mismatch", "getitem key changed")
    return check


def _require_retained(rec, name):
    """A closure cell the backward pass reads must be an in-place
    refreshable ndarray; numpy collapses 0-d results to scalars, which
    would go stale — those graphs stay eager."""
    value = rec.cells.get(name)
    if not isinstance(value, np.ndarray):
        raise PlanUnsupported(
            f"{rec.op}: backward state {name!r} is not a refreshable array "
            "(0-d result?)")
    return value


def _scratch_or_cell(rec, name, shape, dtype):
    value = rec.cells.get(name)
    if isinstance(value, np.ndarray):
        return value
    return np.empty(shape, dtype=dtype)


def _require_out_identity(rec):
    if rec.out.requires_grad and rec.cells.get("out_data") is not rec.out.data:
        raise PlanUnsupported(
            f"{rec.op}: closure output cache detached from tensor buffer "
            "(0-d result?)")


def _matmul_writer(a, b, out):
    """Build ``np.matmul(a, b, out=out)`` as a zero-arg kernel.

    When ``b`` is a single matrix and ``a``/``out`` expose contiguous 2-d
    views, the batched gufunc loop (one BLAS call per batch slice) is
    collapsed into a single call on the flattened views.  BLAS
    accumulation order along the contraction axis depends on shapes and
    strides, never on values, so a one-time random probe at build time
    proves the collapse is bitwise-identical for this configuration; any
    difference keeps the batched loop.
    """
    if b.ndim == 2 and a.ndim > 2 and out.ndim == a.ndim:
        k = a.shape[-1]
        av = a.reshape(-1, k)
        ov = out.reshape(-1, b.shape[-1])
        if np.shares_memory(av, a) and np.shares_memory(ov, out):
            probe = np.random.default_rng(0).standard_normal(a.shape)
            ref = np.matmul(probe, b)
            if np.array_equal(ref, np.matmul(probe.reshape(-1, k), b).reshape(ref.shape)):
                def kernel():
                    np.matmul(av, b, out=ov)
                return kernel

    def kernel():
        np.matmul(a, b, out=out)
    return kernel


_BINARY_UFUNCS = {"add": np.add, "sub": np.subtract,
                  "mul": np.multiply, "div": np.divide}


def _build_kernel(rec):
    """Compile one recorded op into an allocation-free kernel closure.

    Every kernel repeats the exact ufunc sequence of the eager op body
    (same ufuncs, same operand order, same dtypes) so results are bitwise
    identical; ``out=`` only redirects the destination.
    """
    op = rec.op
    out = rec.out.data
    data = tuple(t.data for t in rec.operands)

    if op in _BINARY_UFUNCS:
        ufunc = _BINARY_UFUNCS[op]
        a, b = data

        def kernel():
            ufunc(a, b, out=out)
        return kernel

    if op == "neg":
        (a,) = data
        return lambda: np.negative(a, out=out)

    if op == "pow":
        # ndarray.__pow__ takes fast paths (square/sqrt/reciprocal) that
        # are not np.power; re-evaluating the original expression is the
        # only form guaranteed bitwise across numpy versions.
        (a,) = data
        exponent = rec.meta[0]
        return lambda: np.copyto(out, a ** exponent)

    if op == "matmul":
        a, b = data
        if a.ndim >= 2 and b.ndim >= 2 and out.ndim >= 2:
            return _matmul_writer(a, b, out)
        return lambda: np.copyto(out, np.matmul(a, b))

    if op in ("exp", "log", "sqrt", "tanh"):
        (a,) = data
        if op != "log":
            _require_out_identity(rec)
        ufunc = {"exp": np.exp, "log": np.log,
                 "sqrt": np.sqrt, "tanh": np.tanh}[op]

        def kernel():
            ufunc(a, out=out)
        return kernel

    if op == "sigmoid":
        (a,) = data
        _require_out_identity(rec)

        def kernel():
            np.negative(a, out=out)
            np.exp(out, out=out)
            np.add(out, 1.0, out=out)
            np.divide(1.0, out, out=out)
        return kernel

    if op == "sin":
        (a,) = data
        cos_buf = (_require_retained(rec, "cos_data") if rec.out.requires_grad
                   else _scratch_or_cell(rec, "cos_data", a.shape, a.dtype))

        def kernel():
            np.cos(a, out=cos_buf)
            np.sin(a, out=out)
        return kernel

    if op == "cos":
        (a,) = data
        sin_buf = (_require_retained(rec, "sin_data") if rec.out.requires_grad
                   else _scratch_or_cell(rec, "sin_data", a.shape, a.dtype))

        def kernel():
            np.sin(a, out=sin_buf)
            np.cos(a, out=out)
        return kernel

    if op == "relu":
        (a,) = data
        mask = (_require_retained(rec, "mask") if rec.out.requires_grad
                else _scratch_or_cell(rec, "mask", a.shape, np.bool_))

        def kernel():
            np.greater(a, 0, out=mask)
            np.multiply(a, mask, out=out)
        return kernel

    if op == "leaky_relu":
        (a,) = data
        slope = rec.meta[0]
        scale = (_require_retained(rec, "scale") if rec.out.requires_grad
                 else _scratch_or_cell(rec, "scale", a.shape, DEFAULT_DTYPE))

        def kernel():
            mask = np.greater(a, 0)
            scale[...] = np.where(mask, 1.0, slope)
            np.multiply(a, scale, out=out)
        return kernel

    if op == "abs":
        (a,) = data
        sign = (_require_retained(rec, "sign") if rec.out.requires_grad
                else _scratch_or_cell(rec, "sign", a.shape, a.dtype))

        def kernel():
            np.sign(a, out=sign)
            np.absolute(a, out=out)
        return kernel

    if op == "clip":
        (a,) = data
        low, high = rec.meta
        mask = (_require_retained(rec, "mask") if rec.out.requires_grad
                else _scratch_or_cell(rec, "mask", a.shape, DEFAULT_DTYPE))

        def kernel():
            np.clip(a, low, high, out=out)
            mask.fill(1.0)
            if low is not None:
                np.multiply(mask, a >= low, out=mask)
            if high is not None:
                np.multiply(mask, a <= high, out=mask)
        return kernel

    if op == "sum":
        (a,) = data
        axis, keepdims = rec.meta
        return lambda: np.sum(a, axis=axis, out=out, keepdims=keepdims)

    if op == "max":
        (a,) = data
        axis, keepdims = rec.meta
        if rec.out.requires_grad and axis is None:
            # The eager backward for the full reduction reads the cached
            # scalar maximum, which cannot be refreshed in place.
            raise PlanUnsupported("max(axis=None) under grad")
        return lambda: np.max(a, axis=axis, out=out, keepdims=keepdims)

    if op == "reshape":
        (a,) = data
        if np.shares_memory(out, a):
            return None  # view of the live buffer: nothing to compute
        shape = out.shape
        return lambda: np.copyto(out, a.reshape(shape))

    if op == "transpose":
        (a,) = data
        if np.shares_memory(out, a):
            return None
        axes = rec.meta[0]
        return lambda: np.copyto(out, a.transpose(axes))

    if op == "broadcast_to":
        (a,) = data
        return lambda: np.copyto(out, a)

    if op == "getitem":
        (a,) = data
        key = rec.meta[0]
        shape = out.shape

        def kernel():
            src = a[key]
            if np.shape(src) != shape:
                raise ReplayMismatch("shape", "getitem result shape changed")
            np.copyto(out, src)
        return kernel

    if op == "concat":
        axis = rec.meta[0] % max(out.ndim, 1)
        views = []
        offset = 0
        for src in data:
            index = [slice(None)] * out.ndim
            index[axis] = slice(offset, offset + src.shape[axis])
            views.append(out[tuple(index)])
            offset += src.shape[axis]
        pairs = tuple(zip(views, data))

        def kernel():
            for view, src in pairs:
                np.copyto(view, src)
        return kernel

    if op == "stack":
        axis = rec.meta[0] % max(out.ndim, 1)
        pairs = tuple(zip(np.moveaxis(out, axis, 0), data))

        def kernel():
            for view, src in pairs:
                np.copyto(view, src)
        return kernel

    if op == "where":
        a, b = data
        cond = _require_retained(rec, "cond")

        def kernel():
            np.copyto(out, b)
            np.copyto(out, a, where=cond)
        return kernel

    if op == "gather_rows":
        (table,) = data
        idx = _require_retained(rec, "idx")
        return lambda: np.take(table, idx, axis=0, out=out)

    if op == "softmax":
        (a,) = data
        _require_out_identity(rec)
        axis = rec.meta[0]
        red_shape = list(out.shape)
        red_shape[axis % out.ndim] = 1
        mx = np.empty(red_shape, dtype=out.dtype)
        sm = np.empty(red_shape, dtype=out.dtype)

        def kernel():
            np.max(a, axis=axis, out=mx, keepdims=True)
            np.subtract(a, mx, out=out)
            np.exp(out, out=out)
            np.add.reduce(out, axis=axis, out=sm, keepdims=True)
            np.divide(out, sm, out=out)
        return kernel

    if op == "log_softmax":
        (a,) = data
        axis = rec.meta[0]
        soft = (_require_retained(rec, "soft") if rec.out.requires_grad
                else _scratch_or_cell(rec, "soft", out.shape, out.dtype))
        red_shape = list(out.shape)
        red_shape[axis % out.ndim] = 1
        mx = np.empty(red_shape, dtype=out.dtype)
        sm = np.empty(red_shape, dtype=out.dtype)

        def kernel():
            np.max(a, axis=axis, out=mx, keepdims=True)
            np.subtract(a, mx, out=out)
            np.exp(out, out=soft)
            np.add.reduce(soft, axis=axis, out=sm, keepdims=True)
            np.log(sm, out=sm)
            np.subtract(out, sm, out=out)
            np.exp(out, out=soft)
        return kernel

    raise PlanUnsupported(f"no replay kernel for op {op!r}")


def _build_unbroadcast(gshape, shape):
    """Precompiled mirror of :func:`tensor.unbroadcast` for static shapes.

    Returns ``None`` for the identity case, else a function mapping the
    upstream gradient to the reduced array, with the intermediate sums
    written into preallocated buffers (same ``np.add.reduce`` calls as
    eager, so values are bitwise identical).
    """
    gshape, shape = tuple(gshape), tuple(shape)
    if gshape == shape:
        return None
    steps = []
    cur = gshape
    extra = len(gshape) - len(shape)
    if extra > 0:
        ax = tuple(range(extra))
        cur = cur[extra:]
        steps.append((ax, False, np.empty(cur, dtype=DEFAULT_DTYPE)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and cur[i] != 1)
    if axes:
        cur = tuple(1 if i in axes else n for i, n in enumerate(cur))
        steps.append((axes, True, np.empty(cur, dtype=DEFAULT_DTYPE)))

    # np.sum delegates to np.add.reduce; calling the ufunc method directly
    # skips the _wrapreduction Python layer while producing the same bits.
    reduce = np.add.reduce

    def ub(g):
        for ax, keepdims, buf in steps:
            reduce(g, axis=ax, keepdims=keepdims, out=buf)
            g = buf
        return g.reshape(shape)

    return ub


def _acc_side(tensor, grad_view, gshape):
    """Build ``grad_buffer += unbroadcast(value, shape)`` for one operand.

    Returns ``None`` when the operand accumulates no gradient (mirroring
    the ``requires_grad`` gate in eager ``_accumulate``), else a function
    of the full-shaped gradient contribution.
    """
    buf = grad_view.get(id(tensor))
    if buf is None:
        return None
    ub = _build_unbroadcast(gshape, tensor.data.shape)
    if ub is None:
        def acc(value):
            np.add(buf, value, out=buf)
    else:
        def acc(value):
            np.add(buf, ub(value), out=buf)
    return acc


def _build_backward_kernel(rec, grad_view):
    """Compile one fired backward closure into preallocated ufunc calls.

    Every kernel reproduces the exact ufunc sequence of the eager closure
    it replaces (``+= (-g)`` becomes ``-= g``, which IEEE 754 defines as
    the same operation), reading upstream gradients from the plan's grad
    arena and writing temporaries into buffers allocated here once.
    Returns ``None`` for ops whose closures are cheap or too intricate to
    mirror — the caller falls back to firing the original closure.
    """
    op = rec.op
    out = rec.out
    g = grad_view.get(id(out))
    if g is None:
        return None
    cells = rec.cells
    gshape = out.data.shape
    ops_ = rec.operands

    def tmp():
        return np.empty(gshape, dtype=DEFAULT_DTYPE)

    if op in ("add", "sub"):
        acc_a = _acc_side(ops_[0], grad_view, gshape)
        acc_b = _acc_side(ops_[1], grad_view, gshape)
        if op == "add":
            if acc_a is not None and acc_b is not None:
                def kernel():
                    acc_a(g)
                    acc_b(g)
                return kernel
            acc = acc_a if acc_a is not None else acc_b
            return (lambda: acc(g)) if acc is not None else (lambda: None)
        gb = grad_view.get(id(ops_[1]))
        same_b = gb is not None and ops_[1].data.shape == gshape
        t_neg = None if (gb is None or same_b) else tmp()
        if gb is None:
            return (lambda: acc_a(g)) if acc_a is not None else (lambda: None)
        if same_b:
            if acc_a is not None:
                def kernel():
                    acc_a(g)
                    np.subtract(gb, g, out=gb)  # += (-g), IEEE-identical
                return kernel
            return lambda: np.subtract(gb, g, out=gb)

        def kernel():
            if acc_a is not None:
                acc_a(g)
            np.negative(g, out=t_neg)
            acc_b(t_neg)
        return kernel

    if op in ("mul", "div"):
        acc_a = _acc_side(ops_[0], grad_view, gshape)
        acc_b = _acc_side(ops_[1], grad_view, gshape)
        a_data, b_data = ops_[0].data, ops_[1].data
        t_a = tmp() if acc_a is not None else None
        t_b = tmp() if acc_b is not None else None
        if op == "mul":
            if acc_a is not None and acc_b is not None:
                def kernel():
                    np.multiply(g, b_data, out=t_a)
                    acc_a(t_a)
                    np.multiply(g, a_data, out=t_b)
                    acc_b(t_b)
            elif acc_a is not None:
                def kernel():
                    np.multiply(g, b_data, out=t_a)
                    acc_a(t_a)
            elif acc_b is not None:
                def kernel():
                    np.multiply(g, a_data, out=t_b)
                    acc_b(t_b)
            else:
                def kernel():
                    return None
        else:
            def kernel():
                if acc_a is not None:
                    np.divide(g, b_data, out=t_a)
                    acc_a(t_a)
                if acc_b is not None:
                    np.negative(g, out=t_b)
                    np.multiply(t_b, a_data, out=t_b)
                    np.divide(t_b, b_data ** 2, out=t_b)
                    acc_b(t_b)
        return kernel

    if op == "matmul":
        a_t, b_t = ops_
        a_data, b_data = a_t.data, b_t.data
        if a_data.ndim < 2 or b_data.ndim < 2:
            return None  # vector cases: fire the original closure
        ga = grad_view.get(id(a_t))
        gb = grad_view.get(id(b_t))
        bT = np.swapaxes(b_data, -1, -2)
        aT = np.swapaxes(a_data, -1, -2)
        # zeros (not empty): these probe matmuls only size the retained
        # temporaries, and garbage operands trip FP overflow warnings.
        t_ga = np.matmul(np.zeros(gshape, dtype=DEFAULT_DTYPE), bT) if ga is not None else None
        t_gb = np.matmul(aT, np.zeros(gshape, dtype=DEFAULT_DTYPE)) if gb is not None else None
        ub_a = _build_unbroadcast(t_ga.shape, a_data.shape) if ga is not None else None
        ub_b = _build_unbroadcast(t_gb.shape, b_data.shape) if gb is not None else None

        mm_a = _matmul_writer(g, bT, t_ga) if ga is not None else None
        mm_b = _matmul_writer(aT, g, t_gb) if gb is not None else None

        def side_a():
            mm_a()
            np.add(ga, t_ga if ub_a is None else ub_a(t_ga), out=ga)

        def side_b():
            mm_b()
            np.add(gb, t_gb if ub_b is None else ub_b(t_gb), out=gb)

        if ga is not None and gb is not None:
            def kernel():
                side_a()
                side_b()
            return kernel
        if ga is not None:
            return side_a
        if gb is not None:
            return side_b
        return lambda: None

    # Remaining compiled ops are unary in their gradient flow.
    ga = grad_view.get(id(ops_[0])) if ops_ else None
    if op in ("neg", "reshape", "transpose", "sum", "broadcast_to") and ga is None:
        return lambda: None
    if op == "neg":
        return lambda: np.subtract(ga, g, out=ga)  # += (-g)
    if op == "reshape":
        original = tuple(cells["original"])
        return lambda: np.add(ga, g.reshape(original), out=ga)
    if op == "transpose":
        inverse = cells["inverse"]
        return lambda: np.add(ga, g.transpose(inverse), out=ga)
    if op == "sum":
        axis, keepdims = rec.meta
        shape = ops_[0].data.shape
        if axis is None or keepdims:
            red = g
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            axes = sorted(a % len(shape) for a in axes)
            exp_shape = list(g.shape)
            for a in axes:
                exp_shape.insert(a, 1)
            red = g.reshape(tuple(exp_shape))

        def kernel():
            np.add(ga, np.broadcast_to(red, shape), out=ga)
        return kernel
    if op == "broadcast_to":
        ub = _build_unbroadcast(gshape, ops_[0].data.shape)
        if ub is None:
            return lambda: np.add(ga, g, out=ga)
        return lambda: np.add(ga, ub(g), out=ga)
    if op == "getitem":
        if ga is None:
            return lambda: None
        key = cells["key"]
        a_data = ops_[0].data

        def kernel():
            # zeros_like (calloc) beats refilling a retained buffer: the
            # scatter-add touches few pages, fresh zero pages are lazy.
            full = np.zeros_like(a_data, dtype=DEFAULT_DTYPE)
            np.add.at(full, key, g)
            np.add(ga, full, out=ga)
        return kernel
    if op == "gather_rows":
        if ga is None:
            return lambda: None
        idx = cells["idx"]
        a_data = ops_[0].data

        def kernel():
            full = np.zeros_like(a_data, dtype=DEFAULT_DTYPE)
            np.add.at(full, idx, g)
            np.add(ga, full, out=ga)
        return kernel
    if op == "concat":
        axis = int(cells["axis"]) % out.data.ndim
        offsets = cells["offsets"]
        sides = []
        for t, start, stop in zip(ops_, offsets[:-1], offsets[1:]):
            gt = grad_view.get(id(t))
            if gt is None:
                continue
            index = [slice(None)] * out.data.ndim
            index[axis] = slice(int(start), int(stop))
            sides.append((gt, g[tuple(index)]))

        def kernel():
            for gt, view in sides:
                np.add(gt, view, out=gt)
        return kernel
    if op == "stack":
        axis = int(rec.meta[0]) % out.data.ndim
        mv = np.moveaxis(g, axis, 0)
        sides = [(grad_view[id(t)], mv[i]) for i, t in enumerate(ops_)
                 if id(t) in grad_view]

        def kernel():
            for gt, view in sides:
                np.add(gt, view, out=gt)
        return kernel
    if op == "where":
        cond = cells["cond"]
        acc_a = _acc_side(ops_[0], grad_view, gshape)
        acc_b = _acc_side(ops_[1], grad_view, gshape)
        t_a = tmp() if acc_a is not None else None
        t_b = tmp() if acc_b is not None else None
        notc = np.empty(cond.shape, dtype=bool) if acc_b is not None else None

        def kernel():
            if acc_a is not None:
                np.multiply(g, cond, out=t_a)
                acc_a(t_a)
            if acc_b is not None:
                np.logical_not(cond, out=notc)
                np.multiply(g, notc, out=t_b)
                acc_b(t_b)
        return kernel
    if ga is None:
        return None if op not in (
            "pow", "exp", "log", "sqrt", "sin", "cos", "tanh", "sigmoid",
            "relu", "leaky_relu", "abs", "clip") else (lambda: None)
    if op == "pow":
        exponent = cells["exponent"]
        a_data = ops_[0].data
        t = tmp()

        def kernel():
            np.multiply(g, exponent, out=t)
            np.multiply(t, a_data ** (exponent - 1), out=t)
            np.add(ga, t, out=ga)
        return kernel
    if op in ("exp", "sin", "relu", "leaky_relu", "abs", "clip"):
        factor = cells[{"exp": "out_data", "sin": "cos_data", "relu": "mask",
                        "leaky_relu": "scale", "abs": "sign",
                        "clip": "mask"}[op]]
        t = tmp()

        def kernel():
            np.multiply(g, factor, out=t)
            np.add(ga, t, out=ga)
        return kernel
    if op == "log":
        a_data = ops_[0].data
        t = tmp()

        def kernel():
            np.divide(g, a_data, out=t)
            np.add(ga, t, out=ga)
        return kernel
    if op == "sqrt":
        out_data = cells["out_data"]
        t = tmp()
        t2 = tmp()

        def kernel():
            np.multiply(2.0, out_data, out=t2)
            np.divide(g, t2, out=t)
            np.add(ga, t, out=ga)
        return kernel
    if op == "cos":
        sin_data = cells["sin_data"]
        t = tmp()

        def kernel():
            np.negative(g, out=t)
            np.multiply(t, sin_data, out=t)
            np.add(ga, t, out=ga)
        return kernel
    if op == "tanh":
        out_data = cells["out_data"]
        t = tmp()

        def kernel():
            np.multiply(out_data, out_data, out=t)  # out ** 2 == np.square
            np.subtract(1.0, t, out=t)
            np.multiply(g, t, out=t)
            np.add(ga, t, out=ga)
        return kernel
    if op == "sigmoid":
        out_data = cells["out_data"]
        t = tmp()
        t2 = tmp()

        def kernel():
            np.multiply(g, out_data, out=t)
            np.subtract(1.0, out_data, out=t2)
            np.multiply(t, t2, out=t)
            np.add(ga, t, out=ga)
        return kernel
    return None


def _cse_key(rec):
    """Structural identity for CSE: op + operand identities + metadata.

    Only defined (returns non-None) for pure ops whose operands are all
    produced nodes or guarded parameters — leaf-fed nodes are excluded
    because two call sites may stream different leaf values through
    identical-looking slots.
    """
    if rec.op not in _CSE_OPS:
        return None
    ids = []
    for slot in rec.guards_slots:
        if slot[0] == "l":
            return None
        ids.append((slot[0], id(slot[1])))
    try:
        hash(rec.meta)
    except TypeError:
        return None
    return (rec.op, tuple(ids), rec.meta)


_CSE_AUX_CELLS = {"relu": ("mask",), "abs": ("sign",),
                  "sin": ("cos_data",), "cos": ("sin_data",)}


def _finalize(cap: _CaptureSession) -> "_Plan":
    """Turn a capture session into an executable plan (or refuse)."""
    if cap.unsupported:
        reasons = sorted(set(cap.unsupported))
        raise PlanUnsupported("; ".join(reasons[:3]))
    records = cap.records
    if not any(rec.op != "backward" for rec in records):
        raise PlanUnsupported("step recorded no tensor ops")

    produced = {}
    for rec in records:
        if rec.op != "backward":
            produced[id(rec.out)] = rec

    # Operand slots: node ('n'), guarded parameter ('p'), or leaf ('l').
    # Leaf buffers are privatized: ``Tensor(batch_array)`` shares memory
    # with the caller's array, so refreshing the captured buffer in place
    # on replay would corrupt the caller's data (e.g. the dataset batch
    # captured in step one).  The exception is a leaf that aliases a
    # produced node's buffer (``intermediate.detach()``) — that aliasing
    # is intentional, the replayed producer refreshes it for free.
    produced_data = {id(rec.out.data) for rec in records if rec.op != "backward"}
    privatized = set()
    for rec in records:
        slots = []
        for t in rec.operands:
            if id(t) in produced:
                slots.append(("n", t))
            elif t.requires_grad:
                slots.append(("p", t, t.data))
            else:
                if id(t) not in privatized and id(t.data) not in produced_data:
                    t.data = np.array(t.data, copy=True)
                privatized.add(id(t))
                slots.append(("l", t, t.data))
        rec.guards_slots = tuple(slots)
        rec.guards = tuple(_slot_guard(s) for s in slots)
        if rec.op == "getitem":
            rec.meta_guard = _getitem_guard(rec.meta[0])
        elif rec.op != "backward":
            rec.meta_guard = _meta_guard(rec.op, rec.meta)

    # Kernels + CSE: a structural duplicate's kernel becomes a buffer copy
    # from the original (plus copies of any backward-state arrays its own
    # retained closure reads).
    seen = {}
    cse_reused = 0
    fused_kernels = 0
    for rec in records:
        if rec.op == "backward":
            continue
        rec.kernel = _build_kernel(rec)
        if rec.op in ("sigmoid", "clip", "leaky_relu", "softmax", "log_softmax"):
            fused_kernels += 1
        key = _cse_key(rec)
        if key is None:
            continue
        original = seen.get(key)
        if original is None:
            seen[key] = rec
            continue
        copies = [(rec.out.data, original.out.data)]
        usable = True
        for cell in _CSE_AUX_CELLS.get(rec.op, ()):
            dup_aux = rec.cells.get(cell)
            orig_aux = original.cells.get(cell)
            if isinstance(dup_aux, np.ndarray) and isinstance(orig_aux, np.ndarray):
                copies.append((dup_aux, orig_aux))
            elif rec.out.requires_grad:
                usable = False
        if not usable:
            continue
        pairs = tuple(copies)

        def cse_kernel(pairs=pairs):
            for dst, src in pairs:
                np.copyto(dst, src)
        rec.kernel = cse_kernel
        cse_reused += 1

    # Backward schedule: the recorded closure firing order, plus zero-
    # preset gradient buffers for every tensor that accumulated a gradient
    # during capture (presetting a tensor eager mode would have left at
    # grad=None would change optimizer behaviour, so only observed
    # accumulation targets get buffers).
    fired_recs = []
    grad_pairs = []
    fired_fns = []
    compiled_backward = 0
    arena = None
    loss_tensor = None
    loss_view = None
    seed = None
    if cap.fired is not None:
        by_bfn = {id(rec.bfn): rec for rec in records
                  if rec.op != "backward" and rec.bfn is not None}
        for bfn in cap.fired:
            rec = by_bfn.get(id(bfn))
            if rec is None:
                raise PlanUnsupported(
                    "backward reached a closure outside the captured step "
                    "(graph built before capture?)")
            fired_recs.append((bfn, rec))
        grads = {}
        for rec in records:
            if rec.op == "backward":
                loss_tensor = rec.out
                continue
            for t in (rec.out, *rec.operands):
                if t.requires_grad and t.grad is not None:
                    grads[id(t)] = t
        if loss_tensor is None:
            raise PlanUnsupported("backward fired without a recorded seed node")
        # One flat arena for every gradient buffer: a single fill(0.0)
        # per step replaces hundreds of per-buffer zeroings.
        targets = list(grads.values())
        total = sum(t.data.size for t in targets)
        arena = np.zeros(total, dtype=DEFAULT_DTYPE)
        grad_view = {}
        offset = 0
        for t in targets:
            n = t.data.size
            grad_view[id(t)] = arena[offset:offset + n].reshape(t.data.shape)
            offset += n
        grad_pairs = [(t, grad_view[id(t)]) for t in targets]
        seed = np.ones_like(loss_tensor.data, dtype=DEFAULT_DTYPE)
        loss_view = grad_view.get(id(loss_tensor))
        if loss_view is None:
            raise PlanUnsupported("loss tensor accumulated no gradient")
        # Compile each fired closure into out=-style ufunc kernels where a
        # bitwise mirror exists; otherwise fire the retained closure
        # against its (stable) arena view.
        for bfn, rec in fired_recs:
            if id(rec.out) not in grad_view:
                raise PlanUnsupported(
                    f"fired {rec.op} closure whose output has no gradient")
            kernel = _build_backward_kernel(rec, grad_view)
            if kernel is None:
                kernel = (lambda bfn=bfn, gv=grad_view[id(rec.out)]: bfn(gv))
            else:
                compiled_backward += 1
            fired_fns.append(kernel)

    # Fused-chain stat: maximal runs of consecutive elementwise nodes that
    # execute back to back with no intervening allocation.
    chains = 0
    run = 0
    for rec in records:
        if rec.op in _ELEMENTWISE_OPS:
            run += 1
        else:
            if run > 1:
                chains += 1
            run = 0
    if run > 1:
        chains += 1

    arena_bytes = sum(rec.out.data.nbytes for rec in records
                      if rec.op != "backward")
    if arena is not None:
        arena_bytes += arena.nbytes

    plan = _Plan(records, fired_fns, grad_pairs, arena, loss_view, seed)
    plan.stats = {
        "nodes": sum(1 for rec in records if rec.op != "backward"),
        "backward_ops": len(fired_fns),
        "compiled_backward": compiled_backward,
        "grad_buffers": len(grad_pairs),
        "cse_reused": cse_reused,
        "fused_kernels": fused_kernels,
        "elementwise_chains": chains,
        "arena_bytes": int(arena_bytes),
    }
    return plan


# --------------------------------------------------------------------- #
# replay
# --------------------------------------------------------------------- #


class _Plan:
    """A finalized execution plan: dispatch cursor + kernels + backward."""

    def __init__(self, records, fired_fns, grad_pairs, arena, loss_view, seed):
        self._seq = tuple(records)
        self._n = len(self._seq)
        self._cursor = 0
        self._fired_fns = tuple(fired_fns)
        self._grad_pairs = tuple(grad_pairs)
        self._arena = arena
        self._loss_view = loss_view
        self._seed = seed
        self._saved = None
        self._prev_handler = None
        self.stats = {}

    # -- dispatch ------------------------------------------------------ #

    def _next(self, op):
        i = self._cursor
        if i >= self._n:
            raise ReplayMismatch("sequence_overrun", f"extra {op} after plan end")
        rec = self._seq[i]
        if rec.op != op:
            raise ReplayMismatch(
                "sequence_mismatch", f"step {i}: expected {rec.op}, got {op}")
        self._cursor = i + 1
        return rec

    # _dispatch1/2/meta are the replay hot path (hundreds of calls per
    # step); _next is inlined into each to save a Python frame per op.

    def _dispatch1(self, op, a):
        i = self._cursor
        if i >= self._n:
            raise ReplayMismatch("sequence_overrun", f"extra {op} after plan end")
        rec = self._seq[i]
        if rec.op != op:
            raise ReplayMismatch(
                "sequence_mismatch", f"step {i}: expected {rec.op}, got {op}")
        self._cursor = i + 1
        rec.guards[0](a)
        kernel = rec.kernel
        if kernel is not None:
            kernel()
        return rec.out

    def _dispatch2(self, op, a, b):
        i = self._cursor
        if i >= self._n:
            raise ReplayMismatch("sequence_overrun", f"extra {op} after plan end")
        rec = self._seq[i]
        if rec.op != op:
            raise ReplayMismatch(
                "sequence_mismatch", f"step {i}: expected {rec.op}, got {op}")
        self._cursor = i + 1
        guards = rec.guards
        guards[0](a)
        guards[1](b)
        kernel = rec.kernel
        if kernel is not None:
            kernel()
        return rec.out

    def _dispatch_meta(self, op, a, meta):
        i = self._cursor
        if i >= self._n:
            raise ReplayMismatch("sequence_overrun", f"extra {op} after plan end")
        rec = self._seq[i]
        if rec.op != op:
            raise ReplayMismatch(
                "sequence_mismatch", f"step {i}: expected {rec.op}, got {op}")
        self._cursor = i + 1
        rec.meta_guard(meta)
        rec.guards[0](a)
        kernel = rec.kernel
        if kernel is not None:
            kernel()
        return rec.out

    def _dispatch_multi(self, op, tensors, axis):
        rec = self._next(op)
        rec.meta_guard((axis, len(tensors)))
        for guard, t in zip(rec.guards, tensors):
            guard(t)
        rec.kernel()
        return rec.out

    def _dispatch_where(self, condition, a, b):
        rec = self._next("where")
        cond = rec.cells["cond"]
        src = condition.data if isinstance(condition, Tensor) else condition
        src = np.asarray(src, dtype=bool)
        if src.shape != cond.shape:
            raise ReplayMismatch("shape", "where condition shape changed")
        if src is not cond:
            np.copyto(cond, src)
        guards = rec.guards
        guards[0](a)
        guards[1](b)
        rec.kernel()
        return rec.out

    def _dispatch_gather(self, table, indices):
        rec = self._next("gather_rows")
        idx = rec.cells["idx"]
        src = np.asarray(indices.data if isinstance(indices, Tensor) else indices,
                         dtype=np.int64)
        if src.shape != idx.shape:
            raise ReplayMismatch("shape", "gather_rows index shape changed")
        if src is not idx:
            np.copyto(idx, src)
        rec.guards[0](table)
        rec.kernel()
        return rec.out

    # -- backward ------------------------------------------------------ #

    def run_backward(self):
        self._arena.fill(0.0)
        for t, buf in self._grad_pairs:
            t.grad = buf
        np.add(self._loss_view, self._seed, out=self._loss_view)
        for fn in self._fired_fns:
            fn()

    def reset_grads(self):
        """Restore pre-step gradient state after a failed replay attempt.

        The caller zeroes parameter grads *outside* the step function, so
        ``None`` is the correct pre-step state for every plan tensor; the
        eager fallback then re-accumulates from scratch (no double
        counting even when the mismatch fired after backward ran).
        """
        for t, _ in self._grad_pairs:
            t.grad = None

    # -- patching ------------------------------------------------------ #

    def _install(self):
        global _BUSY
        _BUSY = True
        self._cursor = 0
        self._saved = {name: getattr(Tensor, name) for name in _PATCHED_ATTRS}
        plan = self
        # The patched arithmetic methods inline the dispatch body (rather
        # than forwarding to _dispatch1/2) so each replayed op costs one
        # Python frame, not two — this path runs hundreds of times per
        # step and dominates replay time at small tensor sizes.
        seq, n = self._seq, self._n

        def bin2(op):
            def method(self, other):
                i = plan._cursor
                if i >= n:
                    raise ReplayMismatch("sequence_overrun",
                                         f"extra {op} after plan end")
                rec = seq[i]
                if rec.op != op:
                    raise ReplayMismatch(
                        "sequence_mismatch",
                        f"step {i}: expected {rec.op}, got {op}")
                plan._cursor = i + 1
                guards = rec.guards
                guards[0](self)
                guards[1](other)
                kernel = rec.kernel
                if kernel is not None:
                    kernel()
                return rec.out
            return method

        def un1(op):
            def method(self):
                i = plan._cursor
                if i >= n:
                    raise ReplayMismatch("sequence_overrun",
                                         f"extra {op} after plan end")
                rec = seq[i]
                if rec.op != op:
                    raise ReplayMismatch(
                        "sequence_mismatch",
                        f"step {i}: expected {rec.op}, got {op}")
                plan._cursor = i + 1
                rec.guards[0](self)
                kernel = rec.kernel
                if kernel is not None:
                    kernel()
                return rec.out
            return method

        Tensor.__add__ = bin2("add")
        Tensor.__radd__ = bin2("add")
        Tensor.__sub__ = bin2("sub")
        Tensor.__mul__ = bin2("mul")
        Tensor.__rmul__ = bin2("mul")
        Tensor.__truediv__ = bin2("div")
        Tensor.__matmul__ = bin2("matmul")
        for attr, op in (("__neg__", "neg"), ("exp", "exp"), ("log", "log"),
                         ("sqrt", "sqrt"), ("sin", "sin"), ("cos", "cos"),
                         ("tanh", "tanh"), ("sigmoid", "sigmoid"),
                         ("relu", "relu"), ("abs", "abs")):
            setattr(Tensor, attr, un1(op))

        def r_pow(self, exponent):
            return plan._dispatch_meta("pow", self, (exponent,))

        def r_leaky(self, negative_slope=0.01):
            return plan._dispatch_meta("leaky_relu", self,
                                       (float(negative_slope),))

        def r_clip(self, low, high):
            return plan._dispatch_meta("clip", self, (low, high))

        def r_sum(self, axis=None, keepdims=False):
            return plan._dispatch_meta("sum", self,
                                       (_norm_axis(axis), bool(keepdims)))

        def r_max(self, axis=None, keepdims=False):
            return plan._dispatch_meta("max", self,
                                       (_norm_axis(axis), bool(keepdims)))

        def r_reshape(self, *shape):
            return plan._dispatch_meta("reshape", self, (_norm_shape(shape),))

        def r_transpose(self, *axes):
            return plan._dispatch_meta(
                "transpose", self, (_norm_axes(axes, self.data.ndim),))

        def r_bcast(self, shape):
            return plan._dispatch_meta("broadcast_to", self, (tuple(shape),))

        def r_getitem(self, key):
            return plan._dispatch_meta("getitem", self, (key,))

        def r_backward(self, grad=None):
            rec = plan._next("backward")
            if self is not rec.out or grad is not None:
                raise ReplayMismatch("operand_mismatch",
                                     "backward target or seed changed")
            plan.run_backward()

        Tensor.__pow__ = r_pow
        Tensor.leaky_relu = r_leaky
        Tensor.clip = r_clip
        Tensor.sum = r_sum
        Tensor.max = r_max
        Tensor.reshape = r_reshape
        Tensor.transpose = r_transpose
        Tensor.broadcast_to = r_bcast
        Tensor.__getitem__ = r_getitem
        Tensor.backward = r_backward
        self._prev_handler = set_symbolic_handler(_ReplayHandler(self))

    def _uninstall(self):
        global _BUSY
        for name, fn in self._saved.items():
            setattr(Tensor, name, fn)
        set_symbolic_handler(self._prev_handler)
        _BUSY = False

    def replay(self, fn, args):
        self._install()
        try:
            result = fn(*args)
            if self._cursor != self._n:
                raise ReplayMismatch(
                    "sequence_underrun",
                    f"step ended after {self._cursor}/{self._n} plan ops")
        finally:
            self._uninstall()
        return result


class _ReplayHandler:
    """Routes the module-level ops into plan dispatch during replay."""

    def __init__(self, plan: _Plan):
        self.plan = plan

    def concat(self, tensors, axis):
        return self.plan._dispatch_multi("concat", tensors, axis)

    def stack(self, tensors, axis):
        return self.plan._dispatch_multi("stack", tensors, axis)

    def where(self, condition, a, b):
        if condition is True:  # maximum/minimum probe: stay on eager path
            return None
        return self.plan._dispatch_where(condition, a, b)

    def gather_rows(self, table, indices):
        return self.plan._dispatch_gather(table, indices)

    def softmax(self, x, axis):
        return self.plan._dispatch_meta("softmax", x, (axis,))

    def log_softmax(self, x, axis):
        return self.plan._dispatch_meta("log_softmax", x, (axis,))


# --------------------------------------------------------------------- #
# engine
# --------------------------------------------------------------------- #


def _signature(args, key):
    spec = []
    for a in args:
        if isinstance(a, Tensor):
            spec.append(("T", a.data.shape, str(a.data.dtype)))
        elif isinstance(a, np.ndarray):
            spec.append(("A", a.shape, str(a.dtype)))
        else:
            spec.append(("O", type(a).__name__))
    return (bool(is_grad_enabled()), tuple(spec), tuple(key))


class _PlanState:
    __slots__ = ("sig", "plan", "failures", "eager_only", "reason")

    def __init__(self, sig):
        self.sig = sig
        self.plan = None
        self.failures = 0
        self.eager_only = False
        self.reason = ""


class ExecutionEngine:
    """Capture-once / replay-many executor for a fixed step function.

    ``run(fn, *args)`` first executes ``fn`` eagerly under instrumentation
    to record a plan for the argument signature (shapes, dtypes, grad
    mode, caller key), then replays that plan on subsequent calls with
    the same signature.  Any guard violation falls back to eager for that
    call (and logs a ``plan_invalidated`` record); repeated violations
    demote the signature to eager-only.
    """

    def __init__(self, label="engine", logger=None, *, max_plans=8,
                 max_failures=3, rngs=()):
        self.label = label
        self.logger = logger
        self.max_plans = max_plans
        self.max_failures = max_failures
        self.rngs = tuple(rngs)
        self._states = {}
        self._budget_logged = set()
        self.stats = {"captures": 0, "replays": 0, "eager_steps": 0,
                      "invalidations": 0}

    # -- logging ------------------------------------------------------- #

    def _log(self, event, **fields):
        if self.logger is not None:
            self.logger.log(event, engine=self.label, **fields)

    @staticmethod
    def _sig_repr(sig):
        grad, spec, key = sig
        return {"grad": grad, "args": [list(map(str, s)) for s in spec],
                "key": list(map(str, key))}

    # -- rng snapshots -------------------------------------------------- #

    def _snapshot_rngs(self):
        return [rng.bit_generator.state for rng in self.rngs]

    def _restore_rngs(self, snapshot):
        for rng, state in zip(self.rngs, snapshot):
            rng.bit_generator.state = state

    # -- main entry ---------------------------------------------------- #

    def run(self, fn, *args, key=()):
        if _BUSY or get_symbolic_handler() is not None:
            return fn(*args)
        sig = _signature(args, key)
        state = self._states.get(sig)
        if state is None:
            if len(self._states) >= self.max_plans:
                if sig not in self._budget_logged:
                    self._budget_logged.add(sig)
                    self._log("plan_budget", signature=self._sig_repr(sig),
                              max_plans=self.max_plans)
                self.stats["eager_steps"] += 1
                return fn(*args)
            state = _PlanState(sig)
            self._states[sig] = state
            return self._capture(state, fn, args)
        if state.eager_only or state.plan is None:
            self.stats["eager_steps"] += 1
            return fn(*args)
        return self._replay(state, fn, args)

    def _capture(self, state, fn, args):
        # Lazy import (like _notify_trace): repro.obs pulls the op tracer,
        # which imports back into autodiff — a cycle at module-load time.
        from ..obs.spans import finish_span, start_span

        cap_span = start_span("engine_capture", attrs={"engine": self.label})
        cap = _CaptureSession()
        cap.install()
        try:
            result = fn(*args)
        except BaseException:
            self._states.pop(state.sig, None)
            finish_span(cap_span, status="error")
            raise
        finally:
            cap.uninstall()
        try:
            state.plan = _finalize(cap)
        except PlanUnsupported as exc:
            state.eager_only = True
            state.reason = str(exc)
            self.stats["invalidations"] += 1
            self._log("plan_invalidated", signature=self._sig_repr(state.sig),
                      phase="capture", reason=str(exc),
                      failures=state.failures)
            finish_span(cap_span, status="unsupported", reason=str(exc))
        else:
            self.stats["captures"] += 1
            self._log("plan_captured", signature=self._sig_repr(state.sig),
                      **state.plan.stats)
            finish_span(cap_span, nodes=state.plan.stats.get("nodes"))
        return _copy_result(result)

    def _replay(self, state, fn, args):
        from ..obs.spans import finish_span, start_span

        replay_span = start_span("engine_replay", attrs={"engine": self.label})
        snapshot = self._snapshot_rngs()
        started = perf_counter()
        try:
            result = state.plan.replay(fn, args)
        except ReplayMismatch as exc:
            self._restore_rngs(snapshot)
            state.plan.reset_grads()
            state.failures += 1
            self.stats["invalidations"] += 1
            self._log("plan_invalidated", signature=self._sig_repr(state.sig),
                      phase="replay", reason=exc.reason,
                      detail=str(exc), failures=state.failures)
            if state.failures >= self.max_failures:
                state.eager_only = True
                state.reason = exc.reason
                state.plan = None
                self._log("plan_demoted", signature=self._sig_repr(state.sig),
                          reason=exc.reason)
            self.stats["eager_steps"] += 1
            # The span covers the whole call, eager fallback included —
            # the "invalidated" status is what makes it visible.
            try:
                return fn(*args)
            finally:
                finish_span(replay_span, status="invalidated", reason=exc.reason)
        self.stats["replays"] += 1
        self._notify_trace(perf_counter() - started)
        finish_span(replay_span)
        return _copy_result(result)

    def _notify_trace(self, seconds):
        try:
            from ..obs.trace import record_replay
        except Exception:  # pragma: no cover - obs is optional at runtime
            return
        record_replay(self.label, seconds)

    # -- introspection -------------------------------------------------- #

    def describe(self):
        plans = []
        for state in self._states.values():
            entry = {"signature": self._sig_repr(state.sig),
                     "eager_only": state.eager_only,
                     "failures": state.failures}
            if state.reason:
                entry["reason"] = state.reason
            if state.plan is not None:
                entry["stats"] = dict(state.plan.stats)
            plans.append(entry)
        return {"label": self.label, "stats": dict(self.stats),
                "plans": plans}


# --------------------------------------------------------------------- #
# model wrapper
# --------------------------------------------------------------------- #


from ..nn.module import Module  # noqa: E402  (Module only needs Tensor)


class CompiledModel(Module):
    """Wrap a forecaster so no-grad ``model(x, t)`` calls replay a plan.

    Training goes through :class:`ExecutionEngine` inside the trainer;
    this wrapper covers inference surfaces (``ForecastServer``,
    ``Trainer.predict``) where the call shape repeats across requests.
    State-dict and parameter naming delegate to the wrapped model
    *without* an ``inner.`` prefix so checkpoints and server warm reloads
    stay key-compatible with the uncompiled model.
    """

    def __init__(self, model, *, label="compiled_model", logger=None,
                 max_plans=8, max_failures=3):
        super().__init__()
        self.inner = model
        self._engine = ExecutionEngine(
            label, logger, max_plans=max_plans, max_failures=max_failures,
            rngs=discover_rngs(model))

    def _step(self, x, t):
        return self.inner(x, t)

    def forward(self, x, t=None, **kwargs):
        if kwargs or is_grad_enabled() or get_symbolic_handler() is not None:
            return self.inner(x, t, **kwargs) if kwargs else self.inner(x, t)
        return self._engine.run(self._step, x, t,
                                key=(bool(self.inner.training),))

    # -- transparent delegation (checkpoint key compatibility) ---------- #

    def named_parameters(self, prefix=""):
        return self.inner.named_parameters(prefix)

    def state_dict(self):
        return self.inner.state_dict()

    def load_state_dict(self, state):
        return self.inner.load_state_dict(state)

    def train(self, mode=True):
        self.training = mode
        self.inner.train(mode)
        return self

    def eval(self):
        return self.train(False)

    def __deepcopy__(self, memo):
        import copy

        clone = CompiledModel(
            copy.deepcopy(self.inner, memo),
            label=self._engine.label,
            logger=self._engine.logger,
            max_plans=self._engine.max_plans,
            max_failures=self._engine.max_failures,
        )
        clone.training = self.training
        memo[id(self)] = clone
        return clone

    @property
    def engine(self):
        return self._engine
