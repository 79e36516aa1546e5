"""Abstract shape/dtype interpreter over the autodiff op vocabulary.

A :class:`SymTensor` carries a shape (a tuple of :class:`SymDim` —
concrete sizes with optional labels like ``batch``), a symbolic dtype, and
*provenance*: the set of :class:`~repro.nn.module.Parameter` objects whose
values could influence it.  Executing a model's ``forward`` with a
``SymTensor`` input propagates shapes and dtypes through every operation
without allocating real activations — ``.data`` is a zero-stride view of a
single scalar, so raw-numpy escape hatches (``np.partition`` on
``adjacency.data`` and friends) still see an array of the right shape at
O(1) memory.

Shape bugs surface as :class:`SymbolicShapeError` (rule IDs SH001–SH003)
at the op that would have failed; dtype promotions, contract violations
and parameter-dtype drift become findings SH004–SH006.  The provenance
sets double as the substrate for the gradient-flow linter
(:mod:`repro.analyze.gradflow`).

Module-level ops (``concat``, ``softmax``, …) read ``.data`` of every
operand up front, which would silently drop symbolic tracking; the
interpreter therefore installs a cooperative dispatch handler via
:func:`repro.autodiff.tensor.set_symbolic_handler` for the duration of a
check (see :func:`symbolic_execution`).
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

from ..autodiff import functional as _functional  # noqa: F401  (documents the seam)
from ..autodiff.tensor import DEFAULT_DTYPE, Tensor
from ..autodiff.tensor import set_symbolic_handler
from ..nn.module import Module, Parameter
from .findings import Finding

_EMPTY: frozenset[int] = frozenset()


class SymDim(int):
    """A concrete dimension size with an optional human label."""

    label: str | None

    def __new__(cls, value: int, label: str | None = None) -> "SymDim":
        dim = super().__new__(cls, int(value))
        dim.label = label
        return dim

    def __repr__(self) -> str:
        return f"{self.label}={int(self)}" if self.label else str(int(self))


def _fmt_shape(shape: Sequence[int]) -> str:
    parts = []
    for dim in shape:
        parts.append(repr(dim) if isinstance(dim, SymDim) else str(dim))
    return "(" + ", ".join(parts) + ")"


class SymbolicShapeError(Exception):
    """A shape/dtype defect proven by the interpreter (SH001–SH003)."""

    def __init__(self, rule_id: str, message: str, fix_hint: str = ""):
        super().__init__(message)
        self.rule_id = rule_id
        self.message = message
        self.fix_hint = fix_hint
        ctx = _CONTEXT
        self.module_path = ctx.current_path() if ctx is not None else ""


class SymbolicUnsupportedError(Exception):
    """The interpreter cannot evaluate this construct (not a model bug)."""


class ModelShapeError(RuntimeError):
    """Raised by callers (e.g. ``ForecastServer``) on error-severity findings."""

    def __init__(self, findings: Sequence[Finding]):
        self.findings = list(findings)
        detail = "; ".join(f"{f.rule_id} at {f.location}: {f.message}" for f in self.findings)
        super().__init__(f"model failed static shape check: {detail}")


# --------------------------------------------------------------------- #
# interpretation context
# --------------------------------------------------------------------- #


class SymContext:
    """Per-check state: module stack, name map, provenance memo, findings."""

    def __init__(self, model_name: str = "model"):
        self.model_name = model_name
        self.findings: list[Finding] = []
        self.module_stack: list[str] = []
        self._names: dict[int, str] = {}
        self._prov_memo: dict[int, frozenset[int]] = {}
        self._prov_keepalive: dict[int, Tensor] = {}
        self._promotions_seen: set[tuple] = set()
        #: id(real detach() result) -> parameters whose gradients it severed
        self.detached_reals: dict[int, frozenset[int]] = {}

    def register_names(self, root: Module, prefix: str = "") -> None:
        self._names[id(root)] = prefix or type(root).__name__
        stack = [(root, prefix)]
        while stack:
            module, path = stack.pop()
            for child_name, child in module._modules.items():
                child_path = f"{path}.{child_name}" if path else child_name
                if id(child) not in self._names:
                    self._names[id(child)] = child_path
                    stack.append((child, child_path))

    def name_of(self, module: Module) -> str:
        return self._names.get(id(module), type(module).__name__)

    def current_path(self) -> str:
        return self.module_stack[-1] if self.module_stack else ""

    def record_promotion(self, op: str, left: np.dtype, right: np.dtype, result: np.dtype) -> None:
        key = (self.current_path(), op, left.str, right.str)
        if key in self._promotions_seen:
            return
        self._promotions_seen.add(key)
        where = self.current_path() or self.model_name
        self.findings.append(
            Finding(
                rule_id="SH004",
                severity="warning",
                location=f"model:{self.model_name}/{where}",
                anchor=f"model:{self.model_name}",
                message=(
                    f"mixed-precision {op}: {left.name} with {right.name} promotes to "
                    f"{result.name} (expected uniform {np.dtype(DEFAULT_DTYPE).name})"
                ),
                fix_hint="keep all tensors in DEFAULT_DTYPE; check .data mutations and raw numpy constants",
            )
        )

    def collect_params(self, tensor: Tensor) -> frozenset[int]:
        """Parameters reachable from a *real* tensor through ``_parents``."""
        memo = self._prov_memo
        if id(tensor) in memo:
            return memo[id(tensor)]
        stack: list[tuple[Tensor, bool]] = [(tensor, False)]
        on_stack: set[int] = set()
        while stack:
            node, processed = stack.pop()
            if processed:
                acc: set[int] = set()
                if isinstance(node, Parameter):
                    acc.add(id(node))
                    self._prov_keepalive[id(node)] = node
                for parent in node._parents:
                    acc |= memo.get(id(parent), _EMPTY)
                memo[id(node)] = frozenset(acc)
                self._prov_keepalive[id(node)] = node
                on_stack.discard(id(node))
                continue
            if id(node) in memo or id(node) in on_stack:
                continue
            on_stack.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in memo:
                    stack.append((parent, False))
        return memo[id(tensor)]


_CONTEXT: SymContext | None = None


def _require_context() -> SymContext:
    if _CONTEXT is None:
        raise SymbolicUnsupportedError(
            "SymTensor operations require an active symbolic_execution() context"
        )
    return _CONTEXT


# --------------------------------------------------------------------- #
# the symbolic tensor
# --------------------------------------------------------------------- #


def _dims(shape: Sequence[int]) -> tuple[int, ...]:
    out = []
    for dim in shape:
        if isinstance(dim, SymDim):
            out.append(dim)
        elif isinstance(dim, (int, np.integer)):
            out.append(int(dim))
        else:
            raise SymbolicUnsupportedError(f"non-integer dimension {dim!r}")
    return tuple(out)


def _merge_dim(a: int, b: int) -> int:
    """Pick the more informative of two equal dims (prefer a label)."""
    if isinstance(a, SymDim) and a.label:
        return a
    if isinstance(b, SymDim) and b.label:
        return b
    return a


def _broadcast_shapes(a: tuple, b: tuple, op: str) -> tuple:
    rank = max(len(a), len(b))
    pad_a = (1,) * (rank - len(a)) + tuple(a)
    pad_b = (1,) * (rank - len(b)) + tuple(b)
    out = []
    for da, db in zip(pad_a, pad_b):
        if int(da) == int(db):
            out.append(_merge_dim(da, db))
        elif int(da) == 1:
            out.append(db)
        elif int(db) == 1:
            out.append(da)
        else:
            raise SymbolicShapeError(
                "SH001",
                f"broadcast mismatch in {op}: {_fmt_shape(a)} vs {_fmt_shape(b)}",
                fix_hint="align operand shapes (unsqueeze/broadcast_to the smaller one explicitly)",
            )
    return tuple(out)


def _promote(op: str, a: "SymTensor", b: "SymTensor") -> np.dtype:
    da, db = a._sym_dtype, b._sym_dtype
    result = np.result_type(da, db)
    if da.kind == "f" and db.kind == "f" and da != db:
        ctx = _CONTEXT
        if ctx is not None:
            ctx.record_promotion(op, da, db, result)
    return result


def _float_result(dtype: np.dtype) -> np.dtype:
    return dtype if dtype.kind == "f" else np.dtype(DEFAULT_DTYPE)


class SymTensor(Tensor):
    """Shape/dtype/provenance-only stand-in for a :class:`Tensor`.

    Never allocates activation-sized storage: ``.data`` is a broadcast
    (zero-stride) view of one scalar, so code reaching through the
    escape hatch still sees correct ``shape``/``dtype``.
    """

    __slots__ = ("_sym_shape", "_sym_dtype", "_params", "_detached")

    # Make numpy defer to our reflected operators instead of trying to
    # coerce a SymTensor operand itself.
    __array_ufunc__ = None

    def __init__(
        self,
        shape: Sequence[int],
        dtype=DEFAULT_DTYPE,
        params: frozenset[int] = _EMPTY,
        detached: frozenset[int] = _EMPTY,
    ):
        # Deliberately skip Tensor.__init__: a SymTensor has no payload.
        self._sym_shape = _dims(shape)
        self._sym_dtype = np.dtype(dtype)
        self._params = params
        self._detached = detached
        self.grad = None
        self.requires_grad = True
        self._parents = ()
        self._backward_fn = None

    # ---------------------------------------------------------------- #
    # tensor protocol
    # ---------------------------------------------------------------- #

    @property
    def data(self) -> np.ndarray:  # type: ignore[override]
        return np.broadcast_to(np.zeros((), dtype=self._sym_dtype), self.shape)

    @property
    def shape(self) -> tuple[int, ...]:
        return self._sym_shape

    @property
    def ndim(self) -> int:
        return len(self._sym_shape)

    @property
    def size(self) -> int:
        return int(np.prod([int(d) for d in self._sym_shape], dtype=np.int64)) if self._sym_shape else 1

    @property
    def dtype(self):
        return self._sym_dtype

    @property
    def T(self) -> "SymTensor":
        return self.transpose()

    def __len__(self) -> int:
        if not self._sym_shape:
            raise SymbolicShapeError("SH003", "len() of a 0-d tensor")
        return int(self._sym_shape[0])

    def __repr__(self) -> str:
        return f"SymTensor(shape={_fmt_shape(self.shape)}, dtype={self._sym_dtype.name})"

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        if self.size != 1:
            raise SymbolicShapeError(
                "SH003", f"item() on tensor of shape {_fmt_shape(self.shape)}"
            )
        return 0.0

    def detach(self) -> "SymTensor":
        return SymTensor(
            self.shape, self._sym_dtype, params=_EMPTY, detached=self._detached | self._params
        )

    def copy(self) -> "SymTensor":
        return SymTensor(self.shape, self._sym_dtype, params=_EMPTY, detached=self._detached | self._params)

    def backward(self, grad=None) -> None:
        raise SymbolicUnsupportedError("backward() is not defined during symbolic execution")

    # ---------------------------------------------------------------- #
    # op helpers
    # ---------------------------------------------------------------- #

    def _elementwise(self, other, op: str, float_out: bool = False) -> "SymTensor":
        other = _lift(other)
        shape = _broadcast_shapes(self.shape, other.shape, op)
        dtype = _promote(op, self, other)
        if float_out:
            dtype = _float_result(dtype)
        return _result(shape, dtype, (self, other))

    def _unary(self, shape=None, dtype=None) -> "SymTensor":
        return _result(
            self.shape if shape is None else shape,
            self._sym_dtype if dtype is None else dtype,
            (self,),
        )

    # ---------------------------------------------------------------- #
    # arithmetic
    # ---------------------------------------------------------------- #

    def __add__(self, other):
        return self._elementwise(other, "add")

    def __radd__(self, other):
        return self._elementwise(other, "add")

    def __sub__(self, other):
        return self._elementwise(other, "sub")

    def __rsub__(self, other):
        return self._elementwise(other, "sub")

    def __mul__(self, other):
        return self._elementwise(other, "mul")

    def __rmul__(self, other):
        return self._elementwise(other, "mul")

    def __truediv__(self, other):
        return self._elementwise(other, "div", float_out=True)

    def __rtruediv__(self, other):
        return self._elementwise(other, "div", float_out=True)

    def __neg__(self):
        return self._unary()

    def __pow__(self, exponent):
        if isinstance(exponent, Tensor):
            raise SymbolicUnsupportedError("tensor exponents are not supported")
        return self._unary(dtype=_float_result(self._sym_dtype))

    def __matmul__(self, other):
        other = _lift(other)
        return _result(_matmul_shape(self.shape, other.shape), _promote("matmul", self, other), (self, other))

    def __rmatmul__(self, other):
        other = _lift(other)
        return _result(_matmul_shape(other.shape, self.shape), _promote("matmul", other, self), (other, self))

    # comparisons: shape-checked boolean views (no gradient, no provenance)
    def _compare(self, other, op: str) -> np.ndarray:
        other = _lift(other)
        shape = _broadcast_shapes(self.shape, other.shape, op)
        return np.broadcast_to(np.zeros((), dtype=bool), tuple(int(d) for d in shape))

    def __gt__(self, other):
        return self._compare(other, "gt")

    def __lt__(self, other):
        return self._compare(other, "lt")

    def __ge__(self, other):
        return self._compare(other, "ge")

    def __le__(self, other):
        return self._compare(other, "le")

    # ---------------------------------------------------------------- #
    # elementwise functions
    # ---------------------------------------------------------------- #

    def exp(self):
        return self._unary(dtype=_float_result(self._sym_dtype))

    def log(self):
        return self._unary(dtype=_float_result(self._sym_dtype))

    def sqrt(self):
        return self._unary(dtype=_float_result(self._sym_dtype))

    def sin(self):
        return self._unary(dtype=_float_result(self._sym_dtype))

    def cos(self):
        return self._unary(dtype=_float_result(self._sym_dtype))

    def tanh(self):
        return self._unary(dtype=_float_result(self._sym_dtype))

    def sigmoid(self):
        return self._unary(dtype=_float_result(self._sym_dtype))

    def relu(self):
        return self._unary()

    def leaky_relu(self, negative_slope: float = 0.01):
        return self._unary(dtype=_float_result(self._sym_dtype))

    def abs(self):
        return self._unary()

    def clip(self, low, high):
        return self._unary()

    # ---------------------------------------------------------------- #
    # reductions
    # ---------------------------------------------------------------- #

    def _normalize_axes(self, axis, op: str) -> tuple[int, ...]:
        axes = axis if isinstance(axis, tuple) else (axis,)
        out = []
        for a in axes:
            if not isinstance(a, (int, np.integer)):
                raise SymbolicUnsupportedError(f"non-integer axis {a!r} in {op}")
            if not -self.ndim <= a < self.ndim:
                raise SymbolicShapeError(
                    "SH003",
                    f"axis {a} out of range for {op} on shape {_fmt_shape(self.shape)}",
                )
            out.append(int(a) % self.ndim)
        return tuple(out)

    def _reduce(self, axis, keepdims: bool, op: str) -> "SymTensor":
        if axis is None:
            shape = tuple(1 for _ in self.shape) if keepdims else ()
        else:
            axes = set(self._normalize_axes(axis, op))
            if keepdims:
                shape = tuple(1 if i in axes else d for i, d in enumerate(self.shape))
            else:
                shape = tuple(d for i, d in enumerate(self.shape) if i not in axes)
        return self._unary(shape=shape)

    def sum(self, axis=None, keepdims: bool = False):
        return self._reduce(axis, keepdims, "sum")

    def max(self, axis=None, keepdims: bool = False):
        return self._reduce(axis, keepdims, "max")

    # mean/min/swapaxes/unsqueeze/T inherit from Tensor: they delegate to
    # the overridden primitives above.

    # ---------------------------------------------------------------- #
    # shape manipulation
    # ---------------------------------------------------------------- #

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        total = self.size
        known = 1
        infer_at = None
        dims: list[int] = []
        for i, dim in enumerate(shape):
            if not isinstance(dim, (int, np.integer)):
                raise SymbolicUnsupportedError(f"non-integer reshape dim {dim!r}")
            if int(dim) == -1:
                if infer_at is not None:
                    raise SymbolicShapeError("SH003", "reshape with more than one -1")
                infer_at = i
                dims.append(-1)
            else:
                known *= int(dim)
                dims.append(dim)
        if infer_at is not None:
            if known == 0 or total % known != 0:
                raise SymbolicShapeError(
                    "SH003",
                    f"cannot infer -1 reshaping {_fmt_shape(self.shape)} "
                    f"(size {total}) to {_fmt_shape(shape)}",
                )
            dims[infer_at] = total // known
        elif known != total:
            raise SymbolicShapeError(
                "SH003",
                f"cannot reshape {_fmt_shape(self.shape)} (size {total}) to "
                f"{_fmt_shape(shape)} (size {known})",
                fix_hint="recheck the folded axes; a transposed or dropped dim usually hides here",
            )
        return self._unary(shape=tuple(dims))

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        if sorted(int(a) % max(self.ndim, 1) for a in axes) != list(range(self.ndim)):
            raise SymbolicShapeError(
                "SH003",
                f"transpose axes {axes} are not a permutation of rank "
                f"{self.ndim} (shape {_fmt_shape(self.shape)})",
            )
        return self._unary(shape=tuple(self.shape[int(a) % self.ndim] for a in axes))

    def squeeze(self, axis: int):
        (axis,) = self._normalize_axes(axis, "squeeze")
        if int(self.shape[axis]) != 1:
            raise SymbolicShapeError(
                "SH003", f"cannot squeeze axis {axis} of shape {_fmt_shape(self.shape)}"
            )
        return self._unary(shape=self.shape[:axis] + self.shape[axis + 1 :])

    def broadcast_to(self, shape):
        target = _dims(tuple(shape))
        if len(target) < self.ndim:
            raise SymbolicShapeError(
                "SH001",
                f"broadcast_to target {_fmt_shape(target)} has lower rank than "
                f"{_fmt_shape(self.shape)}",
            )
        pad = (1,) * (len(target) - self.ndim) + self.shape
        for src, dst in zip(pad, target):
            if int(src) != int(dst) and int(src) != 1:
                raise SymbolicShapeError(
                    "SH001",
                    f"cannot broadcast {_fmt_shape(self.shape)} to {_fmt_shape(target)}",
                )
        return self._unary(shape=target)

    def __getitem__(self, key):
        return self._unary(shape=_index_shape(self.shape, key))


def _matmul_shape(a: tuple, b: tuple) -> tuple:
    if len(a) == 0 or len(b) == 0:
        raise SymbolicShapeError("SH002", "matmul with a 0-d operand")
    if len(a) == 1 and len(b) == 1:
        if int(a[0]) != int(b[0]):
            raise SymbolicShapeError(
                "SH002", f"matmul inner dimensions differ: {_fmt_shape(a)} @ {_fmt_shape(b)}"
            )
        return ()
    squeeze_front = False
    squeeze_back = False
    if len(a) == 1:
        a = (1,) + tuple(a)
        squeeze_front = True
    if len(b) == 1:
        b = tuple(b) + (1,)
        squeeze_back = True
    if int(a[-1]) != int(b[-2]):
        raise SymbolicShapeError(
            "SH002",
            f"matmul inner dimensions differ: {_fmt_shape(a)} @ {_fmt_shape(b)} "
            f"({int(a[-1])} vs {int(b[-2])})",
            fix_hint="transpose/reshape one operand so the contracted axes line up",
        )
    batch = _broadcast_shapes(tuple(a[:-2]), tuple(b[:-2]), "matmul batch dims")
    shape = tuple(batch) + (a[-2], b[-1])
    if squeeze_front:
        shape = shape[:-2] + (shape[-1],)
    if squeeze_back:
        shape = shape[:-1]
    return shape


def _index_shape(shape: tuple, key) -> tuple:
    keys = key if isinstance(key, tuple) else (key,)
    n_specs = sum(1 for k in keys if k is not None and k is not Ellipsis)
    n_ellipsis = sum(1 for k in keys if k is Ellipsis)
    if n_ellipsis > 1:
        raise SymbolicUnsupportedError("multiple Ellipsis in index")
    if n_specs > len(shape):
        raise SymbolicShapeError(
            "SH003",
            f"too many indices ({n_specs}) for shape {_fmt_shape(shape)}",
        )
    expanded: list = []
    for k in keys:
        if k is Ellipsis:
            expanded.extend([slice(None)] * (len(shape) - n_specs))
        else:
            expanded.append(k)
    if n_ellipsis == 0:
        expanded.extend([slice(None)] * (len(shape) - n_specs))

    out: list = []
    array_seen = False
    dim_i = 0
    for k in expanded:
        if k is None:
            out.append(1)
            continue
        dim = shape[dim_i]
        if isinstance(k, slice):
            start, stop, step = k.indices(int(dim))
            out.append(len(range(start, stop, step)))
        elif isinstance(k, (int, np.integer)):
            if not -int(dim) <= int(k) < int(dim):
                raise SymbolicShapeError(
                    "SH003",
                    f"index {int(k)} out of bounds for axis {dim_i} of shape {_fmt_shape(shape)}",
                )
        elif isinstance(k, (list, np.ndarray)):
            arr = np.asarray(k)
            if arr.dtype == bool or array_seen:
                raise SymbolicUnsupportedError("boolean/multiple advanced indices")
            array_seen = True
            out.extend(arr.shape)
        else:
            raise SymbolicUnsupportedError(f"unsupported index component {type(k).__name__}")
        dim_i += 1
    return tuple(out)


def _lift(value) -> SymTensor:
    """Coerce any operand to a SymTensor, tracking real-side provenance."""
    if isinstance(value, SymTensor):
        return value
    if isinstance(value, Tensor):
        ctx = _CONTEXT
        params = ctx.collect_params(value) if ctx is not None else _EMPTY
        detached = ctx.detached_reals.get(id(value), _EMPTY) if ctx is not None else _EMPTY
        return SymTensor(value.shape, value.dtype, params=params, detached=detached)
    arr = np.asarray(value)
    if arr.dtype.kind not in "fbiu":
        raise SymbolicUnsupportedError(f"cannot lift operand of dtype {arr.dtype}")
    return SymTensor(arr.shape, arr.dtype)


def _result(shape, dtype, operands: Sequence[SymTensor]) -> SymTensor:
    params: frozenset[int] = _EMPTY
    detached: frozenset[int] = _EMPTY
    for op in operands:
        params |= op._params
        detached |= op._detached
    return SymTensor(shape, dtype, params=params, detached=detached)


# --------------------------------------------------------------------- #
# cooperative handler for module-level autodiff functions
# --------------------------------------------------------------------- #


class _SymbolicHandler:
    """Dispatch target installed via ``set_symbolic_handler``.

    Each hook returns ``None`` when no operand is symbolic so the real
    implementation proceeds untouched.
    """

    @staticmethod
    def _any_sym(tensors) -> bool:
        return any(isinstance(t, SymTensor) for t in tensors)

    def concat(self, tensors, axis):
        if not self._any_sym(tensors):
            return None
        syms = [_lift(t) for t in tensors]
        rank = syms[0].ndim
        axis = int(axis) % rank if rank else 0
        total = 0
        for sym in syms:
            if sym.ndim != rank:
                raise SymbolicShapeError(
                    "SH003",
                    f"concat of mixed ranks: {_fmt_shape(syms[0].shape)} vs {_fmt_shape(sym.shape)}",
                )
            for i in range(rank):
                if i != axis and int(sym.shape[i]) != int(syms[0].shape[i]):
                    raise SymbolicShapeError(
                        "SH001",
                        f"concat shapes differ off axis {axis}: "
                        f"{_fmt_shape(syms[0].shape)} vs {_fmt_shape(sym.shape)}",
                    )
            total += int(sym.shape[axis])
        shape = syms[0].shape[:axis] + (total,) + syms[0].shape[axis + 1 :]
        dtype = syms[0]._sym_dtype
        for sym in syms[1:]:
            dtype = _promote("concat", syms[0], sym)
        return _result(shape, dtype, syms)

    def stack(self, tensors, axis):
        if not self._any_sym(tensors):
            return None
        syms = [_lift(t) for t in tensors]
        for sym in syms[1:]:
            if tuple(int(d) for d in sym.shape) != tuple(int(d) for d in syms[0].shape):
                raise SymbolicShapeError(
                    "SH001",
                    f"stack shapes differ: {_fmt_shape(syms[0].shape)} vs {_fmt_shape(sym.shape)}",
                )
        rank = syms[0].ndim + 1
        axis = int(axis) % rank
        shape = syms[0].shape[:axis] + (len(syms),) + syms[0].shape[axis:]
        return _result(shape, syms[0]._sym_dtype, syms)

    def where(self, condition, a, b):
        if not self._any_sym((condition, a, b)):
            return None
        sym_a, sym_b = _lift(a), _lift(b)
        cond_shape = (
            _lift(condition).shape
            if isinstance(condition, (Tensor, np.ndarray))
            else np.asarray(condition).shape
        )
        shape = _broadcast_shapes(
            _broadcast_shapes(tuple(cond_shape), sym_a.shape, "where"), sym_b.shape, "where"
        )
        return _result(shape, _promote("where", sym_a, sym_b), (sym_a, sym_b))

    def gather_rows(self, table, indices):
        if not isinstance(table, SymTensor):
            return None
        idx = np.asarray(indices.data if isinstance(indices, Tensor) else indices)
        shape = tuple(idx.shape) + table.shape[1:]
        return _result(shape, table._sym_dtype, (table,))

    def softmax(self, x, axis):
        if not isinstance(x, SymTensor):
            return None
        x._normalize_axes(axis, "softmax")
        return x._unary(dtype=_float_result(x._sym_dtype))

    def log_softmax(self, x, axis):
        if not isinstance(x, SymTensor):
            return None
        x._normalize_axes(axis, "log_softmax")
        return x._unary(dtype=_float_result(x._sym_dtype))


_HANDLER = _SymbolicHandler()


# --------------------------------------------------------------------- #
# execution harness
# --------------------------------------------------------------------- #


@contextlib.contextmanager
def symbolic_execution(model: Module | None = None, model_name: str = "model"):
    """Activate symbolic dispatch + module location tracking for a check."""
    global _CONTEXT
    ctx = SymContext(model_name)
    if isinstance(model, Module):
        ctx.register_names(model, prefix="")
    previous_ctx, _CONTEXT = _CONTEXT, ctx
    previous_handler = set_symbolic_handler(_HANDLER)
    original_call = Module.__call__
    original_detach = Tensor.detach

    def tracked_call(self, *args, **kwargs):
        ctx.module_stack.append(ctx.name_of(self) or type(self).__name__)
        try:
            return original_call(self, *args, **kwargs)
        finally:
            ctx.module_stack.pop()

    def tracked_detach(self):
        # A detach() on a *real* tensor severs its autodiff ancestry; remember
        # which parameters fed it so GF002 can see through the cut when the
        # result mixes into the symbolic graph.  (SymTensor overrides detach,
        # so symbolic instances never reach this wrapper.)  Detaching an
        # already-severed tensor carries its provenance forward too.
        out = original_detach(self)
        params = ctx.collect_params(self) | ctx.detached_reals.get(id(self), _EMPTY)
        if params:
            ctx.detached_reals[id(out)] = params
            ctx._prov_keepalive[id(out)] = out
        return out

    original_make = Tensor._make

    def tracked_make(data, parents, backward_fn):
        # Real ops downstream of a detach() drop their parents the moment
        # no operand requires grad (Tensor._make), which is exactly what
        # makes detach *chains* (detach → scale → shift → mix into the
        # symbolic graph) invisible to a parent walk.  Intercept result
        # construction itself and carry the severed-parameter set across
        # every real op, so _lift's lookup sees through arbitrary chains.
        out = original_make(data, parents, backward_fn)
        severed = _EMPTY
        for parent in parents:
            severed |= ctx.detached_reals.get(id(parent), _EMPTY)
        if severed:
            ctx.detached_reals[id(out)] = (
                severed | ctx.detached_reals.get(id(out), _EMPTY))
            ctx._prov_keepalive[id(out)] = out
        return out

    Module.__call__ = tracked_call
    Tensor.detach = tracked_detach
    Tensor._make = staticmethod(tracked_make)
    try:
        yield ctx
    finally:
        Module.__call__ = original_call
        Tensor.detach = original_detach
        Tensor._make = staticmethod(original_make)
        set_symbolic_handler(previous_handler)
        _CONTEXT = previous_ctx


def sym_window(
    batch: int, history: int, num_nodes: int, in_dim: int, dtype=DEFAULT_DTYPE
) -> SymTensor:
    """The canonical symbolic forecasting input ``(B, P, N, d)``."""
    return SymTensor(
        (
            SymDim(batch, "batch"),
            SymDim(history, "history"),
            SymDim(num_nodes, "nodes"),
            SymDim(in_dim, "features"),
        ),
        dtype=dtype,
    )


def _model_location(ctx: SymContext, suffix: str = "") -> tuple[str, str]:
    anchor = f"model:{ctx.model_name}"
    return (f"{anchor}/{suffix}" if suffix else anchor), anchor


def check_forecast_model(
    model,
    *,
    history: int,
    horizon: int,
    num_nodes: int,
    in_dim: int,
    out_dim: int,
    batch: int = 2,
    model_name: str | None = None,
    training: bool = False,
    time_offset: int = 3,
) -> list[Finding]:
    """Shape/dtype-check one forecasting model symbolically.

    Runs the model's forward on a :class:`SymTensor` window — no real
    activations — and verifies the served-output contract
    ``(batch, horizon, num_nodes, out_dim)`` (SH006).  Parameter dtype
    drift is checked before execution (SH005).
    """
    name = model_name or type(model).__name__
    findings: list[Finding] = []

    if hasattr(model, "named_parameters"):
        for param_name, param in model.named_parameters():
            if param.data.dtype != np.dtype(DEFAULT_DTYPE):
                findings.append(
                    Finding(
                        rule_id="SH005",
                        severity="error",
                        location=f"model:{name}/{param_name}",
                        anchor=f"model:{name}",
                        message=(
                            f"parameter {param_name} has dtype {param.data.dtype.name}, "
                            f"expected {np.dtype(DEFAULT_DTYPE).name}"
                        ),
                        fix_hint="initialize via nn.init (float64) and never .astype parameters in place",
                    )
                )

    was_training = getattr(model, "training", None)
    if hasattr(model, "train"):
        model.train(training)
    x = sym_window(batch, history, num_nodes, in_dim)
    time_indices = np.arange(history + horizon)[None, :] + np.arange(batch)[:, None] + time_offset
    try:
        with symbolic_execution(model if isinstance(model, Module) else None, name) as ctx:
            try:
                out = model(x, time_indices)
            except SymbolicShapeError as exc:
                location, anchor = _model_location(ctx, exc.module_path)
                findings.append(
                    Finding(
                        rule_id=exc.rule_id,
                        severity="error",
                        location=location,
                        anchor=anchor,
                        message=exc.message,
                        fix_hint=exc.fix_hint,
                    )
                )
            except SymbolicUnsupportedError as exc:
                location, anchor = _model_location(ctx, ctx.current_path())
                findings.append(
                    Finding(
                        rule_id="SH007",
                        severity="warning",
                        location=location,
                        anchor=anchor,
                        message=f"symbolic interpreter cannot evaluate this model: {exc}",
                        fix_hint="route the construct through the autodiff op vocabulary or extend shapes.py",
                    )
                )
            except Exception as exc:  # the *model* crashed on abstract input
                location, anchor = _model_location(ctx, ctx.current_path())
                findings.append(
                    Finding(
                        rule_id="SH007",
                        severity="warning",
                        location=location,
                        anchor=anchor,
                        message=f"symbolic forward raised {type(exc).__name__}: {exc}",
                        fix_hint="reproduce with a real forward; the model may reject abstract values",
                    )
                )
            else:
                expected = (batch, horizon, num_nodes, out_dim)
                actual = tuple(int(d) for d in getattr(out, "shape", ()))
                if actual != expected:
                    findings.append(
                        Finding(
                            rule_id="SH006",
                            severity="error",
                            location=f"model:{name}",
                            anchor=f"model:{name}",
                            message=(
                                f"forward output shape {actual} violates the serving contract "
                                f"(batch={batch}, horizon={horizon}, nodes={num_nodes}, out_dim={out_dim})"
                            ),
                            fix_hint="the decoder/head must emit (B, Q, N, out_dim)",
                        )
                    )
                if isinstance(out, SymTensor) and out.dtype != np.dtype(DEFAULT_DTYPE):
                    findings.append(
                        Finding(
                            rule_id="SH004",
                            severity="warning",
                            location=f"model:{name}",
                            anchor=f"model:{name}",
                            message=f"forward output dtype {out.dtype.name} != {np.dtype(DEFAULT_DTYPE).name}",
                            fix_hint="trace the promotion warnings above to the offending constant",
                        )
                    )
            findings.extend(ctx.findings)
    finally:
        if was_training is not None and hasattr(model, "train"):
            model.train(was_training)
    return findings


def check_served_model(model, task, *, batch: int = 2, model_name: str | None = None) -> list[Finding]:
    """Shape-check a model against the task a :class:`ForecastServer` serves."""
    return check_forecast_model(
        model,
        history=int(task.history),
        horizon=int(task.horizon),
        num_nodes=int(task.num_nodes),
        in_dim=int(task.in_dim),
        out_dim=int(task.out_dim),
        batch=batch,
        model_name=model_name or type(model).__name__,
    )
