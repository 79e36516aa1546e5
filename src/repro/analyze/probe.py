"""Concrete model probe: run a model's real code once and report what broke.

:func:`check_forecast_model` feeds one seeded window through the model in
train mode at small dims, then backpropagates the output sum.
:func:`check_served_model` is the forward-only gate ``ForecastServer``
runs in eval mode at its task's dims before a model takes traffic.

* **SH001** (error) — the forward or backward raised; located at the
  innermost module of the model on the exception's traceback.
* **SH005** (error) — a parameter's dtype is not float64.
* **SH006** (error) — the output is not a float64 ``(B, Q, N, out_dim)``.
* **GF001** (error) — a parameter's ``.grad`` is still ``None`` after
  backward: no path reaches it, or every path crosses ``detach()``.
* **GF003** (info) — one ``Parameter`` registered under several module
  paths; ``named_parameters`` dedups it, state dicts see one name.

The probe patches nothing and leaves grad mode as the caller set it, so
it can run next to a serving thread.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..autodiff.tensor import DEFAULT_DTYPE, Tensor
from ..nn.module import Module
from .findings import Finding

_BATCH = 2
_FLOAT = np.dtype(DEFAULT_DTYPE)


class ModelShapeError(RuntimeError):
    """Raised by callers (e.g. ``ForecastServer``) on error-severity findings."""

    def __init__(self, findings: Sequence[Finding]):
        self.findings = list(findings)
        detail = "; ".join(f"{f.rule_id} at {f.location}: {f.message}" for f in self.findings)
        super().__init__(f"model failed its load-time probe: {detail}")


def check_forecast_model(
    model: Module,
    *,
    history: int,
    horizon: int,
    num_nodes: int,
    in_dim: int,
    out_dim: int,
    model_name: str | None = None,
) -> list[Finding]:
    """Probe one model with a forward and a backward in train mode.

    Train mode keeps stochastic paths (dropout, gumbel sampling) and their
    parameters live, as the optimizer sees them.  Backward runs in the
    caller's grad mode, so call this with gradients enabled.  The
    training flag is restored and gradients are cleared afterwards.
    """
    return _probe(model, model_name or type(model).__name__,
                  (history, horizon, num_nodes, in_dim, out_dim), backward=True)


def check_served_model(model: Module, task) -> list[Finding]:
    """Probe a model against the task a ``ForecastServer`` serves: forward only, eval mode."""
    dims = (task.history, task.horizon, task.num_nodes, task.in_dim, task.out_dim)
    return _probe(model, type(model).__name__, tuple(int(d) for d in dims), backward=False)


def _probe(model: Module, name: str, dims: tuple, *, backward: bool) -> list[Finding]:
    history, horizon, num_nodes, in_dim, out_dim = dims
    anchor = f"model:{name}"
    findings: list[Finding] = []

    def report(rule_id: str, where: str, message: str, fix_hint: str, severity: str = "error"):
        location = f"{anchor}/{where}" if where else anchor
        findings.append(Finding(rule_id, severity, location, message, fix_hint, anchor))

    named = list(model.named_parameters())
    for param_name, param in named:
        if param.data.dtype != _FLOAT:
            report("SH005", param_name,
                   f"parameter {param_name} has dtype {param.data.dtype.name}, expected {_FLOAT.name}",
                   "initialize via nn.init (float64) and never .astype parameters in place")

    rng = np.random.default_rng(0)
    x = Tensor(rng.standard_normal((_BATCH, history, num_nodes, in_dim)))
    time_indices = np.arange(history + horizon)[None, :] + np.arange(_BATCH)[:, None] + 3
    was_training = model.training
    model.train(backward)
    if backward:
        model.zero_grad()
    phase = "forward"
    try:
        out = model(x, time_indices)
        shape, dtype = tuple(getattr(out, "shape", ())), getattr(out, "dtype", None)
        if shape != (_BATCH, horizon, num_nodes, out_dim):
            report("SH006", "",
                   f"forward output shape {shape} violates the serving contract (batch={_BATCH}, "
                   f"horizon={horizon}, nodes={num_nodes}, out_dim={out_dim})",
                   "the decoder/head must emit (B, Q, N, out_dim)")
        if dtype != _FLOAT:
            report("SH006", "", f"forward output dtype {dtype} violates the {_FLOAT.name} contract",
                   "keep every tensor in DEFAULT_DTYPE; look for .data written with another dtype")
        if backward:
            phase = "backward"
            out.sum().backward()
            for param_name, param in named:
                if param.grad is None:
                    report("GF001", param_name,
                           f"parameter {param_name} got no gradient: no path reaches it from "
                           "the output, or every path crosses detach()",
                           "use the parameter in forward() without detach(), or stop registering it")
    except Exception as exc:
        report("SH001", _raise_site(exc, model), f"{phase} raised {type(exc).__name__}: {exc}",
               "rerun the model on a window of these dims; the location names the raising module")
    finally:
        model.train(was_training)
        if backward:
            model.zero_grad()
    if not backward:
        return findings

    registered: dict[int, list[str]] = {}
    for prefix, module in _registrations(model):
        for param_name, param in module._parameters.items():
            registered.setdefault(id(param), []).append(prefix + param_name)
    for param_name, param in sorted(named, key=lambda item: item[0]):
        paths = registered[id(param)]
        if len(paths) > 1:
            report("GF003", param_name,
                   f"parameter {param_name} is registered under {len(paths)} paths "
                   f"({', '.join(sorted(paths))}); named_parameters dedups it but "
                   "state dicts and summaries only see the first",
                   "intentional sharing is fine — baseline this; otherwise register once",
                   severity="info")
    return findings


def _registrations(module: Module, prefix: str = "", lineage: tuple = ()) -> Iterator[tuple[str, Module]]:
    """``(prefix, module)`` for every path a module is registered under, as
    ``named_parameters`` spells it (``"encoder_cells.0."``; ``""`` for the root)."""
    yield prefix, module
    lineage += (id(module),)
    for child_name, child in module._modules.items():
        if id(child) not in lineage:  # cycle guard for pathological graphs
            yield from _registrations(child, f"{prefix}{child_name}.", lineage)


def _raise_site(exc: BaseException, model: Module) -> str:
    """Dotted path of the innermost model module on ``exc``'s traceback."""
    paths: dict[int, str] = {}
    for prefix, module in _registrations(model):
        paths.setdefault(id(module), prefix[:-1])
    where = ""
    tb = exc.__traceback__
    while tb is not None:
        where = paths.get(id(tb.tb_frame.f_locals.get("self")), where)
        tb = tb.tb_next
    return where
