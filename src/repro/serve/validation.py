"""Request validation: reject garbage before any model code runs.

A serving layer is only as robust as its front door.  Every incoming
forecast request is checked against a :class:`RequestSpec` derived from
the task the live model was trained on — schema (required fields
present), shape (exactly ``(history, num_nodes, in_dim)``), dtype
(numeric, castable to float64), finiteness (no NaN/Inf smuggled into the
window), and scale drift (scaled inputs should live near the training
distribution; a caller sending *unscaled* raw counts produces magnitudes
hundreds of sigma out and is rejected rather than silently forecast).
Failures raise a structured :class:`InvalidRequestError` carrying a
machine-readable ``code`` — the 4xx of this layer, never a traceback
from deep inside :mod:`repro.autodiff`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

_REQUEST_IDS = itertools.count(1)


class InvalidRequestError(ValueError):
    """A request failed validation before reaching the model (a "4xx").

    ``code`` is machine-readable (``schema`` | ``shape`` | ``dtype`` |
    ``non_finite`` | ``scale_drift`` | ``time_index``); ``detail`` is the
    human-readable reason.
    """

    def __init__(self, code: str, detail: str):
        self.code = code
        self.detail = detail
        super().__init__(f"invalid request [{code}]: {detail}")


@dataclass(frozen=True)
class RequestSpec:
    """The contract incoming windows must satisfy (derived from a task).

    ``scale_limit`` is the drift envelope: the largest |value| seen in
    the (scaled) training inputs times ``drift_factor``.  Scaled data is
    ~N(0, 1), so a request whose window blows past this is almost
    certainly unscaled or from a shifted distribution.
    """

    history: int
    horizon: int
    num_nodes: int
    in_dim: int
    scale_limit: float | None = None

    @classmethod
    def for_task(cls, task, drift_factor: float = 10.0) -> "RequestSpec":
        limit = None
        if drift_factor is not None:
            observed = float(np.abs(task.train.inputs).max())
            limit = float(drift_factor * max(observed, 1.0))
        return cls(
            history=task.history,
            horizon=task.horizon,
            num_nodes=task.num_nodes,
            in_dim=task.in_dim,
            scale_limit=limit,
        )

    @property
    def window_shape(self) -> tuple[int, int, int]:
        return (self.history, self.num_nodes, self.in_dim)

    @property
    def span(self) -> int:
        """Time indices a request must cover: history + horizon frames."""
        return self.history + self.horizon


@dataclass
class ForecastRequest:
    """A validated, admitted unit of work.

    ``deadline`` is an absolute timestamp on the service clock
    (``None`` = no deadline); requests whose deadline passes while
    queued are shed, not served.
    """

    window: np.ndarray       # (history, num_nodes, in_dim), float64, scaled
    time_index: np.ndarray   # (history + horizon,) int64, increasing
    request_id: str = ""
    deadline: float | None = None
    received_at: float = 0.0
    metadata: dict = field(default_factory=dict)

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


def _as_float_array(value, name: str) -> np.ndarray:
    try:
        arr = np.asarray(value)
    except Exception as exc:  # ragged nested sequences, exotic objects
        raise InvalidRequestError("schema", f"{name} is not array-like ({exc})") from exc
    if arr.dtype == object or arr.dtype.kind in "USV":
        raise InvalidRequestError(
            "dtype", f"{name} has non-numeric dtype {arr.dtype}; expected float-castable"
        )
    try:
        return arr.astype(np.float64, copy=False)
    except (TypeError, ValueError) as exc:
        raise InvalidRequestError("dtype", f"{name} not castable to float64 ({exc})") from exc


def validate_request(payload, spec: RequestSpec, now: float) -> ForecastRequest:
    """Check ``payload`` against ``spec``; return an admitted request.

    ``payload`` is a mapping with required keys ``window`` and
    ``time_index`` plus optional ``id``, ``deadline``, ``metadata``.
    ``now`` is the admission instant on the caller's clock; it becomes
    the request's ``received_at``.  Raises :class:`InvalidRequestError`
    (never a bare numpy/attribute error) on any violation.
    """
    if not isinstance(payload, dict):
        raise InvalidRequestError(
            "schema", f"payload must be a mapping, got {type(payload).__name__}"
        )
    for key in ("window", "time_index"):
        if key not in payload:
            raise InvalidRequestError("schema", f"missing required field {key!r}")
    unknown = set(payload) - {"window", "time_index", "id", "deadline", "metadata"}
    if unknown:
        raise InvalidRequestError("schema", f"unknown field(s) {sorted(unknown)}")

    window = _as_float_array(payload["window"], "window")
    if window.shape != spec.window_shape:
        raise InvalidRequestError(
            "shape",
            f"window shape {window.shape} != expected {spec.window_shape} "
            "(history, num_nodes, in_dim)",
        )
    if not np.all(np.isfinite(window)):
        bad = int(window.size - np.count_nonzero(np.isfinite(window)))
        raise InvalidRequestError("non_finite", f"window contains {bad} non-finite value(s)")
    if spec.scale_limit is not None:
        worst = float(np.abs(window).max())
        if worst > spec.scale_limit:
            raise InvalidRequestError(
                "scale_drift",
                f"window magnitude {worst:.3g} exceeds the scaled-input envelope "
                f"{spec.scale_limit:.3g} — is the caller sending unscaled data?",
            )

    time_index = _as_float_array(payload["time_index"], "time_index")
    if time_index.shape != (spec.span,):
        raise InvalidRequestError(
            "time_index",
            f"time_index shape {time_index.shape} != expected ({spec.span},) "
            "(history + horizon frames)",
        )
    if not np.all(np.isfinite(time_index)) or np.any(time_index != np.round(time_index)):
        raise InvalidRequestError("time_index", "time_index must be finite integers")
    time_index = time_index.astype(np.int64)
    if np.any(time_index < 0) or np.any(np.diff(time_index) <= 0):
        raise InvalidRequestError(
            "time_index", "time_index must be non-negative and strictly increasing"
        )

    deadline = payload.get("deadline")
    if deadline is not None:
        try:
            deadline = float(deadline)
        except (TypeError, ValueError) as exc:
            raise InvalidRequestError("schema", f"deadline not a number ({exc})") from exc

    request_id = str(payload.get("id") or f"req-{next(_REQUEST_IDS)}")
    metadata = payload.get("metadata") or {}
    if not isinstance(metadata, dict):
        raise InvalidRequestError("schema", "metadata must be a mapping")
    return ForecastRequest(
        window=window,
        time_index=time_index,
        request_id=request_id,
        deadline=deadline,
        received_at=now,
        metadata=metadata,
    )
