"""Request validation: every front-door check rejects with its own code."""

import numpy as np
import pytest

from repro.serve import (
    ForecastRequest,
    InvalidRequestError,
    RequestSpec,
    validate_request,
)
from repro.serve.chaos import malformed_payloads


@pytest.fixture(scope="module")
def spec(tiny_task):
    return RequestSpec.for_task(tiny_task)


def _good_payload(spec):
    return {
        "window": np.zeros(spec.window_shape),
        "time_index": np.arange(spec.span),
    }


class TestRequestSpec:
    def test_derived_from_task(self, tiny_task, spec):
        assert spec.history == tiny_task.history
        assert spec.num_nodes == tiny_task.num_nodes
        assert spec.in_dim == tiny_task.in_dim
        assert spec.window_shape == (tiny_task.history, tiny_task.num_nodes, tiny_task.in_dim)
        assert spec.span == tiny_task.history + tiny_task.horizon

    def test_scale_limit_covers_training_inputs(self, tiny_task, spec):
        observed = float(np.abs(tiny_task.train.inputs).max())
        assert spec.scale_limit >= observed

    def test_drift_factor_none_disables_limit(self, tiny_task):
        assert RequestSpec.for_task(tiny_task, drift_factor=None).scale_limit is None


class TestValidateRequest:
    def test_happy_path(self, spec):
        request = validate_request(_good_payload(spec), spec, now=5.0)
        assert isinstance(request, ForecastRequest)
        assert request.window.shape == spec.window_shape
        assert request.window.dtype == np.float64
        assert request.time_index.dtype == np.int64
        assert request.received_at == 5.0
        assert request.deadline is None
        assert request.request_id  # auto-generated

    def test_real_task_windows_pass(self, tiny_task, spec):
        payload = {
            "window": tiny_task.test.inputs[0],
            "time_index": tiny_task.test.time_indices[0],
            "id": "w0",
            "deadline": 99.0,
        }
        request = validate_request(payload, spec, now=1.0)
        assert request.request_id == "w0"
        assert request.deadline == 99.0
        assert not request.expired(now=98.0)
        assert request.expired(now=99.0)

    def test_non_mapping_payload(self, spec):
        with pytest.raises(InvalidRequestError) as err:
            validate_request([1, 2, 3], spec, now=0.0)
        assert err.value.code == "schema"

    def test_missing_field(self, spec):
        with pytest.raises(InvalidRequestError) as err:
            validate_request({"window": np.zeros(spec.window_shape)}, spec, now=0.0)
        assert err.value.code == "schema"

    def test_unknown_field(self, spec):
        payload = _good_payload(spec)
        payload["surprise"] = 1
        with pytest.raises(InvalidRequestError) as err:
            validate_request(payload, spec, now=0.0)
        assert err.value.code == "schema"

    def test_wrong_shape(self, spec):
        payload = _good_payload(spec)
        payload["window"] = payload["window"][:, :-1]
        with pytest.raises(InvalidRequestError) as err:
            validate_request(payload, spec, now=0.0)
        assert err.value.code == "shape"

    def test_non_numeric_dtype(self, spec):
        payload = _good_payload(spec)
        payload["window"] = np.full(spec.window_shape, "text", dtype=object)
        with pytest.raises(InvalidRequestError) as err:
            validate_request(payload, spec, now=0.0)
        assert err.value.code == "dtype"

    def test_non_finite_window(self, spec):
        payload = _good_payload(spec)
        payload["window"] = payload["window"].copy()
        payload["window"].flat[3] = np.inf
        with pytest.raises(InvalidRequestError) as err:
            validate_request(payload, spec, now=0.0)
        assert err.value.code == "non_finite"

    def test_scale_drift_rejected(self, spec):
        payload = _good_payload(spec)
        payload["window"] = payload["window"].copy()
        payload["window"].flat[0] = spec.scale_limit * 50.0
        with pytest.raises(InvalidRequestError) as err:
            validate_request(payload, spec, now=0.0)
        assert err.value.code == "scale_drift"
        assert "unscaled" in err.value.detail

    def test_time_index_wrong_length(self, spec):
        payload = _good_payload(spec)
        payload["time_index"] = np.arange(spec.span + 1)
        with pytest.raises(InvalidRequestError) as err:
            validate_request(payload, spec, now=0.0)
        assert err.value.code == "time_index"

    def test_time_index_not_increasing(self, spec):
        payload = _good_payload(spec)
        payload["time_index"] = np.arange(spec.span)[::-1].copy()
        with pytest.raises(InvalidRequestError) as err:
            validate_request(payload, spec, now=0.0)
        assert err.value.code == "time_index"

    def test_time_index_fractional(self, spec):
        payload = _good_payload(spec)
        payload["time_index"] = np.arange(spec.span) + 0.5
        with pytest.raises(InvalidRequestError) as err:
            validate_request(payload, spec, now=0.0)
        assert err.value.code == "time_index"

    def test_bad_deadline(self, spec):
        payload = _good_payload(spec)
        payload["deadline"] = "soon"
        with pytest.raises(InvalidRequestError) as err:
            validate_request(payload, spec, now=0.0)
        assert err.value.code == "schema"


class TestMalformedCatalog:
    def test_every_entry_rejected_with_its_code(self, spec):
        catalog = malformed_payloads(spec)
        assert len(catalog) >= 6
        for code, payload in catalog:
            with pytest.raises(InvalidRequestError) as err:
                validate_request(payload, spec, now=0.0)
            assert err.value.code == code, f"expected {code}, got {err.value.code}"
