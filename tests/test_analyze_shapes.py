"""Tests for the abstract shape/dtype interpreter (repro.analyze.shapes).

Planted-bug fixtures must be caught with the *right* rule id; the whole
shipped model catalog must come back clean; and the flagship acceptance
case — a mis-shaped GCGRU gate buried two modules deep in TGCRN — must
be pinpointed symbolically, fast, with no real forward pass.
"""

import time

import numpy as np
import pytest

from repro.analyze import check_forecast_model, check_served_model, sym_window
from repro.analyze.shapes import SymTensor
from repro.core import TGCRN, NodeAdaptiveGraphConv
from repro.nn import Linear, Module, Parameter

DIMS = dict(history=4, horizon=3, num_nodes=5, in_dim=2, out_dim=2)


def _rule_ids(findings):
    return {f.rule_id for f in findings}


def _tiny_tgcrn(seed=0):
    return TGCRN(
        num_nodes=DIMS["num_nodes"], in_dim=DIMS["in_dim"], out_dim=DIMS["out_dim"],
        horizon=DIMS["horizon"], hidden_dim=6, num_layers=2, node_dim=4, time_dim=4,
        steps_per_day=24, rng=np.random.default_rng(seed),
    )


class _GoodModel(Module):
    """Minimal contract-conforming forecaster used as the clean control."""

    def __init__(self, rng):
        super().__init__()
        self.proj = Linear(DIMS["in_dim"], DIMS["out_dim"], rng=rng)

    def forward(self, x, t):
        frame = self.proj(x[:, -1])  # (B, N, out_dim)
        return concat_horizon(frame)


def concat_horizon(frame):
    from repro.autodiff import stack

    return stack([frame] * DIMS["horizon"], axis=1)


class TestPlantedBugs:
    def test_broadcast_mismatch_is_sh001(self, rng):
        class Bad(Module):
            def __init__(self):
                super().__init__()
                self.proj = Linear(DIMS["in_dim"], DIMS["out_dim"], rng=rng)
                self.bias = Parameter(np.zeros(DIMS["out_dim"] + 1))

            def forward(self, x, t):
                return concat_horizon(self.proj(x[:, -1]) + self.bias)

        findings = check_forecast_model(Bad(), **DIMS)
        assert "SH001" in _rule_ids(findings)
        assert any(f.severity == "error" for f in findings)

    def test_matmul_inner_dim_is_sh002(self, rng):
        class Bad(Module):
            def __init__(self):
                super().__init__()
                self.weight = Parameter(rng.normal(size=(DIMS["in_dim"] + 1, DIMS["out_dim"])))

            def forward(self, x, t):
                return concat_horizon(x[:, -1] @ self.weight)

        findings = check_forecast_model(Bad(), **DIMS)
        assert "SH002" in _rule_ids(findings)

    def test_bad_reshape_is_sh003(self, rng):
        class Bad(Module):
            def __init__(self):
                super().__init__()
                self.proj = Linear(DIMS["in_dim"], DIMS["out_dim"], rng=rng)

            def forward(self, x, t):
                frame = self.proj(x[:, -1])
                return concat_horizon(frame.reshape(frame.shape[0], -1, 3))

        findings = check_forecast_model(Bad(), **DIMS)
        assert "SH003" in _rule_ids(findings)

    def test_float32_parameter_is_sh005(self, rng):
        model = _GoodModel(rng)
        model.proj.weight.data = model.proj.weight.data.astype(np.float32)
        findings = check_forecast_model(model, **DIMS)
        assert "SH005" in _rule_ids(findings)
        sh005 = [f for f in findings if f.rule_id == "SH005"]
        assert all(f.severity == "error" for f in sh005)
        assert any("proj.weight" in f.location for f in sh005)

    def test_wrong_output_contract_is_sh006(self, rng):
        class Bad(Module):
            def __init__(self):
                super().__init__()
                self.proj = Linear(DIMS["in_dim"], DIMS["out_dim"] + 1, rng=rng)

            def forward(self, x, t):
                return concat_horizon(self.proj(x[:, -1]))

        findings = check_forecast_model(Bad(), **DIMS)
        assert "SH006" in _rule_ids(findings)

    def test_model_crash_on_abstract_input_is_sh007_warning(self, rng):
        class Weird(Module):
            def forward(self, x, t):
                raise RuntimeError("no symbolic story for this op")

        findings = check_forecast_model(Weird(), **DIMS)
        assert _rule_ids(findings) == {"SH007"}
        assert all(f.severity == "warning" for f in findings)


class TestMisShapedGCGRUGate:
    """The acceptance scenario: a wrong gate conv inside TGCRN is found
    symbolically, located to the owning cell, in well under a second."""

    def test_detects_and_locates(self):
        model = _tiny_tgcrn()
        cell = model.encoder_cells[0]
        rng = np.random.default_rng(1)
        # Gate output width off by one: hidden mismatch at the GRU update.
        model.encoder_cells[0].gate_conv = NodeAdaptiveGraphConv(
            cell.in_dim + cell.hidden_dim, 2 * cell.hidden_dim + 1,
            embed_dim=8, rng=rng,
        )
        start = time.perf_counter()
        findings = check_forecast_model(model, model_name="tgcrn", **DIMS)
        elapsed = time.perf_counter() - start
        errors = [f for f in findings if f.severity == "error"]
        assert errors, findings
        assert any(f.rule_id.startswith("SH") for f in errors)
        assert any("encoder_cells.0" in f.location for f in errors)
        assert elapsed < 1.0, f"symbolic check took {elapsed:.3f}s"


class TestCleanCatalog:
    def test_tiny_tgcrn_is_clean(self):
        findings = check_forecast_model(_tiny_tgcrn(), model_name="tgcrn", **DIMS)
        assert findings == [], [str(f.to_dict()) for f in findings]

    def test_full_registry_is_shape_clean(self):
        from repro.analyze import analyze_models

        findings = [f for f in analyze_models(rules=["SH"]) if f.severity != "info"]
        assert findings == [], [str(f.to_dict()) for f in findings]

    def test_served_model_checked_against_task(self, tiny_task):
        from repro.training import default_tgcrn_kwargs

        model = TGCRN(**default_tgcrn_kwargs(
            tiny_task, hidden_dim=4, node_dim=3, time_dim=3, num_layers=1),
            rng=np.random.default_rng(3))
        assert check_served_model(model, tiny_task) == []


class TestEngineSupportLint:
    """EN001: a registry model that can't capture/replay is a warning —
    the trainer silently loses ``--compile`` for it."""

    def test_clean_model_is_engine_compilable(self):
        from repro.analyze import check_engine_support

        findings = check_engine_support(_tiny_tgcrn(), model_name="tgcrn", **DIMS)
        assert findings == [], [str(f.to_dict()) for f in findings]

    def test_capture_hostile_model_is_en001(self, rng):
        from repro.analyze import check_engine_support

        class DataDependent(_GoodModel):
            """Branches on tensor *values*: two steps, two op sequences."""

            def __init__(self, rng):
                super().__init__(rng)
                self.calls = 0

            def forward(self, x, t):
                self.calls += 1
                out = super().forward(x, t)
                return out * 2.0 if self.calls % 2 == 0 else out

        findings = check_engine_support(
            DataDependent(rng), model_name="datadep", **DIMS)
        assert _rule_ids(findings) == {"EN001"}
        assert all(f.severity == "warning" for f in findings)


class TestSymTensor:
    def test_sym_window_shape_and_no_real_data(self):
        x = sym_window(2, 4, 5, 3)
        assert isinstance(x, SymTensor)
        assert tuple(int(d) for d in x.shape) == (2, 4, 5, 3)
        # The escape-hatch array is zero-stride: O(1) memory however big.
        assert x.data.strides == (0, 0, 0, 0)

    def test_backward_is_refused(self):
        from repro.analyze.shapes import SymbolicUnsupportedError

        with pytest.raises(SymbolicUnsupportedError):
            sym_window(2, 4, 5, 3).sum().backward()
