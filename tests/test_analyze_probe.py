"""Tests for the concrete model probe (repro.analyze.probe).

Every planted defect must be reported at error severity with the right
rule id and location; the shipped model catalog must come back free of
errors and warnings; the mis-shaped GCGRU gate buried two modules deep
in TGCRN must be located at its cell in under a second; and the probe
must leave process-wide state alone while it runs.
"""

import threading
import time
from types import SimpleNamespace

import numpy as np

from repro.analyze import check_engine_support, check_forecast_model, check_served_model
from repro.autodiff import Tensor, is_grad_enabled, stack
from repro.core import TGCRN, NodeAdaptiveGraphConv
from repro.nn import Linear, Module, Parameter

# B=2 (fixed by the probe), P, Q and N all differ, so a swapped axis shows.
DIMS = dict(history=4, horizon=3, num_nodes=5, in_dim=2, out_dim=2)


def _rule_ids(findings):
    return {f.rule_id for f in findings}


def _errors(findings, rule_id):
    found = [f for f in findings if f.rule_id == rule_id]
    assert found and all(f.severity == "error" for f in found), [f.to_dict() for f in findings]
    return found


def _horizon_stack(frame):
    return stack([frame] * DIMS["horizon"], axis=1)


def _tiny_tgcrn(seed=0, num_layers=2):
    return TGCRN(
        num_nodes=DIMS["num_nodes"], in_dim=DIMS["in_dim"], out_dim=DIMS["out_dim"],
        horizon=DIMS["horizon"], hidden_dim=6, num_layers=num_layers, node_dim=4,
        time_dim=4, steps_per_day=24, rng=np.random.default_rng(seed),
    )


class _GoodModel(Module):
    """Minimal contract-conforming forecaster used as the clean control."""

    def __init__(self, rng):
        super().__init__()
        self.proj = Linear(DIMS["in_dim"], DIMS["out_dim"], rng=rng)

    def forward(self, x, t):
        return _horizon_stack(self.proj(x[:, -1]))  # (B, Q, N, out_dim)


class TestPlantedBugs:
    def test_broadcast_mismatch_is_sh001(self, rng):
        class Bad(Module):
            def __init__(self):
                super().__init__()
                self.proj = Linear(DIMS["in_dim"], DIMS["out_dim"], rng=rng)
                self.bias = Parameter(np.zeros(DIMS["out_dim"] + 1))

            def forward(self, x, t):
                return _horizon_stack(self.proj(x[:, -1]) + self.bias)

        (finding,) = _errors(check_forecast_model(Bad(), **DIMS), "SH001")
        assert finding.location == "model:Bad"
        assert finding.message.startswith("forward raised ValueError")

    def test_matmul_inner_dim_is_sh001(self, rng):
        class Bad(Module):
            def __init__(self):
                super().__init__()
                self.weight = Parameter(rng.normal(size=(DIMS["in_dim"] + 1, DIMS["out_dim"])))

            def forward(self, x, t):
                return _horizon_stack(x[:, -1] @ self.weight)

        _errors(check_forecast_model(Bad(), **DIMS), "SH001")

    def test_bad_reshape_is_sh001(self, rng):
        class Bad(Module):
            def __init__(self):
                super().__init__()
                self.proj = Linear(DIMS["in_dim"], DIMS["out_dim"], rng=rng)

            def forward(self, x, t):
                frame = self.proj(x[:, -1])
                return _horizon_stack(frame.reshape(frame.shape[0], -1, 3))

        _errors(check_forecast_model(Bad(), **DIMS), "SH001")

    def test_model_crash_is_sh001_error(self):
        """A crash on a valid input is an error, not an "uncheckable" warning."""

        class Weird(Module):
            def forward(self, x, t):
                raise RuntimeError("planted crash")

        findings = check_forecast_model(Weird(), **DIMS)
        assert _rule_ids(findings) == {"SH001"}
        (finding,) = _errors(findings, "SH001")
        assert finding.message == "forward raised RuntimeError: planted crash"

    def test_backward_crash_is_sh001(self, rng):
        class BadGrad(_GoodModel):
            def forward(self, x, t):
                out = super().forward(x, t)

                def backward_fn(grad):
                    raise FloatingPointError("planted backward failure")

                return Tensor._make(out.data, (out,), backward_fn)

        (finding,) = _errors(check_forecast_model(BadGrad(rng), **DIMS), "SH001")
        assert finding.message.startswith("backward raised FloatingPointError")

    def test_float32_parameter_is_sh005(self, rng):
        model = _GoodModel(rng)
        model.proj.weight.data = model.proj.weight.data.astype(np.float32)
        sh005 = _errors(check_forecast_model(model, **DIMS), "SH005")
        assert any("proj.weight" in f.location for f in sh005)

    def test_wrong_output_contract_is_sh006(self, rng):
        class Bad(Module):
            def __init__(self):
                super().__init__()
                self.proj = Linear(DIMS["in_dim"], DIMS["out_dim"] + 1, rng=rng)

            def forward(self, x, t):
                return _horizon_stack(self.proj(x[:, -1]))

        _errors(check_forecast_model(Bad(), **DIMS), "SH006")

    def test_history_horizon_swap_is_sh006(self, rng):
        class Swapped(_GoodModel):
            def forward(self, x, t):
                return self.proj(x)  # (B, P, N, out_dim): P frames, not Q

        (finding,) = _errors(check_forecast_model(Swapped(rng), **DIMS), "SH006")
        assert "(2, 4, 5, 2)" in finding.message

    def test_float32_output_is_sh006(self, rng):
        class Narrow(_GoodModel):
            def forward(self, x, t):
                out = super().forward(x, t)
                out.data = out.data.astype(np.float32)  # Tensor() would coerce it back
                return out

        (finding,) = _errors(check_served_model(Narrow(rng), SimpleNamespace(**DIMS)), "SH006")
        assert "float32" in finding.message


class TestMisShapedGCGRUGate:
    """The acceptance scenario: a wrong gate conv inside TGCRN is found and
    located at the owning cell in well under a second."""

    def test_detects_and_locates(self):
        model = _tiny_tgcrn()
        cell = model.encoder_cells[0]
        # Gate output width off by one: hidden mismatch at the GRU update.
        cell.gate_conv = NodeAdaptiveGraphConv(
            cell.in_dim + cell.hidden_dim, 2 * cell.hidden_dim + 1,
            embed_dim=8, rng=np.random.default_rng(1),
        )
        start = time.perf_counter()
        findings = check_forecast_model(model, model_name="tgcrn", **DIMS)
        elapsed = time.perf_counter() - start
        (finding,) = _errors(findings, "SH001")
        assert finding.location == "model:tgcrn/encoder_cells.0"
        assert elapsed < 1.0, f"probe took {elapsed:.3f}s"


class TestGradientFlow:
    def test_unused_parameter_is_gf001(self, rng):
        class Bad(_GoodModel):
            def __init__(self):
                super().__init__(rng)
                self.orphan = Parameter(np.zeros(3))  # registered, never used

        (finding,) = _errors(check_forecast_model(Bad(), **DIMS), "GF001")
        assert finding.location == "model:Bad/orphan"

    def test_detach_only_usage_is_gf001(self, rng):
        class Bad(_GoodModel):
            def __init__(self):
                super().__init__(rng)
                self.scale = Parameter(np.ones(DIMS["out_dim"]))

            def forward(self, x, t):
                # scale shapes the output but only through detach: it can
                # never receive a gradient.
                return _horizon_stack(self.proj(x[:, -1]) * self.scale.detach())

        (finding,) = _errors(check_forecast_model(Bad(), **DIMS), "GF001")
        assert finding.location == "model:Bad/scale"

    def test_detach_chain_through_real_ops_is_gf001(self, rng):
        class Chained(_GoodModel):
            def __init__(self):
                super().__init__(rng)
                self.gain = Parameter(np.ones(DIMS["out_dim"]))

            def forward(self, x, t):
                # The detached value goes through further arithmetic before
                # it mixes into the output; backward still never reaches it.
                warped = self.gain.detach() * 2.0 + 1.0
                return _horizon_stack(self.proj(x[:, -1]) * warped)

        (finding,) = _errors(check_forecast_model(Chained(), **DIMS), "GF001")
        assert finding.location == "model:Chained/gain"

    def test_detach_plus_live_path_is_clean(self, rng):
        class Fine(_GoodModel):
            def __init__(self):
                super().__init__(rng)
                self.scale = Parameter(np.ones(DIMS["out_dim"]))

            def forward(self, x, t):
                frame = self.proj(x[:, -1]) * self.scale
                return _horizon_stack(frame + 0.0 * self.scale.detach())

        assert check_forecast_model(Fine(), **DIMS) == []

    def test_model_crash_guesses_no_gradient_finding(self):
        """A forward that raises leaves every .grad at None; that is the
        crash (SH001), not a dead parameter, so no GF001 is reported."""

        class Opaque(Module):
            def __init__(self):
                super().__init__()
                self.weight = Parameter(np.ones(3))

            def forward(self, x, t):
                raise RuntimeError("planted crash")

        findings = check_forecast_model(Opaque(), **DIMS)
        assert not {r for r in _rule_ids(findings) if r.startswith("GF")}, [
            f.to_dict() for f in findings
        ]
        _errors(findings, "SH001")

    def test_tgcrn_has_no_dead_parameters(self):
        findings = check_forecast_model(_tiny_tgcrn(), model_name="tgcrn", **DIMS)
        assert "GF001" not in _rule_ids(findings), [f.to_dict() for f in findings]

    def test_double_registration_is_gf003_info(self, rng):
        class Shared(_GoodModel):
            def __init__(self):
                super().__init__(rng)
                self.alias = self.proj  # same module under two names

        gf003 = [f for f in check_forecast_model(Shared(), **DIMS) if f.rule_id == "GF003"]
        assert gf003 and all(f.severity == "info" for f in gf003)
        assert any("alias" in f.message and "proj" in f.message for f in gf003)

    def test_tgcrn_time_encoder_sharing_is_reported(self):
        """The catalog case the committed baseline accepts: TGCRN registers
        its time encoder both directly and inside TagSL."""
        findings = check_forecast_model(_tiny_tgcrn(num_layers=1), model_name="tgcrn", **DIMS)
        gf003 = [f for f in findings if f.rule_id == "GF003"]
        assert [f.location for f in gf003] == ["model:tgcrn/time_encoder.weight"]
        assert gf003[0].message == (
            "parameter time_encoder.weight is registered under 2 paths "
            "(tagsl.time_encoder.weight, time_encoder.weight); named_parameters "
            "dedups it but state dicts and summaries only see the first"
        )


class TestCleanCatalog:
    def test_tiny_tgcrn_is_clean(self):
        findings = check_forecast_model(_tiny_tgcrn(), model_name="tgcrn", **DIMS)
        assert [f for f in findings if f.severity != "info"] == [], \
            [f.to_dict() for f in findings]

    def test_full_registry_is_clean(self):
        from repro.analyze import analyze_models

        findings = [f for f in analyze_models(rules=["SH", "GF"]) if f.severity != "info"]
        assert findings == [], [f.to_dict() for f in findings]

    def test_served_model_checked_against_task(self, tiny_task):
        from repro.training import default_tgcrn_kwargs

        model = TGCRN(**default_tgcrn_kwargs(
            tiny_task, hidden_dim=4, node_dim=3, time_dim=3, num_layers=1),
            rng=np.random.default_rng(3))
        assert check_served_model(model, tiny_task) == []


class TestProbeLeavesStateAlone:
    def test_training_flag_restored_and_grads_cleared(self, rng):
        model = _tiny_tgcrn().eval()
        check_forecast_model(model, **DIMS)
        assert not any(m.training for m in model.modules())
        assert all(p.grad is None for p in model.parameters())

    def test_gate_blocked_in_forward_patches_nothing(self, rng):
        """While the gate runs a model's forward on another thread, this
        thread sees the original module call, tensor factory, detach and
        grad mode: a server keeps serving next to a reload's probe."""
        original = (Module.__call__, Tensor.__dict__["_make"], Tensor.detach)
        entered, release = threading.Event(), threading.Event()

        class Blocking(_GoodModel):
            def forward(self, x, t):
                entered.set()
                release.wait(timeout=10)
                return super().forward(x, t)

        model, result = Blocking(rng), {}
        gate = threading.Thread(
            target=lambda: result.update(findings=check_served_model(model, SimpleNamespace(**DIMS))))
        gate.start()
        try:
            assert entered.wait(timeout=10)
            assert (Module.__call__, Tensor.__dict__["_make"], Tensor.detach) == original
            assert is_grad_enabled()
        finally:
            release.set()
            gate.join(timeout=10)
        assert not gate.is_alive()
        assert result["findings"] == []


class TestEngineSupportLint:
    """EN001: a registry model that can't capture/replay is a warning —
    the trainer silently loses ``--compile`` for it."""

    def test_clean_model_is_engine_compilable(self):
        findings = check_engine_support(_tiny_tgcrn(), model_name="tgcrn", **DIMS)
        assert findings == [], [str(f.to_dict()) for f in findings]

    def test_capture_hostile_model_is_en001(self, rng):
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
