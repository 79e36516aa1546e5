"""Tests for the experiment registry: every paper artifact's one definition."""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments import QUICK, SMOKE, list_experiments, run
from repro.experiments import registry
from repro.experiments.registry import experiment

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"

# These six are checked by content below; the rest only have to run.
_CHECKED = ("table6_electricity", "table7_ablation_hzmetro", "fig8_multistep_hzmetro",
            "fig10_lambda", "fig12_time_representation", "table8_cost")


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        # One registered name per committed results file, and no other.
        assert list_experiments() == sorted(p.stem for p in RESULTS.glob("*.txt"))

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            run("table99")

    def test_decorator_registers(self, monkeypatch):
        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))

        @experiment("__test_dummy__")
        def dummy(scale):
            return f"scale epochs = {scale.epochs}"

        assert "__test_dummy__" in list_experiments()
        assert run("__test_dummy__", SMOKE) == ("scale epochs = 1", None)

    def test_scale_helpers(self):
        scale = dataclasses.replace(QUICK, epochs=3, node_dim=6, time_dim=4, num_layers=2)
        kwargs = scale.tgcrn_kwargs()
        assert kwargs == {"node_dim": 6, "time_dim": 4, "num_layers": 2}
        config = scale.config(lambda_time=0.5)
        assert config.epochs == 3
        assert config.lambda_time == 0.5


class TestSmokeRuns:
    """Every artifact runs end-to-end at smoke scale (1 epoch, 6 nodes)."""

    def test_table6(self):
        out, _ = run("table6_electricity", SMOKE)
        assert "tgcrn" in out and "MSE" in out

    def test_table7(self):
        out, _ = run("table7_ablation_hzmetro", SMOKE)
        assert "wo_tagsl" in out

    def test_fig8(self):
        out, _ = run("fig8_multistep_hzmetro", SMOKE)
        assert "fclstm" in out and "tgcrn" in out

    def test_fig10(self):
        out, _ = run("fig10_lambda", SMOKE)
        assert "lambda" in out

    def test_fig12(self):
        out, _ = run("fig12_time_representation", SMOKE)
        assert "ordering score" in out

    @pytest.mark.parametrize("name", sorted(set(list_experiments()) - set(_CHECKED)))
    def test_runs(self, name):
        text, data = run(name, SMOKE)
        assert text.strip() and data is None

    def test_table8_from_the_cli(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["experiments", "table8_cost", "--scale", "smoke",
                     "--out", str(tmp_path)]) == 0
        assert "table8_cost" in capsys.readouterr().out
        payload = json.loads((tmp_path / "table8_cost.json").read_text())
        assert payload["scale"] == "smoke"
        assert payload["text"] + "\n" == (tmp_path / "table8_cost.txt").read_text()
        assert set(payload["data"]["seconds_per_epoch"]) == {
            "dcrnn", "agcrn", "gwnet", "pvcgn", "esg", "tgcrn"}
        # Paper-size TGCRN rows are counted, never timed; the timed TGCRN
        # row names the smoke dims it trained at.
        rows = {cells[0]: cells for cells in _cells(payload["text"])}
        assert rows["tgcrn (dv=64,dt=32)"][2] == "-"
        assert rows["tgcrn (dv=4,dt=4)"][1] == "-"


def _cells(text: str) -> list[list[str]]:
    return [[cell.strip() for cell in line.split("|")] for line in text.splitlines()
            if "|" in line]


@pytest.mark.slow
@pytest.mark.parametrize("name", list_experiments())
def test_quick_scale_reproduces_committed_result(name, request):
    """``benchmarks/results`` is exactly what the registry computes at QUICK.

    Timings vary run to run, so Table VIII is compared on its parameter
    column.  A change that moves a committed number regenerates the
    results (``experiments all --scale quick --out benchmarks/results``)
    and says why in CHANGES.md.  All 18 take about 15 min, so unlike the
    other slow tests these run only when ``-m slow`` selects them.
    """
    if "slow" not in request.config.getoption("markexpr"):
        pytest.skip("about 15 min for all 18 artifacts; select with -m slow")
    text, _ = run(name, QUICK)
    committed = (RESULTS / f"{name}.txt").read_text()
    if name == "table8_cost":
        assert [row[:2] for row in _cells(text)] == [row[:2] for row in _cells(committed)]
    else:
        assert text + "\n" == committed
