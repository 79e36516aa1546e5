"""End-to-end integration tests: train on synthetic tasks and verify the
paper's qualitative claims at miniature scale."""

import numpy as np
import pytest

from repro import TGCRN, Trainer, TrainingConfig, load_task, run_experiment
from repro.core import build_variant
from repro.training import default_tgcrn_kwargs
from repro.viz import matrix_correlation, ordering_score, tsne


@pytest.fixture(scope="module")
def trained_tgcrn(tiny_task):
    model = TGCRN(
        **default_tgcrn_kwargs(tiny_task, hidden_dim=16, node_dim=8, time_dim=8, num_layers=1),
        rng=np.random.default_rng(0),
    )
    trainer = Trainer(TrainingConfig(epochs=15, batch_size=32, seed=0))
    history = trainer.fit(model, tiny_task)
    return model, trainer, history


class TestEndToEnd:
    def test_training_converges(self, trained_tgcrn):
        _, _, history = trained_tgcrn
        assert history.train_losses[-1] < 0.6 * history.train_losses[0]

    def test_beats_historical_average(self, tiny_task, trained_tgcrn):
        model, trainer, _ = trained_tgcrn
        tgcrn_mae = trainer.test_report(model, tiny_task)[0].mae
        ha_mae = run_experiment("ha", tiny_task).overall.mae
        assert tgcrn_mae < ha_mae

    def test_per_horizon_reports(self, tiny_task, trained_tgcrn):
        model, trainer, _ = trained_tgcrn
        _, horizon = trainer.test_report(model, tiny_task)
        assert len(horizon) == tiny_task.horizon

    def test_learned_graph_tracks_ground_truth_od(self, tiny_task, trained_tgcrn):
        """Fig. 11 mechanism: the learned A^t should correlate positively
        with the ground-truth OD matrix at the same timestamp."""
        model, trainer, _ = trained_tgcrn
        from repro.autodiff import Tensor, no_grad

        x, _, t = next(iter(tiny_task.loader("test", 1)))
        step = int(t[0, 0])
        with no_grad():
            adjacency = model.tagsl.normalized(Tensor(x[:, 0]), t[:, 0]).data[0]
        truth = tiny_task.dataset.od_matrix(step)
        assert matrix_correlation(adjacency, truth) > -0.5  # not anti-correlated
        # Graph must be time-varying (the central claim of the paper):
        with no_grad():
            later = model.tagsl.normalized(Tensor(x[:, 0]), t[:, 0] + 30).data[0]
        assert not np.allclose(adjacency, later)

    def test_tdl_weighted_training_lowers_discrepancy_loss(self, tiny_task):
        """Fig. 12 mechanism: joint training with λ·L_time must leave the
        time table with a lower discrepancy loss than the identical model
        trained with λ = 0 (the full t-SNE ordering effect needs the long
        TDL-only runs of the fig12_time_representation experiment)."""
        from repro.core import TimeDiscrepancyLearner

        windows = tiny_task.train.time_indices[:64]

        def train(lambda_time):
            model = TGCRN(
                **default_tgcrn_kwargs(tiny_task, hidden_dim=8, node_dim=4, time_dim=4, num_layers=1),
                rng=np.random.default_rng(0),
            )
            config = TrainingConfig(epochs=3, batch_size=32, seed=0, lambda_time=lambda_time)
            Trainer(config).fit(model, tiny_task, use_tdl=lambda_time > 0)
            learner = TimeDiscrepancyLearner(model.time_encoder, np.random.default_rng(11), adjacent_range=2)
            return float(np.mean([learner(windows).item() for _ in range(20)]))

        assert train(1.0) < train(0.0)


class TestVariantsTrainEndToEnd:
    @pytest.mark.parametrize("name", ["wo_tagsl", "w_te", "wo_pdf", "wo_encdec"])
    def test_variant_trains(self, tiny_task, name):
        base = default_tgcrn_kwargs(tiny_task, hidden_dim=8, node_dim=4, time_dim=4, num_layers=1)
        model, spec = build_variant(name, base, rng=np.random.default_rng(0))
        trainer = Trainer(TrainingConfig(epochs=2, batch_size=64))
        history = trainer.fit(model, tiny_task, use_tdl=spec.use_tdl)
        assert history.train_losses[-1] <= history.train_losses[0]


class TestMultiDataset:
    def test_demand_task_trains(self, tiny_demand_task):
        cfg = TrainingConfig(epochs=2, batch_size=32)
        result = run_experiment(
            "tgcrn", tiny_demand_task, cfg, hidden_dim=8,
            model_kwargs=dict(node_dim=4, time_dim=4, num_layers=1),
        )
        assert np.isfinite(result.overall.mae)

    def test_electricity_task_trains(self):
        task = load_task("electricity", num_nodes=6, num_days=16, history=6, horizon=6)
        cfg = TrainingConfig(epochs=2, batch_size=32)
        result = run_experiment(
            "tgcrn", task, cfg, hidden_dim=8,
            model_kwargs=dict(node_dim=4, time_dim=4, num_layers=1),
        )
        assert np.isfinite(result.overall.mae)
