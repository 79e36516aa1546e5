"""Rolling N-1 fleet reloads: swap, rejection, refusal, reload-under-load."""

import numpy as np
import pytest

from repro.core import TGCRN
from repro.nn import save_checkpoint
from repro.obs import MetricsRegistry
from repro.resilience import Backoff, corrupt_checkpoint
from repro.serve import ForecastFleet
from repro.training import default_tgcrn_kwargs
from repro.verify import named_rng


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def _factory(sub_task, shard_id, replica_id):
    return TGCRN(
        **default_tgcrn_kwargs(sub_task, hidden_dim=4, node_dim=3, time_dim=3,
                               num_layers=1),
        rng=named_rng(3, f"fleet-{replica_id}"),
    )


def _payload(task, i, **extra):
    j = i % len(task.test)
    return {"window": task.test.inputs[j],
            "time_index": task.test.time_indices[j],
            "id": f"req-{i}", **extra}


@pytest.fixture
def clock():
    return FakeClock(t=50.0)


@pytest.fixture
def fleet(tiny_task, clock):
    return ForecastFleet(
        tiny_task, _factory, num_shards=2, replicas_per_shard=2,
        queue_depth=8, max_batch=4,
        backoff=Backoff(base=0.01, jitter=0.0), clock=clock, slo=False,
        metrics=MetricsRegistry(run="fleet-reload-test"),
    )


@pytest.fixture
def checkpoints(tiny_task, fleet, tmp_path):
    """One fresh-weights checkpoint per shard (distinct from the live models)."""
    paths = {}
    for shard in fleet.shards:
        sub_task = tiny_task.node_subset(shard.nodes)
        candidate = TGCRN(
            **default_tgcrn_kwargs(sub_task, hidden_dim=4, node_dim=3,
                                   time_dim=3, num_layers=1),
            rng=named_rng(3, f"reload-s{shard.shard_id}"),
        )
        path = tmp_path / f"shard{shard.shard_id}.npz"
        save_checkpoint(path, candidate)
        paths[shard.shard_id] = path
    return paths


class TestRollingReload:
    def test_every_replica_swaps_without_breaking_n1(self, fleet, checkpoints):
        versions_before = {r.id: r.server.model_version for r in fleet.replicas}
        records = fleet.rolling_reload(checkpoints)
        assert len(records) == 4
        assert all(r["action"] == "reloaded" for r in records)
        # During each step exactly the sibling stayed available: N-1 held.
        assert all(r["available_during"] >= 1 for r in records)
        for record in records:
            assert record["version_before"] == versions_before[record["replica"]]
            assert record["version_after"] != record["version_before"]
        # Both replicas of a shard converge on the same checkpoint.
        for shard in fleet.shards:
            assert len({r.server.model_version for r in shard.replicas}) == 1
        assert int(fleet.metrics.counter("fleet.reloads").value) == 4

    def test_corrupt_checkpoint_rejected_old_model_keeps_serving(
            self, tiny_task, fleet, clock, checkpoints):
        corrupt_checkpoint(checkpoints[1], mode="truncate")
        versions_before = {r.id: r.server.model_version for r in fleet.replicas}
        records = fleet.rolling_reload(checkpoints)
        by_shard = {0: [], 1: []}
        for record in records:
            by_shard[record["shard"]].append(record)
        assert all(r["action"] == "reloaded" for r in by_shard[0])
        assert all(r["action"] == "rejected" for r in by_shard[1])
        for record in by_shard[1]:
            assert record["version_after"] == versions_before[record["replica"]]
        assert int(fleet.metrics.counter("fleet.reload_rejected").value) == 2
        # The shard with the bad candidate still answers from its (old) model.
        fleet.submit(_payload(tiny_task, 0))
        (response,) = fleet.drain()
        assert response.source == "model"

    def test_reload_refused_below_the_n1_floor(self, fleet, checkpoints):
        shard = fleet.shards[0]
        shard.replicas[1].kill()
        versions_before = {r.id: r.server.model_version for r in shard.replicas}
        records = fleet.rolling_reload(checkpoints)
        mine = [r for r in records if r["shard"] == 0]
        by_action = {r["action"]: r for r in mine}
        assert set(by_action) == {"refused", "skipped"}
        refused = by_action["refused"]
        assert refused["replica"] == shard.replicas[0].id
        assert "N-1 floor" in refused["reason"]
        skipped = by_action["skipped"]
        assert skipped["replica"] == shard.replicas[1].id
        # Neither replica of the degraded shard was touched.
        for rep in shard.replicas:
            assert rep.server.model_version == versions_before[rep.id]
        assert int(fleet.metrics.counter("fleet.reload_refused").value) == 1
        # The healthy shard still reloads normally.
        assert all(r["action"] == "reloaded" for r in records if r["shard"] == 1)

    def test_min_available_two_refuses_with_single_redundancy(self, fleet, checkpoints):
        records = fleet.rolling_reload(checkpoints, min_available=2)
        assert records and all(r["action"] == "refused" for r in records)

    def test_reload_under_load_drains_first_and_answers_everything(
            self, tiny_task, fleet, clock, checkpoints):
        ids = [fleet.submit(_payload(tiny_task, i)) for i in range(6)]
        # No pump yet: every sub-request is still queued when the rolling
        # reload starts, so each step must drain before swapping.
        records = fleet.rolling_reload(checkpoints)
        assert all(r["action"] == "reloaded" for r in records)
        assert all(r["available_during"] >= 1 for r in records)
        responses = fleet.drain()
        assert sorted(r.request_id for r in responses) == sorted(ids)
        assert all(r.prediction is not None and np.all(np.isfinite(r.prediction))
                   for r in responses)

    def test_partial_checkpoint_map_touches_only_named_shards(self, fleet, checkpoints):
        versions_before = {r.id: r.server.model_version for r in fleet.replicas}
        records = fleet.rolling_reload({0: checkpoints[0]})
        assert {r["shard"] for r in records} == {0}
        for rep in fleet.shards[1].replicas:
            assert rep.server.model_version == versions_before[rep.id]
