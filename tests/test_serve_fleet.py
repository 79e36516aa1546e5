"""ForecastFleet: sharding, routing, failover, hedging, deadlines, traces.

Thread-transport tests run on an injected :class:`FakeClock` with
``jitter=0`` backoff, so retry schedules, timeouts, and hedges are
exact — no test sleeps.  Replica faults are staged through the
router-side seams (``kill``/``pause``) rather than thread timing.
Process-transport tests run real children on the real clock: kills are
real signals and the supervisor's watchdog runs on real seconds.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core import TGCRN
from repro.graph import partition_nodes
from repro.obs import MetricsRegistry
from repro.obs.report import assemble_traces, check_fleet_traces
from repro.obs.spans import collect_spans
from repro.resilience import Backoff, RestartPolicy
from repro.serve import (
    ConsistentHashRing,
    DeadlineExceededError,
    FleetOverloadedError,
    ForecastFleet,
    InvalidRequestError,
    SlowModel,
)
from repro.training import default_tgcrn_kwargs
from repro.verify import named_rng


@pytest.fixture(autouse=True)
def lockorder_sanitizer(tmp_path):
    """Run every fleet test under the lock-order sanitizer.

    Any two tests' threads taking fleet/server locks in opposite orders
    — or a replica kill/pause seam firing while a lock is held — fails
    the test at teardown, whether or not the schedule deadlocked here.
    The witness graph is written to ``lockorder.jsonl`` in the test's
    ``tmp_path`` first, so a failure leaves the evidence behind.
    """
    from repro.analyze import LockOrderSanitizer

    sanitizer = LockOrderSanitizer().install()
    try:
        yield sanitizer
    finally:
        sanitizer.uninstall()
    sanitizer.export_jsonl(tmp_path / "lockorder.jsonl")
    sanitizer.check()


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


def _payload(task, i, rid=None, **extra):
    j = i % len(task.test)
    return {"window": task.test.inputs[j],
            "time_index": task.test.time_indices[j],
            "id": rid or f"req-{i}", **extra}


def _make_fleet(task, clock, factory=None, **overrides):
    kwargs = dict(
        num_shards=2, replicas_per_shard=2, queue_depth=8, max_batch=4,
        max_attempts=3, backoff=Backoff(base=0.01, factor=2.0, jitter=0.0),
        replica_timeout=1.0, clock=clock, slo=False,
        metrics=MetricsRegistry(run="fleet-test"),
    )
    kwargs.update(overrides)
    return ForecastFleet(task, factory or _factory, **kwargs)


def _run(fleet, clock, want, step=0.05, rounds=200):
    """Pump the router on the fake clock until ``want`` responses land.

    Reads the response sink, so answers produced by earlier
    ``process_once`` calls in the same test are counted too.
    """
    collected = []
    for _ in range(rounds):
        fleet.process_once()
        collected.extend(fleet.take_responses())
        if len(collected) >= want:
            return collected
        clock.advance(step)
    raise AssertionError(f"only {len(collected)}/{want} responses after {rounds} rounds")


def _make_proc_fleet(task, **overrides):
    """Process-transport twin of ``_make_fleet``: real clock, real kills.

    The supervisor's heartbeat watchdog is parked at 30 s so a wedged
    replica stays wedged for the duration of a test (mirroring the
    thread-mode ``pause`` seam) instead of being TERM/KILL-cycled out
    from under the assertions; liveness (dead process -> restart) is
    unaffected.
    """
    kwargs = dict(
        num_shards=2, replicas_per_shard=2, queue_depth=8, max_batch=4,
        max_attempts=3, backoff=Backoff(base=0.01, factor=2.0, jitter=0.0),
        replica_timeout=0.6, slo=False,
        metrics=MetricsRegistry(run="fleet-proc-test"),
        transport="process",
        restart_policy=RestartPolicy(max_restarts=3, window_s=10.0,
                                     ready_deadline_s=15.0,
                                     heartbeat_timeout_s=30.0,
                                     term_deadline_s=1.0),
        proc_kwargs={"heartbeat_interval": 0.05, "ack_timeout": 2.0,
                     "ready_timeout": 60.0},
    )
    kwargs.update(overrides)
    return ForecastFleet(task, _factory, **kwargs)


def _pump_until(fleet, condition, budget=30.0):
    """Real-clock pump loop for process-transport fleets: run router
    rounds (and so supervisor polls) until ``condition()`` holds.

    Returns as soon as it does; the budget only bounds a broken run.
    """
    end = time.monotonic() + budget
    while time.monotonic() < end:
        fleet.process_once()
        if condition():
            return True
        time.sleep(0.005)
    return condition()


def _run_real(fleet, want, budget=30.0):
    """Pump until ``want`` responses land; returns them."""
    collected = []

    def landed():
        collected.extend(fleet.take_responses())
        return len(collected) >= want

    if not _pump_until(fleet, landed, budget):
        raise AssertionError(f"only {len(collected)}/{want} responses after {budget}s")
    return collected


def _assert_no_orphans(pids):
    for pid in pids:
        if pid is None:
            continue
        try:
            os.kill(pid, 0)
        except OSError:
            continue  # gone entirely
        try:
            with open(f"/proc/{pid}/stat") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except OSError:
            continue
        assert state == "Z", f"replica pid {pid} survived fleet.stop()"


def _counter(fleet, name):
    return int(fleet.metrics.counter(name).value)


def _call_within(fn, seconds):
    """Run ``fn`` on a helper thread for at most ``seconds``.

    Returns ``(finished, result)``, so a call that hangs fails its test
    instead of hanging the suite.
    """
    result = []
    helper = threading.Thread(target=lambda: result.append(fn()), daemon=True)
    helper.start()
    helper.join(seconds)
    return not helper.is_alive(), (result[0] if result else None)


@pytest.fixture
def clock():
    return FakeClock(t=100.0)


@pytest.fixture
def fleet(tiny_task, clock):
    return _make_fleet(tiny_task, clock)


def _assert_contained(task, responses):
    """The zero-wrong-answers contract: model, marked fallback, or shed."""
    for r in responses:
        if r.source == "shed":
            assert r.prediction is None and r.degraded
            continue
        assert r.source in ("model", "mixed", "historical_average")
        assert r.prediction.shape == (task.horizon, task.num_nodes, task.out_dim)
        assert np.all(np.isfinite(r.prediction))
        assert r.degraded == (r.source != "model")
        assert set(r.shard_sources.values()) <= {"model", "historical_average"}


class TestTopology:
    def test_shards_cover_nodes_exactly_once(self, tiny_task, fleet):
        covered = sorted(int(n) for s in fleet.shards for n in s.nodes)
        assert covered == list(range(tiny_task.num_nodes))
        assert [len(s.replicas) for s in fleet.shards] == [2, 2]
        assert [r.id for r in fleet.shards[0].replicas] == ["s0r0", "s0r1"]

    def test_graph_aware_partition_beats_contiguous_cut(self, tiny_task, clock):
        # Two 4-node cliques, nodes interleaved so the contiguous split
        # is maximally wrong; the graph-aware partition recovers them.
        n = tiny_task.num_nodes
        adj = np.zeros((n, n))
        groups = [list(range(0, n, 2)), list(range(1, n, 2))]
        for group in groups:
            for a in group:
                for b in group:
                    if a != b:
                        adj[a, b] = 1.0
        fleet = _make_fleet(tiny_task, clock, adjacency=adj)
        assert fleet.partition.cut_fraction == 0.0
        assert sorted(sorted(s) for s in fleet.partition.shards) == sorted(groups)

    def test_explicit_partition_and_coverage_validation(self, tiny_task, clock):
        n = tiny_task.num_nodes
        fleet = _make_fleet(tiny_task, clock,
                            partition=[list(range(n // 2)), list(range(n // 2, n))])
        assert [len(s.nodes) for s in fleet.shards] == [n // 2, n // 2]
        with pytest.raises(ValueError, match="cover every node"):
            _make_fleet(tiny_task, clock, partition=[[0, 1], [2, 3]])

    def test_partition_nodes_is_deterministic(self, tiny_task):
        rng = np.random.default_rng(11)
        adj = rng.random((tiny_task.num_nodes,) * 2)
        assert partition_nodes(adj, 2) == partition_nodes(adj, 2)


class TestConsistentHashRing:
    KEYS = [f"key-{i}" for i in range(1000)]

    def test_owner_is_deterministic_and_successors_cover_members(self):
        ring = ConsistentHashRing(["a", "b", "c"])
        assert ring.owner("x") == ring.owner("x")
        chain = ring.successors("x")
        assert sorted(chain) == ["a", "b", "c"]
        assert chain[0] == ring.owner("x")

    def test_remove_moves_only_the_removed_members_keys(self):
        ring = ConsistentHashRing(["a", "b", "c", "d"])
        before = {k: ring.owner(k) for k in self.KEYS}
        ring.remove("c")
        after = {k: ring.owner(k) for k in self.KEYS}
        moved = [k for k in self.KEYS if before[k] != after[k]]
        # Consistent hashing: only keys the departed member owned remap.
        assert all(before[k] == "c" for k in moved)
        assert 0.10 < len(moved) / len(self.KEYS) < 0.45

    def test_add_steals_a_bounded_fraction(self):
        ring = ConsistentHashRing(["a", "b", "c", "d"])
        before = {k: ring.owner(k) for k in self.KEYS}
        ring.add("e")
        after = {k: ring.owner(k) for k in self.KEYS}
        moved = [k for k in self.KEYS if before[k] != after[k]]
        assert all(after[k] == "e" for k in moved)
        assert 0.05 < len(moved) / len(self.KEYS) < 0.40

    def test_duplicate_and_missing_members_raise(self):
        ring = ConsistentHashRing(["a"])
        with pytest.raises(ValueError):
            ring.add("a")
        with pytest.raises(KeyError):
            ring.remove("zz")
        with pytest.raises(KeyError):
            ConsistentHashRing([]).owner("x")


class TestServing:
    def test_healthy_requests_answered_entirely_by_models(self, tiny_task, fleet, clock):
        ids = [fleet.submit(_payload(tiny_task, i)) for i in range(5)]
        responses = _run(fleet, clock, want=5)
        assert sorted(r.request_id for r in responses) == sorted(ids)
        for r in responses:
            assert r.source == "model" and not r.degraded
            assert r.shard_sources == {0: "model", 1: "model"}
        _assert_contained(tiny_task, responses)
        assert _counter(fleet, "fleet.model") == 5

    def test_routing_follows_the_ring_owner(self, tiny_task, fleet):
        rid = "pinned-request"
        owner = fleet.shards[0].ring.owner(rid)
        for rep in fleet.shards[0].replicas:  # park the shard so subs queue
            rep.pause()
        fleet.submit(_payload(tiny_task, 0, rid=rid))
        fleet.process_once()
        holder = fleet.replica(owner)
        assert len(holder.server.queue) == 1
        others = [r for r in fleet.shards[0].replicas if r.id != owner]
        assert all(len(r.server.queue) == 0 for r in others)

    def test_latency_covers_every_shards_forward(self, tiny_task, clock):
        # One replica per shard, each forward 250 ms of fake time.  The
        # second replica is pumped after the first and reads the clock
        # itself, so the gathered answer exists 500 ms after admission.
        def factory(sub_task, shard_id, replica_id):
            return SlowModel(_factory(sub_task, shard_id, replica_id),
                             delay=0.25, sleep=clock.advance)

        fleet = _make_fleet(tiny_task, clock, factory, replicas_per_shard=1)
        fleet.submit(_payload(tiny_task, 0))
        (response,) = fleet.drain()
        assert response.source == "model"
        assert response.latency_ms == pytest.approx(500.0)
        assert fleet.metrics.histogram("fleet.latency_ms").last == pytest.approx(500.0)

    def test_invalid_and_doa_requests_rejected_at_admission(self, tiny_task, fleet, clock):
        with pytest.raises(InvalidRequestError):
            fleet.submit({"window": "nope"})
        with pytest.raises(DeadlineExceededError):
            fleet.submit(_payload(tiny_task, 0, deadline=clock() - 1.0))
        assert _counter(fleet, "fleet.rejected") == 2


class TestFailover:
    def test_killed_replica_fails_over_to_model_answer(self, tiny_task, fleet, clock):
        victim = fleet.replicas[0]
        victim.pause()  # wedge first, so dispatches land and sit there
        ids = [fleet.submit(_payload(tiny_task, i, rid=f"crash-{i}"))
               for i in range(6)]
        victim_owned = [rid for rid in ids
                        if fleet.shards[0].ring.owner(rid) == victim.id]
        assert victim_owned, "hash spread left the victim idle; widen the batch"
        fleet.process_once()  # dispatch: victim now holds its share
        victim.kill()                # and dies holding it
        responses = _run(fleet, clock, want=6)
        assert len(responses) == 6
        assert all(r.source == "model" for r in responses)
        _assert_contained(tiny_task, responses)
        assert _counter(fleet, "fleet.failovers") >= len(victim_owned)
        assert _counter(fleet, "fleet.retries") >= len(victim_owned)

    def test_whole_shard_down_serves_marked_fallback_slice(self, tiny_task, fleet, clock):
        for rep in fleet.shards[0].replicas:
            rep.kill()
        fleet.submit(_payload(tiny_task, 0))
        (response,) = _run(fleet, clock, want=1)
        assert response.source == "mixed" and response.degraded
        assert response.shard_sources == {0: "historical_average", 1: "model"}
        assert np.all(np.isfinite(response.prediction))
        assert "no replica available" in response.reason
        assert _counter(fleet, "fleet.shard_fallbacks") == 1

    def test_retries_are_bounded_and_backoff_scheduled(self, tiny_task, clock):
        fleet = _make_fleet(tiny_task, clock, replica_timeout=0.1,
                            backoff=Backoff(base=0.01, factor=2.0, jitter=0.0))
        for rep in fleet.shards[1].replicas:  # the whole shard wedges
            rep.pause()
        fleet.submit(_payload(tiny_task, 0))
        (response,) = _run(fleet, clock, want=1, step=0.05)
        # attempts 1..max_attempts all time out; the first two reschedule
        # (retries), the last exhausts the budget into the marked fallback.
        assert response.source == "mixed"
        assert response.shard_sources[1] == "historical_average"
        assert response.retries == fleet.max_attempts - 1
        assert _counter(fleet, "fleet.failovers") == fleet.max_attempts
        assert "replica timeout" in response.reason

    def test_retry_waits_out_the_backoff_delay(self, tiny_task, clock):
        fleet = _make_fleet(tiny_task, clock, replica_timeout=0.1,
                            backoff=Backoff(base=10.0, factor=1.0,
                                            max_delay=30.0, jitter=0.0))
        for rep in fleet.shards[0].replicas:
            rep.pause()
        fleet.submit(_payload(tiny_task, 0))
        fleet.process_once()          # dispatch
        clock.advance(0.2)
        fleet.process_once()          # timeout -> retry in 10s
        t_retry = clock()
        sub = next(iter(fleet._entries.values())).subs[0]
        assert sub.status == "pending"
        assert sub.not_before == pytest.approx(t_retry + 10.0)
        # The wedged primary still holds the stale attempt — the router
        # cannot reach into a wedged process; only *new* dispatches count.
        queued_before = sum(len(r.server.queue) for r in fleet.shards[0].replicas)
        clock.advance(5.0)
        fleet.process_once()          # still inside the backoff window
        assert sum(len(r.server.queue)
                   for r in fleet.shards[0].replicas) == queued_before
        clock.advance(6.0)
        fleet.process_once()          # due: redispatched
        assert sum(len(r.server.queue)
                   for r in fleet.shards[0].replicas) == queued_before + 1

    def test_drain_on_a_stopped_clock_leaves_future_retries_pending(self, tiny_task, clock):
        fleet = _make_fleet(tiny_task, clock, replica_timeout=0.1,
                            backoff=Backoff(base=10.0, factor=1.0,
                                            max_delay=30.0, jitter=0.0))
        for rep in fleet.shards[0].replicas:
            rep.pause()
        fleet.submit(_payload(tiny_task, 0))
        fleet.process_once()          # dispatch
        clock.advance(0.2)
        fleet.process_once()          # timeout -> retry in 10s
        finished, drained = _call_within(fleet.drain, 5.0)
        assert finished, "drain spun on a clock that cannot move"
        assert drained == []
        (entry,) = fleet._entries.values()
        assert entry.subs[0].status == "pending"
        # Once the clock reaches the retry, drain answers it.
        for rep in fleet.shards[0].replicas:
            rep.resume()
        clock.advance(10.0)
        (response,) = fleet.drain()
        assert response.source == "model" and response.retries == 1


class TestHedging:
    def test_wedged_primary_is_hedged_and_the_hedge_wins(self, tiny_task, clock):
        fleet = _make_fleet(tiny_task, clock, hedge_after=0.5, replica_timeout=30.0)
        rid = "hedge-me"
        for shard in fleet.shards:  # wedge every primary for this key
            fleet.replica(shard.ring.owner(rid)).pause()
        fleet.submit(_payload(tiny_task, 0, rid=rid))
        fleet.process_once()
        clock.advance(0.6)  # past hedge_after, far from replica_timeout
        responses = _run(fleet, clock, want=1)
        (response,) = responses
        assert response.source == "model" and response.hedged
        assert response.retries == 0
        assert _counter(fleet, "fleet.hedges") == 2
        assert _counter(fleet, "fleet.hedge_wins") == 2

    def test_no_hedge_before_the_threshold(self, tiny_task, clock):
        fleet = _make_fleet(tiny_task, clock, hedge_after=5.0, replica_timeout=30.0)
        for rep in fleet.replicas:
            rep.pause()
        fleet.submit(_payload(tiny_task, 0))
        fleet.process_once()
        clock.advance(1.0)
        fleet.process_once()
        assert _counter(fleet, "fleet.hedges") == 0


class TestBackpressureAndDeadlines:
    def test_saturated_shard_sheds_at_admission(self, tiny_task, clock):
        fleet = _make_fleet(tiny_task, clock, backpressure_limit=2)
        for rep in fleet.replicas:
            rep.pause()
        for i in range(2):
            fleet.submit(_payload(tiny_task, i))
        with pytest.raises(FleetOverloadedError) as excinfo:
            fleet.submit(_payload(tiny_task, 9))
        assert excinfo.value.shard_id in (0, 1)
        assert "saturated" in str(excinfo.value)
        assert _counter(fleet, "fleet.shed_backpressure") == 1

    def test_deadline_budget_propagates_minus_gather_margin(self, tiny_task, clock):
        fleet = _make_fleet(tiny_task, clock, gather_margin=0.25)
        for rep in fleet.replicas:
            rep.pause()
        deadline = clock() + 2.0
        fleet.submit(_payload(tiny_task, 0, deadline=deadline))
        fleet.process_once()
        queued = [req for rep in fleet.replicas
                  for req in rep.server.queue.clear()]
        assert len(queued) == 2  # one sub-request per shard
        assert all(req.deadline == pytest.approx(deadline - 0.25) for req in queued)

    def test_expired_request_is_shed_not_dropped(self, tiny_task, clock):
        # replica_timeout > deadline: the deadline expires while the
        # subs are still outstanding, hitting the shed path (a shorter
        # timeout would fail over into the marked fallback instead).
        fleet = _make_fleet(tiny_task, clock, replica_timeout=30.0)
        for rep in fleet.replicas:
            rep.pause()
        fleet.submit(_payload(tiny_task, 0, deadline=clock() + 1.0))
        fleet.process_once()
        clock.advance(1.5)
        (response,) = fleet.process_once()
        assert response.source == "shed" and response.prediction is None
        assert response.deadline_missed
        assert set(response.shard_sources.values()) == {"unanswered"}
        assert _counter(fleet, "fleet.shed") == 1
        _assert_contained(tiny_task, [response])

    def test_one_shard_brownout_is_bounded_by_the_deadline(self, tiny_task, clock):
        """Every replica of shard 1 turns slow: each batch costs ``delay``
        on the fake clock.  Deadlines must cut the brownout short —
        every request answered or shed, nothing wrong, and the last
        answer lands within one slow batch (plus a margin) of the
        deadline instead of after the whole backlog."""
        delay, deadline_s, n = 0.25, 1.0, 12

        def factory(sub_task, shard_id, replica_id):
            model = _factory(sub_task, shard_id, replica_id)
            if shard_id == 1:
                return SlowModel(model, delay=delay, sleep=clock.advance)
            return model

        fleet = _make_fleet(tiny_task, clock, factory, max_batch=2, hedge_after=0.5)
        t0 = clock()
        for i in range(n):
            fleet.submit(_payload(tiny_task, i, rid=f"brown-{i}",
                                  deadline=t0 + deadline_s))
        responses = _run(fleet, clock, want=n)
        tail = clock() - t0

        assert sorted(r.request_id for r in responses) == sorted(
            f"brown-{i}" for i in range(n))
        _assert_contained(tiny_task, responses)
        assert any(r.source == "model" for r in responses), "brownout served nothing"
        assert any(r.source != "model" for r in responses), "deadline never bit"
        # The router pumps the two slow replicas one after the other, so
        # the round that crosses the deadline may still run one batch on
        # the second of them: that batch is the margin.
        assert tail <= deadline_s + delay + delay, f"brownout tail {tail:.2f}s"

    def test_draining_fleet_refuses_new_work(self, tiny_task, fleet):
        assert fleet.stop(drain=True) is True
        with pytest.raises(FleetOverloadedError, match="draining"):
            fleet.submit(_payload(tiny_task, 0))
        assert not fleet.ready()

    def test_stop_reports_a_wedged_router_instead_of_hanging(self, tiny_task, clock):
        entered, release = threading.Event(), threading.Event()

        def block(_delay):
            entered.set()
            release.wait(10.0)

        def factory(sub_task, shard_id, replica_id):
            return SlowModel(_factory(sub_task, shard_id, replica_id),
                             delay=0.0, sleep=block)

        fleet = _make_fleet(tiny_task, clock, factory, replicas_per_shard=1)
        try:
            fleet.start(poll_interval=0.005)
            fleet.submit(_payload(tiny_task, 0))
            assert entered.wait(5.0), "the router never reached a replica model"
            finished, stopped = _call_within(lambda: fleet.stop(timeout=0.2), 2.0)
            assert finished, "stop() hung on the wedged router"
            assert stopped is False
            assert _counter(fleet, "fleet.drain_timeouts") == 1
        finally:
            release.set()
        # The wedge clears: a later stop() joins the worker cleanly.
        assert fleet.stop(timeout=10.0) is True


class TestHealthAndReadiness:
    def test_full_redundancy_is_ok_and_ready(self, fleet):
        report = fleet.health()
        assert report["status"] == "ok"
        assert [s["healthy_replicas"] for s in report["shards"]] == [2, 2]
        assert fleet.ready()

    def test_one_dead_replica_degrades_but_stays_ready(self, fleet):
        fleet.replicas[0].kill()
        assert fleet.health()["status"] == "degraded"
        assert fleet.ready()

    def test_empty_shard_is_unavailable_and_not_ready(self, fleet):
        for rep in fleet.shards[1].replicas:
            rep.kill()
        assert fleet.health()["status"] == "unavailable"
        assert not fleet.ready()
        for rep in fleet.shards[1].replicas:
            rep.revive()
        assert fleet.health()["status"] == "ok" and fleet.ready()


@pytest.mark.parametrize("transport", ["thread", "process"])
class TestChaosContainment:
    """Same fault matrix, both transports.

    Thread mode stays on the FakeClock with router-side fault seams;
    process mode runs real children on the real clock, so ``kill`` is a
    genuine SIGKILL and ``pause`` is a wedge RPC into the child.  The
    invariants asserted are identical.
    """

    def test_mixed_faults_never_produce_a_wrong_answer(self, tiny_task, transport):
        """Crash + wedge across shards: every answer is model, marked
        fallback, or an explicit shed — nothing silent, nothing bogus."""
        if transport == "thread":
            clock = FakeClock(t=100.0)
            fleet = _make_fleet(tiny_task, clock, replica_timeout=0.2,
                                hedge_after=0.1,
                                backoff=Backoff(base=0.01, factor=2.0, jitter=0.0))
        else:
            fleet = _make_proc_fleet(tiny_task, hedge_after=0.3)
        try:
            fleet.shards[0].replicas[0].kill()
            fleet.shards[1].replicas[0].pause()
            n = 8
            if transport == "thread":
                for i in range(n):
                    fleet.submit(_payload(tiny_task, i, deadline=clock() + 5.0))
                responses = _run(fleet, clock, want=n, step=0.05)
            else:
                for i in range(n):
                    fleet.submit(_payload(tiny_task, i,
                                          deadline=time.monotonic() + 20.0))
                responses = _run_real(fleet, want=n)
            assert len(responses) == n
            _assert_contained(tiny_task, responses)
            answered = [r for r in responses if r.source != "shed"]
            assert answered, "every request shed: containment held but nothing served"
        finally:
            if transport == "process":
                pids = [getattr(rep.server, "pid", None) for rep in fleet.replicas]
                fleet.stop(drain=False)
                _assert_no_orphans(pids)

    def test_fleet_traces_are_complete_across_chaos(self, tiny_task, transport):
        if transport == "process":
            self._traces_process(tiny_task)
            return
        clock = FakeClock(t=100.0)
        with collect_spans() as collector:
            fleet = _make_fleet(tiny_task, clock, replica_timeout=0.2)
            fleet.submit(_payload(tiny_task, 0, rid="trace-ok"))
            _run(fleet, clock, want=1)
            victim = fleet.replicas[0]
            victim.pause()
            fleet.submit(_payload(tiny_task, 1, rid="trace-crash"))
            fleet.process_once()
            victim.kill()
            _run(fleet, clock, want=1)
            for rep in fleet.replicas:  # everything wedged -> shed path
                if not rep.killed:
                    rep.pause()
            fleet.submit(_payload(tiny_task, 2, rid="trace-shed",
                                  deadline=clock() + 0.5))
            fleet.process_once()
            clock.advance(1.0)
            fleet.process_once()
            # Un-wedge so the servers close out the stale work they
            # still hold (late responses); otherwise their replica-side
            # span trees are honestly — but unhelpfully — unfinished.
            for rep in fleet.replicas:
                rep.resume()
            for _ in range(5):
                fleet.process_once()
                clock.advance(0.1)
        assert _counter(fleet, "fleet.late_responses") >= 1
        trees = assemble_traces(collector.records)
        fleet_check = check_fleet_traces(trees)
        assert fleet_check.total == 3
        assert fleet_check.incomplete == []
        assert fleet_check.complete == 3

    @staticmethod
    def _traces_process(tiny_task):
        """Cross-process variant: child span records ship back over the
        wire and must stitch into complete router->replica trees even
        when one child is SIGKILLed mid-flight and a request sheds."""
        with collect_spans() as collector:
            fleet = _make_proc_fleet(tiny_task)
            try:
                fleet.submit(_payload(tiny_task, 0, rid="trace-ok"))
                _run_real(fleet, want=1)
                victim = fleet.replicas[0]
                victim.pause()
                fleet.submit(_payload(tiny_task, 1, rid="trace-crash"))
                fleet.process_once()
                victim.kill()  # real SIGKILL with the sub possibly in flight
                _run_real(fleet, want=1)
                for rep in fleet.replicas:  # everything wedged -> shed path
                    if not rep.killed:
                        rep.pause()
                fleet.submit(_payload(tiny_task, 2, rid="trace-shed",
                                      deadline=time.monotonic() + 0.4))
                _run_real(fleet, want=1, budget=10.0)
                for rep in fleet.replicas:
                    rep.resume()
                # Pump until the un-wedged children flush their stale
                # work back (late responses carry the closing spans).
                _pump_until(fleet, lambda: _counter(fleet, "fleet.late_responses") >= 1,
                            budget=10.0)
                fleet.process_once()
            finally:
                pids = [getattr(rep.server, "pid", None) for rep in fleet.replicas]
                fleet.stop(drain=False)
                _assert_no_orphans(pids)
        assert _counter(fleet, "fleet.late_responses") >= 1
        trees = assemble_traces(collector.records)
        fleet_check = check_fleet_traces(trees)
        assert fleet_check.total == 3
        assert fleet_check.incomplete == []
        assert fleet_check.complete == 3


#: The restart policy the process-fleet chaos runs use: one second of
#: heartbeat silence gets a SIGTERM, one more second of ignoring it gets
#: a SIGKILL, and a fourth death inside the window parks the replica.
CHAOS_POLICY = RestartPolicy(max_restarts=3, window_s=20.0, ready_deadline_s=15.0,
                             heartbeat_timeout_s=1.0, term_deadline_s=1.0)


class TestProcessSupervision:
    """Real faults against a supervised process fleet.

    Each test kills, wedges or corrupts a forked replica for real and
    checks that the supervisor recovers it (or parks it) while the
    fleet keeps every answer contained.  Teardown stops the fleet and
    checks that no replica pid the test ever saw is still running.
    """

    @pytest.fixture
    def supervised(self, tiny_task):
        fleet = _make_proc_fleet(tiny_task, restart_policy=CHAOS_POLICY)
        seen = set()

        def snapshot():
            seen.update(rep.server.pid for rep in fleet.replicas if rep.server.pid)

        snapshot()
        yield fleet, snapshot
        snapshot()
        fleet.stop(drain=False)
        _assert_no_orphans(sorted(seen))

    @staticmethod
    def _submit(fleet, task, tag, n=8):
        ids = [fleet.submit(_payload(task, i, rid=f"{tag}-{i}")) for i in range(n)]
        responses = _run_real(fleet, want=n)
        assert sorted(r.request_id for r in responses) == sorted(ids)
        _assert_contained(task, responses)
        return ids, responses

    @staticmethod
    def _running_again(fleet, rep, old_pid):
        return lambda: (fleet.supervisor.state(rep.id) == "running"
                        and not rep.killed and rep.server.pid != old_pid)

    def test_sigkilled_replica_is_restarted_with_a_new_pid(self, tiny_task, supervised):
        fleet, snapshot = supervised
        victim = fleet.shards[0].replicas[0]
        old_pid = victim.server.pid
        # Wedge first so the victim is holding sub-requests when it dies.
        assert victim.server.inject_wedge()
        ids = [fleet.submit(_payload(tiny_task, i, rid=f"crash-{i}")) for i in range(8)]
        held = [rid for rid in ids if fleet.shards[0].ring.owner(rid) == victim.id]
        assert held, "hash spread left the victim idle"
        fleet.process_once()
        assert victim.server.outstanding > 0
        os.kill(old_pid, signal.SIGKILL)

        responses = _run_real(fleet, want=len(ids))
        _assert_contained(tiny_task, responses)
        assert all(r.source == "model" for r in responses)
        assert _counter(fleet, "fleet.failovers") >= 1
        assert _pump_until(fleet, self._running_again(fleet, victim, old_pid))
        snapshot()
        assert fleet.supervisor.restart_count(victim.id) == 1
        self._submit(fleet, tiny_task, "after")

    def test_wedged_child_ignoring_sigterm_is_killed_and_restarted(
            self, tiny_task, supervised):
        fleet, snapshot = supervised
        wedged = fleet.shards[1].replicas[0]
        old_pid = wedged.server.pid
        assert wedged.server.inject_wedge(ignore_term=True)
        self._submit(fleet, tiny_task, "wedge")

        assert _pump_until(fleet, self._running_again(fleet, wedged, old_pid))
        snapshot()
        assert _counter(fleet, "supervisor.unresponsive") == 1
        assert _counter(fleet, "supervisor.kill_escalations") == 1
        assert fleet.supervisor.restart_count(wedged.id) == 1

    def test_crash_loop_is_parked_while_the_shard_keeps_answering(
            self, tiny_task, supervised):
        fleet, snapshot = supervised
        looper = fleet.shards[0].replicas[1]
        killed = set()

        def kill_whenever_running():
            pid = looper.server.pid
            if pid not in killed and fleet.supervisor.state(looper.id) == "running":
                os.kill(pid, signal.SIGKILL)
                killed.add(pid)
            return fleet.supervisor.is_parked(looper.id)

        assert _pump_until(fleet, kill_whenever_running)
        snapshot()
        assert len(killed) == CHAOS_POLICY.max_restarts + 1
        assert fleet.supervisor.restart_count(looper.id) == CHAOS_POLICY.max_restarts
        assert _counter(fleet, "supervisor.parked") == 1

        _, responses = self._submit(fleet, tiny_task, "parked")
        assert all(r.source == "model" for r in responses)
        assert fleet.ready() and fleet.health()["status"] == "degraded"
        assert fleet.supervisor.is_parked(looper.id) and not looper.server.is_alive()

    def test_corrupt_wire_frames_are_dropped_and_the_fleet_keeps_answering(
            self, tiny_task, supervised):
        fleet, _ = supervised
        target = fleet.shards[1].replicas[1]
        pid = target.server.pid
        target.server.inject_corrupt_frame("crc")
        target.server.inject_corrupt_frame("payload")

        ids, responses = self._submit(fleet, tiny_task, "wire")
        assert any(fleet.shards[1].ring.owner(rid) == target.id for rid in ids)
        assert all(r.source == "model" for r in responses)
        assert _pump_until(
            fleet, lambda: target.server.health().get("corrupt_frames", 0) == 2)
        assert target.server.pid == pid and target.server.is_alive()
        assert fleet.supervisor.restart_count(target.id) == 0
