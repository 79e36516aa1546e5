"""Sharded, replicated serving fleet: failure containment above one server.

:class:`~repro.serve.server.ForecastServer` contains faults *inside* one
process; this module contains the loss of whole replicas.  The node set
is partitioned across **shards** (graph-partition-aware — see
:mod:`repro.graph.partition` — so the adjacency mass lost to shard
boundaries is minimized), each shard runs **R replicas** of a
:class:`ForecastServer` over that node subset, and a
:class:`ForecastFleet` router in front provides:

* **scatter/gather** — one full-graph request fans out into one
  sub-request per shard (window sliced to the shard's nodes) and the
  per-shard forecasts are reassembled into the full answer;
* **consistent-hash routing** — a :class:`ConsistentHashRing` per shard
  maps each request to a primary replica with a deterministic failover
  order; adding/removing a replica moves only ~1/R of the keys;
* **per-replica circuit breakers** — transport-level
  (:class:`~.breaker.CircuitBreaker`) on the router side, independent of
  each server's internal model-health breaker: a crashed or timing-out
  replica stops receiving traffic after 3 consecutive failures until a
  half-open probe, 2 s later, succeeds;
* **bounded retries with jittered backoff** — failed dispatches are
  rescheduled through the :class:`~repro.resilience.backoff.Backoff`
  seam (delays are absolute ``not_before`` times on the injected clock,
  so nothing sleeps inside the router);
* **hedged requests** — a sub-request outstanding longer than
  ``hedge_after`` is duplicated to the next replica in the ring and the
  first answer wins (late losers are counted, not served);
* **deadline budget propagation** — the front-door deadline flows into
  every shard sub-request (minus a gather margin), so replica queues
  shed doomed work themselves and the router sheds whatever remains at
  the fleet deadline — every admitted request is *answered or shed*,
  never silently dropped;
* **backpressure** — per-shard outstanding work (queued + in flight)
  above ``backpressure_limit`` sheds new requests at admission with a
  structured :class:`FleetOverloadedError`;
* **rolling N-1 reloads** — :meth:`ForecastFleet.rolling_reload` swaps
  checkpoints one replica at a time (drain → verify → swap) and
  *refuses* any step that would drop the last available replica of a
  shard, with a structured ``fleet_reload_refused`` record.

Wrong answers are structurally impossible at this layer: every
prediction either comes from a replica's validated model output or is
the explicitly-marked historical-average fallback; a request that cannot
be answered in budget gets an explicit ``source="shed"`` response.

The router is a synchronous core (:meth:`submit` / :meth:`process_once`)
driven deterministically by tests on an injected clock; :meth:`start`
merely pumps it from a worker thread, exactly like ``ForecastServer``.
Every fleet response is stamped with that clock when it is built, so
its ``latency_ms`` covers the replicas' forward passes.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..baselines.historical import HistoricalAverage
from ..graph.partition import NodePartition, partition_nodes
from ..obs import MetricsRegistry, SLOMonitor
from ..obs.spans import finish_span, start_span
from ..resilience.backoff import Backoff
from .breaker import OPEN, CircuitBreaker
from .queueing import DeadlineExceededError, ServiceOverloadedError
from .server import ForecastServer
from .validation import InvalidRequestError, RequestSpec, validate_request


def _lockorder_checkpoint(label: str) -> None:
    """Fault-injection seam for the lock-order sanitizer.

    :class:`repro.analyze.lockorder.LockOrderSanitizer` hangs its
    ``checkpoint`` on the :mod:`threading` module when installed; chaos
    entry points call it so "lock held across an injection point" is a
    recorded violation.  ``getattr`` keeps serve/ free of any analyze/
    import — this is a no-op outside sanitized runs.
    """
    hook = getattr(threading, "_repro_lockorder_checkpoint", None)
    if hook is not None:
        hook(label)


class FleetOverloadedError(ServiceOverloadedError):
    """Admission shed by fleet backpressure: a shard's pipeline is full.

    Carries ``shard_id`` (the saturated shard, or ``None`` when the
    fleet is draining) on top of the base depth/max_depth fields.
    """

    def __init__(self, depth: int, max_depth: int, shard_id: int | None = None,
                 detail: str = ""):
        self.shard_id = shard_id
        if shard_id is not None and not detail:
            detail = f"shard {shard_id} saturated"
        super().__init__(depth, max_depth, detail=detail)


class ReplicaDownError(RuntimeError):
    """Dispatch hit a replica whose process is gone (crash containment)."""

    def __init__(self, replica_id: str):
        self.replica_id = replica_id
        super().__init__(f"replica {replica_id} is down")


class ConsistentHashRing:
    """Consistent hashing over replica ids with virtual nodes.

    ``owner(key)`` is the first virtual node clockwise from the key's
    hash; ``successors(key)`` yields every distinct replica in ring
    order starting there — the deterministic failover chain.  With
    ``vnodes`` virtual nodes per replica, adding or removing one replica
    moves only ~1/|replicas| of the key space (asserted by
    ``test_serve_fleet``), so retries, hedges, and warm caches stay
    stable across membership changes.
    """

    def __init__(self, members=(), vnodes: int = 64):
        if vnodes < 1:
            raise ValueError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._ring: list[tuple[int, str]] = []
        for member in members:
            self.add(member)

    @staticmethod
    def _hash(key: str) -> int:
        return int.from_bytes(hashlib.sha1(key.encode()).digest()[:8], "big")

    def add(self, member: str) -> None:
        if any(m == member for _, m in self._ring):
            raise ValueError(f"member {member!r} already in the ring")
        for v in range(self.vnodes):
            self._ring.append((self._hash(f"{member}#{v}"), member))
        self._ring.sort()

    def remove(self, member: str) -> None:
        before = len(self._ring)
        self._ring = [(h, m) for h, m in self._ring if m != member]
        if len(self._ring) == before:
            raise KeyError(member)

    @property
    def members(self) -> list[str]:
        return sorted({m for _, m in self._ring})

    def owner(self, key: str) -> str:
        return self.successors(key)[0]

    def successors(self, key: str) -> list[str]:
        """Every distinct member, in ring order from ``key``'s position."""
        if not self._ring:
            raise KeyError("ring is empty")
        h = self._hash(key)
        start = 0
        for i, (vh, _) in enumerate(self._ring):
            if vh >= h:
                start = i
                break
        ordered: list[str] = []
        for i in range(len(self._ring)):
            member = self._ring[(start + i) % len(self._ring)][1]
            if member not in ordered:
                ordered.append(member)
        return ordered


class Replica:
    """One replica backend plus the router-side view of it.

    ``server`` is either an in-process :class:`ForecastServer`
    (``transport="thread"``) or a
    :class:`~repro.serve.proc.ProcReplicaClient` fronting a child
    process (``transport="process"``) — both speak the same contract,
    so the router never branches on which it holds.

    ``killed`` models a crashed process: dispatches raise
    :class:`ReplicaDownError`, the router stops pumping it, and whatever
    it held is failed over.  ``paused`` models a wedged worker (alive,
    accepting work, answering nothing) — the router only discovers it
    through timeouts and hedges.  ``reloading`` marks a replica
    temporarily out of rotation during a rolling reload.
    """

    def __init__(self, replica_id: str, shard_id: int, server,
                 breaker: CircuitBreaker):
        self.id = replica_id
        self.shard_id = shard_id
        self.server = server
        self.breaker = breaker  # router-side transport breaker
        self.killed = False
        self.paused = False
        self.reloading = False

    @property
    def available(self) -> bool:
        """In rotation for routing and for the N-1 reload invariant."""
        return not self.killed and not self.reloading

    def kill(self) -> None:
        """Crash the replica (queued work is lost).

        Thread transport simulates the crash; process transport delivers
        a real ``SIGKILL`` mid-whatever-the-child-was-doing.  Either
        way the backend's queue view is aborted so span trees of
        requests the replica dies holding are closed as ``canceled`` —
        the router's sweep owns the failover for those sub-requests.
        """
        _lockorder_checkpoint(f"replica.kill:{self.id}")
        self.killed = True
        kill_process = getattr(self.server, "kill_process", None)
        if kill_process is not None:
            kill_process()
        self.server.abort(reason=f"replica {self.id} killed")

    def revive(self) -> None:
        respawn = getattr(self.server, "respawn", None)
        if respawn is not None and not self.server.is_alive():
            respawn()
            self.server.wait_ready()
        self.killed = False

    def pause(self) -> None:
        """Wedge the worker: accepts submits, answers nothing.

        Process transport wedges the *child* for real — it stops
        heartbeating too, so the supervisor's watchdog (not just router
        timeouts) sees it.
        """
        _lockorder_checkpoint(f"replica.pause:{self.id}")
        self.paused = True
        wedge = getattr(self.server, "inject_wedge", None)
        if wedge is not None:
            wedge()

    def resume(self) -> None:
        unwedge = getattr(self.server, "inject_unwedge", None)
        if unwedge is not None:
            unwedge()
        self.paused = False

    def submit(self, payload, parent_span=None) -> str:
        if self.killed:
            raise ReplicaDownError(self.id)
        return self.server.submit(payload, parent_span=parent_span)


@dataclass
class Shard:
    """One node partition cell and its replica set."""

    shard_id: int
    nodes: np.ndarray
    replicas: list[Replica] = field(default_factory=list)
    ring: ConsistentHashRing | None = None

    @property
    def available_replicas(self) -> list[Replica]:
        return [r for r in self.replicas if r.available]


@dataclass
class FleetResponse:
    """One answered (or shed) fleet request, with per-shard provenance.

    ``source`` is ``"model"`` (every shard answered from its model),
    ``"mixed"`` (some shards fell back), ``"historical_average"`` (no
    shard answered from a model), or ``"shed"`` (deadline expired;
    ``prediction`` is ``None``).  ``shard_sources`` maps shard id to
    that shard's source so degraded regions are attributable.
    """

    request_id: str
    prediction: np.ndarray | None
    source: str = "model"
    degraded: bool = False
    reason: str | None = None
    latency_ms: float = 0.0
    deadline_missed: bool = False
    shard_sources: dict = field(default_factory=dict)
    retries: int = 0
    hedged: bool = False
    metadata: dict = field(default_factory=dict)


@dataclass
class _SubState:
    """Router-side progress of one shard's slice of one fleet request."""

    shard_id: int
    status: str = "pending"      # pending | inflight | done | failed
    attempts: int = 0
    not_before: float = 0.0
    tried: list = field(default_factory=list)
    sub_id: str | None = None
    hedge_id: str | None = None
    replica: str | None = None
    hedge_replica: str | None = None
    dispatched_at: float | None = None
    hedged: bool = False
    prediction: np.ndarray | None = None
    source: str | None = None
    reason: str | None = None
    spans: dict = field(default_factory=dict)  # sub_id -> dispatch span

    @property
    def open(self) -> bool:
        return self.status in ("pending", "inflight")


@dataclass
class _FleetEntry:
    """One admitted fleet request being scattered/gathered."""

    request_id: str
    window: np.ndarray
    time_index: np.ndarray
    deadline: float | None
    received_at: float
    metadata: dict
    subs: dict = field(default_factory=dict)  # shard_id -> _SubState
    root_span: object = None
    retries: int = 0
    hedged: bool = False
    fallback: np.ndarray | None = None  # lazily-computed full HA forecast


class ForecastFleet:
    """Router + shards + replicas: the fleet front door.

    Parameters
    ----------
    task:
        The full-graph :class:`~repro.data.datasets.ForecastingTask`;
        source of the request spec, the node set, and the fleet-level
        historical-average fallback.
    model_factory:
        ``model_factory(sub_task, shard_id, replica_id) -> model`` —
        builds one architecture-appropriate model per replica over the
        shard's sub-task.  Also used by each server's warm reload to
        construct fresh candidate instances.
    num_shards / replicas_per_shard:
        Fleet topology.  ``partition`` (a
        :class:`~repro.graph.partition.NodePartition` or explicit node
        lists) overrides the layout; otherwise ``adjacency`` is
        partitioned graph-aware; otherwise nodes are split contiguously.
    queue_depth / max_batch:
        Forwarded to every replica's :class:`ForecastServer` (replica
        SLO monitors are disabled — the fleet monitor owns burn alerts).
    max_attempts / backoff:
        Per-shard dispatch budget and the retry-delay schedule (a
        :class:`~repro.resilience.backoff.Backoff`; only ``delay()`` is
        used — the router never sleeps, it schedules ``not_before``).
    replica_timeout:
        Seconds (on ``clock``) a dispatched sub-request may stay
        unanswered before the attempt is failed over.
    hedge_after:
        Seconds after which a still-outstanding sub-request is hedged to
        the next replica in the ring (``None`` disables hedging).  Set
        it near the replica p95 so only the tail pays the duplicate.
    gather_margin:
        Seconds reserved out of the request deadline for reassembly;
        sub-request deadlines are the fleet deadline minus this.
    backpressure_limit:
        Max outstanding sub-requests per shard before admission sheds
        (default ``replicas_per_shard * queue_depth``).
    slo / slo_ready_gate / metrics / logger / clock:
        As on :class:`ForecastServer`; the clock is shared with every
        replica server so absolute deadlines propagate unchanged.
    transport:
        ``"thread"`` (default) runs every replica in-process;
        ``"process"`` forks each replica into its own OS process behind
        the :mod:`repro.serve.proc` socket transport — same router
        contract, real crash isolation — and puts the set under a
        :class:`~repro.resilience.supervisor.ReplicaSupervisor`
        (heartbeat watchdog, budgeted restarts, crash-loop parking)
        polled from :meth:`process_once`.  Process mode requires a real
        clock: deadlines cross the process boundary as absolute
        ``CLOCK_MONOTONIC`` values.
    restart_policy / proc_kwargs:
        Process-mode tuning: a
        :class:`~repro.resilience.supervisor.RestartPolicy`, and extra
        kwargs for each :class:`~repro.serve.proc.ProcReplicaClient`
        (``heartbeat_interval``, ``ack_timeout``, ``slow_start_s``).
    """

    def __init__(
        self,
        task,
        model_factory,
        *,
        num_shards: int = 2,
        replicas_per_shard: int = 2,
        partition: NodePartition | list | None = None,
        adjacency: np.ndarray | None = None,
        queue_depth: int = 64,
        max_batch: int = 8,
        max_attempts: int = 3,
        backoff: Backoff | None = None,
        replica_timeout: float = 1.0,
        hedge_after: float | None = None,
        gather_margin: float = 0.0,
        backpressure_limit: int | None = None,
        metrics: MetricsRegistry | None = None,
        logger=None,
        clock=time.monotonic,
        slo: SLOMonitor | None | bool = None,
        slo_ready_gate: bool = False,
        transport: str = "thread",
        restart_policy=None,
        proc_kwargs: dict | None = None,
    ):
        if replicas_per_shard < 1:
            raise ValueError(f"replicas_per_shard must be >= 1, got {replicas_per_shard}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if transport not in ("thread", "process"):
            raise ValueError(f"transport must be 'thread' or 'process', got {transport!r}")
        self.transport = transport
        self.supervisor = None
        self.task = task
        self.spec = RequestSpec.for_task(task)
        self.metrics = metrics if metrics is not None else MetricsRegistry(run="fleet")
        self.logger = logger
        self._clock = clock
        self.max_attempts = max_attempts
        self.backoff = backoff if backoff is not None else Backoff(base=0.02, max_delay=0.5)
        self.replica_timeout = replica_timeout
        self.hedge_after = hedge_after
        self.gather_margin = gather_margin
        self.backpressure_limit = (
            backpressure_limit if backpressure_limit is not None
            else replicas_per_shard * queue_depth
        )

        self.partition = self._resolve_partition(partition, adjacency, num_shards)

        self.shards: list[Shard] = []
        for shard_id, nodes in enumerate(self.partition.shards):
            nodes = np.asarray(nodes, dtype=np.int64)
            sub_task = task.node_subset(nodes)
            shard = Shard(shard_id=shard_id, nodes=nodes)
            for idx in range(replicas_per_shard):
                replica_id = f"s{shard_id}r{idx}"
                if transport == "process":
                    backend = self._make_proc_client(
                        replica_id, sub_task, shard_id, model_factory,
                        queue_depth, max_batch, proc_kwargs or {})
                else:
                    model = model_factory(sub_task, shard_id, replica_id)
                    backend = ForecastServer(
                        model, sub_task, queue_depth=queue_depth,
                        max_batch=max_batch,
                        model_factory=lambda st=sub_task, sid=shard_id,
                            rid=replica_id: model_factory(st, sid, rid),
                        metrics=self.metrics, logger=logger, clock=clock,
                        slo=False,
                    )
                breaker = CircuitBreaker(failure_threshold=3, cooldown=2.0,
                                         clock=clock)
                shard.replicas.append(
                    Replica(replica_id, shard_id, backend, breaker))
            shard.ring = ConsistentHashRing([r.id for r in shard.replicas])
            self.shards.append(shard)
        if transport == "process":
            self._start_process_fleet(restart_policy, proc_kwargs or {})

        self._fallback = HistoricalAverage.for_task(task)
        if slo is None:
            slo = SLOMonitor(clock=clock, logger=logger, metrics=self.metrics)
        self.slo = slo if slo is not False else None
        self._slo_ready_gate = slo_ready_gate

        self._lock = threading.RLock()
        self._entries: dict[str, _FleetEntry] = {}
        self._inflight: dict[str, tuple[str, int]] = {}  # sub_id -> (fleet_id, shard)
        self._responses: list[FleetResponse] = []
        self._responses_lock = threading.Lock()
        self._worker: threading.Thread | None = None
        self._stop_event = threading.Event()
        self._draining = False
        self._log("fleet_start", shards=len(self.shards),
                  replicas_per_shard=replicas_per_shard,
                  cut_fraction=self.partition.cut_fraction,
                  backpressure_limit=self.backpressure_limit,
                  max_attempts=max_attempts, replica_timeout=replica_timeout,
                  hedge_after=hedge_after)

    # -- topology -------------------------------------------------------- #

    def _resolve_partition(self, partition, adjacency, num_shards) -> NodePartition:
        if partition is not None:
            if isinstance(partition, NodePartition):
                resolved = partition
            else:
                shards = tuple(tuple(int(v) for v in nodes) for nodes in partition)
                weight = (adjacency if adjacency is not None
                          else np.zeros((self.task.num_nodes,) * 2))
                from ..graph.partition import cut_weight as _cut

                resolved = NodePartition(
                    shards, _cut(weight, shards), float(np.abs(weight).sum() / 2.0))
        elif adjacency is not None:
            resolved = partition_nodes(adjacency, num_shards)
        else:
            pieces = np.array_split(np.arange(self.task.num_nodes), num_shards)
            resolved = NodePartition(
                tuple(tuple(int(v) for v in piece) for piece in pieces), 0.0, 0.0)
        covered = sorted(n for nodes in resolved.shards for n in nodes)
        if covered != list(range(self.task.num_nodes)):
            raise ValueError(
                f"partition must cover every node exactly once "
                f"(task has {self.task.num_nodes} nodes)")
        return resolved

    def _make_proc_client(self, replica_id, sub_task, shard_id, model_factory,
                          queue_depth, max_batch, proc_kwargs):
        """Build the out-of-process backend for one replica.

        The server factory runs **in the forked child**: the model is
        constructed there (nothing heavy crosses the fork besides the
        inherited address space), with its own metrics registry, a real
        monotonic clock (deadlines arrive as absolute CLOCK_MONOTONIC
        values), and no SLO monitor (the fleet monitor owns burn
        alerts, exactly as in thread mode).
        """
        from .proc import ProcReplicaClient

        def server_factory(st=sub_task, sid=shard_id, rid=replica_id):
            model = model_factory(st, sid, rid)
            return ForecastServer(
                model, st, queue_depth=queue_depth, max_batch=max_batch,
                model_factory=lambda: model_factory(st, sid, rid),
                metrics=MetricsRegistry(run=f"replica-{rid}"),
                logger=None, clock=time.monotonic, slo=False,
            )

        allowed = {"heartbeat_interval", "ack_timeout", "slow_start_s"}
        return ProcReplicaClient(
            replica_id, server_factory, logger=self.logger,
            **{k: v for k, v in proc_kwargs.items() if k in allowed})

    def _start_process_fleet(self, restart_policy, proc_kwargs) -> None:
        """Spawn every replica child and put the set under supervision."""
        from ..resilience.supervisor import ReplicaSupervisor, RestartPolicy

        for rep in self.replicas:
            rep.server.spawn()
        ready_timeout = float(proc_kwargs.get("ready_timeout", 30.0))
        for rep in self.replicas:
            rep.server.wait_ready(timeout=ready_timeout)
        policy = restart_policy if restart_policy is not None else RestartPolicy()
        self.supervisor = ReplicaSupervisor(
            policy, Backoff(base=0.05, max_delay=2.0, jitter=0.5),
            clock=self._clock, logger=self.logger, metrics=self.metrics)

        def mark_down(replica_id, reason):
            with self._lock:
                self.replica(replica_id).killed = True

        def mark_up(replica_id):
            with self._lock:
                self.replica(replica_id).killed = False

        for rep in self.replicas:
            self.supervisor.register(rep.id, rep.server,
                                     on_down=mark_down, on_up=mark_up)

    def replica(self, replica_id: str) -> Replica:
        for shard in self.shards:
            for rep in shard.replicas:
                if rep.id == replica_id:
                    return rep
        raise KeyError(replica_id)

    @property
    def replicas(self) -> list[Replica]:
        return [rep for shard in self.shards for rep in shard.replicas]

    # -- front door ------------------------------------------------------ #

    def submit(self, payload) -> str:
        """Validate + admit one full-graph request; returns its id.

        Raises :class:`~.validation.InvalidRequestError` (bad payload),
        :class:`~.queueing.DeadlineExceededError` (dead on arrival), or
        :class:`FleetOverloadedError` (backpressure / draining).
        """
        now = self._clock()
        with self._lock:  # paired with the start/stop writes
            draining = self._draining
        if draining or self._stop_event.is_set():
            self.metrics.counter("fleet.rejected").inc()
            self._log("fleet_rejected", code="draining")
            raise FleetOverloadedError(0, 0, detail="fleet is draining")
        arrived = time.perf_counter()  # analyze: allow[RL004] span timebase
        try:
            request = validate_request(payload, self.spec, now=now)
            if request.expired(now):
                raise DeadlineExceededError(request.request_id, request.deadline, now)
        except Exception as exc:
            self.metrics.counter("fleet.rejected").inc()
            code = getattr(exc, "code", type(exc).__name__)
            self._log("fleet_rejected", code=code, detail=str(exc))
            root = start_span("fleet_request", parent=None, inherit=False, at=arrived)
            admission = start_span("admission", parent=root, inherit=False, at=arrived)
            finish_span(admission, status="error", code=str(code))
            finish_span(root, status="rejected", code=str(code))
            raise
        with self._lock:
            shed_shard = self._saturated_shard()
            if shed_shard is not None:
                depth = self._shard_load(shed_shard)
                self.metrics.counter("fleet.shed_backpressure").inc()
                self._log("fleet_backpressure_shed", shard=shed_shard,
                          outstanding=depth, limit=self.backpressure_limit)
                root = start_span("fleet_request", parent=None, inherit=False,
                                  at=arrived, trace_id=request.request_id)
                admission = start_span("admission", parent=root, inherit=False,
                                       at=arrived)
                finish_span(admission, status="error", code="backpressure",
                            shard=shed_shard)
                finish_span(root, status="rejected", code="backpressure")
                raise FleetOverloadedError(depth, self.backpressure_limit,
                                           shard_id=shed_shard)
            root = start_span("fleet_request", parent=None, inherit=False,
                              at=arrived, trace_id=request.request_id,
                              attrs={"deadline": request.deadline,
                                     "shards": len(self.shards)})
            admission = start_span("admission", parent=root, inherit=False, at=arrived)
            finish_span(admission)
            entry = _FleetEntry(
                request_id=request.request_id,
                window=request.window,
                time_index=request.time_index,
                deadline=request.deadline,
                received_at=now,
                metadata=request.metadata,
                subs={s.shard_id: _SubState(shard_id=s.shard_id, not_before=now)
                      for s in self.shards},
                root_span=root,
            )
            self._entries[request.request_id] = entry
        self.metrics.counter("fleet.admitted").inc()
        return request.request_id

    def _saturated_shard(self) -> int | None:
        # Callers hold self._lock.
        for shard in self.shards:
            if self._shard_load(shard.shard_id) >= self.backpressure_limit:
                return shard.shard_id
        return None

    def _shard_load(self, shard_id: int) -> int:
        # Callers hold self._lock.  Outstanding = sub-requests admitted
        # but not yet resolved (covers replica queues: an inflight sub
        # sits in some replica's queue until it is answered).
        return sum(1 for e in self._entries.values()
                   if e.subs[shard_id].open)

    # -- the synchronous core -------------------------------------------- #

    def process_once(self) -> list[FleetResponse]:
        """One router round: dispatch, pump replicas, integrate, resolve.

        Returns the fleet responses completed this round (also appended
        to the sink for :meth:`take_responses`).
        """
        if self.supervisor is not None:
            self.supervisor.poll()
        now = self._clock()
        with self._lock:
            self._dispatch_due(now)
        self._pump_replicas()
        with self._lock:
            self._integrate(now)
            self._sweep(now)
            completed = self._resolve(now)
        if self.slo is not None and completed:
            self.slo.evaluate()
        return completed

    def drain(self) -> list[FleetResponse]:
        """Pump until every admitted request is answered or shed.

        Stops early at a round that answers nothing while the clock did
        not move: on a stopped clock, work scheduled in the future (a
        retry's ``not_before``) stays pending.
        """
        produced: list[FleetResponse] = []
        while True:
            with self._lock:
                if not self._entries:
                    break
            before = self._clock()
            round_responses = self.process_once()
            produced.extend(round_responses)
            if not round_responses and self._clock() == before:
                break
        return produced

    def take_responses(self) -> list[FleetResponse]:
        """Pop every completed fleet response (thread-safe sink)."""
        with self._responses_lock:
            out, self._responses = self._responses, []
        return out

    # -- dispatch -------------------------------------------------------- #

    def _dispatch_due(self, now: float) -> None:
        # Callers hold self._lock.
        for entry in list(self._entries.values()):
            if entry.deadline is not None and now >= entry.deadline:
                continue  # the resolve step sheds it
            for sub in entry.subs.values():
                if sub.status == "pending" and now >= sub.not_before:
                    self._dispatch(entry, sub, now)

    def _candidates(self, entry: _FleetEntry, sub: _SubState,
                    exclude=()) -> list[Replica]:
        shard = self.shards[sub.shard_id]
        ordered = [self._replica_of(shard, rid)
                   for rid in shard.ring.successors(entry.request_id)]
        routable = [r for r in ordered
                    if r.available and r.id not in exclude]
        untried = [r for r in routable if r.id not in sub.tried]
        return untried or routable

    @staticmethod
    def _replica_of(shard: Shard, replica_id: str) -> Replica:
        return next(r for r in shard.replicas if r.id == replica_id)

    def _dispatch(self, entry: _FleetEntry, sub: _SubState, now: float,
                  hedge: bool = False) -> None:
        # Callers hold self._lock.
        exclude = (sub.replica,) if hedge and sub.replica else ()
        chosen = None
        for candidate in self._candidates(entry, sub, exclude=exclude):
            if candidate.breaker.allow():
                chosen = candidate
                break
        if chosen is None:
            if hedge:
                return  # nobody to hedge to; the primary may still answer
            self._fail_shard(entry, sub, "no replica available", now)
            return
        attempt = sub.attempts
        kind = "h" if hedge else "a"
        sub_id = f"{entry.request_id}/s{sub.shard_id}{kind}{attempt}"
        shard = self.shards[sub.shard_id]
        sub_deadline = (entry.deadline - self.gather_margin
                        if entry.deadline is not None else None)
        dispatch_span = start_span(
            "dispatch", parent=entry.root_span, inherit=False,
            attrs={"shard": sub.shard_id, "replica": chosen.id,
                   "attempt": attempt, "hedge": hedge})
        payload = {
            "window": entry.window[:, shard.nodes, :],
            "time_index": entry.time_index,
            "id": sub_id,
        }
        if sub_deadline is not None:
            payload["deadline"] = sub_deadline
        try:
            chosen.submit(payload, parent_span=dispatch_span)
        except InvalidRequestError as exc:
            # Deterministic rejection — no replica will accept it.
            finish_span(dispatch_span, status="error", code=exc.code)
            self._fail_shard(entry, sub, f"sub-request invalid: {exc.code}", now)
            return
        except (ServiceOverloadedError, DeadlineExceededError,
                ReplicaDownError) as exc:
            finish_span(dispatch_span, status="error",
                        code=type(exc).__name__)
            chosen.breaker.record_failure(type(exc).__name__)
            if isinstance(exc, ServiceOverloadedError):
                self.metrics.counter("fleet.replica_overloads").inc()
            self._log("fleet_dispatch_failed", request_id=entry.request_id,
                      shard=sub.shard_id, replica=chosen.id,
                      reason=type(exc).__name__, attempt=attempt, hedge=hedge)
            if not hedge:
                sub.tried.append(chosen.id)
                self._retry_or_fail(entry, sub, type(exc).__name__, now)
            return
        sub.spans[sub_id] = dispatch_span
        self._inflight[sub_id] = (entry.request_id, sub.shard_id)
        if hedge:
            sub.hedge_id = sub_id
            sub.hedge_replica = chosen.id
            sub.hedged = True
            entry.hedged = True
            self.metrics.counter("fleet.hedges").inc()
            self._log("fleet_hedge", request_id=entry.request_id,
                      shard=sub.shard_id, primary=sub.replica, hedge=chosen.id)
        else:
            sub.status = "inflight"
            sub.sub_id = sub_id
            sub.replica = chosen.id
            sub.dispatched_at = now
            sub.attempts += 1
            sub.tried.append(chosen.id)

    # -- pump + integrate ------------------------------------------------ #

    def _pump_replicas(self) -> None:
        # Each replica reads the shared clock itself, so one pumped after
        # a slow one sees the time that slow forward took.
        for rep in self.replicas:
            if rep.killed or rep.paused:
                continue
            rep.server.process_once()

    def _integrate(self, now: float) -> None:
        # Callers hold self._lock.
        for rep in self.replicas:
            for resp in rep.server.take_responses():
                routed = self._inflight.pop(resp.request_id, None)
                if routed is None:
                    self.metrics.counter("fleet.late_responses").inc()
                    continue
                fleet_id, shard_id = routed
                entry = self._entries.get(fleet_id)
                if entry is None:
                    continue
                sub = entry.subs[shard_id]
                span = sub.spans.pop(resp.request_id, None)
                if resp.prediction is None:
                    # The replica shed it (deadline passed in its queue).
                    finish_span(span, status="shed")
                    rep.breaker.record_failure("replica shed")
                    self._cancel_sibling(sub, resp.request_id)
                    self._retry_or_fail(entry, sub, "replica shed", now)
                    continue
                finish_span(span, status="ok", source=resp.source)
                rep.breaker.record_success()
                self._cancel_sibling(sub, resp.request_id)
                if sub.hedge_id == resp.request_id and sub.status == "inflight":
                    self.metrics.counter("fleet.hedge_wins").inc()
                sub.status = "done"
                sub.prediction = resp.prediction
                sub.source = resp.source
                sub.reason = resp.reason

    def _cancel_sibling(self, sub: _SubState, winner_id: str) -> None:
        # Callers hold self._lock.  Drop the other leg of a hedged pair.
        for other in (sub.sub_id, sub.hedge_id):
            if other is not None and other != winner_id:
                self._inflight.pop(other, None)
                finish_span(sub.spans.pop(other, None), status="superseded")

    # -- sweep: crashes, timeouts, hedges -------------------------------- #

    def _sweep(self, now: float) -> None:
        # Callers hold self._lock.
        for entry in list(self._entries.values()):
            for sub in entry.subs.values():
                if sub.status != "inflight":
                    continue
                primary = self.replica(sub.replica)
                hedge_rep = (self.replica(sub.hedge_replica)
                             if sub.hedge_replica else None)
                legs_down = primary.killed and (hedge_rep is None or hedge_rep.killed)
                timed_out = (sub.dispatched_at is not None
                             and now - sub.dispatched_at > self.replica_timeout)
                if legs_down or timed_out:
                    reason = "replica down" if legs_down else "replica timeout"
                    for leg, rep in ((sub.sub_id, primary), (sub.hedge_id, hedge_rep)):
                        if leg is None:
                            continue
                        self._inflight.pop(leg, None)
                        finish_span(sub.spans.pop(leg, None), status="error",
                                    code=reason)
                        if rep is not None:
                            rep.breaker.record_failure(reason)
                    sub.hedge_id = sub.hedge_replica = None
                    self.metrics.counter("fleet.failovers").inc()
                    self._log("fleet_failover", request_id=entry.request_id,
                              shard=sub.shard_id, replica=sub.replica,
                              reason=reason)
                    self._retry_or_fail(entry, sub, reason, now)
                elif (self.hedge_after is not None and not sub.hedged
                      and sub.dispatched_at is not None
                      and now - sub.dispatched_at > self.hedge_after):
                    self._dispatch(entry, sub, now, hedge=True)

    def _retry_or_fail(self, entry: _FleetEntry, sub: _SubState,
                       reason: str, now: float) -> None:
        # Callers hold self._lock.
        budget_left = entry.deadline is None or now < entry.deadline
        if sub.attempts < self.max_attempts and budget_left:
            delay = self.backoff.delay(max(0, sub.attempts - 1))
            sub.status = "pending"
            sub.sub_id = None
            sub.hedge_id = None
            sub.hedge_replica = None
            sub.dispatched_at = None
            sub.not_before = now + delay
            entry.retries += 1
            self.metrics.counter("fleet.retries").inc()
            self._log("fleet_retry_scheduled", request_id=entry.request_id,
                      shard=sub.shard_id, attempt=sub.attempts,
                      delay_s=delay, reason=reason)
        else:
            self._fail_shard(entry, sub, reason, now)

    def _fail_shard(self, entry: _FleetEntry, sub: _SubState,
                    reason: str, now: float) -> None:
        # Callers hold self._lock.  The shard still gets an answer: the
        # fleet-level historical-average fallback, explicitly marked.
        if entry.fallback is None:
            scaled = self._fallback.predict_windows(
                entry.time_index[None, :], self.task.history, self.task.out_dim)
            entry.fallback = self.task.inverse_targets(scaled)[0]
        shard = self.shards[sub.shard_id]
        sub.status = "failed"
        sub.prediction = entry.fallback[:, shard.nodes, :]
        sub.source = "historical_average"
        sub.reason = reason
        self.metrics.counter("fleet.shard_fallbacks").inc()
        self._log("fleet_shard_fallback", request_id=entry.request_id,
                  shard=sub.shard_id, reason=reason, attempts=sub.attempts)

    # -- resolve: gather + shed ------------------------------------------ #

    def _resolve(self, now: float) -> list[FleetResponse]:
        # Callers hold self._lock.
        completed: list[FleetResponse] = []
        for fleet_id, entry in list(self._entries.items()):
            if all(not sub.open for sub in entry.subs.values()):
                completed.append(self._gather(entry))
                del self._entries[fleet_id]
            elif entry.deadline is not None and now >= entry.deadline:
                completed.append(self._shed(entry))
                del self._entries[fleet_id]
        return completed

    def _gather(self, entry: _FleetEntry) -> FleetResponse:
        prediction = np.empty(
            (self.task.horizon, self.task.num_nodes, self.task.out_dim))
        sources: dict[int, str] = {}
        for shard in self.shards:
            sub = entry.subs[shard.shard_id]
            prediction[:, shard.nodes, :] = sub.prediction
            sources[shard.shard_id] = sub.source
        model_shards = sum(1 for s in sources.values() if s == "model")
        if model_shards == len(sources):
            source = "model"
        elif model_shards == 0:
            source = "historical_average"
        else:
            source = "mixed"
        degraded = source != "model"
        reasons = sorted({sub.reason for sub in entry.subs.values() if sub.reason})
        gather_span = start_span("gather", parent=entry.root_span, inherit=False,
                                 attrs={"source": source})
        finish_span(gather_span)
        response = FleetResponse(
            request_id=entry.request_id,
            prediction=prediction,
            source=source,
            degraded=degraded,
            reason="; ".join(reasons) if reasons else None,
            shard_sources=sources,
            retries=entry.retries,
            hedged=entry.hedged,
            metadata=entry.metadata,
        )
        self._finish_response(entry, response,
                              status="ok" if not degraded else "degraded")
        return response

    def _shed(self, entry: _FleetEntry) -> FleetResponse:
        for sub in entry.subs.values():
            for leg in (sub.sub_id, sub.hedge_id):
                if leg is not None:
                    self._inflight.pop(leg, None)
            for span in sub.spans.values():
                finish_span(span, status="canceled")
            sub.spans.clear()
        # _finish_response counts this as fleet.shed via fleet.{source}.
        self._log("fleet_request_shed", request_id=entry.request_id,
                  deadline=entry.deadline,
                  open_shards=[s.shard_id for s in entry.subs.values() if s.open])
        response = FleetResponse(
            request_id=entry.request_id,
            prediction=None,
            source="shed",
            degraded=True,
            reason="deadline passed before every shard answered",
            shard_sources={sid: (sub.source or "unanswered")
                           for sid, sub in entry.subs.items()},
            retries=entry.retries,
            hedged=entry.hedged,
            metadata=entry.metadata,
        )
        self._finish_response(entry, response, status="shed")
        return response

    def _finish_response(self, entry: _FleetEntry, response: FleetResponse,
                         status: str) -> None:
        # The completion stamp: the one source of this response's timing.
        done = self._clock()
        response.latency_ms = max(0.0, (done - entry.received_at) * 1000.0)
        response.deadline_missed = entry.deadline is not None and done >= entry.deadline
        self.metrics.counter(f"fleet.{response.source}").inc()
        self.metrics.counter("fleet.answered" if response.source != "shed"
                             else "fleet.shed_answered").inc()
        self.metrics.histogram("fleet.latency_ms").observe(response.latency_ms)
        if self.slo is not None:
            self.slo.observe(response.latency_ms, failure=response.degraded)
        finish_span(entry.root_span, status=status, source=response.source,
                    latency_ms=response.latency_ms, retries=response.retries)
        with self._responses_lock:
            self._responses.append(response)

    # -- lifecycle ------------------------------------------------------- #

    def start(self, poll_interval: float = 0.005) -> None:
        """Spawn the router worker thread (idempotent)."""
        if self._worker is not None and self._worker.is_alive():
            return
        self._stop_event.clear()
        with self._lock:
            self._draining = False

        def loop():
            while not self._stop_event.is_set():
                produced = self.process_once()
                with self._lock:
                    idle = not self._entries
                if not produced and idle:
                    self._stop_event.wait(poll_interval)

        self._worker = threading.Thread(target=loop, name="fleet-router", daemon=True)
        self._worker.start()

    def stop(self, drain: bool = True, timeout: float = 30.0) -> bool:
        """Stop the worker; with ``drain`` resolve everything in flight.

        Returns ``True`` on a clean stop.  If the router worker is still
        alive after ``join(timeout)`` — wedged in a replica, most likely
        — it mirrors :meth:`ForecastServer.stop`: a ``drain_timeout``
        record is logged, ``fleet.drain_timeouts`` is counted, the thread
        handle is kept, the synchronous drain is skipped (it would block
        on the same wedged replica) and the method returns ``False``.

        Either way, supervision is then disabled (restarts would
        re-create what we are tearing down) and every process replica is
        closed gracefully — SHUTDOWN over the wire, escalating SIGTERM →
        SIGKILL on a deadline, so no orphan processes survive the fleet.
        """
        with self._lock:
            self._draining = drain
        self._stop_event.set()
        clean = True
        if self._worker is not None:
            self._worker.join(timeout)
            if self._worker.is_alive():
                clean = False
                self.metrics.counter("fleet.drain_timeouts").inc()
                self._log("drain_timeout", timeout_s=timeout, drain=drain,
                          worker=self._worker.name)
            else:
                self._worker = None
        if drain and clean:
            self.drain()
        if self.supervisor is not None:
            self.supervisor.disable()
        if self.transport == "process":
            for rep in self.replicas:
                rep.server.close(drain=False)
        self._log("fleet_stop", drained=drain and clean)
        return clean

    def health(self) -> dict:
        """Aggregated liveness: one verdict over every shard and replica.

        ``status`` is ``"ok"`` (full redundancy everywhere),
        ``"degraded"`` (every shard still has an available replica, but
        redundancy is reduced, a server reports degraded, or an SLO is
        burning), or ``"unavailable"`` (some shard has no available
        replica — full-graph answers now depend on the fallback).
        """
        statuses = self.slo.evaluate() if self.slo is not None else []
        shard_reports = []
        degraded = any(not s.ok for s in statuses)
        unavailable = False
        for shard in self.shards:
            replicas = []
            for rep in shard.replicas:
                server_health = rep.server.health()
                replicas.append({
                    "id": rep.id,
                    "available": rep.available,
                    "killed": rep.killed,
                    "reloading": rep.reloading,
                    "transport_breaker": rep.breaker.state,
                    "server_status": server_health["status"],
                    "model_version": server_health["model_version"],
                    "queue_depth": server_health["queue_depth"],
                })
                if rep.available and (server_health["status"] != "ok"
                                      or rep.breaker.state == OPEN):
                    degraded = True
            healthy = len(shard.available_replicas)
            if healthy == 0:
                unavailable = True
            elif healthy < len(shard.replicas):
                degraded = True
            shard_reports.append({
                "shard_id": shard.shard_id,
                "nodes": int(len(shard.nodes)),
                "healthy_replicas": healthy,
                "replicas": replicas,
            })
        status = ("unavailable" if unavailable
                  else "degraded" if degraded else "ok")
        snap = self.metrics.snapshot()
        return {
            "status": status,
            "shards": shard_reports,
            "cut_fraction": self.partition.cut_fraction,
            "slo": [s.to_dict() for s in statuses],
            "counters": snap["counters"],
        }

    def ready(self) -> bool:
        """Accepting traffic: not draining, every shard has a replica.

        With ``slo_ready_gate=True`` a firing fast-burn alert also
        reports not-ready, mirroring :meth:`ForecastServer.ready`.
        """
        with self._lock:  # paired with the start/stop writes
            draining = self._draining
        if draining or self._stop_event.is_set():
            return False
        if any(not shard.available_replicas for shard in self.shards):
            return False
        if self._slo_ready_gate and self.slo is not None:
            statuses = self.slo.evaluate()
            if any("fast_burn" in s.firing for s in statuses):
                return False
        return True

    # -- rolling reload -------------------------------------------------- #

    def rolling_reload(self, checkpoints, min_available: int = 1) -> list[dict]:
        """Warm-reload the fleet one replica at a time, never below N-1.

        ``checkpoints`` maps shard id to a checkpoint path (dict,
        callable, or a single path applied to every shard — only valid
        when all shards share an architecture).  Per replica: take it
        out of rotation, drain what it holds, verify-and-swap via
        :meth:`ForecastServer.reload_checkpoint` (a corrupt or
        mis-shaped candidate is rejected and the old model keeps
        serving), then return it to rotation.  A step that would leave a
        shard with fewer than ``min_available`` available replicas is
        **refused** with a structured ``fleet_reload_refused`` record —
        the invariant that makes reloads routine under failure.

        Returns one record per replica: ``action`` is ``"reloaded"``,
        ``"rejected"`` (bad checkpoint; old model still live),
        ``"refused"`` (N-1 floor), or ``"skipped"`` (the replica itself
        is down — nothing to swap), plus the shard's available-replica
        count *during* the step so tests can assert the invariant held.
        """
        if callable(checkpoints):
            resolve = checkpoints
        elif isinstance(checkpoints, dict):
            resolve = checkpoints.get
        else:
            resolve = lambda _sid: checkpoints
        reload_span = start_span("rolling_reload", parent=None, inherit=False)
        records: list[dict] = []
        for shard in self.shards:
            path = resolve(shard.shard_id)
            if path is None:
                continue
            for rep in shard.replicas:
                if not rep.available:
                    # A crashed (or already-reloading) replica has no
                    # process to swap; reload it on revival instead.
                    record = {"replica": rep.id, "shard": shard.shard_id,
                              "action": "skipped",
                              "reason": "replica not available"}
                    self._log("fleet_reload_skipped", **record)
                    records.append(record)
                    continue
                others = [r for r in shard.replicas if r is not rep and r.available]
                if len(others) < min_available:
                    record = {
                        "replica": rep.id, "shard": shard.shard_id,
                        "action": "refused",
                        "reason": f"reload would leave shard {shard.shard_id} with "
                                  f"{len(others)} available replica(s), below the "
                                  f"N-1 floor of {min_available}",
                        "available_during": len(others) + int(rep.available),
                    }
                    self.metrics.counter("fleet.reload_refused").inc()
                    self._log("fleet_reload_refused", **record)
                    records.append(record)
                    continue
                step_span = start_span("replica_reload", parent=reload_span,
                                       inherit=False,
                                       attrs={"replica": rep.id,
                                              "shard": shard.shard_id})
                with self._lock:
                    rep.reloading = True
                available_during = len(shard.available_replicas)
                # Drain what the replica already holds before swapping.
                guard = 0
                while len(rep.server.queue) and guard < 10_000:
                    self.process_once()
                    guard += 1
                version_before = rep.server.model_version
                ok = rep.server.reload_checkpoint(path)
                with self._lock:
                    rep.reloading = False
                record = {
                    "replica": rep.id, "shard": shard.shard_id,
                    "action": "reloaded" if ok else "rejected",
                    "available_during": available_during,
                    "version_before": version_before,
                    "version_after": rep.server.model_version,
                }
                self.metrics.counter(
                    "fleet.reloads" if ok else "fleet.reload_rejected").inc()
                self._log("fleet_replica_reload", **record)
                finish_span(step_span, status="ok" if ok else "rejected")
                records.append(record)
        finish_span(reload_span,
                    reloaded=sum(1 for r in records if r["action"] == "reloaded"),
                    rejected=sum(1 for r in records if r["action"] == "rejected"),
                    refused=sum(1 for r in records if r["action"] == "refused"))
        return records

    # -- plumbing -------------------------------------------------------- #

    def _log(self, event: str, **fields) -> None:
        if self.logger is not None:
            self.logger.log(event, **fields)
