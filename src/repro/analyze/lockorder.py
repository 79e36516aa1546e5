"""Runtime lock-order sanitizer: witness the locking the static pass infers.

:class:`LockOrderSanitizer` patches the ``threading.Lock`` / ``RLock``
*factories* so every lock created while it is installed is wrapped in a
tracker.  Each acquire records, per thread, the set of locks already
held and adds ``held -> acquired`` edges to a global lock-order graph;
each release pops the per-thread held-set.  At teardown the graph is
checked for cycles — two threads that ever take the same pair of locks
in opposite orders produce one, whether or not the schedule actually
deadlocked on this run.  That turns "the chaos test happened to pass"
into "no interleaving of the observed critical sections can deadlock".

Three judgement surfaces:

* :meth:`~LockOrderSanitizer.cycles` — lock-order cycles with witness
  creation sites and the acquisition sites of every edge.
* :meth:`~LockOrderSanitizer.checkpoint` — fault-injection seams
  (replica kill/pause, chaos ``fault_hook`` points) call this; holding
  any tracked lock across an injection point is recorded as a
  violation (faults must never fire inside a critical section, or
  recovery can deadlock on the dead holder's lock).
* :meth:`~LockOrderSanitizer.check` — raises
  :class:`LockOrderViolation` on either; tests call it at teardown.

The witness graph exports as JSONL
(:meth:`~LockOrderSanitizer.export_jsonl`) so CI uploads it as an
artifact next to the span/run logs.

Wiring: product code never imports this module.  ``install()`` hangs
``checkpoint`` on the :mod:`threading` module under a private name and
the serve/resilience injection seams invoke it via ``getattr`` — zero
coupling, zero overhead when not installed.  Locks created *before*
``install()`` (module-level registries) are invisible; install the
sanitizer before constructing servers/fleets.

Condition compatibility: ``threading.Condition`` duck-types its lock
through ``acquire``/``release``/``_is_owned``/``_release_save``/
``_acquire_restore``.  The wrapper forwards all five (synthesizing the
plain-``Lock`` fallbacks exactly as ``Condition`` itself would) and
keeps the held-set honest across ``wait()``'s release/reacquire.
"""

from __future__ import annotations

import _thread
import json
import threading
from collections import defaultdict
from pathlib import Path
from sys import _getframe

_HOOK_ATTR = "_repro_lockorder_checkpoint"


class LockOrderViolation(AssertionError):
    """A lock-order cycle or a lock held across a fault-injection point."""


def checkpoint(label: str) -> None:
    """Module-level seam: forward to the installed sanitizer, if any."""
    hook = getattr(threading, _HOOK_ATTR, None)
    if hook is not None:
        hook(label)


def _creation_site() -> str:
    """file:line of the first caller frame outside this module/threading."""
    frame = _getframe(2)
    while frame is not None:
        filename = frame.f_code.co_filename
        if not filename.endswith(("lockorder.py", "threading.py")):
            parts = filename.replace("\\", "/").split("/")
            return f"{'/'.join(parts[-2:])}:{frame.f_lineno}"
        frame = frame.f_back
    return "<unknown>"


class _TrackedLock:
    """A Lock/RLock wrapper that reports acquire/release to the sanitizer."""

    def __init__(self, inner, sanitizer: "LockOrderSanitizer", name: str):
        self._inner = inner
        self._sanitizer = sanitizer
        self.name = name

    # -- the core protocol -------------------------------------------- #

    def acquire(self, blocking: bool = True, timeout: float = -1):
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._sanitizer._note_acquire(self, _creation_site())
        return got

    def release(self):
        self._inner.release()
        self._sanitizer._note_release(self)

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()
        return False

    def locked(self):
        return self._inner.locked()

    def _at_fork_reinit(self):
        # threading._after_fork reinits every lock in the child; only the
        # forking thread survives, so drop any recursion this lock held
        self._inner._at_fork_reinit()
        self._sanitizer._note_release(self, full=True)

    def __repr__(self):
        return f"<tracked {self.name} wrapping {self._inner!r}>"

    # -- Condition duck-typing ---------------------------------------- #

    def _is_owned(self):
        inner = self._inner
        if hasattr(inner, "_is_owned"):
            return inner._is_owned()
        if inner.acquire(False):  # plain Lock: Condition's own fallback dance
            inner.release()
            return False
        return True

    def _release_save(self):
        # Condition.wait releases the *entire* recursion level
        self._sanitizer._note_release(self, full=True)
        if hasattr(self._inner, "_release_save"):
            return self._inner._release_save()
        self._inner.release()
        return None

    def _acquire_restore(self, state):
        if hasattr(self._inner, "_acquire_restore"):
            self._inner._acquire_restore(state)
        else:
            self._inner.acquire()
        self._sanitizer._note_acquire(self, _creation_site())


class LockOrderSanitizer:
    """Patch lock factories, accumulate the order graph, judge at teardown."""

    def __init__(self):
        self._state_lock = _thread.allocate_lock()  # raw: never self-tracked
        self._held: dict[int, list] = defaultdict(list)  # tid -> [[lock, count], ...]
        self._edges: dict[tuple, dict] = {}  # (from, to) -> witness
        self._locks: dict[str, str] = {}  # name -> creation site
        self._violations: list[dict] = []
        self._installed = False
        self._saved: dict = {}
        self._seq = 0

    # -- install / uninstall ------------------------------------------- #

    def install(self) -> "LockOrderSanitizer":
        if self._installed:
            return self
        self._saved = {"Lock": threading.Lock, "RLock": threading.RLock}

        def make_factory(kind: str, original):
            def factory(*args, **kwargs):
                site = _creation_site()
                with self._state_lock:
                    self._seq += 1
                    name = f"{kind}@{site}#{self._seq}"
                    self._locks[name] = site
                return _TrackedLock(original(*args, **kwargs), self, name)

            return factory

        threading.Lock = make_factory("Lock", self._saved["Lock"])
        threading.RLock = make_factory("RLock", self._saved["RLock"])
        setattr(threading, _HOOK_ATTR, self.checkpoint)
        self._installed = True
        return self

    def uninstall(self) -> None:
        if not self._installed:
            return
        threading.Lock = self._saved["Lock"]
        threading.RLock = self._saved["RLock"]
        # bound methods are re-created per access, so compare owners
        hook = getattr(threading, _HOOK_ATTR, None)
        if getattr(hook, "__self__", None) is self:
            delattr(threading, _HOOK_ATTR)
        self._installed = False

    def __enter__(self) -> "LockOrderSanitizer":
        return self.install()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.uninstall()
        if exc_type is None:
            self.check()
        return False

    # -- tracking ------------------------------------------------------- #

    def _note_acquire(self, lock: _TrackedLock, site: str) -> None:
        tid = _thread.get_ident()
        with self._state_lock:
            held = self._held[tid]
            for entry in held:
                if entry[0] is lock:  # reentrant re-acquire: no new edges
                    entry[1] += 1
                    return
            for entry in held:
                key = (entry[0].name, lock.name)
                if key not in self._edges:
                    self._edges[key] = {"thread": tid, "at": site}
            held.append([lock, 1])

    def _note_release(self, lock: _TrackedLock, full: bool = False) -> None:
        tid = _thread.get_ident()
        with self._state_lock:
            held = self._held[tid]
            for i, entry in enumerate(held):
                if entry[0] is lock:
                    entry[1] = 0 if full else entry[1] - 1
                    if entry[1] <= 0:
                        del held[i]
                    return

    # -- judgement ------------------------------------------------------ #

    def checkpoint(self, label: str) -> None:
        """Record a violation if the calling thread holds tracked locks."""
        tid = _thread.get_ident()
        with self._state_lock:
            held = [entry[0].name for entry in self._held.get(tid, [])]
            if held:
                self._violations.append(
                    {"type": "held_at_checkpoint", "label": label,
                     "locks": held, "thread": tid}
                )

    def held_now(self) -> list[str]:
        tid = _thread.get_ident()
        with self._state_lock:
            return [entry[0].name for entry in self._held.get(tid, [])]

    def edges(self) -> dict[tuple, dict]:
        with self._state_lock:
            return dict(self._edges)

    def cycles(self) -> list[list[str]]:
        """Lock-order cycles (each a list of lock names, in edge order)."""
        edges = self.edges()
        graph: dict[str, set] = defaultdict(set)
        for a, b in edges:
            graph[a].add(b)
            graph.setdefault(b, set())
        out: list[list[str]] = []
        state: dict[str, int] = {}  # 1 = on stack, 2 = done

        def dfs(node: str, path: list[str]):
            state[node] = 1
            path.append(node)
            for nxt in sorted(graph[node]):
                mark = state.get(nxt)
                if mark == 1:
                    out.append(path[path.index(nxt):] + [nxt])
                elif mark is None:
                    dfs(nxt, path)
            path.pop()
            state[node] = 2

        for node in sorted(graph):
            if node not in state:
                dfs(node, [])
        return out

    def violations(self) -> list[dict]:
        with self._state_lock:
            return list(self._violations)

    def report(self) -> dict:
        cycles = self.cycles()
        edges = self.edges()
        return {
            "locks": len(self._locks),
            "edges": len(edges),
            "cycles": cycles,
            "checkpoint_violations": self.violations(),
            "ok": not cycles and not self._violations,
        }

    def check(self) -> None:
        """Raise :class:`LockOrderViolation` on cycles or held checkpoints."""
        report = self.report()
        if report["ok"]:
            return
        problems = []
        for cycle in report["cycles"]:
            problems.append("lock-order cycle: " + " -> ".join(cycle))
        for violation in report["checkpoint_violations"]:
            problems.append(
                f"locks {violation['locks']} held across fault-injection "
                f"point {violation['label']!r}"
            )
        raise LockOrderViolation("; ".join(problems))

    # -- export --------------------------------------------------------- #

    def export_jsonl(self, path: str | Path) -> Path:
        """Write the witness graph (locks, edges, violations, summary)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = []
        with self._state_lock:
            for name, site in sorted(self._locks.items()):
                lines.append({"type": "lock", "name": name, "created_at": site})
            for (a, b), witness in sorted(self._edges.items()):
                lines.append({"type": "edge", "from": a, "to": b, **witness})
            for violation in self._violations:
                lines.append({"type": "violation", **violation})
        lines.append({"type": "summary", **self.report()})
        from ..ioutil import atomic_write_text

        return atomic_write_text(
            path, "".join(json.dumps(line) + "\n" for line in lines)
        )
