"""Persistent worker-pool runtime: the one way work leaves the process.

Every fan-out of :func:`repro.parallel.executor.map_timesteps` runs on a
:class:`WorkerPool` — the caller's, or one the map opens and closes for
itself.  A pipeline that issues a map per stage (classify all steps,
generate TFs, render all steps) passes one resident pool to all of them
and pays the spawn cost once per run, not per map:

- **lazy spawn**: workers fork/spawn on the first dispatched task, never
  before, so constructing a pool is free;
- **reuse**: ``map_timesteps(pool=...)``, ``classify_sequence(pool=...)``,
  ``render_sequence(pool=...)``, a multi-worker
  :class:`~repro.run.runner.PipelineRunner` and the serve daemon all
  dispatch onto the same resident workers;
- **crash detection + respawn**: a worker that dies mid-task (OOM kill,
  segfault, the fault injector's SIGKILL crash mode) is detected through
  its process sentinel, the attempt it carried fails as a structured
  ``WorkerCrash`` error that flows through the *existing* retry policy,
  and a fresh worker takes its slot;
- **broadcast registry**: :meth:`WorkerPool.broadcast` registers an
  object a run's tasks share (a trained network, an IATF, a camera, a
  step's volume) and task payloads carry a ~50-byte
  :class:`BroadcastRef` in its place.  The registry is handed to each
  worker at fork, so a worker forked after a registration starts with
  the object and nothing crosses its pipe (a respawned worker inherits
  the live registry).  A worker forked before it receives the pickled
  blob once, the first time one of its tasks references it.
  :meth:`WorkerPool.release` ends a registration (counted per key) in
  the parent and in every worker that holds it;
- **futures**: :meth:`WorkerPool.submit` returns a :class:`PoolFuture`
  with done-callbacks, which is how the runner's dispatcher persists
  each artifact in the parent and submits each step's render from its
  TF's callback, overlapping ``render(t)`` of early steps with ``tf(t')``
  of late ones.

Completion is event-driven — the scheduler sleeps in
``multiprocessing.connection.wait`` on the worker pipes and process
sentinels, waking only for a result, a death, a retry-backoff deadline,
or a per-attempt timeout.  There is no polling loop.

Scheduling is parent-driven: each worker holds at most one task, so the
parent always knows which task died with which worker (a task popped
from a shared queue by a worker that crashes pre-acknowledgement would
be lost silently).  Retry bookkeeping stays in the caller via the
``on_attempt_fail`` hook — :func:`map_timesteps` passes its ``_MapState``
so counters, backoff, and ``on_error`` semantics are byte-identical to
an in-process map.
"""

from __future__ import annotations

import concurrent.futures
import heapq
import multiprocessing as mp
import os
import pickle
import queue
import threading
import time
import traceback
from collections import Counter, deque
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any

import numpy as np

from repro.obs import get_metrics
from repro.parallel.bricking import content_digest
from repro.parallel.executor import (
    RetryPolicy,
    TaskError,
    TaskFailure,
    _as_policy,
    _check_workers,
    _run_attempt,
    _timeout_error,
)


class PoolError(RuntimeError):
    """The pool cannot service the request (closed, bad ref, ...)."""


@dataclass(frozen=True)
class BroadcastRef:
    """Tiny picklable stand-in for a broadcast object in a task payload."""

    digest: str

    def __repr__(self) -> str:  # keep payload reprs/logs short
        return f"BroadcastRef({self.digest[:12]}...)"


class _Registration:
    """One registered broadcast and the number of registrations holding it.

    A content-keyed registration holds the pickled ``blob`` taken at
    registration, so every worker sees the object as it was then.  A
    caller-keyed one holds the object itself (``blob`` is ``None``) and
    reaches only workers forked after it, which share its pages; its
    caller must not mutate it while it is registered.
    """

    __slots__ = ("obj", "blob", "count")

    def __init__(self, obj, blob: bytes | None) -> None:
        self.obj = obj
        self.blob = blob
        self.count = 0

    def load(self):
        """The object, as a worker that inherited this registration sees it."""
        return self.obj if self.blob is None else pickle.loads(self.blob)


class _WorkerRegistry(dict):
    """A worker's resolved broadcasts: shipped ones land here, inherited
    ones are loaded from the registry the worker forked with on first use."""

    def __init__(self, inherited: dict) -> None:
        super().__init__()
        self.inherited = inherited

    def __missing__(self, key: str):
        obj = self[key] = self.inherited[key].load()
        return obj

    def drop(self, keys) -> None:
        for key in keys:
            self.pop(key, None)
            self.inherited.pop(key, None)


def resolve_broadcasts(obj, registry: dict):
    """Replace every :class:`BroadcastRef` in a payload with its object.

    Walks tuples, lists, and dict values (the shapes task payloads are
    built from); any other container passes through untouched.
    """
    if isinstance(obj, BroadcastRef):
        try:
            return registry[obj.digest]
        except KeyError:
            raise PoolError(f"unknown broadcast digest {obj.digest[:12]}...") from None
    if isinstance(obj, tuple):
        return tuple(resolve_broadcasts(v, registry) for v in obj)
    if isinstance(obj, list):
        return [resolve_broadcasts(v, registry) for v in obj]
    if isinstance(obj, dict):
        return {k: resolve_broadcasts(v, registry) for k, v in obj.items()}
    return obj


def _collect_refs(obj, out: set) -> None:
    if isinstance(obj, BroadcastRef):
        out.add(obj.digest)
    elif isinstance(obj, (tuple, list)):
        for v in obj:
            _collect_refs(v, out)
    elif isinstance(obj, dict):
        for v in obj.values():
            _collect_refs(v, out)


def _worker_main(conn, inherited: dict) -> None:
    """Resident worker loop: one task at a time, outcomes sent back on
    the same duplex pipe.  Never raises — task exceptions travel back as
    ``(type, message, traceback)`` text.

    ``inherited`` is the parent's broadcast registry as it stood when
    this worker forked; blobs registered later arrive as ``broadcast``
    messages, and ``drop`` messages end released ones.
    """
    broadcasts = _WorkerRegistry(inherited)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        kind = message[0]
        if kind == "stop":
            break
        if kind == "broadcast":
            _, digest, blob = message
            broadcasts[digest] = pickle.loads(blob)
            continue
        if kind == "drop":
            broadcasts.drop(message[1])
            continue
        # ("task", task_id, fn, item, attempt, injector, fault_index)
        _, task_id, fn, item, attempt, injector, fault_index = message
        ok, result, elapsed, error = _run_attempt(
            lambda payload: fn(resolve_broadcasts(payload, broadcasts)),
            item, attempt, injector, fault_index)
        try:
            conn.send((task_id, ok, result, elapsed, error))
        except Exception as exc:  # noqa: BLE001 - unpicklable result
            conn.send((task_id, False, None, elapsed,
                       (type(exc).__name__, f"result transport failed: {exc}",
                        traceback.format_exc())))
    conn.close()


class PoolFuture:
    """Outcome handle for one :meth:`WorkerPool.submit` call.

    Resolves once the task has either succeeded or exhausted its retry
    budget.  ``done_callbacks`` fire in the parent process, inside the
    pool's service loop (:meth:`WorkerPool.wait`) — a callback may submit
    follow-up tasks.  The run dispatcher
    (:meth:`repro.run.runner.PipelineRunner._wave`) persists artifacts
    from these callbacks and chains ``tf(t) -> render(t)`` through them.
    """

    def __init__(self, pool: "WorkerPool", index: int) -> None:
        self._pool = pool
        self.index = index
        self._done = False
        self.value = None
        self.failure: TaskFailure | None = None
        self.elapsed = 0.0
        self.attempts = 0
        self._callbacks: list = []

    def done(self) -> bool:
        """Whether the task has finished (successfully or not)."""
        return self._done

    @property
    def ok(self) -> bool:
        """Whether the task finished successfully."""
        return self._done and self.failure is None

    def add_done_callback(self, fn) -> None:
        """Run ``fn(self)`` when the future resolves (immediately if done)."""
        if self._done:
            fn(self)
        else:
            self._callbacks.append(fn)

    def result(self):
        """Block (servicing the pool) until resolved; raise on failure."""
        self._pool._pump(lambda: self._done)
        if self.failure is not None:
            raise TaskError(self.failure)
        return self.value

    def _resolve(self, value, elapsed: float, failure: TaskFailure | None) -> None:
        self.value = value
        self.elapsed = elapsed
        self.failure = failure
        self._done = True
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            fn(self)


class _Task:
    """Parent-side record of one submitted task across its attempts."""

    __slots__ = ("task_id", "fn", "item", "index", "attempt", "injector",
                 "fault_index", "policy", "on_fail", "future", "refs",
                 "deadline", "cancelled")

    def __init__(self, task_id, fn, item, index, injector, fault_index,
                 policy, on_fail, future, refs):
        self.task_id = task_id
        self.fn = fn
        self.item = item
        self.index = index
        self.attempt = 1
        self.injector = injector
        self.fault_index = fault_index
        self.policy = policy
        self.on_fail = on_fail
        self.future = future
        self.refs = refs
        self.deadline = None      # per-attempt wall deadline while dispatched
        self.cancelled = False


class _WorkerSlot:
    """One resident worker process plus its duplex pipe and broadcast ledger.

    ``abandoned`` marks the attempt running in ``busy`` as one the parent
    stopped waiting for (timed out or cancelled): its result is dropped
    when it arrives, and :meth:`WorkerPool.close` kills the worker instead
    of joining it.  The flag lives on the slot, not the task,
    because a timed-out task may already be retrying on another worker.

    ``held`` is the ledger of broadcast keys the worker holds: those
    registered when it forked, plus those shipped to it since.
    """

    __slots__ = ("process", "conn", "busy", "abandoned", "held")

    def __init__(self, process, conn, held: set):
        self.process = process
        self.conn = conn
        self.busy: _Task | None = None
        self.abandoned = False
        self.held = held


class WorkerPool:
    """A long-lived process pool shared across maps, stages, and runs.

    Parameters
    ----------
    workers:
        Resident worker count (default 1, same as the farm).
        Workers fork where available (cheap, shares the parent's pages)
        and spawn elsewhere.

    Use as a context manager (or call :meth:`close`) so the resident
    workers are reaped deterministically::

        with WorkerPool(workers=4) as pool:
            clf_ref = pool.broadcast(classifier)
            out = map_timesteps(fn, payloads, pool=pool)      # map 1
            out = map_timesteps(fn2, payloads2, pool=pool)    # map 2: no respawn
            pool.release([clf_ref])
    """

    def __init__(self, workers: int = 1) -> None:
        self.workers = _check_workers(workers)
        # Typed Any: the stubs' BaseContext (what a str method yields) lacks
        # the ``Process`` attribute every concrete context has.
        self._ctx: Any = mp.get_context("fork" if hasattr(os, "fork") else "spawn")
        self._slots: list[_WorkerSlot] = []
        self._ready: deque[_Task] = deque()
        self._delayed: list = []            # heap of (eligible_at, seq, task)
        self._broadcasts: dict[str, _Registration] = {}
        self._seq = 0
        self._next_task_id = 0
        self._closed = False
        self.respawns = 0
        self.spawned = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def started_workers(self) -> int:
        """Workers currently resident (0 before the first dispatch)."""
        return sum(1 for s in self._slots if s.process.is_alive())

    def pids(self) -> list[int]:
        """PIDs of the live resident workers (for chaos tests)."""
        return [s.process.pid for s in self._slots if s.process.is_alive()]

    def prespawn(self) -> int:
        """Spawn every worker slot now instead of lazily; returns the count.

        Normally spawning is deferred to the first dispatched task.  A
        long-lived multi-threaded host (the serve daemon) wants the forks
        to happen at startup, while the process is still effectively
        single-threaded — forking later, with an event loop mid-mutation
        in another thread, can copy held locks into the child.
        """
        if self._closed:
            raise PoolError("cannot prespawn on a closed pool")
        while len(self._live_slots()) < self.workers:
            self._slots.append(self._spawn_slot())
        return len(self._live_slots())

    # ------------------------------------------------------------------ #
    # Broadcast registry
    # ------------------------------------------------------------------ #
    def broadcast(self, obj, key: str | None = None) -> BroadcastRef:
        """Register an object tasks share; returns the ref to embed in payloads.

        Without ``key`` the object is pickled once, here, and keyed by the
        blob's digest, so workers see it as it is now.  Workers forked
        after this call start with it; the others receive the blob once.
        ``key`` names the object's content instead (the runner passes a
        volume's digest folded with its time and name, so no voxel is
        hashed twice): the object is registered as it is, must not be
        mutated until released, and is never pickled, so it needs a pool
        whose workers have not forked yet.  Each call is one
        registration, ended by :meth:`release`.
        """
        if self._closed:
            raise PoolError("cannot broadcast on a closed pool")
        if key is not None and self._slots:
            raise PoolError("a keyed broadcast reaches only workers forked after "
                            "it; this pool's workers are running")
        blob = None
        if key is None:
            blob = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
            key = content_digest(np.frombuffer(blob, dtype=np.uint8))
            obj = None          # the blob is the snapshot workers see
        entry = self._broadcasts.get(key)
        if entry is None:
            entry = self._broadcasts[key] = _Registration(obj, blob)
        entry.count += 1
        return BroadcastRef(key)

    def release(self, refs) -> None:
        """End one registration per ref.  A key whose last registration
        ends leaves the registry and every worker that holds it; releasing
        the last registration of a key a pending task references raises
        :class:`PoolError`, as does releasing a key not registered."""
        counts = Counter(ref.digest for ref in refs)
        for key, n in counts.items():
            entry = self._broadcasts.get(key)
            if entry is None or entry.count < n:
                raise PoolError(f"broadcast {key[:12]}... is not registered")
        ended = {key for key, n in counts.items() if self._broadcasts[key].count == n}
        held = ended & self._pending_refs()
        if held:
            raise PoolError(f"cannot release broadcast(s) {[k[:12] for k in held]}: "
                            f"a pending task references them")
        for key, n in counts.items():
            self._broadcasts[key].count -= n
        for key in ended:
            del self._broadcasts[key]
        for slot in self._slots:
            dropped = ended & slot.held
            if dropped:
                slot.held -= dropped
                self._send_quietly(slot, ("drop", sorted(dropped)))

    def _pending_refs(self) -> set:
        """Keys referenced by tasks queued, backing off or running."""
        tasks = [*self._ready, *(entry[2] for entry in self._delayed),
                 *(slot.busy for slot in self._slots if slot.busy is not None)]
        return {key for task in tasks if not task.cancelled and not task.future.done()
                for key in task.refs}

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, fn, item, *, index: int = 0,
               retry: RetryPolicy | int | None = None,
               injector=None, fault_index: int | None = None,
               on_attempt_fail=None) -> PoolFuture:
        """Schedule ``fn(item)`` on a resident worker; returns a future.

        ``retry`` follows :func:`map_timesteps` semantics (a policy, a
        bare int of retries, or ``None`` for no retries).  Each failed
        attempt is reported to ``on_attempt_fail(index, attempt, elapsed,
        error)``, which returns the backoff delay for a retry or ``None``
        to finalize the failure — :func:`map_timesteps` wires its own
        ``_MapState.fail`` here so the map semantics (counters,
        ``on_error="raise"``/``"skip"``) are shared; bare submits get a
        default handler with the same counter behaviour.
        """
        if self._closed:
            raise PoolError("cannot submit to a closed pool")
        policy = _as_policy(retry)
        if on_attempt_fail is None:
            on_attempt_fail = self._default_fail_handler(policy)
        refs: set = set()
        _collect_refs(item, refs)
        missing = [d for d in refs if d not in self._broadcasts]
        if missing:
            raise PoolError(f"payload references unknown broadcast digest(s) "
                            f"{[d[:12] for d in missing]}")
        future = PoolFuture(self, index)
        task = _Task(self._next_task_id, fn, item, index, injector,
                     index if fault_index is None else fault_index,
                     policy, on_attempt_fail, future, refs)
        self._next_task_id += 1
        self._ready.append(task)
        get_metrics().counter("pool.tasks").inc()
        self._dispatch()
        return future

    def _default_fail_handler(self, policy: RetryPolicy):
        metrics = get_metrics()

        def handle(index: int, attempt: int, elapsed: float, error) -> float | None:
            if error[0] == "TaskTimeout":
                metrics.counter("executor.timeouts").inc()
            if attempt <= policy.max_retries:
                metrics.counter("executor.retries").inc()
                return policy.delay(attempt)
            metrics.counter("executor.failures").inc()
            return None

        return handle

    # ------------------------------------------------------------------ #
    # Waiting
    # ------------------------------------------------------------------ #
    def wait(self, futures) -> None:
        """Service the pool until every given future has resolved."""
        futures = list(futures)
        self._pump(lambda: all(f.done() for f in futures))

    def cancel(self, futures) -> None:
        """Drop the unresolved futures in the list.

        Queued attempts are discarded; an attempt already running on a
        worker is abandoned (its eventual result is ignored; the slot
        frees when the call returns, exactly like a timed-out attempt).
        Each cancelled future resolves with a ``Cancelled`` failure.
        """
        pending = {id(f) for f in futures if not f.done()}
        if not pending:
            return
        kept = []
        for entry in self._delayed:
            if id(entry[2].future) in pending:
                entry[2].cancelled = True
                self._finalize_cancel(entry[2])
            else:
                kept.append(entry)
        if len(kept) != len(self._delayed):
            self._delayed = kept
            heapq.heapify(self._delayed)
        # Cancelled entries stay queued; ``_next_ready`` discards them.
        for task in self._ready:
            if id(task.future) in pending:
                task.cancelled = True
                self._finalize_cancel(task)
        for slot in self._slots:
            task = slot.busy
            if task is not None and id(task.future) in pending:
                slot.abandoned = True
                task.cancelled = True
                self._finalize_cancel(task)

    def _finalize_cancel(self, task: _Task) -> None:
        if not task.future.done():
            task.future._resolve(None, 0.0, TaskFailure(
                task.index, task.attempt, "Cancelled",
                "task cancelled before completion"))

    # ------------------------------------------------------------------ #
    # Scheduler internals
    # ------------------------------------------------------------------ #
    def _spawn_slot(self) -> _WorkerSlot:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        # Forked, the worker starts with the live registry; nothing of it
        # crosses the pipe.
        process = self._ctx.Process(target=_worker_main,
                                    args=(child_conn, self._broadcasts), daemon=True)
        process.start()
        child_conn.close()
        self.spawned += 1
        get_metrics().counter("pool.spawns").inc()
        return _WorkerSlot(process, parent_conn, set(self._broadcasts))

    def _dispatch(self) -> None:
        """Hand queued tasks to idle workers, spawning lazily up to the cap."""
        while True:
            task = self._next_ready()
            if task is None:
                return
            slot = self._idle_slot()
            if slot is None:
                self._ready.appendleft(task)
                return
            self._send_task(slot, task)

    def _next_ready(self) -> _Task | None:
        while self._ready:
            task = self._ready.popleft()
            if not task.cancelled:
                return task
        return None

    def _idle_slot(self) -> _WorkerSlot | None:
        for slot in self._slots:
            if slot.busy is None and slot.process.is_alive():
                return slot
        if len(self._live_slots()) < self.workers:
            slot = self._spawn_slot()
            self._slots.append(slot)
            return slot
        return None

    def _live_slots(self) -> list[_WorkerSlot]:
        return [s for s in self._slots if s.process.is_alive()]

    def _send_task(self, slot: _WorkerSlot, task: _Task) -> None:
        try:
            for key in sorted(task.refs - slot.held):
                blob = self._broadcasts[key].blob
                slot.conn.send(("broadcast", key, blob))
                slot.held.add(key)
                get_metrics().counter("pool.broadcast.sends").inc()
                get_metrics().counter("pool.broadcast.bytes").inc(len(blob))
            slot.conn.send(("task", task.task_id, task.fn, task.item,
                            task.attempt, task.injector, task.fault_index))
        except (BrokenPipeError, OSError):
            # The worker died between dispatch decisions; treat it like a
            # mid-task crash so the attempt flows through the retry policy.
            self._handle_dead_slot(slot, task)
            return
        slot.busy = task
        task.deadline = (None if task.policy.timeout is None
                         else time.monotonic() + task.policy.timeout)

    @staticmethod
    def _send_quietly(slot: _WorkerSlot, message) -> None:
        """Send a message a dead worker may miss: its death is handled
        where the pump sees its sentinel."""
        try:
            slot.conn.send(message)
        except (BrokenPipeError, OSError):
            pass

    def _pump(self, satisfied) -> None:
        """Run the event loop until ``satisfied()`` — the only wait point."""
        while not satisfied():
            self._dispatch()
            if satisfied():
                return
            timeout = self._next_deadline()
            waitables = []
            for slot in self._slots:
                waitables.append(slot.conn)
                waitables.append(slot.process.sentinel)
            if not waitables and timeout is None:
                if satisfied():
                    return
                raise PoolError("pool deadlock: nothing in flight, nothing delayed, "
                                "and the wait condition is unsatisfied")
            ready = connection.wait(waitables, timeout)
            now = time.monotonic()
            ready_set = set(ready)
            for slot in list(self._slots):
                if slot.conn in ready_set:
                    self._drain_slot(slot)
            for slot in list(self._slots):
                if (slot.process.sentinel in ready_set
                        and not slot.process.is_alive()):
                    self._handle_dead_slot(slot, slot.busy)
            self._expire_timeouts(now)
            self._promote_delayed(now)

    def _next_deadline(self) -> float | None:
        """Seconds until the next backoff-eligibility or attempt timeout."""
        candidates = []
        if self._delayed:
            candidates.append(self._delayed[0][0])
        for slot in self._slots:
            if slot.busy is not None and slot.busy.deadline is not None:
                candidates.append(slot.busy.deadline)
        if not candidates:
            return None
        return max(0.0, min(candidates) - time.monotonic())

    def _drain_slot(self, slot: _WorkerSlot) -> None:
        while slot.conn.poll():
            try:
                task_id, ok, result, elapsed, error = slot.conn.recv()
            except (EOFError, OSError):
                # Death with a partial write: the sentinel pass handles it.
                return
            task, abandoned = slot.busy, slot.abandoned
            slot.busy, slot.abandoned = None, False
            if task is None or task.task_id != task_id or abandoned:
                continue   # stale result of an abandoned/timed-out attempt
            if ok:
                task.future.attempts = task.attempt
                task.future._resolve(result, elapsed, None)
            else:
                self._attempt_failed(task, elapsed, error)

    def _handle_dead_slot(self, slot: _WorkerSlot, task: _Task | None) -> None:
        """A worker died: fail its in-flight attempt, retire the slot."""
        try:
            slot.conn.close()
        except OSError:
            pass
        exitcode = slot.process.exitcode
        if slot in self._slots:
            self._slots.remove(slot)
        self.respawns += 1
        get_metrics().counter("pool.respawns").inc()
        if task is None or slot.abandoned or task.cancelled:
            return
        error = ("WorkerCrash",
                 f"worker pid {slot.process.pid} died with exitcode {exitcode} "
                 f"while running item {task.index} (attempt {task.attempt})", "")
        self._attempt_failed(task, 0.0, error)

    def _attempt_failed(self, task: _Task, elapsed: float, error) -> None:
        delay = task.on_fail(task.index, task.attempt, elapsed, error)
        if delay is None:
            task.future.attempts = task.attempt
            task.future._resolve(None, elapsed, TaskFailure(
                task.index, task.attempt, error[0], error[1], error[2]))
            return
        task.attempt += 1
        task.deadline = None
        if delay > 0:
            self._seq += 1
            heapq.heappush(self._delayed, (time.monotonic() + delay, self._seq, task))
        else:
            self._ready.append(task)

    def _expire_timeouts(self, now: float) -> None:
        for slot in self._slots:
            task = slot.busy
            if (task is None or slot.abandoned or task.deadline is None
                    or now <= task.deadline):
                continue
            # Abandon the attempt; the slot frees when the stuck call
            # eventually returns, or when close() kills the worker.
            slot.abandoned = True
            self._attempt_failed(task, 0.0, _timeout_error(task.policy.timeout))

    def _promote_delayed(self, now: float) -> None:
        while self._delayed and self._delayed[0][0] <= now:
            _, _, task = heapq.heappop(self._delayed)
            if not task.cancelled:
                self._ready.append(task)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self, timeout: float = 5.0) -> None:
        """Stop and reap the resident workers (idempotent).

        A worker still running an abandoned attempt (timed out or
        cancelled) is killed at once instead of joined: nothing will
        read its result, and waiting out the stuck call would add up to
        ``timeout`` seconds to every map that abandoned an attempt.
        """
        if self._closed:
            return
        self._closed = True
        for slot in self._slots:
            if slot.abandoned:
                slot.process.kill()
                continue
            self._send_quietly(slot, ("stop",))
        deadline = time.monotonic() + timeout
        for slot in self._slots:
            slot.process.join(max(0.0, deadline - time.monotonic()))
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(1.0)
            try:
                slot.conn.close()
            except OSError:
                pass
        self._slots = []

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close(timeout=0.5)
        except Exception:  # noqa: BLE001
            pass


class PoolDispatcher:
    """Thread-confined driver for a resident pool: the bridge that lets an
    event loop (or any thread) run pool-backed work safely.

    A :class:`WorkerPool` is deliberately single-threaded: its scheduler
    state (slots, queues, the ``connection.wait`` pump) is only
    consistent when one thread drives it.  An asyncio server cannot call
    ``map_timesteps(pool=...)`` from handler coroutines — every handler
    runs on the loop thread, and the pump would block the loop.  The
    dispatcher solves both at once: it owns one dedicated daemon thread
    plus the pool, executes submitted jobs **on that thread, one at a
    time, in submission order**, and hands the caller a
    :class:`concurrent.futures.Future` (which asyncio adapts with
    ``asyncio.wrap_future``).  A job is any callable; because it runs on
    the pool's home thread it may freely drive the pool —
    ``map_timesteps(pool=dispatcher.pool)``, ``pool.submit``/``wait`` —
    and fan its work across the resident workers.

    Jobs serialize against each other by design: one pool, one set of
    workers, so two concurrent pool-backed jobs would only contend.  The
    serve daemon layers request coalescing and a bounded queue on top.

    ``prespawn=True`` spawns the pool's workers as the dispatcher's
    first job, so the forks happen at startup before the host process
    grows threads (see :meth:`WorkerPool.prespawn`).
    """

    def __init__(self, workers: int = 1, prespawn: bool = False) -> None:
        self._pool = WorkerPool(workers=workers)
        self._jobs: queue.SimpleQueue = queue.SimpleQueue()
        self._closed = False
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro-pool-dispatcher")
        self._thread.start()
        if prespawn and self._pool.workers > 1:
            self.submit(self._pool.prespawn)

    @property
    def pool(self) -> WorkerPool:
        """The owned pool — only touch it from inside a submitted job."""
        return self._pool

    def pending(self) -> int:
        """Jobs enqueued but not yet picked up (approximate, lock-free)."""
        return self._jobs.qsize()

    def submit(self, fn, *args, **kwargs) -> concurrent.futures.Future:
        """Schedule ``fn(*args, **kwargs)`` on the dispatcher thread.

        Thread-safe; returns immediately.  The future resolves with the
        job's return value or exception.  Cancelling the future works
        until the job starts (standard ``concurrent.futures`` semantics).
        """
        if self._closed:
            raise PoolError("cannot submit to a closed dispatcher")
        future: concurrent.futures.Future = concurrent.futures.Future()
        self._jobs.put((future, fn, args, kwargs))
        return future

    def _run(self) -> None:
        while True:
            job = self._jobs.get()
            if job is None:
                break
            future, fn, args, kwargs = job
            if not future.set_running_or_notify_cancel():
                continue
            try:
                future.set_result(fn(*args, **kwargs))
            except BaseException as exc:  # noqa: BLE001 - future owns policy
                future.set_exception(exc)

    def close(self, timeout: float = 10.0) -> None:
        """Stop accepting jobs, drain the queue, reap the pool (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._jobs.put(None)
        self._thread.join(timeout)
        self._pool.close()

    def __enter__(self) -> "PoolDispatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
