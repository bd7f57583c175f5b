"""Per-timestep task farm (the paper's PC-cluster substitution).

Applying a trained network (or generating an IATF, or rendering) is
embarrassingly parallel across time steps, and the per-step map is the
one unit of fan-out in this repository.  :func:`map_timesteps` maps a
picklable function over a sequence of work items, and one rule
(:func:`fans_out`) decides where it runs:

- a caller's resident :class:`~repro.parallel.pool.WorkerPool` always
  runs the map (one Python process per worker ≙ one cluster node);
- otherwise ``workers > 1`` over more than one item opens a pool for
  the map and closes it on return;
- otherwise the map runs in-process, the deterministic reference.

Results always come back in submission order regardless of completion
order, and per-item wall times are recorded.

Unlike a bare ``Pool.map``, the farm is fault tolerant and observable —
the properties a real cluster deployment (paper Sec. 8) cannot live
without:

- ``retry=n`` runs a failed attempt (an exception, or on a pool a dead
  worker) again at once, up to ``n`` more times: a step is independent
  of every other step, so a failed step only has to run again, on a
  fresh worker if its worker died;
- when retries are exhausted the failure surfaces as a structured
  :class:`TaskError` carrying the item index, attempt count, and the
  remote traceback (the lowest failed index, wherever the map runs) —
  or, with ``on_error="skip"``, the map degrades gracefully: completed
  results are kept (failed slots hold ``None``) and each casualty is
  recorded as a :class:`TaskFailure`;
- a deterministic fault-injection hook
  (:class:`repro.parallel.faults.FaultInjector`, also armable via
  ``REPRO_FAULT_INJECT``) makes every one of those paths testable in CI;
- counters and spans land in :mod:`repro.obs` (``executor.tasks``,
  ``executor.retries``, ``executor.failures``).
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass, field

from repro.obs import get_metrics
from repro.parallel.faults import FaultInjector, as_injector


@dataclass(frozen=True)
class TaskFailure:
    """One task that exhausted its retry budget.

    Attributes
    ----------
    index:
        Position of the failed item in the submitted sequence.
    attempts:
        Attempts made (the map's ``retry`` count + 1).
    error_type, message:
        Exception class name and message of the *final* attempt.
    remote_traceback:
        The worker-side traceback, formatted where the exception was
        raised (empty for a worker death, which has no frame).
    """

    index: int
    attempts: int
    error_type: str
    message: str
    remote_traceback: str = ""

    def describe(self) -> str:
        """Human-readable one-failure report, traceback included."""
        text = (f"item {self.index} failed after {self.attempts} attempt(s): "
                f"{self.error_type}: {self.message}")
        if self.remote_traceback:
            text += f"\n--- remote traceback ---\n{self.remote_traceback.rstrip()}"
        return text


class TaskError(RuntimeError):
    """A task exhausted its retries and ``on_error`` was ``"raise"``."""

    def __init__(self, failure: TaskFailure) -> None:
        super().__init__(failure.describe())
        self.failure = failure

    @property
    def index(self) -> int:
        """Index of the item whose task failed."""
        return self.failure.index


@dataclass
class MapResult:
    """Outcome of one :func:`map_timesteps` call.

    Attributes
    ----------
    results:
        Function outputs in submission order.  With ``on_error="skip"``
        a failed item's slot holds ``None`` (alignment with ``items`` is
        preserved; consult :attr:`failures` for what went wrong).
    elapsed:
        Total wall-clock seconds for the whole map.
    backend:
        Where the map ran: ``"serial"`` (in-process), ``"process"`` (a
        pool opened for this map) or ``"pool"`` (the caller's pool).
    workers:
        Worker count actually used.
    item_times:
        Per-item wall seconds of the *successful* attempt, measured
        inside the worker (for a failed item: the final attempt's
        duration; 0.0 for a worker death).
    failures:
        :class:`TaskFailure` records, only populated under
        ``on_error="skip"`` (``on_error="raise"`` raises instead).
    retries:
        Total retry attempts made across all items.
    """

    results: list
    elapsed: float
    backend: str
    workers: int
    item_times: list[float] = field(default_factory=list)
    failures: list[TaskFailure] = field(default_factory=list)
    retries: int = 0

    @property
    def throughput(self) -> float:
        """Items per second (0.0 when the map took no measurable time)."""
        return len(self.results) / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def ok(self) -> bool:
        """Whether every item produced a result."""
        return not self.failures

    @property
    def n_completed(self) -> int:
        """Count of items that produced a result."""
        return len(self.results) - len(self.failures)

    def completed(self) -> list[tuple[int, object]]:
        """``(index, result)`` pairs for the items that succeeded."""
        failed = {f.index for f in self.failures}
        return [(i, r) for i, r in enumerate(self.results) if i not in failed]


def _check_workers(workers: int) -> int:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


def fans_out(workers: int, n_items: int, pool=None) -> bool:
    """Whether a map of ``n_items`` runs on worker processes.

    The one placement rule of every per-step map: a passed ``pool``
    always runs it; otherwise more than one worker over more than one
    item opens a pool for the map; otherwise it runs in-process.
    Callers use it to decide payloads (broadcast refs onto a pool, cache
    clones for workers) before building them.
    """
    workers = _check_workers(workers)
    return pool is not None or (workers > 1 and n_items > 1)


def _run_attempt(fn, item, attempt: int, injector, fault_index: int) -> tuple:
    """Run one attempt of one task; never raise.

    Returns ``(ok, result, elapsed, error)`` where ``error`` is ``None``
    or ``(type_name, message, formatted_traceback)``.  ``fault_index`` is
    the index the injector is consulted with — it differs from the item's
    own index when the caller numbers tasks across several maps
    (``fault_index_offset``).  Catching here carries the *remote*
    traceback back across the process boundary as plain text.
    """
    start = time.perf_counter()
    try:
        if injector is not None:
            injector.maybe_raise(fault_index, attempt)
        result = fn(item)
    except Exception as exc:  # noqa: BLE001 - the farm owns error policy
        return (False, None, time.perf_counter() - start,
                (type(exc).__name__, str(exc), traceback.format_exc()))
    return True, result, time.perf_counter() - start, None


def _check_retry(retry) -> int:
    """``retry=`` as a count: ``None`` (no retries) or an int >= 0."""
    if retry is None:
        return 0
    if isinstance(retry, bool) or not isinstance(retry, int) or retry < 0:
        raise ValueError(f"retry must be None or an int >= 0, got {retry!r}")
    return retry


def _retry_again(attempt: int, retries: int) -> bool:
    """The one retry rule, in-process and on a pool: whether failed attempt
    ``attempt`` (1-based) of a task allowed ``retries`` retries runs again.
    Counts it in ``executor.retries``, or in ``executor.failures`` when final."""
    again = attempt <= retries
    get_metrics().counter("executor.retries" if again else "executor.failures").inc()
    return again


class _MapState:
    """Outcomes of one map, settled in item order by either placement."""

    def __init__(self, n: int, on_error: str) -> None:
        self.results: list = [None] * n
        self.item_times = [0.0] * n
        self.failures: list[TaskFailure] = []
        self.retries = 0
        self.on_error = on_error

    def settle(self, index: int, result, elapsed: float, attempts: int,
               failure: TaskFailure | None) -> None:
        """Record item ``index``'s outcome; a failure raises under ``"raise"``."""
        self.retries += attempts - 1
        self.item_times[index] = elapsed
        if failure is None:
            self.results[index] = result
        elif self.on_error == "raise":
            raise TaskError(failure)
        else:
            self.failures.append(failure)


def _map_serial(fn, items, state: _MapState, retries: int, injector,
                fault_offset: int = 0) -> None:
    for index, item in enumerate(items):
        attempt = 1
        while True:
            ok, result, elapsed, error = _run_attempt(
                fn, item, attempt, injector, index + fault_offset)
            if ok or not _retry_again(attempt, retries):
                break
            attempt += 1
        state.settle(index, result, elapsed, attempt,
                     None if ok else TaskFailure(index, attempt, *error))


def _map_pool(fn, items, state: _MapState, retries: int, injector, pool,
              fault_offset: int = 0) -> None:
    """Run a map on a :class:`~repro.parallel.pool.WorkerPool`.

    Every item is submitted at once and the futures are read in item
    order, so ``on_error="raise"`` raises the lowest failed index, as
    in-process.  The ``finally`` cancels the rest of the map, also when a
    later ``submit`` raises (a payload naming an unknown broadcast).
    """
    futures = []
    try:
        for index, item in enumerate(items):
            futures.append(pool.submit(fn, item, index=index, retry=retries,
                                       injector=injector,
                                       fault_index=index + fault_offset))
        for future in futures:
            pool.wait([future])
            state.settle(future.index, future.value, future.elapsed,
                         future.attempts, future.failure)
    finally:
        pool.cancel(futures)


def map_timesteps(fn, items, workers: int = 1, retry: int | None = None,
                  on_error: str = "raise",
                  inject_faults: FaultInjector | dict | None = None,
                  fault_index_offset: int = 0, pool=None) -> MapResult:
    """Map ``fn`` over ``items`` (one item ≙ one time step's work).

    ``fn`` must be picklable (module-level) when the map fans out.

    Parameters
    ----------
    workers:
        Processes for a pool the map opens for itself (clamped to the
        item count); 1, the default, runs the map in-process.
    retry:
        Retries per item after its first attempt: ``None`` (the
        default, no retries) or an int >= 0.  A failed attempt runs
        again at once.
    on_error:
        ``"raise"`` (default) — the lowest-indexed item to exhaust its
        retries raises :class:`TaskError` with the item index and remote
        traceback, wherever the map runs.  ``"skip"`` — degraded mode:
        the map completes, failed slots hold ``None``, and
        :attr:`MapResult.failures` records each casualty.
    inject_faults:
        Deterministic fault schedule for testing (see
        :mod:`repro.parallel.faults`); ``None`` defers to the
        ``REPRO_FAULT_INJECT`` environment spec.
    fault_index_offset:
        Added to each item's index when consulting the fault injector
        (results stay keyed by local index).  Callers that issue several
        maps as one logical run — the resumable pipeline runner numbers
        its tasks globally across stages — use this so one schedule
        (``"N:crash"``) addresses the run's Nth task regardless of which
        map it lands in.
    pool:
        A resident :class:`repro.parallel.pool.WorkerPool`.  When given,
        it always runs the map: tasks dispatch onto the pool's
        already-spawned workers — one spawn cost per run, not per map —
        and payloads may embed
        :class:`~repro.parallel.pool.BroadcastRef` placeholders for
        objects previously registered via ``pool.broadcast``.  ``workers``
        is then ignored.
    """
    items = list(items)
    if on_error not in ("raise", "skip"):
        raise ValueError(f"on_error must be 'raise' or 'skip', got {on_error!r}")
    retries = _check_retry(retry)
    use_process = fans_out(workers, len(items), pool)
    injector = as_injector(inject_faults)
    metrics = get_metrics()
    metrics.counter("executor.tasks").inc(len(items))
    state = _MapState(len(items), on_error)
    used_backend = ("pool" if pool is not None
                    else "process" if use_process else "serial")
    # A 2-step map must not fork a full pool of idle processes.
    used_workers = (pool.workers if pool is not None
                    else min(workers, len(items)) if use_process else 1)
    with metrics.span("executor.map", backend=used_backend, workers=used_workers,
                      items=len(items)):
        start = time.perf_counter()
        if pool is not None:
            _map_pool(fn, items, state, retries, injector, pool, fault_index_offset)
        elif not use_process:
            _map_serial(fn, items, state, retries, injector, fault_index_offset)
        else:
            from repro.parallel.pool import WorkerPool  # pool imports this module

            with WorkerPool(workers=used_workers) as own_pool:
                _map_pool(fn, items, state, retries, injector, own_pool,
                          fault_index_offset)
        elapsed = time.perf_counter() - start
    return MapResult(state.results, elapsed, used_backend, used_workers,
                     item_times=state.item_times, failures=state.failures,
                     retries=state.retries)
