"""Parallel and out-of-core execution substrate.

The paper's large-data story has two halves this package reproduces:

- *"the processing of each time step is completely independent of other
  time steps, it is feasible and desirable to employ a large PC cluster"*
  (Sec. 8) — :mod:`repro.parallel.executor` is that per-timestep task farm,
  the one fan-out in the repository: a map runs on the caller's
  :class:`WorkerPool` of resident processes (:mod:`repro.parallel.pool`)
  when one is passed, on a pool of its own when ``workers > 1``, and
  in-process otherwise.  It adds a per-task retry count (a failed step
  runs again at once), structured :class:`TaskError` failures (or an
  ``on_error="skip"`` degraded mode), crash respawn, and deterministic
  fault injection for CI (:mod:`repro.parallel.faults`).  Payloads travel by pickle;
  invariants shared by every task are broadcast to each worker once.
- *"when the volume size is large … not all the data can fit in core"*
  (Sec. 4.2.2) — tracking and follow mode hold one step at a time:
  :func:`sequence_step_stems` (:mod:`repro.parallel.streaming`) lists a
  saved sequence's steps for the tracker's step-at-a-time loader,
  :class:`~repro.parallel.streaming.SequenceWatcher` admits the steps of
  a directory still being written, and key-frame work loads only the
  steps it names (:func:`repro.volume.io.load_sequence` with ``times=``).
"""

from repro.parallel.bricking import axis_chunks, content_digest
from repro.parallel.executor import (
    MapResult,
    TaskError,
    TaskFailure,
    map_timesteps,
)
from repro.parallel.faults import FaultInjector, InjectedFault, parse_fault_spec
from repro.parallel.pool import BroadcastRef, PoolError, PoolFuture, WorkerPool
from repro.parallel.streaming import sequence_step_stems

__all__ = [
    "BroadcastRef",
    "FaultInjector",
    "InjectedFault",
    "MapResult",
    "PoolError",
    "PoolFuture",
    "TaskError",
    "TaskFailure",
    "WorkerPool",
    "axis_chunks",
    "content_digest",
    "map_timesteps",
    "parse_fault_spec",
    "sequence_step_stems",
]
