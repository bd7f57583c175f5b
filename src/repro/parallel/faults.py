"""Deterministic fault injection for the task farm.

The executor's retry and skip machinery only earns its keep if the
failure paths are exercised in CI, and real worker faults are not
reproducible.  A :class:`FaultInjector` is a picklable description of
*which attempts of which items must fail*: item index → number of leading
attempts to kill.  Because the schedule depends only on ``(index,
attempt)``, in-process and pooled maps see byte-identical fault
sequences regardless of worker scheduling.

Two ways to arm it:

- pass ``inject_faults=FaultInjector({3: 2})`` (or the bare dict) to
  :func:`repro.parallel.executor.map_timesteps`;
- set ``REPRO_FAULT_INJECT="3:2,7:1"`` in the environment — item 3 fails
  its first two attempts, item 7 its first — which reaches even call
  sites that never heard of injection (chaos testing a whole pipeline).

Beyond raised exceptions there is a **crash mode**: a schedule entry of
``"5:crash"`` (or ``FaultInjector(crashes={5})``) hard-kills the
executing process with ``SIGKILL`` the moment task 5 starts — no
``except`` clause, ``atexit`` hook, or ``finally`` block runs, exactly
like a node loss in the paper's Sec. 8 cluster deployment.  The
resumable pipeline runner (:mod:`repro.run`) numbers its tasks globally
across all stages, so ``REPRO_FAULT_INJECT="N:crash"`` against
``repro run`` is "the machine died at task N", and the crash-recovery
battery re-runs with ``--resume`` and asserts bit-identical output.
"""

from __future__ import annotations

import os
import signal
from dataclasses import dataclass, field

FAULT_ENV = "REPRO_FAULT_INJECT"


class InjectedFault(RuntimeError):
    """The exception raised by an armed :class:`FaultInjector`."""


@dataclass(frozen=True)
class FaultInjector:
    """Deterministic ``(item index, attempt)`` → fault schedule.

    Parameters
    ----------
    failures:
        Map of item index → how many of that item's first attempts fail.
        An item absent from the map never faults.
    crashes:
        Item indices at which the *process itself* is killed with
        ``SIGKILL`` (every attempt — a crash is not survivable, so the
        attempt number is irrelevant).  This is the simulated node loss
        the crash-safe runner's resume path is tested against.
    message:
        Message template for the raised :class:`InjectedFault`; formatted
        with ``index`` and ``attempt``.
    """

    failures: dict[int, int] = field(default_factory=dict)
    crashes: frozenset[int] = field(default_factory=frozenset)
    message: str = "injected fault for item {index} (attempt {attempt})"

    def __post_init__(self) -> None:
        object.__setattr__(self, "crashes", frozenset(self.crashes))
        for index, count in self.failures.items():
            if index < 0 or count < 0:
                raise ValueError(
                    f"fault schedule entries must be non-negative, got {index}:{count}"
                )
        for index in self.crashes:
            if index < 0:
                raise ValueError(f"crash indices must be non-negative, got {index}")

    def should_fail(self, index: int, attempt: int) -> bool:
        """Whether attempt number ``attempt`` (1-based) of ``index`` faults."""
        return attempt <= self.failures.get(index, 0)

    def should_crash(self, index: int) -> bool:
        """Whether task ``index`` is scheduled to kill its process."""
        return index in self.crashes

    def maybe_raise(self, index: int, attempt: int) -> None:
        """Raise :class:`InjectedFault` — or hard-kill the process — if
        this attempt is scheduled to fail.

        Crash entries win over failure entries: ``os.kill(os.getpid(),
        SIGKILL)`` takes the process down without unwinding, so no
        cleanup code can mask the simulated node loss.
        """
        if self.should_crash(index):
            os.kill(os.getpid(), signal.SIGKILL)
        if self.should_fail(index, attempt):
            raise InjectedFault(self.message.format(index=index, attempt=attempt))


def parse_fault_spec(spec: str) -> FaultInjector:
    """Parse ``"3:2,7:1,5:crash"`` → failures ``{3: 2, 7: 1}``, crash at 5.

    Entries without a count (``"3"``) fail one attempt; a count of
    ``crash`` SIGKILLs the process at that task.  Raises ``ValueError``
    on malformed specs so typos don't silently disable a chaos run.
    """
    failures: dict[int, int] = {}
    crashes: set[int] = set()
    for entry in spec.split(","):
        entry = entry.strip()
        if not entry:
            continue
        index_s, _, count_s = entry.partition(":")
        try:
            index = int(index_s)
        except ValueError:
            raise ValueError(f"bad fault spec entry {entry!r} in {spec!r}") from None
        if count_s == "crash":
            crashes.add(index)
            continue
        try:
            count = int(count_s) if count_s else 1
        except ValueError:
            raise ValueError(f"bad fault spec entry {entry!r} in {spec!r}") from None
        failures[index] = count
    return FaultInjector(failures, crashes=frozenset(crashes))


def injector_from_env(environ=None) -> FaultInjector | None:
    """The injector described by ``REPRO_FAULT_INJECT``, or ``None``."""
    spec = (environ if environ is not None else os.environ).get(FAULT_ENV)
    if not spec:
        return None
    return parse_fault_spec(spec)


def as_injector(inject_faults) -> FaultInjector | None:
    """Normalize ``None`` / dict / :class:`FaultInjector` → injector.

    ``None`` falls back to the environment spec so parameter-free call
    sites stay chaos-testable.
    """
    if inject_faults is None:
        return injector_from_env()
    if isinstance(inject_faults, FaultInjector):
        return inject_faults
    if isinstance(inject_faults, dict):
        return FaultInjector(dict(inject_faults))
    raise TypeError(
        f"inject_faults must be None, a dict, or a FaultInjector, "
        f"got {type(inject_faults).__name__}"
    )
