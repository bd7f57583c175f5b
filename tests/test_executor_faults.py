"""Failure-path tests for the fault-tolerant task farm.

Covers the acceptance checklist: injected worker faults are retried up
to the ``retry`` count; exhausted retries surface as a structured
``TaskError`` naming the item index with the remote traceback (the
lowest failed index, wherever the map runs); ``on_error="skip"``
degrades to partial results plus a failure list; and in-process and
pool placements behave identically under deterministic injection.
"""

import time

import pytest

from repro.parallel import (
    FaultInjector,
    InjectedFault,
    MapResult,
    TaskError,
    map_timesteps,
    parse_fault_spec,
)
from repro.parallel.faults import FAULT_ENV, as_injector


def square(x):
    return x * x


def nap(seconds):
    time.sleep(seconds)
    return seconds


def fail_slow_or_fast(x):
    """Item 1 fails after 0.5 s, item 4 at once; the rest succeed."""
    if x == 1:
        time.sleep(0.5)
        raise RuntimeError("slow failure")
    if x == 4:
        raise RuntimeError("fast failure")
    return x


#: Both placements of a map: in-process, and a pool the map opens.
PLACEMENTS = pytest.mark.parametrize("workers", [1, 2], ids=["serial-1", "process-2"])


class TestRetryPolicy:
    def test_validation(self):
        """``retry`` is None or an int >= 0; anything else is rejected,
        in either placement, before any task starts."""
        started = []
        for workers in (1, 2):
            for bad in (-1, True, 1.5):
                with pytest.raises(ValueError, match="retry"):
                    map_timesteps(started.append, [1, 2], workers=workers, retry=bad)
        assert started == []


class TestFaultInjector:
    def test_schedule_is_per_attempt(self):
        inj = FaultInjector({3: 2})
        assert inj.should_fail(3, 1) and inj.should_fail(3, 2)
        assert not inj.should_fail(3, 3)
        assert not inj.should_fail(0, 1)

    def test_maybe_raise(self):
        with pytest.raises(InjectedFault, match="item 1"):
            FaultInjector({1: 1}).maybe_raise(1, 1)

    def test_parse_spec(self):
        inj = parse_fault_spec("3:2, 7:1, 9")
        assert inj.failures == {3: 2, 7: 1, 9: 1}

    def test_parse_spec_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_fault_spec("nope:2")

    def test_env_arms_injection(self, monkeypatch):
        monkeypatch.setenv(FAULT_ENV, "1:1")
        out = map_timesteps(square, [1, 2, 3], retry=2)
        assert out.results == [1, 4, 9]
        assert out.retries == 1

    def test_as_injector_rejects_bad_type(self):
        with pytest.raises(TypeError):
            as_injector("3:2")

    def test_negative_schedule_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector({-1: 2})


class TestCrashMode:
    def test_parse_crash_entries(self):
        inj = parse_fault_spec("3:2,5:crash,7:crash")
        assert inj.failures == {3: 2}
        assert inj.crashes == frozenset({5, 7})
        assert inj.should_crash(5) and not inj.should_crash(3)

    def test_crash_beats_failure_schedule(self):
        inj = FaultInjector({5: 1}, crashes={5})
        assert inj.should_crash(5)

    def test_negative_crash_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(crashes={-2})

    def test_crash_kills_process_with_sigkill(self):
        """The real thing, in a sacrificial subprocess: no cleanup runs."""
        import subprocess
        import sys

        code = (
            "from repro.parallel.faults import parse_fault_spec\n"
            "import atexit\n"
            "atexit.register(lambda: print('CLEANUP RAN'))\n"
            "parse_fault_spec('0:crash').maybe_raise(0, 1)\n"
            "print('SURVIVED')\n"
        )
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == -9
        assert "SURVIVED" not in result.stdout
        assert "CLEANUP RAN" not in result.stdout


class TestFaultIndexOffset:
    def test_offset_shifts_schedule_addressing(self):
        """With offset 10, local item 2 is global task 12: only a schedule
        keyed on 12 hits it."""
        out = map_timesteps(square, [1, 2, 3], retry=2,
                            inject_faults={2: 1}, fault_index_offset=10)
        assert out.retries == 0  # local index 2 is global 12, schedule says 2
        out = map_timesteps(square, [1, 2, 3], retry=2,
                            inject_faults={12: 1}, fault_index_offset=10)
        assert out.retries == 1
        assert out.results == [1, 4, 9]

    def test_offset_in_process_backend(self):
        out = map_timesteps(square, list(range(6)), workers=2,
                            retry=2, inject_faults={7: 1},
                            fault_index_offset=4)
        assert out.results == [x * x for x in range(6)]
        assert out.retries == 1

    def test_results_stay_locally_indexed(self):
        """The offset only affects fault addressing, never result slots."""
        out = map_timesteps(square, [5, 6], inject_faults={}, fault_index_offset=100)
        assert out.results == [25, 36]


class TestRetries:
    @PLACEMENTS
    def test_injected_fault_retried_to_success(self, workers):
        out = map_timesteps(square, list(range(16)), workers=workers,
                            retry=2, inject_faults={3: 2})
        assert out.results == [x * x for x in range(16)]
        assert out.retries == 2
        assert out.ok

    @PLACEMENTS
    def test_exhausted_retries_raise_structured_error(self, workers):
        with pytest.raises(TaskError) as excinfo:
            map_timesteps(square, list(range(16)), workers=workers,
                          retry=1, inject_faults={5: 99})
        failure = excinfo.value.failure
        assert excinfo.value.index == 5
        assert failure.attempts == 2  # first attempt + one retry
        assert failure.error_type == "InjectedFault"
        assert "InjectedFault" in failure.remote_traceback
        assert "item 5" in str(excinfo.value)

    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
    def test_raise_reports_lowest_failed_index(self, workers):
        """Item 4 fails first in time, item 1 first in order: both
        placements raise item 1."""
        with pytest.raises(TaskError) as excinfo:
            map_timesteps(fail_slow_or_fast, list(range(6)), workers=workers)
        assert excinfo.value.index == 1
        assert excinfo.value.failure.message == "slow failure"

    def test_retry_as_bare_int(self):
        out = map_timesteps(square, [1, 2], retry=1, inject_faults={0: 1})
        assert out.results == [1, 4]
        assert out.retries == 1


class TestSkipMode:
    @PLACEMENTS
    def test_skip_returns_partials_plus_failure_list(self, workers):
        out = map_timesteps(square, list(range(16)), workers=workers,
                            on_error="skip", inject_faults={5: 99})
        assert out.n_completed == 15
        assert len(out.failures) == 1
        assert out.failures[0].index == 5
        assert out.results[5] is None
        assert [r for i, r in enumerate(out.results) if i != 5] == [
            x * x for x in range(16) if x != 5
        ]
        assert dict(out.completed())[4] == 16
        assert not out.ok

    def test_bad_on_error_rejected(self):
        with pytest.raises(ValueError):
            map_timesteps(square, [1], on_error="ignore")


class TestBackendEquivalence:
    def test_identical_outcomes_under_injection(self):
        kwargs = dict(on_error="skip", retry=1,
                      inject_faults=FaultInjector({2: 99, 5: 1}))
        serial = map_timesteps(square, list(range(8)), **kwargs)
        proc = map_timesteps(square, list(range(8)), workers=2, **kwargs)
        assert serial.results == proc.results
        assert [(f.index, f.attempts, f.error_type) for f in serial.failures] == \
               [(f.index, f.attempts, f.error_type) for f in proc.failures]
        assert serial.retries == proc.retries == 2  # one for item 5, one for item 2


class TestItemTimes:
    @PLACEMENTS
    def test_per_item_wall_times_recorded(self, workers):
        out = map_timesteps(nap, [0.01] * 4, workers=workers)
        assert len(out.item_times) == 4
        assert all(t >= 0.01 for t in out.item_times)


class TestMapResultHygiene:
    def test_throughput_zero_elapsed_is_zero_not_inf(self):
        result = MapResult(results=[1, 2], elapsed=0.0, backend="serial", workers=1)
        assert result.throughput == 0.0

    def test_chunked_process_map_still_correct(self):
        out = map_timesteps(square, list(range(10)), workers=2,
                            retry=2, inject_faults={4: 1})
        assert out.results == [x * x for x in range(10)]
        assert out.retries == 1
