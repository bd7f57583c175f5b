"""Failure-path tests for the fault-tolerant task farm.

Covers the acceptance checklist: injected worker faults are retried per
policy; exhausted retries surface as a structured ``TaskError`` naming
the item index with the remote traceback; ``on_error="skip"`` degrades
to partial results plus a failure list; timeouts fire; and in-process
and pool placements behave identically under deterministic injection.
"""

import time

import pytest

from repro.parallel import (
    FaultInjector,
    InjectedFault,
    MapResult,
    RetryPolicy,
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


NO_BACKOFF = RetryPolicy(max_retries=2, backoff=0.0)

#: Both placements of a map: in-process, and a pool the map opens.
PLACEMENTS = pytest.mark.parametrize("workers", [1, 2], ids=["serial-1", "process-2"])


class TestRetryPolicy:
    def test_defaults_no_retry_no_timeout(self):
        policy = RetryPolicy()
        assert policy.max_retries == 0 and policy.timeout is None

    def test_exponential_backoff(self):
        policy = RetryPolicy(max_retries=3, backoff=0.1, backoff_factor=2.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)


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
        out = map_timesteps(square, [1, 2, 3], retry=NO_BACKOFF)
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
        out = map_timesteps(square, [1, 2, 3], retry=NO_BACKOFF,
                            inject_faults={2: 1}, fault_index_offset=10)
        assert out.retries == 0  # local index 2 is global 12, schedule says 2
        out = map_timesteps(square, [1, 2, 3], retry=NO_BACKOFF,
                            inject_faults={12: 1}, fault_index_offset=10)
        assert out.retries == 1
        assert out.results == [1, 4, 9]

    def test_offset_in_process_backend(self):
        out = map_timesteps(square, list(range(6)), workers=2,
                            retry=NO_BACKOFF, inject_faults={7: 1},
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
                            retry=NO_BACKOFF, inject_faults={3: 2})
        assert out.results == [x * x for x in range(16)]
        assert out.retries == 2
        assert out.ok

    @PLACEMENTS
    def test_exhausted_retries_raise_structured_error(self, workers):
        with pytest.raises(TaskError) as excinfo:
            map_timesteps(square, list(range(16)), workers=workers,
                          retry=RetryPolicy(max_retries=1, backoff=0.0),
                          inject_faults={5: 99})
        failure = excinfo.value.failure
        assert excinfo.value.index == 5
        assert failure.attempts == 2  # first attempt + one retry
        assert failure.error_type == "InjectedFault"
        assert "InjectedFault" in failure.remote_traceback
        assert "item 5" in str(excinfo.value)

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


class TestTimeout:
    def test_timeout_fires_process(self):
        with pytest.raises(TaskError) as excinfo:
            map_timesteps(nap, [0.05, 5.0], workers=2,
                          retry=RetryPolicy(timeout=0.3))
        assert excinfo.value.index == 1
        assert excinfo.value.failure.error_type == "TaskTimeout"

    def test_timeout_fires_serial_cooperatively(self):
        out = map_timesteps(nap, [0.2], on_error="skip",
                            retry=RetryPolicy(timeout=0.05))
        assert len(out.failures) == 1
        assert out.failures[0].error_type == "TaskTimeout"

    def test_fast_tasks_unaffected_by_timeout(self):
        out = map_timesteps(square, [1, 2, 3], retry=RetryPolicy(timeout=30.0))
        assert out.results == [1, 4, 9]


class TestBackendEquivalence:
    def test_identical_outcomes_under_injection(self):
        kwargs = dict(on_error="skip", retry=RetryPolicy(max_retries=1, backoff=0.0),
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
                            retry=NO_BACKOFF, inject_faults={4: 1})
        assert out.results == [x * x for x in range(10)]
        assert out.retries == 1
