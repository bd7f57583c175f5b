"""Tests for the persistent worker pool (:mod:`repro.parallel.pool`).

Covers the acceptance checklist for the resident-pool runtime: lazy
spawn and reuse across maps (no respawn churn), futures with
done-callback chaining, the broadcast registry (inherited at fork,
otherwise shipped to each worker at most once, released per key, a
snapshot of the object at registration), SIGKILL
crash detection + respawn counted against the ordinary retry count (on
a caller's pool and on the pool a map opens for itself), injected
faults / skip mode / cancelled attempts matching in-process semantics,
a passed pool running the map whatever ``workers`` says, and lifecycle
(close, context manager, closed-pool errors).
"""

import os
import pathlib
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

from repro.core.pipeline import classify_sequence, render_sequence
from repro.obs import get_metrics
from repro.parallel import (
    BroadcastRef,
    FaultInjector,
    PoolError,
    TaskError,
    WorkerPool,
    map_timesteps,
)
from repro.parallel.pool import resolve_broadcasts
from repro.render.camera import Camera
from repro.transfer.tf1d import TransferFunction1D
from repro.volume.grid import Volume, VolumeSequence

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")


def square(x):
    return x * x


def boom(x):
    raise RuntimeError("boom")


def nap(seconds):
    time.sleep(seconds)
    return seconds


def pid_of(_item):
    return os.getpid()


def nap_then_mark(item):
    """Sleep, then leave a marker file: the marker says the task ran."""
    path, seconds = item
    time.sleep(seconds)
    pathlib.Path(path).write_text("ran")
    return path


class PidClassifier:
    """Stand-in classifier whose certainty field holds the classifying pid."""

    last_fast_stats = None

    def classify(self, volume, **_opts):
        return np.full(volume.data.shape, os.getpid())


def use_ref(payload):
    obj, x = payload
    return (obj["scale"] * x, os.getpid())


def ledgers(pool):
    """What each worker holds, as the parent's per-worker ledger records it."""
    return [set(slot.held) for slot in pool._slots]


def crash_once(path):
    """SIGKILL the hosting worker on first sight of the sentinel path."""
    p = pathlib.Path(path)
    if not p.exists():
        p.write_text("x")
        os.kill(os.getpid(), signal.SIGKILL)
    return "ok"


def slow_then_fresh(path):
    """First call: a straggler answering "stale" after 0.5 s; later calls
    answer "fresh" at once."""
    p = pathlib.Path(path)
    if not p.exists():
        p.write_text("x")
        time.sleep(0.5)
        return "stale"
    return "fresh"


def crash_flaky(path):
    """Plain exception (not SIGKILL) on first call, success on retry."""
    p = pathlib.Path(path)
    if not p.exists():
        p.write_text("x")
        raise RuntimeError("flaky")
    return "ok"


@pytest.fixture
def pool():
    with WorkerPool(workers=2) as p:
        yield p


class TestSubmit:
    def test_submit_result_roundtrip(self, pool):
        assert pool.submit(square, 7).result() == 49

    def test_lazy_spawn(self):
        with WorkerPool(workers=2) as p:
            assert p.started_workers == 0 and p.spawned == 0
            p.submit(square, 2).result()
            assert p.spawned >= 1

    def test_failure_raises_task_error(self, pool):
        future = pool.submit(boom, 1, index=4)
        with pytest.raises(TaskError, match="item 4"):
            future.result()
        assert future.done() and not future.ok
        assert future.failure.error_type == "RuntimeError"
        assert "boom" in future.failure.remote_traceback

    def test_retry_then_success(self, pool, tmp_path):
        future = pool.submit(
            crash_flaky, str(tmp_path / "flaky"), retry=2
        )
        assert future.result() == "ok"
        assert future.attempts == 2

    def test_retry_must_be_a_count(self, pool):
        for bad in (-1, True, 1.5):
            with pytest.raises(ValueError, match="retry"):
                pool.submit(square, 2, retry=bad)
        assert pool.spawned == 0

    def test_done_callback_chains_submissions(self, pool):
        chained = []
        first = pool.submit(square, 3)
        first.add_done_callback(
            lambda f: chained.append(pool.submit(square, f.value))
        )
        assert first.result() == 9
        pool.wait(chained)
        assert chained[0].value == 81

    def test_callback_on_already_done_future_fires_immediately(self, pool):
        future = pool.submit(square, 2)
        future.result()
        seen = []
        future.add_done_callback(seen.append)
        assert seen == [future]

    def test_wait_resolves_all(self, pool):
        futures = [pool.submit(square, i) for i in range(8)]
        pool.wait(futures)
        assert [f.value for f in futures] == [i * i for i in range(8)]

    def test_cancel_resolves_pending_as_cancelled(self):
        with WorkerPool(workers=1) as p:
            slow = p.submit(nap, 0.2)
            queued = [p.submit(square, i) for i in range(4)]
            p.cancel(queued)
            assert all(f.done() and not f.ok for f in queued)
            assert all(f.failure.error_type == "Cancelled" for f in queued)
            assert slow.result() == pytest.approx(0.2)


class TestReuse:
    def test_spawned_stays_flat_across_maps(self, pool):
        for _ in range(3):
            out = map_timesteps(square, [1, 2, 3, 4], workers=2, pool=pool)
            assert out.results == [1, 4, 9, 16]
        assert pool.spawned == 2
        assert pool.respawns == 0

    def test_map_backend_reported_as_pool(self, pool):
        out = map_timesteps(square, [1, 2, 3], workers=2, pool=pool)
        assert out.backend == "pool"
        assert out.workers == 2

    def test_map_matches_serial(self, pool):
        serial = map_timesteps(square, list(range(10)))
        pooled = map_timesteps(square, list(range(10)), workers=2, pool=pool)
        assert pooled.results == serial.results

    def test_map_exception_propagates(self, pool):
        with pytest.raises(RuntimeError, match="boom"):
            map_timesteps(boom, [1, 2], workers=2, pool=pool)

    def test_pool_runs_the_map_with_default_workers(self, pool):
        """A passed pool always runs the map: no item runs in the parent."""
        parent = os.getpid()
        out = map_timesteps(pid_of, [0, 1, 2], pool=pool)
        assert out.backend == "pool"
        assert parent not in out.results
        seq = VolumeSequence([Volume(np.zeros((2, 2, 2), np.float32), time=t)
                              for t in range(3)])
        certs = classify_sequence(PidClassifier(), seq, pool=pool)
        assert parent not in {int(cert.flat[0]) for cert in certs}


class TestBroadcast:
    def test_ref_resolves_in_payload(self, pool):
        ref = pool.broadcast({"scale": 10})
        assert isinstance(ref, BroadcastRef)
        out = map_timesteps(
            use_ref, [(ref, 1), (ref, 2), (ref, 3)], workers=2, pool=pool
        )
        assert [v for v, _pid in out.results] == [10, 20, 30]

    def test_blob_ships_once_per_worker(self, pool):
        # Workers forked after a broadcast inherit it; these fork first,
        # so the blob must cross each pipe.
        pool.prespawn()
        metrics = get_metrics()
        metrics.reset("pool.broadcast.")
        ref = pool.broadcast({"scale": 2})
        map_timesteps(use_ref, [(ref, i) for i in range(12)], workers=2, pool=pool)
        map_timesteps(use_ref, [(ref, i) for i in range(12)], workers=2, pool=pool)
        sends = metrics.counter_values("pool.broadcast.")["pool.broadcast.sends"]
        assert sends <= pool.spawned

    def test_identical_object_same_digest(self, pool):
        assert pool.broadcast((1, 2, 3)) == pool.broadcast((1, 2, 3))

    def test_unknown_ref_rejected_at_submit(self, pool):
        with pytest.raises(PoolError, match="unknown broadcast"):
            pool.submit(square, BroadcastRef("deadbeef"))

    def test_resolver_walks_containers(self):
        registry = {"d": 42}
        payload = {"a": [BroadcastRef("d"), 1], "b": (BroadcastRef("d"),)}
        assert resolve_broadcasts(payload, registry) == {"a": [42, 1], "b": (42,)}


class TestBroadcastRegistry:
    def test_registered_before_first_dispatch_resolves_with_zero_sends(self, pool):
        get_metrics().reset("pool.broadcast.")
        ref = pool.broadcast({"scale": 5})
        out = map_timesteps(use_ref, [(ref, i) for i in range(6)], pool=pool)
        assert [v for v, _pid in out.results] == [5 * i for i in range(6)]
        assert pool.spawned == 2
        assert get_metrics().counter_values("pool.broadcast.") == {}

    def test_release_ends_the_registration_everywhere(self, pool):
        inherited = pool.broadcast({"scale": 2})
        map_timesteps(use_ref, [(inherited, i) for i in range(4)], pool=pool)
        shipped = pool.broadcast({"scale": 3})
        map_timesteps(use_ref, [(shipped, i) for i in range(4)], pool=pool)
        assert all(inherited.digest in held for held in ledgers(pool))
        assert any(shipped.digest in held for held in ledgers(pool))
        pool.release([inherited, shipped])
        assert pool._broadcasts == {}
        assert ledgers(pool) == [set(), set()]
        for ref in (inherited, shipped):
            with pytest.raises(PoolError, match="unknown broadcast"):
                pool.submit(use_ref, (ref, 1))
        with pytest.raises(PoolError, match="not registered"):
            pool.release([shipped])
        assert map_timesteps(square, [3, 4], pool=pool).results == [9, 16]

    def test_key_registered_twice_survives_first_release(self, pool):
        ref = pool.broadcast({"scale": 4})
        assert pool.broadcast({"scale": 4}) == ref
        pool.release([ref])
        assert pool.submit(use_ref, (ref, 2)).result()[0] == 8
        pool.release([ref])
        with pytest.raises(PoolError, match="unknown broadcast"):
            pool.submit(use_ref, (ref, 2))

    def test_releasing_a_ref_a_pending_task_holds_raises(self):
        with WorkerPool(workers=1) as p:
            ref = p.broadcast(0.3)
            running = p.submit(nap, ref)
            queued = p.submit(nap, ref)
            with pytest.raises(PoolError, match="pending task"):
                p.release([ref])
            p.wait([running, queued])
            p.release([ref])
            assert p._broadcasts == {}

    def test_keyed_broadcast_is_inherited_and_needs_unforked_workers(self, pool):
        """A caller-keyed object is never pickled: workers forked after it
        start with it, and once workers run a keyed broadcast is refused."""
        get_metrics().reset("pool.broadcast.")
        ref = pool.broadcast({"scale": 7}, key="scale-7")
        out = map_timesteps(use_ref, [(ref, i) for i in range(4)], pool=pool)
        assert [v for v, _pid in out.results] == [7 * i for i in range(4)]
        assert get_metrics().counter_values("pool.broadcast.") == {}
        with pytest.raises(PoolError, match="keyed broadcast"):
            pool.broadcast({"scale": 8}, key="scale-8")
        pool.release([ref])
        assert pool._broadcasts == {} and ledgers(pool) == [set(), set()]

    def test_maps_release_their_broadcasts(self, pool):
        """Renders at distinct views (one camera each) and a classify map
        leave the registry and every worker ledger as they found them."""
        kept = pool.broadcast({"scale": 1})
        seq = VolumeSequence([Volume(np.random.default_rng(t).random((4, 5, 6),
                                                                    dtype=np.float32),
                                     time=t) for t in range(2)])
        tf = TransferFunction1D((0.0, 1.0)).add_box(0.5, 1.0, 0.8)
        map_timesteps(use_ref, [(kept, i) for i in range(4)], pool=pool)
        before = (dict(pool._broadcasts), ledgers(pool))
        for azimuth in (0.0, 30.0, 60.0, 90.0):
            render_sequence(seq, tf, camera=Camera(azimuth=azimuth, width=8, height=8),
                            pool=pool)
        classify_sequence(PidClassifier(), seq, pool=pool)
        assert (dict(pool._broadcasts), ledgers(pool)) == before

    def test_mutation_after_registration_is_invisible(self, pool):
        """A worker sees a broadcast as it was at registration, whether it
        inherited the registration at fork or received it later."""
        scale = {"scale": 2}
        ref = pool.broadcast(scale)
        scale["scale"] = 99
        assert pool.submit(use_ref, (ref, 1)).result()[0] == 2
        late = {"scale": 3}
        late_ref = pool.broadcast(late)
        late["scale"] = 99
        out = map_timesteps(use_ref, [(late_ref, 1)] * 4, pool=pool)
        assert [v for v, _pid in out.results] == [3] * 4


class TestCrashRespawn:
    def test_sigkill_respawn_and_retry(self, pool, tmp_path):
        sentinel = str(tmp_path / "crash")
        out = map_timesteps(
            crash_once, [sentinel], workers=2,
            pool=pool, retry=2,
        )
        assert out.results == ["ok"]
        assert out.retries == 1
        assert pool.respawns == 1

    def test_crash_without_retry_is_structured_failure(self, pool, tmp_path):
        sentinel = str(tmp_path / "crash")
        out = map_timesteps(
            crash_once, [sentinel], workers=2,
            pool=pool, on_error="skip",
        )
        assert out.results == [None]
        assert out.failures[0].error_type == "WorkerCrash"

    def test_pool_usable_after_crash(self, pool, tmp_path):
        map_timesteps(
            crash_once, [str(tmp_path / "c")], workers=2,
            pool=pool, retry=2,
        )
        out = map_timesteps(square, [5, 6], workers=2, pool=pool)
        assert out.results == [25, 36]

    def test_sigkill_retried_on_map_owned_pool(self, tmp_path):
        """Without a caller's pool the map opens one of its own, so a
        worker death is retried instead of hanging the map.  Runs in a
        subprocess so a regression fails by timeout, not a hung suite."""
        code = textwrap.dedent(f"""
            import os, pathlib, signal
            from repro.parallel import map_timesteps

            def crash_item_one(x):
                sentinel = pathlib.Path({str(tmp_path / "crash")!r})
                if x == 1 and not sentinel.exists():
                    sentinel.write_text("x")
                    os.kill(os.getpid(), signal.SIGKILL)
                return x * x

            out = map_timesteps(crash_item_one, [0, 1, 2, 3], workers=2,
                                retry=1)
            print(out.results, out.retries, out.backend)
        """)
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[0, 1, 4, 9] 1 process"

    def test_respawned_worker_rereceives_broadcasts(self, pool, tmp_path):
        ref = pool.broadcast({"scale": 3})
        map_timesteps(
            crash_once, [str(tmp_path / "c")], workers=2,
            pool=pool, retry=2,
        )
        out = map_timesteps(
            use_ref, [(ref, i) for i in range(8)], workers=2, pool=pool
        )
        assert [v for v, _pid in out.results] == [3 * i for i in range(8)]


class TestFaultSemantics:
    def test_injected_fault_retried(self, pool):
        out = map_timesteps(
            square, [1, 2, 3], workers=2, pool=pool, retry=2,
            inject_faults=FaultInjector({1: 1}),
        )
        assert out.results == [1, 4, 9]
        assert out.retries == 1

    def test_skip_mode_partial_results(self, pool):
        out = map_timesteps(
            boom, [1, 2, 3], workers=2, pool=pool, on_error="skip"
        )
        assert out.results == [None, None, None]
        assert sorted(f.index for f in out.failures) == [0, 1, 2]

    def test_stale_result_of_timed_out_attempt_ignored(self, tmp_path):
        # The running attempt is abandoned through cancel(); its late
        # "stale" answer arrives while the next task waits for the one
        # worker, and must be dropped, not taken as either task's result.
        path = str(tmp_path / "s")
        with WorkerPool(workers=1) as p:
            stale = p.submit(slow_then_fresh, path)
            p.cancel([stale])
            fresh = p.submit(slow_then_fresh, path)
            assert fresh.result() == "fresh"
            assert stale.value is None
            assert stale.failure.error_type == "Cancelled"
            assert p.spawned == 1 and p.respawns == 0

    def test_failed_submit_cancels_what_the_map_submitted(self, tmp_path):
        """A payload naming an unknown broadcast fails the map at its
        submit.  The items submitted before it are cancelled with the map:
        only the one already running finishes, and the pool's next map
        waits for nothing else."""
        markers = [tmp_path / f"m{i}" for i in range(3)]
        items = [(str(m), 0.3) for m in markers] + [BroadcastRef("dead")]
        with WorkerPool(workers=1) as p:
            with pytest.raises(PoolError, match="unknown broadcast"):
                map_timesteps(nap_then_mark, items, pool=p)
            assert map_timesteps(square, [3], pool=p).results == [9]
        assert [m.exists() for m in markers] == [True, False, False]

    def test_fault_index_offset_honoured(self, pool):
        # Offset shifts injection onto global task index 3 == local item 1.
        out = map_timesteps(
            square, [1, 2], workers=2, pool=pool, retry=2,
            inject_faults=FaultInjector({3: 1}), fault_index_offset=2,
        )
        assert out.results == [1, 4]
        assert out.retries == 1


class TestLifecycle:
    def test_close_idempotent(self):
        p = WorkerPool(workers=2)
        p.submit(square, 1).result()
        p.close()
        p.close()
        assert p.started_workers == 0

    def test_closed_pool_rejects_work(self):
        p = WorkerPool(workers=2)
        p.close()
        with pytest.raises(PoolError, match="closed"):
            p.submit(square, 1)
        with pytest.raises(PoolError, match="closed"):
            p.broadcast(1)

    def test_close_terminates_worker_of_abandoned_attempt(self):
        p = WorkerPool(workers=2)
        running = p.submit(nap, 5.0)
        p.cancel([running])
        start = time.perf_counter()
        p.close()
        assert time.perf_counter() - start < 1.0
        assert p.started_workers == 0

    def test_context_manager_reaps_workers(self):
        with WorkerPool(workers=2) as p:
            p.submit(square, 1).result()
            pids = p.pids()
            assert pids
        assert p.started_workers == 0

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            WorkerPool(workers=0)
