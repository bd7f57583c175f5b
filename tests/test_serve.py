"""Serve daemon: concurrency battery + CLI differential tests.

The concurrency tests monkeypatch ``handlers.compute_classify`` with a
gated fake so the in-flight window is held open deterministically: the
server counts a request (``serve.requests.classify``) synchronously
before it reaches the coalescer, so once the counter shows all N
arrivals, every one of them is either waiting on the shared compute or
already answered — the event loop's FIFO ready-queue guarantees the
registrations run before the gated result can propagate.  No sleeps for
correctness, only for politeness while polling.

The differential tests pin the daemon's core contract: a served response
is byte-identical to the equivalent cold CLI invocation (same certainty
digests, same tracked-mask digest, same PNG bytes).
"""

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import main as cli_main
from repro.data import make_argon_sequence
from repro.obs import get_metrics
from repro.parallel.bricking import content_digest
from repro.serve import (
    ServeApp,
    ServeBusy,
    ServeClient,
    ServeHTTPError,
    ServerHandle,
    ServeTimeout,
    handlers,
)
from repro.volume.io import load_sequence, save_sequence

SHAPE = (16, 16, 16)
TIMES = [0, 1, 2]
# A canonical classify request; the gated tests never execute the real
# compute, the differential tests use the same values against the CLI.
CLASSIFY_PARAMS = {"sequence": "argon", "mask": "ring", "train_steps": [0],
                   "epochs": 40, "samples": 40}


def _counters() -> dict:
    return get_metrics().counter_values("serve.")


def _count(name: str) -> int:
    return _counters().get(name, 0)


def _wait_until(predicate, timeout: float = 30.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class _Gate:
    """A patched endpoint compute that blocks until the test releases it."""

    def __init__(self) -> None:
        self.release = threading.Event()
        self.calls = 0          # dispatcher thread only: no race

    def compute(self, state, params):
        self.calls += 1
        assert self.release.wait(30), "test never released the compute gate"
        return {"payload": sorted(params.items(), key=str), "call": self.calls}


@pytest.fixture(scope="module")
def serve_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve_root")
    save_sequence(make_argon_sequence(shape=SHAPE, times=TIMES, seed=7),
                  root / "argon")
    return root


@pytest.fixture(scope="module")
def server(serve_root):
    app = ServeApp(serve_root, workers=1, max_queue=4, request_timeout=120)
    handle = ServerHandle.start_in_thread(app)
    yield handle
    handle.shutdown()


@pytest.fixture()
def client(server):
    return ServeClient(port=server.port, timeout=120)


@pytest.fixture()
def gate(monkeypatch):
    g = _Gate()
    monkeypatch.setattr(handlers, "compute_classify", g.compute)
    yield g
    g.release.set()     # never leave the dispatcher blocked on a failure


# --------------------------------------------------------------------- #
# Concurrency battery
# --------------------------------------------------------------------- #
def _post_many(client, bodies, results):
    threads = []
    for i, body in enumerate(bodies):
        def worker(i=i, body=body):
            results[i] = client.request("POST", "/v1/classify", body)
        t = threading.Thread(target=worker)
        t.start()
        threads.append(t)
    return threads


class TestCoalescing:
    N = 6

    def test_identical_requests_share_one_compute(self, client, gate):
        base = _counters()
        results = [None] * self.N
        threads = _post_many(client, [CLASSIFY_PARAMS] * self.N, results)
        assert _wait_until(lambda: _count("serve.requests.classify")
                           >= base.get("serve.requests.classify", 0) + self.N)
        gate.release.set()
        for t in threads:
            t.join(30)
        statuses = [r[0] for r in results]
        bodies = [r[2] for r in results]
        assert statuses == [200] * self.N
        assert len(set(bodies)) == 1, "coalesced waiters must share one payload"
        assert gate.calls == 1, "exactly one compute for N identical requests"
        after = _counters()
        assert after["serve.computes"] == base.get("serve.computes", 0) + 1
        assert (after.get("serve.coalesced", 0)
                == base.get("serve.coalesced", 0) + self.N - 1)

    def test_distinct_keys_never_coalesce(self, client, gate):
        base = _counters()
        bodies = [{**CLASSIFY_PARAMS, "epochs": 100 + i} for i in range(3)]
        results = [None] * len(bodies)
        threads = _post_many(client, bodies, results)
        assert _wait_until(lambda: _count("serve.requests.classify")
                           >= base.get("serve.requests.classify", 0) + len(bodies))
        gate.release.set()
        for t in threads:
            t.join(30)
        assert [r[0] for r in results] == [200] * len(bodies)
        assert len({r[2] for r in results}) == len(bodies)
        assert gate.calls == len(bodies)
        after = _counters()
        assert (after["serve.computes"]
                == base.get("serve.computes", 0) + len(bodies))
        assert after.get("serve.coalesced", 0) == base.get("serve.coalesced", 0)

    def test_disconnect_does_not_poison_waiters(self, server, client, gate):
        base = _counters()
        impatient = ServeClient(port=server.port, timeout=0.5)
        outcome = {}

        def early_leaver():
            try:
                outcome["a"] = impatient.request("POST", "/v1/classify",
                                                 CLASSIFY_PARAMS)
            except ServeTimeout as exc:
                outcome["a"] = exc

        def patient():
            outcome["b"] = client.request("POST", "/v1/classify",
                                          CLASSIFY_PARAMS)

        ta = threading.Thread(target=early_leaver)
        ta.start()
        assert _wait_until(lambda: _count("serve.requests.classify")
                           >= base.get("serve.requests.classify", 0) + 1)
        tb = threading.Thread(target=patient)
        tb.start()
        assert _wait_until(lambda: _count("serve.requests.classify")
                           >= base.get("serve.requests.classify", 0) + 2)
        ta.join(30)     # client A gives up and closes its socket mid-flight
        assert isinstance(outcome["a"], ServeTimeout)
        gate.release.set()
        tb.join(30)
        status, _headers, body = outcome["b"]
        assert status == 200 and b"payload" in body
        assert gate.calls == 1, "the abandoned compute served the survivor"

    def test_server_side_timeout_is_504_and_recoverable(self, client, gate):
        base_timeouts = _count("serve.timeouts")
        status, _headers, body = client.request(
            "POST", "/v1/classify", {**CLASSIFY_PARAMS, "timeout_s": 0.2})
        assert status == 504
        assert _count("serve.timeouts") == base_timeouts + 1
        gate.release.set()
        # The daemon stays healthy and the key recomputes once evicted.
        assert client.healthz()["status"] == "ok"
        status, _headers, _body = client.request("POST", "/v1/classify",
                                                 CLASSIFY_PARAMS)
        assert status == 200

    def test_full_queue_rejects_new_keys_not_joins(self, server, client, gate):
        max_queue = server.app.max_queue
        base = _counters()
        bodies = [{**CLASSIFY_PARAMS, "epochs": 200 + i}
                  for i in range(max_queue)]
        results = [None] * len(bodies)
        threads = _post_many(client, bodies, results)
        assert _wait_until(
            lambda: server.app.coalescer.inflight() >= max_queue)
        with pytest.raises(ServeBusy) as info:
            client.request("POST", "/v1/classify",
                           {**CLASSIFY_PARAMS, "epochs": 999})
        assert info.value.retry_after >= 0
        assert _count("serve.rejected") == base.get("serve.rejected", 0) + 1
        # Joining an existing in-flight key is never bounced.
        joiner = {}

        def join_existing():
            joiner["r"] = client.request("POST", "/v1/classify", bodies[0])

        tj = threading.Thread(target=join_existing)
        tj.start()
        assert _wait_until(lambda: _count("serve.requests.classify")
                           >= base.get("serve.requests.classify", 0)
                           + max_queue + 2)
        assert _count("serve.rejected") == base.get("serve.rejected", 0) + 1
        gate.release.set()
        for t in threads + [tj]:
            t.join(30)
        assert [r[0] for r in results] == [200] * len(bodies)
        assert joiner["r"][0] == 200


class TestDrain:
    def test_drain_finishes_inflight_then_stops(self, serve_root, gate):
        app = ServeApp(serve_root, workers=1, request_timeout=60)
        handle = ServerHandle.start_in_thread(app)
        client = ServeClient(port=handle.port, timeout=60)
        outcome = {}

        def worker():
            outcome["r"] = client.request("POST", "/v1/classify",
                                          CLASSIFY_PARAMS)

        t = threading.Thread(target=worker)
        t.start()
        assert _wait_until(lambda: app.coalescer.inflight() >= 1)
        handle.begin_drain()
        time.sleep(0.2)
        assert handle.thread.is_alive(), "drain must wait for in-flight work"
        gate.release.set()
        t.join(30)
        assert outcome["r"][0] == 200, "in-flight request completes under drain"
        handle.thread.join(30)
        assert not handle.thread.is_alive(), "daemon exits once drained"

    def test_sigterm_drains_and_exits_zero(self, serve_root):
        src = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--root", str(serve_root), "--port", "0", "--workers", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env)
        try:
            banner = proc.stdout.readline()
            match = re.search(r"http://127\.0\.0\.1:(\d+)", banner)
            assert match, f"no listen banner in {banner!r}"
            client = ServeClient(port=int(match.group(1)), timeout=30,
                                 retries=5)
            health = client.healthz()
            assert health["status"] == "ok"
            # Prespawn runs concurrently with startup; poll instead of
            # asserting a race against worker boot under load.
            assert _wait_until(
                lambda: client.healthz()["pool"]["started"] == 2), (
                "prespawned pool workers never came up")
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            assert "drained and stopped" in proc.stdout.read()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


# --------------------------------------------------------------------- #
# Differential: served responses == cold CLI invocations, byte for byte
# --------------------------------------------------------------------- #
def _ring_track_args(serve_root):
    seq = load_sequence(serve_root / "argon")
    vol = seq[0]
    mask = vol.mask("ring")
    z, y, x = (int(v) for v in np.argwhere(mask)[0])
    values = vol.data[mask]
    return [int(vol.time), z, y, x], [float(values.min()), float(values.max())]


class TestDifferential:
    def test_classify_matches_cli(self, serve_root, client, tmp_path, capsys):
        out = tmp_path / "cert"
        rc = cli_main(["classify", str(serve_root / "argon"),
                       "--mask", "ring", "--train-steps", "0",
                       "--epochs", "40", "--samples", "40", "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        resp = client.classify(**CLASSIFY_PARAMS)
        assert [s["time"] for s in resp["steps"]] == TIMES
        for step in resp["steps"]:
            cli_cert = np.load(out / f"certainty_{step['time']:06d}.npy")
            assert content_digest(cli_cert) == step["digest"]

    def test_track_matches_cli(self, serve_root, client, tmp_path, capsys):
        seed, (lo, hi) = _ring_track_args(serve_root)
        out = tmp_path / "masks.npy"
        rc = cli_main(["track", str(serve_root / "argon"),
                       "--seed-voxel", *[str(v) for v in seed],
                       "--range", repr(lo), repr(hi), "--out", str(out)])
        assert rc == 0
        capsys.readouterr()
        resp = client.track(sequence="argon", seed_voxel=seed, range=[lo, hi])
        assert resp["voxel_counts"][0] > 0, "seed must actually grow"
        assert content_digest(np.load(out)) == resp["masks_digest"]

    def test_render_matches_cli_png_bytes(self, serve_root, client, tmp_path,
                                          capsys):
        out = tmp_path / "frames"
        rc = cli_main(["render", str(serve_root / "argon"), "--out", str(out),
                       "--size", "32", "--format", "png"])
        assert rc == 0
        capsys.readouterr()
        resp = client.render(sequence="argon", size=32)
        assert [f["time"] for f in resp["frames"]] == TIMES
        for frame in resp["frames"]:
            cli_png = (out / f"frame_{frame['time']:06d}.png").read_bytes()
            assert client.frame(frame["digest"]) == cli_png
            assert client.frame(frame["path"]) == cli_png

    def test_run_matches_cli_report(self, serve_root, client, tmp_path,
                                    capsys):
        config = {"sequence": "argon", "stages": ["classify"],
                  "classify": {"mask": "ring", "train_steps": [0],
                               "epochs": 40, "samples": 40}}
        cfg_path = tmp_path / "cfg.json"
        import json as _json
        cfg_path.write_text(_json.dumps(
            {**config, "sequence": str(serve_root / "argon")}))
        rc = cli_main(["run", str(cfg_path), "--out", str(tmp_path / "run")])
        assert rc == 0
        cli_out = capsys.readouterr().out
        resp = client.run(config)
        assert resp["executed"] + resp["skipped"] > 0
        for stage, status in resp["stages"].items():
            assert f"stage {stage}: {status}" in cli_out
        # Re-posting the same config resumes: everything skips.
        again = client.run(config)
        assert again["executed"] == 0
        assert again["skipped"] == resp["executed"] + resp["skipped"]


# --------------------------------------------------------------------- #
# Residency + request validation
# --------------------------------------------------------------------- #
class TestResidency:
    def test_repeat_classify_hits_resident_classifier(self, client):
        first = client.classify(**CLASSIFY_PARAMS)
        base_hits = _count("serve.classifier_cache.hits")
        second = client.classify(**CLASSIFY_PARAMS)
        assert second == first
        assert _count("serve.classifier_cache.hits") == base_hits + 1

    def test_healthz_reports_sequences_and_pool(self, client):
        health = client.healthz()
        assert health["status"] == "ok"
        assert "argon" in health["sequences"]
        assert health["pool"]["configured"] >= 1

    def test_metrics_exports_serve_counters(self, client):
        client.healthz()
        text = client.metrics()
        assert any(line.startswith("serve.requests ")
                   for line in text.splitlines())


# Minimal valid track and render bodies, for the type battery.
TRACK_PARAMS = {"sequence": "argon", "seed_voxel": [0, 6, 7, 7], "range": [0.0, 1.0]}
RENDER_PARAMS = {"sequence": "argon", "size": 16}
BODIES = {"classify": CLASSIFY_PARAMS, "track": TRACK_PARAMS, "render": RENDER_PARAMS}


class TestValidation:
    def test_unknown_parameter_is_400(self, client):
        # prune names an option the fast classifier no longer has.
        for name in ("bogus", "prune"):
            with pytest.raises(ServeHTTPError) as info:
                client.classify(**CLASSIFY_PARAMS, **{name: True})
            assert info.value.status == 400
            assert f"'{name}'" in str(info.value)

    def test_missing_required_parameter_is_400(self, client):
        with pytest.raises(ServeHTTPError) as info:
            client.classify(sequence="argon", mask="ring")
        assert info.value.status == 400

    @pytest.mark.parametrize("option", ["cache"])
    def test_exact_classify_with_fast_only_option_is_400(self, client, option):
        with pytest.raises(ServeHTTPError) as info:
            client.classify(**{**CLASSIFY_PARAMS, "mode": "exact", option: True})
        assert info.value.status == 400

    @pytest.mark.parametrize("endpoint,field,value", [
        # A flag read by truthiness would run "false" as true.
        ("classify", "cache", "false"),
        ("track", "streaming", "false"),
        ("track", "refine", "no"),
        ("render", "shading", "false"),
        ("render", "fast", "false"),
        ("render", "cache", "false"),
        # A wrong-typed number must not reach a compute (500) or be
        # truncated (size 16.7 rendering at 16).
        ("classify", "train_steps", 195),
        ("classify", "train_steps", []),
        ("classify", "samples", "30"),
        ("classify", "radius", "x"),
        ("classify", "seed", 1.5),
        ("render", "azimuth", "x"),
        ("render", "opacity", "x"),
        ("render", "box", 5),
        ("render", "cell", 0),
        ("render", "tiles", 0),
        ("render", "size", 16.7),
        ("render", "iatf", "x"),
    ])
    def test_wrong_typed_value_is_400_naming_it(self, client, endpoint, field, value):
        body = {**BODIES[endpoint], field: value}
        if field == "refine":
            body["streaming"] = True    # refine applies to streaming only
        if field in ("cell", "tiles"):
            body["fast"] = True         # both tune the fast caster only
        with pytest.raises(ServeHTTPError) as info:
            getattr(client, endpoint)(**body)
        assert info.value.status == 400
        assert f"'{field}'" in str(info.value)

    @pytest.mark.parametrize("field,override", [
        ("ert_alpha", {"fast": True, "ert_alpha": 2}),
        ("ert_alpha", {"fast": True, "ert_alpha": 0}),
        ("ert_alpha", {"fast": True, "ert_alpha": -0.2}),
        ("iatf", {"iatf": {"x": 1}}),
    ], ids=["ert-alpha-2", "ert-alpha-0", "ert-alpha-negative", "iatf-no-domain"])
    def test_bad_render_value_is_400_naming_it(self, client, field, override):
        """A value of the right type that the render cannot take answers
        400 naming its field, before any frame renders (not a 500 carrying
        a worker's traceback or a ``KeyError``)."""
        with pytest.raises(ServeHTTPError) as info:
            client.render(**RENDER_PARAMS, **override)
        assert info.value.status == 400
        assert f"'{field}'" in str(info.value)
        assert "Traceback" not in str(info.value)

    def test_thin_axis_shaded_render_is_400_naming_shading(self, client, serve_root):
        """A volume with an axis shorter than 2 cannot be shaded: 400
        naming ``shading`` before any frame renders; unshaded it renders."""
        save_sequence(make_argon_sequence(shape=(1, 16, 16), times=[195]),
                      serve_root / "thin")
        with pytest.raises(ServeHTTPError) as info:
            client.render(sequence="thin", size=8)
        assert info.value.status == 400
        assert "'shading'" in str(info.value)
        assert "Traceback" not in str(info.value)
        assert len(client.render(sequence="thin", size=8, shading=False)["frames"]) == 1

    def test_int_and_float_numbers_are_one_request(self, client):
        a = client.render(**RENDER_PARAMS, azimuth=30, opacity=1)
        b = client.render(**RENDER_PARAMS, azimuth=30.0, opacity=1.0)
        assert a == b

    def test_bad_run_fast_options_is_400(self, client):
        config = {"sequence": "argon", "stages": ["tfs", "render"],
                  "render": {"mode": "fast", "fast_options": {"workers": 2}}}
        with pytest.raises(ServeHTTPError) as info:
            client.run(config)
        assert info.value.status == 400

    def test_bad_run_seed_is_400(self, client):
        config = {"sequence": "argon", "stages": ["track"],
                  "track": {"criterion": "fixed", "lo": 0.0, "hi": 1.0,
                            "seed_voxel": [0, 99, 0, 0]}}
        with pytest.raises(ServeHTTPError) as info:
            client.run(config)
        assert info.value.status == 400

    def test_bad_run_connectivity_is_400(self, client):
        config = {"sequence": "argon", "stages": ["track"],
                  "track": {"criterion": "fixed", "lo": 0.0, "hi": 1.0,
                            "seed_voxel": [0, 6, 7, 7], "connectivity": 0}}
        with pytest.raises(ServeHTTPError) as info:
            client.run(config)
        assert info.value.status == 400

    @pytest.mark.parametrize("override", [
        {"opacity_threshold": 2},
        {"seed_voxel": ["a", 12, 11, 6]},
        {"iatf": {"x": 1}},
        {"streaming": True, "seed_voxel": [0, -12, 11, 6]},
    ], ids=["opacity-threshold", "seed-not-int", "iatf-no-domain",
            "streaming-negative-seed"])
    def test_bad_track_body_is_400(self, client, override):
        body = {"sequence": "argon", "seed_voxel": [0, 6, 7, 7],
                "range": [0.0, 1.0], **override}
        with pytest.raises(ServeHTTPError) as info:
            client.track(**body)
        assert info.value.status == 400

    def test_unknown_sequence_is_404(self, client):
        with pytest.raises(ServeHTTPError) as info:
            client.classify(**{**CLASSIFY_PARAMS, "sequence": "nope"})
        assert info.value.status == 404

    def test_unknown_route_is_404(self, client):
        status, _headers, _body = client.request("GET", "/v1/nope")
        assert status == 404

    def test_wrong_method_is_405_with_allow(self, client):
        status, headers, _body = client.request("GET", "/v1/classify")
        assert status == 405
        assert "POST" in headers.get("allow", "")

    def test_evicted_frame_is_404(self, client):
        with pytest.raises(ServeHTTPError) as info:
            client.frame("0" * 32)
        assert info.value.status == 404

    def test_failed_compute_is_not_cached(self, client, monkeypatch):
        calls = {"n": 0}

        def flaky(state, params):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return {"ok": True}

        monkeypatch.setattr(handlers, "compute_classify", flaky)
        status, _headers, _body = client.request("POST", "/v1/classify",
                                                 CLASSIFY_PARAMS)
        assert status == 500
        status, _headers, body = client.request("POST", "/v1/classify",
                                                CLASSIFY_PARAMS)
        assert status == 200 and b"ok" in body
        assert calls["n"] == 2
