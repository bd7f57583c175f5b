"""The benchmark's four workloads.

Each workload makes its inputs from a seed, sets up (timed by the caller),
then repeats one operation — a cold run, a resume, or a served request —
and checks its outputs.  Sizes are constructor arguments, so the smoke
test runs every workload at toy scale through the same code.

Why these four (see README.md): ``argon-cold`` is the serial compute
baseline of the Sec. 7 pipeline; ``argon-resume`` bypasses compute so
load, digest, store verification and manifest saves own the time;
``combustion-pooled`` is render-bound on the resident pool with the
dataflow walk; ``serve-interactive`` is the only request path.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage

from repro.core.iatf import AdaptiveTransferFunction
from repro.data import make_argon_sequence, make_combustion_sequence, make_vortex_sequence
from repro.obs import get_metrics
from repro.run import PipelineRunner, RunConfig
from repro.serve.client import ServeClient
from repro.transfer.tf1d import TransferFunction1D
from repro.volume.grid import Volume, VolumeSequence
from repro.volume.io import save_sequence

HERE = Path(__file__).resolve().parent
NOISE_SCALE = 0.01   # seeded voxel noise, as a share of each step's std
SERVE_WORKERS = 2    # pool workers of the serve daemon
# The reference kernel's time that defines the host speed timings are
# scaled to (about its median on the 2-vCPU Xeon host the bounds were
# measured on).  It fixes the scale of the reported seconds, nothing else.
REFERENCE_S = 0.0125
REFERENCE_SHARE = 0.03   # kernel time after an operation, as a share of it

# Inputs of the reference kernel: fixed, never derived from the seed.
_REF_BYTES = np.random.default_rng(0).integers(0, 256, 2 << 20, dtype=np.uint8).tobytes()
_REF_X = np.random.default_rng(1).standard_normal((4096, 32)).astype(np.float32)
_REF_W = np.random.default_rng(2).standard_normal((32, 32)).astype(np.float32)
_REF_SORT = np.random.default_rng(3).standard_normal((128, 128, 64)).astype(np.float32)


def _reference_kernel() -> None:
    # One of each kind of work the program does: hashing (digests),
    # small float32 GEMMs with tanh (the classifier), interpreted Python
    # (the runner, the server) and a numpy sort (array passes).
    hashlib.blake2b(_REF_BYTES).digest()
    for _ in range(10):
        np.tanh(_REF_X @ _REF_W)
    total = 0
    for i in range(50_000):
        total += i * i
    np.sort(_REF_SORT, axis=2)


def reference_time(after: float = 0.0) -> float:
    """Wall seconds the fixed reference kernel takes now, averaged over
    the CPUs this process may run on (the process is pinned to each in
    turn, then unpinned) and over rounds of that, repeated until
    ``REFERENCE_SHARE`` of ``after`` (the wall time of the operation just
    measured) has passed.

    The shared host changes speed by ±20% over minutes, and in about a
    quarter of the probes its two vCPUs differ by 25% or more; no run
    length averages that out.
    Timings are therefore divided by the mean of this measured just
    before and just after each operation or set-up, and multiplied by
    ``REFERENCE_S``.  One kernel run reads about ±7% from the next, so a
    long operation, which a single run would bracket poorly, gets more.
    """
    cpus = sorted(os.sched_getaffinity(0))
    elapsed, runs = 0.0, 0
    try:
        while not runs or elapsed < REFERENCE_SHARE * after:
            for cpu in cpus:
                os.sched_setaffinity(0, {cpu})
                start = time.perf_counter()
                _reference_kernel()
                elapsed += time.perf_counter() - start
                runs += 1
    finally:
        os.sched_setaffinity(0, cpus)
    return elapsed / runs


@dataclass
class Op:
    """One timed operation: its wall interval, the steps it delivered,
    the failed checks (an exception counts as one), its kind (the
    request type; empty for a batch operation) and the reference
    kernel's time around it."""

    start: float
    end: float
    steps: int
    errors: list = field(default_factory=list)
    kind: str = ""
    reference: float = REFERENCE_S

    @property
    def seconds(self) -> float:
        """Wall time scaled to the reference host speed."""
        return (self.end - self.start) * REFERENCE_S / self.reference


def seeded(sequence, seed: int):
    """The canonical sequence with every voxel perturbed by seeded noise.

    The generators' own seeds move the features' geometry and with it the
    work a run does (combustion render time varied by ~30% across
    generator seeds).  So each workload keeps its dataset's canonical
    geometry (the generator's default seed) and the benchmark seed adds
    Gaussian noise of ``NOISE_SCALE`` times the step's standard deviation:
    every seed gives different bytes — new digests, keys and cache
    entries — for the same amount of work.
    """
    rng = np.random.default_rng(seed)
    volumes = []
    for vol in sequence:
        noise = rng.standard_normal(vol.shape, dtype=np.float32)
        scale = np.float32(NOISE_SCALE * float(vol.data.std()))
        volumes.append(Volume(vol.data + scale * noise,
                              time=vol.time, name=vol.name, masks=vol.masks))
    return VolumeSequence(volumes, name=sequence.name)


def deepest_voxel(mask: np.ndarray) -> list[int]:
    """The mask voxel farthest from the mask's boundary (a robust seed)."""
    depth = ndimage.distance_transform_edt(mask)
    return [int(v) for v in np.unravel_index(int(np.argmax(depth)), mask.shape)]


def run_fingerprint(run_dir: Path) -> tuple:
    """``manifest.json`` bytes plus every store key with its payload digest."""
    manifest = (run_dir / "manifest.json").read_bytes()
    digests = {}
    for meta in sorted((run_dir / "store").glob("*.meta.json")):
        info = json.loads(meta.read_text())
        digests[info["key"]] = info["payload_digest"]
    return manifest, digests


def _stored_array(run_dir: Path, key: str) -> np.ndarray:
    # Read straight from the files so checks never pass through (traced)
    # store calls.
    meta = json.loads((run_dir / "store" / f"{key}.meta.json").read_text())
    data = np.fromfile(run_dir / "store" / f"{key}.bin", dtype=np.dtype(meta["dtype"]))
    return data.reshape(meta["shape"])


def check_run_outputs(run_dir: Path) -> list[str]:
    """Tracked masks non-empty, every frame with coverage > 0."""
    errors = []
    stages = json.loads((run_dir / "manifest.json").read_text())["stages"]
    if "track" in stages:
        voxels = sum(int(np.count_nonzero(_stored_array(run_dir, t["key"])))
                     for t in stages["track"]["tasks"].values())
        if voxels == 0:
            errors.append("tracked mask is empty")
    for label, task in stages.get("render", {}).get("tasks", {}).items():
        if not (_stored_array(run_dir, task["key"])[..., 3] > 0).any():
            errors.append(f"frame {label} has zero coverage")
    return errors


class Workload:
    """Set up, then repeat :meth:`op` for a time budget."""

    name = ""
    single_cpu = False    # all work runs in this one process
    mix = {"": 1}         # share of each operation kind (``Op.kind``)

    def __init__(self, workdir, seed: int, shape: tuple, steps: int, size: int) -> None:
        self.workdir = Path(workdir)
        self.seed = int(seed)
        self.shape = tuple(shape)     # volume grid
        self.steps = steps            # time steps per sequence (and per op)
        self.size = size              # rendered image edge
        self.tracer = None
        self._ops = 0

    def setup(self, k: int) -> None:
        """Make inputs (and whatever the op needs) from scratch; timed."""
        raise NotImplementedError

    def discard(self, k: int) -> None:
        """Drop set-up ``k`` once a later one replaces it; untimed."""
        shutil.rmtree(self.workdir / f"setup{k}", ignore_errors=True)

    def op(self, index: int) -> Op:
        raise NotImplementedError

    def measure(self, seconds: float) -> list[Op]:
        """Closed loop of :meth:`op` until ``seconds`` have passed."""
        ops = []
        deadline = time.perf_counter() + seconds
        before = reference_time()
        while not ops or time.perf_counter() < deadline:
            op = self._run_op()
            after = reference_time(op.end - op.start)
            op.reference = (before + after) / 2
            ops.append(op)
            before = after
        return ops

    def _run_op(self) -> Op:
        index = self._ops
        self._ops += 1
        if self.tracer is not None:
            self.tracer.trace_id = f"{self.name}:{index}"
        return self.op(index)

    def set_tracing(self, on: bool) -> None:
        self.tracer.enable(on)

    def counters(self) -> dict:
        """The program's obs counters (for per-layer deltas)."""
        return dict(get_metrics().snapshot()["counters"])

    def describe(self) -> dict:
        """Volume shape and image size, for the Sec. 7 table."""
        return {"volume": self.shape, "window": self.size, "steps": self.steps}

    def close(self) -> list[str]:
        """Release what the workload holds; returns failed checks."""
        return []


def _timed(fn) -> tuple:
    start = time.perf_counter()
    try:
        result = fn()
    except Exception as exc:  # noqa: BLE001 - the loop reports and keeps going
        return start, time.perf_counter(), None, [f"{type(exc).__name__}: {exc}"]
    return start, time.perf_counter(), result, []


# --------------------------------------------------------------------- #
# Batch workloads
# --------------------------------------------------------------------- #
class ColdRuns(Workload):
    """Each op is a cold run into a fresh run directory, which must equal
    the first op's byte for byte (manifest, store keys, payload digests)."""

    tasks = 0   # tasks a cold run executes

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.reference = None

    def _cold_run(self, run_dir: Path):
        raise NotImplementedError

    def op(self, index: int) -> Op:
        run_dir = self.workdir / "runs" / f"{index:05d}"
        start, end, report, errors = _timed(lambda: self._cold_run(run_dir))
        if report is not None:
            if (report.executed, report.skipped) != (self.tasks, 0):
                errors.append(f"cold run executed {report.executed}, skipped "
                              f"{report.skipped}; expected {self.tasks}, 0")
            fingerprint = run_fingerprint(run_dir)
            if self.reference is None:
                self.reference = fingerprint
                errors += check_run_outputs(run_dir)
            elif fingerprint != self.reference:
                errors.append(f"run {index}: manifest or store differs from run 0")
        if index > 0:
            shutil.rmtree(run_dir, ignore_errors=True)
        return Op(start, end, self.steps if not errors else 0, errors)


class ArgonCold(ColdRuns):
    """Full DAG over argon: classify fast, track, box TF, render fast;
    one worker, barrier walk, a fresh run directory per op."""

    name = "argon-cold"
    single_cpu = True

    def __init__(self, workdir, seed, shape: int = 96, steps: int = 8,
                 size: int = 192) -> None:
        super().__init__(workdir, seed, (shape, shape, shape), steps, size)
        self.tasks = 3 * steps + 2      # train + per-step classify/tf/render + track

    def _make_inputs(self, root: Path) -> RunConfig:
        sequence = seeded(make_argon_sequence(
            shape=self.shape, times=[195 + 5 * i for i in range(self.steps)]), self.seed)
        save_sequence(sequence, root / "argon")
        return RunConfig.from_dict({
            "sequence": str(root / "argon"),
            "stages": ["classify", "track", "tfs", "render"],
            "classify": {"mask": "ring", "mode": "fast"},
            "track": {"seed_voxel": [0, *deepest_voxel(sequence[0].mask("ring"))]},
            "tfs": {"kind": "box"},
            "render": {"size": self.size, "mode": "fast"},
        })

    def setup(self, k: int) -> None:
        self.config = self._make_inputs(self.workdir / f"setup{k}")

    def _cold_run(self, run_dir: Path):
        return PipelineRunner.create(self.config, run_dir, workers=1).run()


class ArgonResume(ArgonCold):
    """Resume the completed argon-cold run directory: every task skipped."""

    name = "argon-resume"

    def setup(self, k: int) -> None:
        root = self.workdir / f"setup{k}"
        self.config = self._make_inputs(root)
        self.run_dir = root / "run"
        PipelineRunner.create(self.config, self.run_dir, workers=1).run()
        self.reference = None

    def op(self, index: int) -> Op:
        if self.reference is None:
            self.reference = run_fingerprint(self.run_dir)
        start, end, report, errors = _timed(
            lambda: PipelineRunner.resume(self.run_dir).run())
        if report is not None:
            if (report.executed, report.skipped) != (0, self.tasks):
                errors.append(f"resume executed {report.executed}, skipped "
                              f"{report.skipped}; expected 0, {self.tasks}")
            if run_fingerprint(self.run_dir) != self.reference:
                errors.append("resume changed the manifest or the store")
        return Op(start, end, self.steps if not errors else 0, errors)


class CombustionPooled(ColdRuns):
    """Combustion with IATF transfer functions, fast render, two workers,
    pipelined dataflow walk on the run's resident pool, cold each op."""

    name = "combustion-pooled"

    def __init__(self, workdir, seed, shape=(48, 144, 96), steps: int = 12,
                 size: int = 192, iatf_epochs: int = 300) -> None:
        super().__init__(workdir, seed, shape, steps, size)
        self.iatf_epochs = iatf_epochs
        self.tasks = 2 * steps          # per-step tf + render

    def setup(self, k: int) -> None:
        root = self.workdir / f"setup{k}"
        times = sorted({int(round(t)) for t in np.linspace(8, 128, self.steps)})
        sequence = seeded(make_combustion_sequence(shape=self.shape, times=times), self.seed)
        save_sequence(sequence, root / "combustion")
        # The train-iatf recipe: tents over the core's value band on the
        # first and last steps, one domain for the whole sequence.
        domain = sequence.value_range
        iatf = AdaptiveTransferFunction(domain, (times[0], times[-1]), seed=3, committee=5)
        for t in (times[0], times[-1]):
            vol = sequence.at_time(t)
            lo, hi = np.percentile(vol.data[vol.mask("core")], [2.0, 98.0])
            lo, hi = lo - 0.02, hi + 0.02
            iatf.add_key_frame(vol, TransferFunction1D(domain).add_tent(
                (lo + hi) / 2, (hi - lo) * 2.5, 1.0))
        iatf.train(epochs=self.iatf_epochs)
        (root / "iatf.json").write_text(json.dumps(iatf.to_dict()))
        self.config = RunConfig.from_dict({
            "sequence": str(root / "combustion"),
            "stages": ["tfs", "render"],
            "tfs": {"kind": "iatf", "iatf": str(root / "iatf.json")},
            "render": {"size": self.size, "mode": "fast"},
        })

    def _cold_run(self, run_dir: Path):
        return PipelineRunner.create(self.config, run_dir, workers=2,
                                     pipelined=True).run()


# --------------------------------------------------------------------- #
# Served requests
# --------------------------------------------------------------------- #
BOOKMARKS = [0.0, 90.0, 180.0, 270.0]   # pre-warmed azimuths


class ServeInteractive(Workload):
    """``repro serve`` as a subprocess, driven by one closed-loop client
    (one connection at a time) from this process.  With a tracer attached
    before set-up, the daemon runs under the tracing launcher.

    One client, not two: with two, a request's latency mostly depended on
    which request the other client had queued ahead of it on the one-at-
    a-time dispatcher, and the run-to-run spread of the median latency
    rose from ~7% to ~24% in interleaved runs.

    Mix: 40% track (fixed range, streaming alternating), 35% fast render
    with the shared cache (half on pre-warmed bookmarked azimuths, half on
    fresh ones: a miss plus a shared-cache write), 25% fast classify with
    the classifier resident.
    """

    name = "serve-interactive"
    mix = {"track": 16, "hit": 7, "fresh": 7, "classify": 10}   # one deck

    def __init__(self, workdir, seed, shape: int = 64, steps: int = 8,
                 size: int = 128) -> None:
        super().__init__(workdir, seed, (shape, shape, shape), steps, size)
        self.daemon = None
        self._signatures: dict = {}
        self._rng = random.Random(self.seed)
        self._deck: list = []
        self._tracks = 0

    # -- set-up ------------------------------------------------------- #
    def setup(self, k: int) -> None:
        root = self.workdir / f"setup{k}"
        times = [50 + 3 * i for i in range(self.steps)]
        sequence = seeded(make_vortex_sequence(shape=self.shape, times=times), self.seed)
        save_sequence(sequence, root / "vortex")
        self.seed_voxel = [0, *deepest_voxel(sequence[0].mask("vortex"))]
        self.train_step = times[0]
        self._signatures = {}
        self.daemon, port = self._boot(root)
        self.client = ServeClient("127.0.0.1", port, timeout=120.0)
        # Warm-up: load the sequence, train the classifier, fill the
        # shared frame cache for every bookmarked view.
        warm = [("classify", self._classify_body())]
        warm += [("track", self._track_body(streaming)) for streaming in (False, True)]
        warm += [("render", self._render_body(azimuth)) for azimuth in BOOKMARKS]
        for kind, body in warm:
            errors = self._check(kind, body, getattr(self.client, kind)(**body))
            if errors:
                raise RuntimeError(f"warm-up {kind} failed its checks: {errors}")

    def _boot(self, root: Path):
        serve = ["serve", "--root", str(root), "--port", "0",
                 "--workers", str(SERVE_WORKERS)]
        if self.tracer is not None:
            # Traced runs boot the daemon through the tracing launcher,
            # writing into the same trace directory as this process.
            cmd = [sys.executable, str(HERE / "tracing.py"),
                   str(self.tracer.out_dir), "--", *serve]
        else:
            cmd = [sys.executable, "-m", "repro.cli", *serve]
        log = open(self.workdir / "daemon.log", "ab")
        try:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log)
        finally:
            log.close()
        ready, _, _ = select.select([proc.stdout], [], [], 60.0)
        line = proc.stdout.readline().decode() if ready else ""
        if "http://" not in line:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"serve daemon did not start (see {self.workdir}/daemon.log)")
        port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        return proc, port

    def _stop(self) -> list[str]:
        proc, self.daemon = self.daemon, None
        if proc is None:
            return []
        proc.send_signal(signal.SIGTERM)
        try:
            code = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return ["serve daemon did not drain within 60 s"]
        finally:
            proc.stdout.close()
        return [] if code == 0 else [f"serve daemon exited with {code}"]

    def discard(self, k: int) -> None:
        self._stop()
        super().discard(k)

    def close(self) -> list[str]:
        return self._stop()

    # -- requests ----------------------------------------------------- #
    def _classify_body(self) -> dict:
        return {"sequence": "vortex", "mask": "vortex", "train_steps": [self.train_step],
                "mode": "fast", "samples": 100, "epochs": 150}

    def _track_body(self, streaming: bool) -> dict:
        return {"sequence": "vortex", "seed_voxel": self.seed_voxel,
                "range": [0.5, 1.0], "streaming": streaming}

    def _render_body(self, azimuth: float) -> dict:
        return {"sequence": "vortex", "size": self.size, "fast": True,
                "cache": True, "azimuth": azimuth}

    def _check(self, kind: str, body: dict, response: dict) -> list[str]:
        """Failed checks of one response; equal bodies must answer equally."""
        if kind == "track":
            signature = response["masks_digest"]
            errors = [] if sum(response["voxel_counts"]) > 0 else ["tracked mask is empty"]
        elif kind == "render":
            signature = [(f["digest"], f["coverage"]) for f in response["frames"]]
            errors = [f"frame {f['time']} has zero coverage"
                      for f in response["frames"] if not f["coverage"] > 0]
        else:
            signature = [s["digest"] for s in response["steps"]]
            errors = []
        key = json.dumps([kind, body], sort_keys=True)
        expected = self._signatures.setdefault(key, signature)
        if signature != expected:
            errors.append(f"{kind} {body} answered differently for an equal body")
        return errors

    def op(self, index: int) -> Op:
        # The mix is dealt from a shuffled deck rather than drawn per
        # request: every 40 requests hold exactly the stated shares, so the
        # seed changes order and fresh views but not how much work a run
        # does (a fresh render costs several times a cached one).  The
        # metrics weight the last, partial deck back to the same shares.
        if not self._deck:
            self._deck = [kind for kind, n in self.mix.items() for _ in range(n)]
            self._rng.shuffle(self._deck)
        label = kind = self._deck.pop()
        if kind == "track":
            body = self._track_body(streaming=self._tracks % 2 == 1)
            self._tracks += 1
        elif kind == "classify":
            body = self._classify_body()
        else:
            azimuth = (self._rng.choice(BOOKMARKS) if kind == "hit"
                       else round(self._rng.uniform(0.0, 360.0), 3))
            kind, body = "render", self._render_body(azimuth)
        start, end, response, errors = _timed(lambda: getattr(self.client, kind)(**body))
        if response is not None:
            errors += self._check(kind, body, response)
        return Op(start, end, 0 if errors else self.steps, errors, label)

    def set_tracing(self, on: bool) -> None:
        # The daemon's launcher switches its tracing on at SIGUSR1; the
        # health round trip returns once the handler has run.
        if on and self.daemon is not None:
            self.daemon.send_signal(signal.SIGUSR1)
            self.client.healthz()

    def counters(self) -> dict:
        counters, section = {}, None
        for line in self.client.metrics().splitlines():
            if line.startswith("#"):
                section = line
            elif section == "# counters" and line.strip():
                name, value = line.rsplit(" ", 1)
                counters[name] = int(value)
        return counters


WORKLOADS = {cls.name: cls for cls in (ArgonCold, ArgonResume, CombustionPooled,
                                       ServeInteractive)}
