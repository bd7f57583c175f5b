"""Endpoint compute: resident state + the functions the dispatcher runs.

Everything here executes on the :class:`~repro.parallel.pool.PoolDispatcher`
thread, one request at a time, so :class:`ServeState`'s mutable members
(loaded sequences, trained classifiers, the frame store) need no locks —
the event loop only ever reads cheap scalars from them for ``/healthz``.

The compute functions deliberately reuse the CLI's own building blocks
(:func:`~repro.core.pipeline.train_sequence_classifier`,
:func:`~repro.core.pipeline.classify_sequence`,
:func:`~repro.core.pipeline.render_sequence`,
:class:`~repro.core.tracking.FeatureTracker`,
:class:`~repro.run.runner.PipelineRunner`) with the same defaults, so a
served response is byte-identical to the equivalent cold CLI invocation —
the property the differential tests pin.  What the daemon adds is
residency: classifiers train once per parameter set, sequences load once,
the shared array cache and run store persist across requests, and the
worker pool never respawns.
"""

from __future__ import annotations

import json
import re
from collections import OrderedDict
from pathlib import Path

from repro.cache.shared import SharedArrayCache
from repro.cache.store import ArtifactStore, derive_key
from repro.core.iatf import AdaptiveTransferFunction
from repro.core.pipeline import (
    classify_sequence,
    frame_digest,
    render_sequence,
    train_sequence_classifier,
)
from repro.core.tracking import FeatureTracker
from repro.metrics import feature_retention
from repro.obs import get_metrics
from repro.parallel.bricking import content_digest
from repro.render.camera import Camera
from repro.render.raycast import ALPHA_CUTOFF
from repro.run import ConfigError, PipelineRunner, RunConfig, RunError
from repro.serve.errors import BadRequest, NotFound
from repro.transfer.tf1d import TransferFunction1D
from repro.volume.io import load_sequence

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")

_REQUIRED = object()

# Parameter schemas: one dict per endpoint, value = default (or _REQUIRED).
# Normalization merges defaults in, so an omitted parameter and an
# explicitly-passed default produce the *same* canonical dict — and hence
# the same coalescing key.
_SCHEMAS: dict[str, dict] = {
    "classify": {
        "sequence": _REQUIRED,
        "mask": _REQUIRED,
        "train_steps": _REQUIRED,
        "samples": 150,
        "radius": 0,
        "epochs": 300,
        "seed": 11,
        "mode": "fast",
        "prune": False,
        "cache": False,
    },
    "track": {
        "sequence": _REQUIRED,
        "seed_voxel": _REQUIRED,
        "range": None,
        "iatf": None,
        "opacity_threshold": 0.1,
        "streaming": False,
        "refine": True,
    },
    "render": {
        "sequence": _REQUIRED,
        "size": 160,
        "azimuth": 30.0,
        "elevation": 20.0,
        "box": None,
        "opacity": 0.8,
        "iatf": None,
        "shading": True,
        "fast": False,
        "tiles": None,
        "ert_alpha": None,
        "cell": 8,
        "cache": False,
    },
    "run": {
        "config": _REQUIRED,
    },
}


def normalize(endpoint: str, raw: dict) -> dict:
    """Merge an endpoint's defaults into a request body; reject junk.

    Raises :class:`BadRequest` for unknown or missing-required keys.  The
    result is the canonical parameter dict both the coalescing key and
    the compute function consume.
    """
    schema = _SCHEMAS.get(endpoint)
    if schema is None:
        raise BadRequest(f"unknown endpoint {endpoint!r}")
    if not isinstance(raw, dict):
        raise BadRequest("request body must be a JSON object")
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise BadRequest(f"unknown parameter(s) for {endpoint}: {unknown}")
    params = {}
    for key, default in schema.items():
        if key in raw:
            params[key] = raw[key]
        elif default is _REQUIRED:
            raise BadRequest(f"missing required parameter {key!r}")
        else:
            params[key] = default
    return params


def request_key(endpoint: str, params: dict) -> str:
    """The coalescing key: content-derived from endpoint + canonical params.

    Stored sequences are immutable while served (the daemon caches them
    in memory on first load), so the sequence *name* inside ``params``
    stands in for its content digest here.
    """
    return derive_key(f"serve.{endpoint}", params)


class ServeState:
    """Everything the daemon keeps resident across requests."""

    def __init__(self, root, workers: int = 1, pool=None,
                 max_frames: int = 256) -> None:
        self.root = Path(root)
        if not self.root.is_dir():
            raise NotADirectoryError(f"serve root {self.root} is not a directory")
        self.workers = int(workers)
        self.pool = pool                       # resident WorkerPool or None
        self.max_frames = int(max_frames)
        self._sequences: dict[str, object] = {}
        self._classifiers: dict[str, tuple] = {}
        self._frames: OrderedDict[str, bytes] = OrderedDict()
        self._shared_cache: SharedArrayCache | None = None
        self._run_store: ArtifactStore | None = None

    # ------------------------------------------------------------------ #
    # Resident resources
    # ------------------------------------------------------------------ #
    def sequence_names(self) -> list[str]:
        """Sequences available under the root (saved sequence directories)."""
        return sorted(p.parent.name for p in self.root.glob("*/sequence.json"))

    def follow_statuses(self) -> list[dict]:
        """Live follow-mode progress snapshots under the serve root.

        Every :class:`~repro.run.follow.FollowRunner` writes a volatile
        ``follow_status.json`` into its run directory; this scans both
        direct children of the root and the daemon's own ``runs/`` area.
        Cheap JSON reads (like ``/healthz``), safe on the event loop; a
        mid-rewrite or vanished file is simply skipped — the follower
        rewrites it atomically moments later.
        """
        statuses = []
        candidates = sorted(self.root.glob("*/follow_status.json"))
        candidates += sorted(self.root.glob("runs/*/follow_status.json"))
        for path in candidates:
            try:
                payload = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if isinstance(payload, dict):
                payload["run_dir"] = str(path.parent)
                statuses.append(payload)
        return statuses

    def sequence(self, name: str):
        """Load (once) and return the named stored sequence."""
        if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
            raise BadRequest(f"invalid sequence name {name!r}")
        cached = self._sequences.get(name)
        if cached is not None:
            return cached
        seq_dir = self.root / name
        if not (seq_dir / "sequence.json").exists():
            raise NotFound(f"no stored sequence named {name!r} under {self.root}")
        sequence = load_sequence(seq_dir)
        self._sequences[name] = sequence
        return sequence

    def sequence_dir(self, name: str) -> Path:
        """The on-disk directory of a stored sequence (streaming track)."""
        self.sequence(name)          # validates the name and existence
        return self.root / name

    def classifier(self, params: dict, sequence):
        """The trained classifier for one training-parameter set.

        Training is the expensive half of classify; the daemon keys
        trained networks by their full parameter set and keeps them
        resident, so only the first request per configuration pays it.
        """
        key = derive_key("serve.classifier", {
            k: params[k] for k in ("sequence", "mask", "train_steps",
                                   "samples", "radius", "epochs", "seed")})
        cached = self._classifiers.get(key)
        if cached is not None:
            get_metrics().counter("serve.classifier_cache.hits").inc()
            return cached
        get_metrics().counter("serve.classifier_cache.misses").inc()
        try:
            classifier, radius = train_sequence_classifier(
                [sequence.at_time(int(t)) for t in params["train_steps"]],
                mask=params["mask"], samples=params["samples"],
                radius=params["radius"], epochs=params["epochs"],
                seed=params["seed"])
        except (ValueError, KeyError) as exc:
            raise BadRequest(str(exc)) from None
        self._classifiers[key] = (classifier, radius)
        return classifier, radius

    @property
    def shared_cache(self) -> SharedArrayCache:
        """On-disk array cache under the serve root (brick/frame reuse)."""
        if self._shared_cache is None:
            self._shared_cache = SharedArrayCache(self.root / ".cache")
        return self._shared_cache

    @property
    def run_store(self) -> ArtifactStore:
        """One content-addressed store shared by every ``/v1/run`` request.

        Keys are input-addressed, so two different configs over the same
        sequence share their common artifacts — cross-request memoization
        the cold CLI cannot have.
        """
        if self._run_store is None:
            self._run_store = ArtifactStore(self.root / ".store")
        return self._run_store

    # ------------------------------------------------------------------ #
    # Frame store (bounded, in-memory, keyed by frame digest)
    # ------------------------------------------------------------------ #
    def put_frame(self, digest: str, png: bytes) -> None:
        frames = self._frames
        frames[digest] = png
        frames.move_to_end(digest)
        while len(frames) > self.max_frames:
            frames.popitem(last=False)

    def frame(self, digest: str) -> bytes:
        png = self._frames.get(digest)
        if png is None:
            raise NotFound(f"no frame {digest!r} is resident; re-render it")
        self._frames.move_to_end(digest)
        return png

    def frame_count(self) -> int:
        return len(self._frames)


# --------------------------------------------------------------------- #
# Endpoint computes (dispatcher thread)
# --------------------------------------------------------------------- #
def _exec_backend(state: ServeState) -> str:
    return "process" if state.workers > 1 else "serial"


def _exec_pool(state: ServeState):
    return state.pool if state.workers > 1 else None


def compute_classify(state: ServeState, params: dict) -> dict:
    """Train-once classify-every-step; mirrors ``repro classify``."""
    sequence = state.sequence(params["sequence"])
    classifier, radius = state.classifier(params, sequence)
    if params["mode"] not in ("fast", "exact"):
        raise BadRequest(f"unknown classify mode {params['mode']!r}")
    results = classify_sequence(
        classifier, sequence, workers=state.workers,
        backend=_exec_backend(state), mode=params["mode"],
        prune=bool(params["prune"]),
        cache=state.shared_cache if params["cache"] else None,
        pool=_exec_pool(state))
    steps = []
    for vol, cert in zip(sequence, results):
        steps.append({
            "time": int(vol.time),
            "selected": int((cert > 0.5).sum()),
            "retention": float(feature_retention(cert, vol.mask(params["mask"]))),
            "digest": content_digest(cert),
        })
    return {"sequence": params["sequence"], "radius": int(radius),
            "mode": params["mode"], "steps": steps}


def compute_track(state: ServeState, params: dict) -> dict:
    """Fixed-range or adaptive tracking; mirrors ``repro track``."""
    if params["iatf"] is None and params["range"] is None:
        raise BadRequest("either 'iatf' or 'range' [lo, hi] is required")
    seed_voxel = params["seed_voxel"]
    if not (isinstance(seed_voxel, (list, tuple)) and len(seed_voxel) == 4):
        raise BadRequest("seed_voxel must be [step, z, y, x]")
    try:
        seed = tuple(int(v) for v in seed_voxel)
        tracker = FeatureTracker(opacity_threshold=float(params["opacity_threshold"]))
        iatf = lo = hi = None
        if params["iatf"] is not None:
            iatf = AdaptiveTransferFunction.from_dict(params["iatf"])
        else:
            lo, hi = (float(v) for v in params["range"])
        if params["streaming"]:
            source = state.sequence_dir(params["sequence"])
            refine = bool(params["refine"])
        else:
            source, refine = state.sequence(params["sequence"]), True
        result = tracker.track_streaming(source, seed, lo=lo, hi=hi, iatf=iatf,
                                         refine=refine)
    except KeyError as exc:
        raise BadRequest(f"missing field {exc}") from None
    except (ValueError, TypeError, IndexError) as exc:
        raise BadRequest(str(exc)) from None
    events = [{"kind": e.kind, "time_a": e.time_a, "time_b": e.time_b}
              for e in result.events if e.kind != "continuation"]
    return {
        "sequence": params["sequence"],
        "criterion": result.criterion,
        "times": [int(t) for t in result.times],
        "voxel_counts": [int(n) for n in result.voxel_counts],
        "component_counts": [int(c) for c in result.component_counts()],
        "events": events,
        "masks_digest": content_digest(result.masks),
    }


def compute_render(state: ServeState, params: dict) -> dict:
    """Render every step; mirrors ``repro render`` (PNG frames).

    The response carries per-frame metadata plus a ``path`` under
    ``/v1/frames/`` where the PNG bytes stream from the resident frame
    store — the same bytes ``repro render --format png`` writes.
    """
    sequence = state.sequence(params["sequence"])
    domain = sequence.value_range
    size = int(params["size"])
    if size < 1:
        raise BadRequest(f"size must be >= 1, got {params['size']!r}")
    camera = Camera(azimuth=float(params["azimuth"]),
                    elevation=float(params["elevation"]),
                    width=size, height=size)
    if params["iatf"] is not None:
        iatf = AdaptiveTransferFunction.from_dict(params["iatf"])
        tfs = [iatf.generate(vol) for vol in sequence]
    else:
        box = params["box"]
        lo = float(box[0]) if box else domain[0] + 0.3 * (domain[1] - domain[0])
        hi = float(box[1]) if box else domain[1]
        tfs = [TransferFunction1D(domain).add_box(lo, hi, float(params["opacity"]))
               ] * len(sequence)
    mode = "fast" if params["fast"] else "exact"
    fast_options = None
    if mode == "fast":
        fast_options = {"ert_alpha": (ALPHA_CUTOFF if params["ert_alpha"] is None
                                      else float(params["ert_alpha"])),
                        "cell": int(params["cell"])}
        if params["tiles"] is not None:
            fast_options["tile"] = int(params["tiles"])
    elif params["tiles"] is not None or params["ert_alpha"] is not None:
        raise BadRequest("'tiles'/'ert_alpha' tune the fast path; set fast=true")
    images = render_sequence(
        sequence, tfs, camera=camera, shading=bool(params["shading"]),
        workers=state.workers, backend=_exec_backend(state), mode=mode,
        fast_options=fast_options,
        cache=state.shared_cache if params["cache"] else None,
        pool=_exec_pool(state))
    # Rebuild the renderer signature exactly as render_sequence keys its
    # frame cache, so served digests align with stored cache entries.
    render_opts = {k: v for k, v in (fast_options or {}).items()
                   if k not in ("workers", "backend")}
    sig = "exact" if mode == "exact" else f"fast:{sorted(render_opts.items())!r}"
    frames = []
    for vol, tf, image in zip(sequence, tfs, images):
        digest = frame_digest(vol, tf, camera, 1.0, bool(params["shading"]), sig)
        state.put_frame(digest, image.png_bytes())
        frames.append({
            "time": int(vol.time),
            "digest": digest,
            "coverage": float(image.coverage()),
            "path": f"/v1/frames/{digest}",
        })
    return {"sequence": params["sequence"], "mode": mode,
            "size": size, "frames": frames}


def compute_run(state: ServeState, params: dict) -> dict:
    """Execute a full pipeline config against the resident store/pool.

    The config's ``sequence`` field names a stored sequence (rewritten to
    its on-disk path).  Run directories land under ``<root>/runs/<fp>``
    keyed by config fingerprint: re-posting a config resumes its run, so
    a completed run replays as all-skipped in milliseconds.
    """
    cfg_dict = params["config"]
    if not isinstance(cfg_dict, dict):
        raise BadRequest("'config' must be a run-config JSON object")
    cfg_dict = dict(cfg_dict)
    name = cfg_dict.get("sequence")
    seq_dir = state.sequence_dir(str(name))
    cfg_dict["sequence"] = str(seq_dir)
    try:
        config = RunConfig.from_dict(cfg_dict)
    except ConfigError as exc:
        raise BadRequest(str(exc)) from None
    run_dir = state.root / "runs" / config.fingerprint()[:20]
    workers = state.workers if state.workers > 1 else None
    try:
        if (run_dir / "config.json").exists():
            runner = PipelineRunner.resume(run_dir, workers=workers,
                                           store=state.run_store,
                                           pool=_exec_pool(state))
        else:
            runner = PipelineRunner.create(config, run_dir, workers=workers,
                                           store=state.run_store,
                                           pool=_exec_pool(state))
        report = runner.run()
    except (ConfigError, RunError) as exc:
        raise BadRequest(str(exc)) from None
    return {
        "run_dir": str(report.run_dir),
        "stages": dict(report.stages),
        "executed": int(report.executed),
        "skipped": int(report.skipped),
        "artifacts": int(report.artifacts),
    }


def compute(endpoint: str, state: ServeState, params: dict) -> dict:
    """Dispatch to ``compute_<endpoint>`` (looked up at call time, so
    tests can monkeypatch individual computes to gate concurrency)."""
    fn = globals().get(f"compute_{endpoint}")
    if fn is None:
        raise BadRequest(f"unknown endpoint {endpoint!r}")
    return fn(state, params)
