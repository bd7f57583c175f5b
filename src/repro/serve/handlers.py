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
import math
import re
from collections import OrderedDict
from pathlib import Path

from repro.cache.shared import SharedArrayCache
from repro.cache.store import ArtifactStore, derive_key
from repro.core.iatf import AdaptiveTransferFunction
from repro.core.pipeline import (
    box_band,
    classify_sequence,
    frame_digest,
    render_sequence,
    renderer_signature,
    train_sequence_classifier,
)
from repro.core.tracking import FeatureTracker
from repro.metrics import feature_retention
from repro.obs import get_metrics
from repro.parallel.bricking import content_digest
from repro.render.camera import Camera
from repro.render.fastcast import check_ert_alpha
from repro.render.raycast import ALPHA_CUTOFF
from repro.render.shading import check_shading_shape
from repro.run import ConfigError, PipelineRunner, RunConfig, RunError
from repro.serve.errors import BadRequest, NotFound
from repro.transfer.tf1d import TransferFunction1D
from repro.volume.io import load_sequence

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")

_REQUIRED = object()


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    try:
        return not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):      # a string or list, a huge int
        return False


# JSON type -> (check, what a 400 asks for).
_TYPES = {
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "int": (_is_int, "an integer"),
    "count": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "number": (_is_number, "a finite number"),
    "string": (lambda v: isinstance(v, str), "a string"),
    "object": (lambda v: isinstance(v, dict), "an object"),
    "ints": (lambda v: isinstance(v, list) and v != [] and all(map(_is_int, v)),
             "a non-empty list of integers"),
    "pair": (lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)),
             "two numbers [lo, hi]"),
    "voxel": (lambda v: isinstance(v, list) and len(v) == 4 and all(map(_is_int, v)),
              "four integers [step, z, y, x]"),
}

# Parameter schemas: one dict per endpoint, value = (default or _REQUIRED,
# JSON type; a null default also admits null).  Normalization merges
# defaults in, so an omitted parameter and an explicitly-passed default
# produce the *same* canonical dict — and hence the same coalescing key.
_SCHEMAS: dict[str, dict] = {
    "classify": {
        "sequence": (_REQUIRED, "string"),
        "mask": (_REQUIRED, "string"),
        "train_steps": (_REQUIRED, "ints"),
        "samples": (150, "int"),
        "radius": (0, "int"),
        "epochs": (300, "int"),
        "seed": (11, "int"),
        "mode": ("fast", "string"),
        "cache": (False, "bool"),
    },
    "track": {
        "sequence": (_REQUIRED, "string"),
        "seed_voxel": (_REQUIRED, "voxel"),
        "range": (None, "pair"),
        "iatf": (None, "object"),
        "opacity_threshold": (0.1, "number"),
        "streaming": (False, "bool"),
        "refine": (True, "bool"),
    },
    "render": {
        "sequence": (_REQUIRED, "string"),
        "size": (160, "count"),
        "azimuth": (30.0, "number"),
        "elevation": (20.0, "number"),
        "box": (None, "pair"),
        "opacity": (0.8, "number"),
        "iatf": (None, "object"),
        "shading": (True, "bool"),
        "fast": (False, "bool"),
        "ert_alpha": (None, "number"),
        "cell": (8, "count"),
        "cache": (False, "bool"),
    },
    "run": {
        "config": (_REQUIRED, "object"),
    },
}


def normalize(endpoint: str, raw: dict) -> dict:
    """Merge an endpoint's defaults into a request body; reject junk.

    Raises :class:`BadRequest` for unknown or missing-required keys and
    for a value of the wrong JSON type.  The result is the canonical
    parameter dict both the coalescing key and the compute function
    consume (numbers as floats, so ``30`` and ``30.0`` are one request).
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
    for key, (default, kind) in schema.items():
        value = raw.get(key, default)
        if value is _REQUIRED:
            raise BadRequest(f"missing required parameter {key!r}")
        if key in raw and not (value is None and default is None):
            check, wanted = _TYPES[kind]
            if not check(value):
                raise BadRequest(f"parameter {key!r} must be {wanted}, "
                                 f"got {value!r:.60}")
            if kind == "number":
                value = float(value)
            elif kind == "pair":
                value = [float(v) for v in value]
        params[key] = value
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
        self.pool = pool  # resident WorkerPool; None runs every map in-process
        self.max_frames = int(max_frames)
        self._sequences: dict[str, object] = {}
        self._voxel_digests: dict[str, list[str]] = {}
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
        """Load (once) and return the named stored sequence.

        Each step's voxels are hashed once, here, for
        :meth:`voxel_digests`.
        """
        if not isinstance(name, str) or not _NAME_RE.fullmatch(name):
            raise BadRequest(f"invalid sequence name {name!r}")
        cached = self._sequences.get(name)
        if cached is not None:
            return cached
        seq_dir = self.root / name
        if not (seq_dir / "sequence.json").exists():
            raise NotFound(f"no stored sequence named {name!r} under {self.root}")
        sequence = load_sequence(seq_dir)
        self._voxel_digests[name] = [content_digest(vol.data) for vol in sequence]
        self._sequences[name] = sequence
        return sequence

    def voxel_digests(self, name: str) -> list[str]:
        """Per-step voxel digests of a loaded sequence (frame-key input)."""
        self.sequence(name)
        return self._voxel_digests[name]

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
                [sequence.at_time(t) for t in params["train_steps"]],
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
    def put_frame(self, digest: str, image) -> None:
        """Make ``digest`` the most recently used frame.

        ``image`` is encoded to PNG only when the digest is not resident:
        a resident digest already holds exactly those bytes.
        """
        frames = self._frames
        if digest in frames:
            frames.move_to_end(digest)
            return
        frames[digest] = image.png_bytes()
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
def compute_classify(state: ServeState, params: dict) -> dict:
    """Train-once classify-every-step; mirrors ``repro classify``."""
    if params["mode"] not in ("fast", "exact"):
        raise BadRequest(f"unknown classify mode {params['mode']!r}")
    if params["mode"] == "exact" and params["cache"]:
        raise BadRequest("'cache' tunes the fast path; use mode 'fast'")
    sequence = state.sequence(params["sequence"])
    classifier, radius = state.classifier(params, sequence)
    results = classify_sequence(
        classifier, sequence, workers=state.workers, mode=params["mode"],
        cache=state.shared_cache if params["cache"] else None,
        pool=state.pool)
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
    try:
        tracker = FeatureTracker(opacity_threshold=params["opacity_threshold"])
        iatf = lo = hi = None
        if params["iatf"] is not None:
            iatf = AdaptiveTransferFunction.from_dict(params["iatf"])
        else:
            lo, hi = params["range"]
        if params["streaming"]:
            source, refine = state.sequence_dir(params["sequence"]), params["refine"]
        else:
            source, refine = state.sequence(params["sequence"]), True
        result = tracker.track_streaming(source, tuple(params["seed_voxel"]),
                                         lo=lo, hi=hi, iatf=iatf, refine=refine)
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
        "masks_digest": result.masks_digest(),
    }


def compute_render(state: ServeState, params: dict) -> dict:
    """Render every step; mirrors ``repro render`` (PNG frames).

    The response carries per-frame metadata plus a ``path`` under
    ``/v1/frames/`` where the PNG bytes stream from the resident frame
    store — the same bytes ``repro render --format png`` writes.
    """
    mode = "fast" if params["fast"] else "exact"
    fast_options = None
    if mode == "fast":
        fast_options = {"ert_alpha": (ALPHA_CUTOFF if params["ert_alpha"] is None
                                      else params["ert_alpha"]),
                        "cell": params["cell"]}
        try:
            check_ert_alpha(fast_options["ert_alpha"])
        except ValueError as exc:
            raise BadRequest(f"parameter 'ert_alpha': {exc}") from None
    elif params["ert_alpha"] is not None:
        raise BadRequest("'ert_alpha' tunes the fast path; set fast=true")
    sequence = state.sequence(params["sequence"])
    if params["shading"]:
        try:
            check_shading_shape(sequence.shape)
        except ValueError as exc:
            raise BadRequest(f"parameter 'shading': {exc}") from None
    domain = sequence.value_range
    camera = Camera(azimuth=params["azimuth"], elevation=params["elevation"],
                    width=params["size"], height=params["size"])
    if params["iatf"] is not None:
        try:
            iatf = AdaptiveTransferFunction.from_dict(params["iatf"])
            tfs = [iatf.generate(vol) for vol in sequence]
        except KeyError as exc:
            raise BadRequest(f"parameter 'iatf': missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise BadRequest(f"parameter 'iatf': {exc}") from None
    else:
        lo, hi = box_band(domain, *(params["box"] or ()))
        tfs = [TransferFunction1D(domain).add_box(lo, hi, params["opacity"])
               ] * len(sequence)
    images = render_sequence(
        sequence, tfs, camera=camera, shading=params["shading"],
        workers=state.workers, mode=mode, fast_options=fast_options,
        cache=state.shared_cache if params["cache"] else None,
        pool=state.pool)
    # Key frames as render_sequence keys its frame cache, so served
    # digests align with stored cache entries.
    sig = renderer_signature(mode, fast_options)
    frames = []
    voxels = state.voxel_digests(params["sequence"])
    for vol, vox, tf, image in zip(sequence, voxels, tfs, images):
        digest = frame_digest(vox, tf, camera, 1.0, params["shading"], sig)
        state.put_frame(digest, image)
        frames.append({
            "time": int(vol.time),
            "digest": digest,
            "coverage": float(image.coverage()),
            "path": f"/v1/frames/{digest}",
        })
    return {"sequence": params["sequence"], "mode": mode,
            "size": params["size"], "frames": frames}


def compute_run(state: ServeState, params: dict) -> dict:
    """Execute a full pipeline config against the resident store/pool.

    The config's ``sequence`` field names a stored sequence (rewritten to
    its on-disk path).  Run directories land under ``<root>/runs/<fp>``
    keyed by config fingerprint: re-posting a config resumes its run, so
    a completed run replays as all-skipped in milliseconds.
    """
    cfg_dict = dict(params["config"])
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
                                           pool=state.pool)
        else:
            runner = PipelineRunner.create(config, run_dir, workers=workers,
                                           store=state.run_store,
                                           pool=state.pool)
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
