"""Content-addressed artifact store: the shared persistence primitive.

Originally built for the resumable runner (:mod:`repro.run`), the store
pattern — input-addressed keys, atomic payload-then-sidecar writes,
integrity-checked reads — is exactly what a cross-process cache needs,
so it lives here and both consumers plug in:

- :mod:`repro.run` keeps run directories in it (``run.store.*``
  counters, the default ``counter_prefix``);
- :mod:`repro.cache.shared` wraps it as the shared on-disk cache backend
  behind ``classify_sequence``/``render_sequence`` (``cache.store.*``
  counters).

Every artifact is a payload file plus a small metadata sidecar.  The
store key is **input-addressed** (a SHA-256/128 digest over the stage
parameters and every upstream dependency's key/digest, built with
:func:`derive_key`), which is what makes resume — and a cache probe — a
pure lookup: the key derives from inputs the caller already has.

Integrity is **output-addressed**: the sidecar records the payload's own
SHA-256/128 digest and size, and every read re-hashes the payload
against them.  The sidecar's own fields are checked too: an unknown
``kind``, an array ``dtype`` that does not parse (or is ``object``), a
``shape`` that is not a list of non-negative ints, or a ``size`` that
disagrees with the shape or the payload all mark the artifact corrupt.
A truncated, corrupted, or torn artifact therefore reads as *absent*
(:meth:`ArtifactStore.has` returns False) or, when explicitly loaded,
raises :class:`IntegrityError` — it can never be silently served.  This
is what makes the store safe for many concurrent writer processes with
no locks: a reader either sees a complete artifact or none at all.

Crash safety: the payload is written first, the sidecar last, and both
via the atomic write-to-temp-then-rename helpers
(:mod:`repro.utils.atomic`).  A SIGKILL at any instant leaves either a
complete artifact (payload + sidecar, digests matching) or garbage the
next run ignores and overwrites; never a readable half-artifact.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from repro.obs import get_metrics
from repro.parallel.bricking import content_digest
from repro.utils.atomic import atomic_write_bytes, atomic_write_text
from repro.utils.validation import is_count, is_shape


class IntegrityError(RuntimeError):
    """An artifact's payload does not match its recorded digest, or its
    sidecar's fields do not hold together."""


def derive_key(*parts) -> str:
    """Input-addressed store key from parameter values and upstream keys.

    ``parts`` may be strings (upstream keys, labels), JSON-serializable
    values (stage parameter dicts), or numpy arrays.  Everything is
    folded into one :func:`~repro.parallel.bricking.content_digest`
    (SHA-256/128) via a canonical encoding, so equal inputs always
    derive equal keys across processes and runs.
    """
    blobs = []
    for part in parts:
        if isinstance(part, np.ndarray):
            blobs.append(part)
            continue
        encoded = json.dumps(part, sort_keys=True, separators=(",", ":"),
                             default=str).encode()
        blobs.append(np.frombuffer(encoded, dtype=np.uint8))
    return content_digest(*blobs)


def _payload_digest(data: bytes) -> str:
    return content_digest(np.frombuffer(data, dtype=np.uint8))


def _sidecar_problem(meta: dict) -> str | None:
    """What is inconsistent in a sidecar's own fields, or ``None``."""
    kind, size = meta.get("kind"), meta.get("size")
    if kind not in ("array", "json"):
        return f"kind {kind!r} is neither 'array' nor 'json'"
    if not is_count(size):
        return f"size {size!r} is not a byte count"
    if kind == "json":
        return None
    shape = meta.get("shape")
    if not is_shape(shape):
        return f"shape {shape!r} is not a list of non-negative ints"
    name = meta.get("dtype")
    try:
        dtype = np.dtype(name) if isinstance(name, str) else None
    except (TypeError, ValueError):
        dtype = None
    if dtype is None or dtype.hasobject:
        return f"dtype {name!r} is not a plain numpy dtype"
    if math.prod(shape) * dtype.itemsize != size:
        return f"size {size} disagrees with shape {shape} of {dtype}"
    return None


class ArtifactStore:
    """Flat on-disk artifact store: ``<root>/<key>.bin`` + ``<key>.meta.json``.

    ``counter_prefix`` names the obs counter namespace (``<prefix>.writes``
    and ``<prefix>.corrupt``): the runner keeps the historical
    ``run.store`` names, the shared cache backend uses ``cache.store`` so
    corruption in either surface is attributable.
    """

    def __init__(self, root, counter_prefix: str = "run.store") -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.counter_prefix = str(counter_prefix)

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #
    def payload_path(self, key: str) -> Path:
        """Where ``key``'s payload bytes live."""
        return self.root / f"{key}.bin"

    def meta_path(self, key: str) -> Path:
        """Where ``key``'s metadata sidecar lives."""
        return self.root / f"{key}.meta.json"

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #
    def _put(self, key: str, data: bytes, meta: dict) -> str:
        atomic_write_bytes(self.payload_path(key), data)
        meta = {"key": key, "payload_digest": _payload_digest(data),
                "size": len(data), **meta}
        # Sidecar last: its existence asserts the payload is complete.
        atomic_write_text(self.meta_path(key),
                          json.dumps(meta, sort_keys=True, indent=2) + "\n")
        get_metrics().counter(f"{self.counter_prefix}.writes").inc()
        return key

    def put_array(self, key: str, array: np.ndarray) -> str:
        """Store a numpy array (shape/dtype preserved via the sidecar)."""
        array = np.ascontiguousarray(array)
        return self._put(key, array.tobytes(), {
            "kind": "array",
            "shape": list(array.shape),
            "dtype": str(array.dtype),
        })

    def put_json(self, key: str, obj) -> str:
        """Store a JSON-serializable object (canonical encoding)."""
        data = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
        return self._put(key, data, {"kind": "json"})

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def _corrupt(self, key: str, problem: str) -> IntegrityError:
        get_metrics().counter(f"{self.counter_prefix}.corrupt").inc()
        return IntegrityError(f"artifact {key}: {problem}")

    def _read_meta(self, key: str) -> dict | None:
        """``key``'s sidecar, or ``None`` when there is none; a sidecar
        whose fields do not hold together raises :class:`IntegrityError`."""
        try:
            meta = json.loads(self.meta_path(key).read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(meta, dict) or meta.get("key") != key:
            return None
        problem = _sidecar_problem(meta)
        if problem is not None:
            raise self._corrupt(key, f"sidecar {problem}")
        return meta

    def _verified_bytes(self, key: str, meta: dict) -> bytes:
        try:
            data = self.payload_path(key).read_bytes()
        except OSError as exc:
            raise IntegrityError(f"artifact {key}: payload unreadable: {exc}") from None
        if len(data) != meta["size"] or _payload_digest(data) != meta.get("payload_digest"):
            raise self._corrupt(key, f"payload digest mismatch "
                                     f"({self.payload_path(key)} is corrupt or torn)")
        return data

    def has(self, key: str) -> bool:
        """Whether a complete, verified-intact artifact exists."""
        try:
            meta = self._read_meta(key)
            if meta is None:
                return False
            self._verified_bytes(key, meta)
        except IntegrityError:
            return False
        return True

    def get_array(self, key: str) -> np.ndarray:
        """Load and integrity-check a stored array."""
        meta = self._read_meta(key)
        if meta is None:
            raise KeyError(f"artifact {key} not in store {self.root}")
        if meta.get("kind") != "array":
            raise IntegrityError(f"artifact {key} holds {meta.get('kind')!r}, not an array")
        data = self._verified_bytes(key, meta)
        return np.frombuffer(data, dtype=meta["dtype"]).reshape(meta["shape"]).copy()

    def get_json(self, key: str):
        """Load and integrity-check a stored JSON object."""
        meta = self._read_meta(key)
        if meta is None:
            raise KeyError(f"artifact {key} not in store {self.root}")
        if meta.get("kind") != "json":
            raise IntegrityError(f"artifact {key} holds {meta.get('kind')!r}, not json")
        return json.loads(self._verified_bytes(key, meta).decode())

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def keys(self) -> list[str]:
        """Every key with a metadata sidecar present (unverified), sorted."""
        return sorted(p.name[: -len(".meta.json")]
                      for p in self.root.glob("*.meta.json"))

    def remove(self, key: str) -> None:
        """Delete an artifact; a missing key is a no-op.

        The sidecar goes first — it is what asserts payload completeness,
        so concurrent readers see the key as absent rather than torn.
        """
        self.meta_path(key).unlink(missing_ok=True)
        self.payload_path(key).unlink(missing_ok=True)
        get_metrics().counter(f"{self.counter_prefix}.removed").inc()
