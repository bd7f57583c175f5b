"""Shared cross-process cache backend over the content-addressed store.

The temporal-coherence classify cache and the render frame cache were
pure in-process state, which made caching mutually exclusive with the
task farm — the paper's central trick (exploit temporal coherence)
could not ride its deployment story (fan steps across workers).  This
backend gives both caches a pluggable on-disk L2 that any number of
worker processes can read and write concurrently:

- keys of any shape (the classifier's context tuples, the renderer's
  frame digests) are folded into one input-addressed store key with
  :func:`repro.cache.store.derive_key`;
- writes are payload-then-sidecar atomic renames, so concurrent writers
  of the same key are idempotent and a crash mid-write is invisible;
- reads re-hash the payload against the sidecar digest — a torn or
  corrupted entry reads as a *miss* (and bumps ``cache.store.corrupt``),
  never as wrong data;
- loaded arrays come back read-only, so no consumer can poison the
  shared namespace through a returned reference.

The cache root defaults to ``$REPRO_CACHE_DIR``, else
``$XDG_CACHE_HOME/repro/shared``, else ``~/.cache/repro/shared``.
``max_bytes`` (or ``$REPRO_CACHE_MAX_BYTES``) bounds the on-disk
footprint: after a write the oldest entries are evicted until the total
payload size fits (eviction order is file mtime, i.e. approximately
least-recently-written).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.cache.store import ArtifactStore, IntegrityError, derive_key
from repro.obs import get_metrics

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
ENV_CACHE_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"


def default_cache_root() -> Path:
    """The shared cache directory used when no explicit root is given."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "shared"


class SharedArrayCache:
    """Concurrency-safe on-disk array cache (``load``/``save`` by any key).

    Instances are tiny (a path and a size bound) and picklable, so they
    ride task payloads into worker processes; all shared state lives in
    the store directory.  Plug one into
    :class:`repro.core.fastclassify.TemporalCoherenceCache` via its
    ``store=`` parameter to give the in-memory LRU a cross-process L2.
    """

    def __init__(self, root=None, max_bytes: int | None = None) -> None:
        if max_bytes is None:
            env = os.environ.get(ENV_CACHE_MAX_BYTES)
            max_bytes = int(env) if env else None
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError(f"max_bytes must be positive, got {max_bytes}")
        self.root = Path(root) if root is not None else default_cache_root()
        self.max_bytes = max_bytes
        self.store = ArtifactStore(self.root, counter_prefix="cache.store")

    def store_key(self, key) -> str:
        """Fold an arbitrary cache key into the store's flat namespace."""
        return derive_key("shared-cache", key)

    def load(self, key) -> np.ndarray | None:
        """The stored array for ``key``, read-only — or ``None`` on miss.

        A missing, torn, or corrupted entry is a miss by construction
        (the read verifies the payload digest before anything is
        returned), so callers recompute and overwrite instead of
        consuming garbage.
        """
        try:
            value = self.store.get_array(self.store_key(key))
        except (KeyError, IntegrityError):
            return None
        value.flags.writeable = False
        return value

    def save(self, key, value: np.ndarray) -> None:
        """Publish an array under ``key`` (atomic; last writer wins)."""
        self.store.put_array(self.store_key(key), np.asarray(value))
        if self.max_bytes is not None:
            self._evict()

    def __len__(self) -> int:
        return len(self.store.keys())

    def clear(self) -> None:
        """Drop every entry (payloads and sidecars)."""
        for key in self.store.keys():
            self.store.remove(key)

    def _evict(self) -> None:
        """Delete oldest entries until total payload size fits ``max_bytes``."""
        entries = []
        total = 0
        for key in self.store.keys():
            try:
                stat = self.store.payload_path(key).stat()
            except FileNotFoundError:   # a concurrent evictor removed it
                continue
            entries.append((stat.st_mtime, stat.st_size, key))
            total += stat.st_size
        if total <= self.max_bytes:
            return
        evictions = get_metrics().counter("cache.store.evictions")
        for _, size, key in sorted(entries):
            if total <= self.max_bytes:
                break
            self.store.remove(key)
            total -= size
            evictions.inc()
