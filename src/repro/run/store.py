"""Content-addressed artifact store backing resumable runs (re-export).

The store implementation was promoted to :mod:`repro.cache.store` so the
shared cross-process cache backend (:mod:`repro.cache.shared`) could
build on the same primitives — input-addressed SHA-256/128 keys, atomic
payload-then-sidecar writes, integrity-checked reads.  This module keeps
the runner's historical import surface; the default ``counter_prefix``
of :class:`~repro.cache.store.ArtifactStore` preserves the
``run.store.writes`` / ``run.store.corrupt`` counter names run
directories have always reported.
"""

from repro.cache.store import ArtifactStore, IntegrityError, derive_key

__all__ = ["ArtifactStore", "IntegrityError", "derive_key"]
