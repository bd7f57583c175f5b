"""Step-at-a-time access to a sequence on disk (paper Secs. 4.2.3, 8).

The paper's deployment story for very long runs: the trained artifact is
tiny, each time step is independent, and steps live on disk — so a
consumer should *load, process, and drop* one step at a time instead of
holding the sequence in memory.

:func:`sequence_step_stems` is the manifest reader behind the tracker's
step-at-a-time loader
(:meth:`repro.core.tracking.FeatureTracker.track_streaming`);
:class:`SequenceWatcher` is follow mode's incremental scanner over a
directory still being written.
"""

from __future__ import annotations

import json
import time as _time
from pathlib import Path

from repro.volume.io import check_sequence_manifest, read_sequence_manifest


def sequence_step_stems(directory, times=None) -> list[tuple[int, Path]]:
    """``(time, stem)`` pairs for every step of a saved sequence.

    ``times`` optionally restricts (and validates) the selection: a
    requested step id missing from the manifest raises ``KeyError``
    instead of being silently dropped.  The manifest is checked here
    (:func:`repro.volume.io.read_sequence_manifest`), so a step-at-a-time
    consumer rejects a malformed directory up front rather than mid-run.
    """
    directory = Path(directory)
    manifest = read_sequence_manifest(directory)
    stems = [(time, directory / stem)
             for stem, time in zip(manifest["steps"], manifest["times"])]
    if times is None:
        return stems
    wanted = set(int(t) for t in times)
    kept = [(t, stem) for t, stem in stems if t in wanted]
    if len(kept) != len(wanted):
        have = {t for t, _ in kept}
        raise KeyError(f"missing time steps {sorted(wanted - have)} in {directory}")
    return kept


# --------------------------------------------------------------------- #
# Directory watching (in-situ follow mode)
# --------------------------------------------------------------------- #
def step_ready(stem, quiescence: float = 0.05, now: float | None = None):
    """Probe whether a step's on-disk files are complete and quiescent.

    Returns ``(time, signature)`` when the step at ``stem`` can be loaded
    safely, else ``None``.  A step is ready when its ``<stem>.json``
    sidecar parses, the ``.raw`` brick (and every listed mask brick)
    exists at exactly the byte size the sidecar's shape implies, and no
    file was modified within the last ``quiescence`` seconds.

    A writer using the repo's atomic conventions
    (:mod:`repro.utils.atomic`) always passes once the sidecar lands —
    renames are atomic and the sidecar is written last.  The size +
    quiescence checks exist for *foreign* writers that stream bytes
    straight into the final name: a torn half-written brick reads as
    not-yet-arrived instead of garbage voxels.

    ``signature`` captures ``(size, mtime_ns)`` of every file, so a
    caller can detect a later re-write of the same step by comparing
    signatures.
    """
    stem = Path(stem)
    json_path = stem.with_suffix(".json")
    try:
        meta = json.loads(json_path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(meta, dict) or meta.get("format_version") != 1:
        return None
    if "shape" not in meta or "time" not in meta:
        return None
    voxels = 1
    for n in meta["shape"]:
        voxels = voxels * int(n)
    checks = [(json_path, None), (stem.with_suffix(".raw"), voxels * 4)]
    for mask_name in meta.get("masks", []):
        safe = str(mask_name).replace("/", "_")
        checks.append((stem.parent / f"{stem.name}.{safe}.mask.raw", voxels))
    newest = 0.0
    signature = []
    for path, want_size in checks:
        try:
            st = path.stat()
        except OSError:
            return None
        if want_size is not None and st.st_size != want_size:
            return None
        newest = max(newest, st.st_mtime)
        signature.append((path.name, st.st_size, st.st_mtime_ns))
    now = _time.time() if now is None else now
    if now - newest < quiescence:
        return None
    return int(meta["time"]), tuple(signature)


class SequenceWatcher:
    """Incremental scanner over a sequence directory being written live.

    Each :meth:`scan` reports the steps that became ready (or were
    re-written) since the previous scan, in time order.  Completion is
    signalled by the writer's ``sequence.json`` manifest — written last
    by :func:`repro.volume.io.save_sequence` and by
    :class:`repro.run.simwriter.SimulatedWriter` — whose step list
    :meth:`manifest_times` exposes once present.
    """

    def __init__(self, directory, quiescence: float = 0.05) -> None:
        self.directory = Path(directory)
        self.quiescence = float(quiescence)
        self._seen: dict[str, tuple] = {}  # stem name -> last signature

    def scan(self) -> list[tuple[int, Path, bool]]:
        """``(time, stem, rewritten)`` for every newly-ready step.

        ``rewritten`` marks a step whose files changed *after* it was
        already reported ready — the duplicate re-write case a follower
        must either dedup (same content) or reprocess (new content).
        """
        arrived: list[tuple[int, Path, bool]] = []
        if not self.directory.is_dir():
            return arrived
        now = _time.time()
        for json_path in sorted(self.directory.glob("*.json")):
            if json_path.name == "sequence.json":
                continue
            stem = json_path.with_suffix("")
            probe = step_ready(stem, quiescence=self.quiescence, now=now)
            if probe is None:
                continue
            step_time, signature = probe
            previous = self._seen.get(stem.name)
            if previous == signature:
                continue
            self._seen[stem.name] = signature
            arrived.append((step_time, stem, previous is not None))
        arrived.sort(key=lambda item: item[0])
        return arrived

    def settled(self) -> bool:
        """True when no reported step has a rewrite pending or in flight.

        A writer may re-write a step and only then publish its completion
        manifest; at that instant the rewrite can still be inside the
        quiescence window, where :meth:`scan` reports nothing.  Consumers
        must therefore not treat "all manifest times seen" as final until
        every reported step's on-disk signature again matches what was
        last reported — a mismatch (or an unreadable/torn state) means a
        change is still propagating.
        """
        now = _time.time()
        for name, signature in self._seen.items():
            probe = step_ready(self.directory / name,
                               quiescence=self.quiescence, now=now)
            if probe is None or probe[1] != signature:
                return False
        return True

    def manifest_times(self) -> list[int] | None:
        """Step ids of the completed sequence, or ``None`` while the
        writer has not yet published ``sequence.json`` (absent, or not yet
        parseable).  A published file that is not a manifest raises
        :class:`~repro.volume.io.VolumeFormatError`."""
        path = self.directory / "sequence.json"
        try:
            manifest = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        return check_sequence_manifest(manifest, path)["times"]
