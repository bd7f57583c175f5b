"""On-disk volume format: raw bricks with a JSON sidecar.

The paper's datasets live as raw binary bricks per time step — the standard
interchange format for simulation output in 2005 and still common today.
We mirror that: each :class:`~repro.volume.grid.Volume` is stored as

- ``<stem>.raw``   — C-order float32 voxels,
- ``<stem>.json``  — shape, time-step id, name, dtype, mask names,
- ``<stem>.<mask>.mask.raw`` — one uint8 brick per ground-truth mask.

Sequences are directories of those pairs plus a ``sequence.json`` manifest,
written by :func:`write_sequence_manifest` and read through
:func:`read_sequence_manifest` alone.  Steps load one at a time
(:func:`load_volume`), and :func:`load_sequence` with ``times=`` reads
only the steps it names (paper Sec. 4.2.2: "not all the data can fit in
core").

All writes are crash-safe: bricks and manifests land under a temporary
name and are moved into place with ``os.replace``
(:mod:`repro.utils.atomic`), so a process killed mid-save never leaves a
truncated ``.raw`` that a later ``load_*`` would silently reshape into
corrupt voxels.  A brick truncated by other means is caught on load: its
byte size is checked against the sidecar's shape before it is read, and
a mismatch raises :class:`VolumeFormatError`, as does a ``sequence.json``
that is not a manifest.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from repro.utils.atomic import atomic_write_array, atomic_write_text
from repro.utils.validation import is_shape
from repro.volume.grid import Volume, VolumeSequence

_FORMAT_VERSION = 1


class VolumeFormatError(ValueError):
    """A step's files on disk do not form a readable volume."""


def save_volume(volume: Volume, stem) -> Path:
    """Write ``<stem>.raw`` + ``<stem>.json`` (+ mask bricks); return the json path."""
    stem = Path(stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    raw_path = stem.with_suffix(".raw")
    atomic_write_array(raw_path, volume.data.astype(np.float32))
    for mask_name, mask in volume.masks.items():
        atomic_write_array(_mask_path(stem, mask_name), mask.astype(np.uint8))
    json_path = stem.with_suffix(".json")
    atomic_write_text(json_path, volume_sidecar(volume))
    return json_path


def volume_sidecar(volume: Volume) -> str:
    """The ``<stem>.json`` text :func:`save_volume` writes for ``volume``."""
    return json.dumps({
        "format_version": _FORMAT_VERSION,
        "shape": list(volume.shape),
        "dtype": "float32",
        "time": volume.time,
        "name": volume.name,
        "masks": sorted(volume.masks),
    }, indent=2)


def load_volume(stem, masks: bool = True) -> Volume:
    """Load a volume written by :func:`save_volume`.

    ``masks=False`` skips the ground-truth mask bricks entirely — streaming
    consumers that only evaluate a value criterion save one read and two
    volume-sized allocations per step.
    """
    stem = Path(stem)
    meta = json.loads(stem.with_suffix(".json").read_text())
    if meta.get("format_version") != _FORMAT_VERSION:
        raise VolumeFormatError(
            f"unsupported volume format version: {meta.get('format_version')}")
    shape = meta.get("shape")
    if not is_shape(shape):
        raise VolumeFormatError(
            f"{stem.with_suffix('.json')}: shape {shape!r} is not a list of "
            "non-negative ints")
    shape = tuple(shape)
    raw_path = stem.with_suffix(".raw")
    mask_names = meta.get("masks", []) if masks else []
    _check_brick(raw_path, shape, 4)
    for mask_name in mask_names:
        _check_brick(_mask_path(stem, mask_name), shape, 1)
    data = np.fromfile(raw_path, dtype=np.float32).reshape(shape)
    loaded = {}
    for mask_name in mask_names:
        mask = np.fromfile(_mask_path(stem, mask_name), dtype=np.uint8).reshape(shape)
        loaded[mask_name] = mask.astype(bool)
    return Volume(data, time=int(meta["time"]), name=meta.get("name", ""), masks=loaded)


def save_sequence(sequence: VolumeSequence, directory) -> Path:
    """Write a sequence as one brick pair per step plus ``sequence.json``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stems = []
    for vol in sequence:
        stem = directory / f"step_{vol.time:06d}"
        save_volume(vol, stem)
        stems.append(stem.name)
    return write_sequence_manifest(directory, sequence, stems)


def write_sequence_manifest(directory, sequence: VolumeSequence, stems) -> Path:
    """Atomically write ``sequence.json`` for ``sequence`` saved under the
    stem names ``stems``; returns its path.  Writers publish it last: its
    presence marks the sequence complete."""
    manifest = {
        "format_version": _FORMAT_VERSION,
        "name": sequence.name,
        "steps": list(stems),
        "times": sequence.times,
        "shape": list(sequence.shape),
    }
    return atomic_write_text(Path(directory) / "sequence.json",
                             json.dumps(manifest, indent=2))


def read_sequence_manifest(directory) -> dict:
    """Read and check ``<directory>/sequence.json``.

    Returns the manifest, whose ``steps`` (stem names) and ``times``
    (integer step ids) are lists of one length.  Raises
    :class:`VolumeFormatError` when the file is not JSON or
    :func:`check_sequence_manifest` rejects it; a missing file raises
    ``FileNotFoundError``.
    """
    path = Path(directory) / "sequence.json"
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise VolumeFormatError(f"{path} is not valid JSON: {exc}") from None
    return check_sequence_manifest(manifest, path)


def check_sequence_manifest(manifest, path) -> dict:
    """Return the decoded ``sequence.json`` at ``path`` if it is a manifest.

    Raises :class:`VolumeFormatError` when it is not an object, its
    ``format_version`` is not 1, ``steps`` or ``times`` is missing or not
    a non-empty list, their lengths differ, a step is not a name, or a
    time is not an integer.
    """
    if not isinstance(manifest, dict):
        raise VolumeFormatError(f"{path} holds {type(manifest).__name__}, "
                                "not a sequence manifest object")
    version = manifest.get("format_version")
    if version != _FORMAT_VERSION:
        raise VolumeFormatError(f"{path}: unsupported sequence format version: {version}")
    steps, times = manifest.get("steps"), manifest.get("times")
    for field, value in (("steps", steps), ("times", times)):
        if not isinstance(value, list) or not value:
            raise VolumeFormatError(
                f"{path}: {field!r} must be a non-empty list, got {value!r}")
    if len(steps) != len(times):
        raise VolumeFormatError(f"{path} lists {len(steps)} steps but "
                                f"{len(times)} times")
    if not all(isinstance(stem, str) for stem in steps):
        raise VolumeFormatError(f"{path}: every step must be a stem name, got {steps!r}")
    if not all(type(t) is int for t in times):
        raise VolumeFormatError(f"{path}: every time must be an integer, got {times!r}")
    return manifest


def load_sequence(directory, times=None, masks: bool = True) -> VolumeSequence:
    """Load a sequence directory; ``times`` optionally restricts the steps.

    Restricting by ``times`` reads only the requested bricks — the
    out-of-core pattern the IATF workflow relies on (train from a few key
    frames without loading the whole run).  ``masks=False`` skips the
    ground-truth mask bricks on every step (forwarded to
    :func:`load_volume`): consumers that never classify save the reads,
    and a volume's content digest then covers voxels alone — which is
    what lets the follow-mode loader and the offline runner agree on
    artifact keys without both paying for masks nobody reads.
    """
    directory = Path(directory)
    manifest = read_sequence_manifest(directory)
    wanted = set(int(t) for t in times) if times is not None else None
    volumes = []
    for stem_name, time in zip(manifest["steps"], manifest["times"]):
        if wanted is not None and time not in wanted:
            continue
        volumes.append(load_volume(directory / stem_name, masks=masks))
    if wanted is not None and len(volumes) != len(wanted):
        have = {v.time for v in volumes}
        raise KeyError(f"missing time steps {sorted(wanted - have)} in {directory}")
    return VolumeSequence(volumes, name=manifest.get("name", ""))


def _check_brick(path: Path, shape: tuple, itemsize: int) -> None:
    """Raise :class:`VolumeFormatError` unless ``path`` holds exactly the
    bytes a ``shape`` brick of ``itemsize``-byte voxels needs."""
    want = math.prod(shape) * itemsize
    have = path.stat().st_size
    if have != want:
        raise VolumeFormatError(
            f"{path} holds {have} bytes; its sidecar shape {list(shape)} "
            f"needs {want}")


def _mask_path(stem: Path, mask_name: str) -> Path:
    safe = mask_name.replace("/", "_")
    return stem.parent / f"{stem.name}.{safe}.mask.raw"
