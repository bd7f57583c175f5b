"""On-disk volume format: raw bricks with a JSON sidecar.

The paper's datasets live as raw binary bricks per time step — the standard
interchange format for simulation output in 2005 and still common today.
We mirror that: each :class:`~repro.volume.grid.Volume` is stored as

- ``<stem>.raw``   — C-order float32 voxels,
- ``<stem>.json``  — shape, time-step id, name, dtype, mask names,
- ``<stem>.<mask>.mask.raw`` — one uint8 brick per ground-truth mask.

Sequences are directories of those pairs plus a ``sequence.json`` manifest.
Reads can be memory-mapped (``mmap=True``) so out-of-core pipelines touch
only the bricks they stream (paper Sec. 4.2.2: "not all the data can fit in
core").

All writes are crash-safe: bricks and manifests land under a temporary
name and are moved into place with ``os.replace``
(:mod:`repro.utils.atomic`), so a process killed mid-save never leaves a
truncated ``.raw`` that a later ``load_*`` would silently reshape into
corrupt voxels.  A brick truncated by other means is caught on load: its
byte size is checked against the sidecar's shape before it is read, and
a mismatch raises :class:`VolumeFormatError`.
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
    meta = {
        "format_version": _FORMAT_VERSION,
        "shape": list(volume.shape),
        "dtype": "float32",
        "time": volume.time,
        "name": volume.name,
        "masks": sorted(volume.masks),
    }
    json_path = stem.with_suffix(".json")
    atomic_write_text(json_path, json.dumps(meta, indent=2))
    return json_path


def load_volume(stem, mmap: bool = False, masks: bool = True) -> Volume:
    """Load a volume written by :func:`save_volume`.

    With ``mmap=True`` the voxel brick is memory-mapped read-only; the
    returned Volume still converts to float32 on construction, so mmap pays
    off mainly for masks and for callers slicing before converting.
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
    if mmap:
        data = np.memmap(raw_path, dtype=np.float32, mode="r", shape=shape)
        data = np.asarray(data)
    else:
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
    manifest = {
        "format_version": _FORMAT_VERSION,
        "name": sequence.name,
        "steps": stems,
        "times": sequence.times,
        "shape": list(sequence.shape),
    }
    manifest_path = directory / "sequence.json"
    atomic_write_text(manifest_path, json.dumps(manifest, indent=2))
    return manifest_path


def load_sequence(directory, times=None, mmap: bool = False,
                  masks: bool = True) -> VolumeSequence:
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
    manifest = json.loads((directory / "sequence.json").read_text())
    if manifest.get("format_version") != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported sequence format version: {manifest.get('format_version')}"
        )
    wanted = set(int(t) for t in times) if times is not None else None
    volumes = []
    for stem_name, time in zip(manifest["steps"], manifest["times"]):
        if wanted is not None and int(time) not in wanted:
            continue
        volumes.append(load_volume(directory / stem_name, mmap=mmap, masks=masks))
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
