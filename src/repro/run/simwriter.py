"""Simulated in-situ writer: replay a sequence to disk at a cadence.

Follow mode (:mod:`repro.run.follow`) consumes a directory a simulation
is still writing into.  Real simulations are inconvenient test fixtures,
so :class:`SimulatedWriter` stands in: it takes any
:class:`~repro.volume.grid.VolumeSequence` — typically one of the
procedural :mod:`repro.data` datasets built on :mod:`repro.data.fields`,
or a directory saved by ``repro generate`` — and emits it step by step
at a configurable cadence, exactly as :func:`repro.volume.io.save_volume`
would, with the ``sequence.json`` manifest written last as the
completion signal.

Torn-write fault injection: for step indices in ``torn_steps`` the
writer first streams *half* the ``.raw`` brick directly into the final
name next to a complete sidecar (the non-atomic foreign-writer failure
mode), holds it there for ``torn_hold`` seconds, then completes the step
properly.  A correct watcher must treat the torn window as
not-yet-arrived (:func:`repro.parallel.streaming.step_ready`'s size +
quiescence checks).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.obs import get_metrics
from repro.volume.grid import VolumeSequence
from repro.volume.io import (
    load_sequence,
    save_volume,
    volume_sidecar,
    write_sequence_manifest,
)


class SimulatedWriter:
    """Emit a sequence into ``out_dir`` one step at a time.

    Parameters
    ----------
    sequence:
        The steps to emit (in sequence order).
    out_dir:
        Destination directory — the one a follower watches.
    cadence:
        Seconds to sleep *before* each step lands (0 = as fast as disk).
    torn_steps:
        Step indices that first appear as a torn half-written brick.
    torn_hold:
        How long the torn state stays visible before completion.
    """

    def __init__(self, sequence: VolumeSequence, out_dir, cadence: float = 0.1,
                 torn_steps=(), torn_hold: float = 0.2) -> None:
        self.sequence = sequence
        self.out_dir = Path(out_dir)
        self.cadence = float(cadence)
        self.torn_steps = {int(i) for i in torn_steps}
        self.torn_hold = float(torn_hold)

    @classmethod
    def from_directory(cls, source_dir, out_dir, **kwargs) -> "SimulatedWriter":
        """Replay a saved sequence directory (the CI harness's shape)."""
        return cls(load_sequence(source_dir), out_dir, **kwargs)

    def run(self) -> Path:
        """Emit every step, then publish ``sequence.json``; returns it."""
        metrics = get_metrics()
        self.out_dir.mkdir(parents=True, exist_ok=True)
        stems = []
        with metrics.span("simwriter.run", steps=len(self.sequence),
                          cadence=self.cadence):
            for index, vol in enumerate(self.sequence):
                if self.cadence > 0:
                    time.sleep(self.cadence)
                stem = self.out_dir / f"step_{vol.time:06d}"
                if index in self.torn_steps:
                    self._write_torn(stem, vol)
                save_volume(vol, stem)
                stems.append(stem.name)
                metrics.counter("simwriter.steps").inc()
        return write_sequence_manifest(self.out_dir, self.sequence, stems)

    def _write_torn(self, stem: Path, vol) -> None:
        """Expose the step as a torn non-atomic write, then hold.

        The sidecar is complete and the brick is half its final size —
        the worst case for a naive reader (metadata present, voxels
        garbage) and precisely what the size check must reject.
        """
        data = np.ascontiguousarray(vol.data.astype(np.float32)).tobytes()
        with open(stem.with_suffix(".raw"), "wb") as fh:
            fh.write(data[: max(1, len(data) // 2)])
        stem.with_suffix(".json").write_text(volume_sidecar(vol))
        get_metrics().counter("simwriter.torn").inc()
        if self.torn_hold > 0:
            time.sleep(self.torn_hold)
