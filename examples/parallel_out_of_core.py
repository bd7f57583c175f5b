"""Out-of-core key frames + per-timestep parallel application (Secs. 4.2.3, 8).

The paper's large-data workflow: the user trains from a few key frames
(only those volumes are ever loaded), then ships the tiny trained artifact
to a cluster where every time step is processed independently.  This
script exercises that pipeline end to end on local disk and processes:

1. write a sequence as raw bricks (one file pair per step);
2. load *only* the key-frame steps, train the IATF;
3. fan the trained IATF out over all steps with the task farm
   (in-process by default, a pool of 4 with ``workers=4``), comparing
   serial vs parallel wall-clock.

Run:  python examples/parallel_out_of_core.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import (
    AdaptiveTransferFunction,
    TransferFunction1D,
    load_sequence,
    make_argon_sequence,
    save_sequence,
)
from repro.core import generate_sequence_tfs
from repro.data.argon import ring_value_band
from repro.metrics import feature_retention
from repro.utils.timing import Timer


def main():
    times = list(range(195, 256, 5))
    print(f"Generating and saving a {len(times)}-step argon sequence to disk...")
    sequence = make_argon_sequence(shape=(32, 44, 44), times=times)
    workdir = Path(tempfile.mkdtemp(prefix="repro_ooc_"))
    save_sequence(sequence, workdir / "argon")
    n_files = len(list((workdir / "argon").glob("*.raw")))
    print(f"  wrote {n_files} raw bricks under {workdir}/argon/")

    # --- Out-of-core: load only the key frames -------------------------
    key_times = [195, 255]
    key_frames = load_sequence(workdir / "argon", times=key_times)
    print(f"Loaded only the key frames {key_times} "
          f"({len(key_frames)} of {len(times)} steps in core).")

    iatf = AdaptiveTransferFunction(
        sequence.value_range, (times[0], times[-1]), seed=3
    )
    for t in key_times:
        lo, hi = ring_value_band(sequence, t)
        tf = TransferFunction1D(sequence.value_range).add_tent(
            (lo + hi) / 2, (hi - lo) * 2.5, 1.0
        )
        iatf.add_key_frame(key_frames.at_time(t), tf)
    iatf.train(epochs=300)
    print("IATF trained from the key frames alone.")

    # --- Per-timestep fan-out ------------------------------------------
    full = load_sequence(workdir / "argon")
    with Timer() as t_serial:
        tfs_serial = generate_sequence_tfs(iatf, full)
    with Timer() as t_proc:
        tfs_proc = generate_sequence_tfs(iatf, full, workers=4)
    assert all(np.allclose(a.opacity, b.opacity)
               for a, b in zip(tfs_serial, tfs_proc))
    print(f"Generated {len(tfs_serial)} per-step TFs: "
          f"serial {t_serial.elapsed:.2f}s vs 4 workers {t_proc.elapsed:.2f}s "
          "(identical results).")

    retention = [
        feature_retention(tf.opacity_at(vol.data), vol.mask("ring"))
        for tf, vol in zip(tfs_serial, full)
    ]
    print("Ring retention across all steps: "
          f"min={min(retention):.2f} mean={np.mean(retention):.2f}")


if __name__ == "__main__":
    main()
