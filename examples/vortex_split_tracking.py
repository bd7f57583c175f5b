"""Track a vortex through time, detect its split, render highlights (Fig. 9).

The turbulent-vortex sequence contains one vortex tube that translates,
deforms, and splits into two between steps 50 and 74.  Tracking is 4D
region growing (Sec. 5): seed the feature at the first step, let growth
cross time through the spatial overlap of consecutive occurrences, and
read events off the per-step connected components.

Each frame is rendered with the paper's Sec. 7 highlight rule — tracked
voxels forced red, context from the user's 1D TF.

Run:  python examples/vortex_split_tracking.py
"""

from pathlib import Path

import numpy as np

from repro import (
    Camera,
    FeatureTracker,
    TransferFunction1D,
    grayscale_colormap,
    make_vortex_sequence,
    render_tracked,
)
from repro.utils.timing import Timer

OUT = Path(__file__).parent / "output" / "vortex"


def main():
    print("Generating the vortex sequence (splits near the end)...")
    sequence = make_vortex_sequence(shape=(40, 40, 40), times=range(50, 75, 4))

    # Seed on the vortex at the first step (a user would click on it).
    first = sequence[0]
    coords = np.argwhere(first.mask("vortex"))
    seed = (0, *map(int, coords[len(coords) // 2]))
    print(f"Seeding 4D region growing at (step_idx, z, y, x) = {seed}")

    tracker = FeatureTracker()
    result = tracker.track_fixed(sequence, seed, lo=0.5, hi=10.0)

    print(f"\n{'step':>6} {'voxels':>8} {'components':>11}")
    for t, n, c in zip(result.times, result.voxel_counts, result.component_counts()):
        print(f"{t:>6} {n:>8} {c:>11}")

    interesting = [e for e in result.events if e.kind != "continuation"]
    print("\nEvents:", [(e.kind, f"{e.time_a}->{e.time_b}") for e in interesting]
          or "none (all continuations)")

    # Context TF: faint grayscale so the red highlight pops (Fig. 9 style).
    context = TransferFunction1D(
        sequence.value_range, colormap=grayscale_colormap()
    ).add_box(0.25, sequence.value_range[1], 0.08)

    camera = Camera(azimuth=40, elevation=25, width=160, height=160)
    print("\nRendering highlighted frames (tracked feature in red)...")
    total = 0.0
    for i, vol in enumerate(sequence):
        with Timer() as timer:
            image = render_tracked(vol, result.step_mask(i), context, camera=camera)
        total += timer.elapsed
        image.save_ppm(OUT / f"tracked_t{vol.time}.ppm")
    fps = len(sequence) / total
    print(f"Rendered {len(sequence)} frames at {fps:.1f} fps "
          f"(the paper's GPU did ~2 fps at 512x512) -> {OUT}/")


if __name__ == "__main__":
    main()
