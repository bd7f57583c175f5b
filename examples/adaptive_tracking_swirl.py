"""Fixed vs adaptive tracking of a fading feature (paper Fig. 10).

The swirling-flow feature's data values decrease over time.  A
conventional tracker with a fixed value-range criterion loses it once its
values fall below the range; the paper's adaptive criterion — the IATF
regenerated per step from two key frames whose tracked range the user
decreased — follows it to the end.

Run:  python examples/adaptive_tracking_swirl.py
"""

from pathlib import Path

import numpy as np

from repro import (
    AdaptiveTransferFunction,
    Camera,
    FeatureTracker,
    TransferFunction1D,
    grayscale_colormap,
    make_swirl_sequence,
    render_tracked,
)
from repro.data.swirl import feature_peak_at
from repro.metrics import tracking_continuity

OUT = Path(__file__).parent / "output" / "swirl"


def main():
    print("Generating the swirling-flow sequence (feature fades over time)...")
    sequence = make_swirl_sequence(shape=(36, 36, 36))
    times = sequence.times
    peaks = {t: feature_peak_at(sequence, t) for t in times}
    print("  feature peak value:",
          "  ".join(f"t{t}:{peaks[t]:.2f}" for t in (times[0], times[len(times)//2], times[-1])))

    first = sequence[0]
    coords = np.argwhere(first.mask("feature") & (first.data > 0.8 * peaks[times[0]]))
    seed = (0, *map(int, coords[0]))
    tracker = FeatureTracker(opacity_threshold=0.1)

    # --- Fixed criterion: the value band that captures the feature at t0.
    p0 = peaks[times[0]]
    fixed = tracker.track_fixed(sequence, seed, lo=0.45 * p0, hi=1.1 * p0)

    # --- Adaptive criterion: two key frames; the user decreases the
    # tracked value range at the last key frame (the Fig. 10 interaction).
    iatf = AdaptiveTransferFunction.for_sequence(sequence, seed=3)
    for t in (times[0], times[-1]):
        peak = peaks[t]
        tf = TransferFunction1D(sequence.value_range).add_tent(0.75 * peak, 0.9 * peak, 1.0)
        iatf.add_key_frame(sequence.at_time(t), tf)
    iatf.train(epochs=300)
    adaptive = tracker.track_adaptive(sequence, seed, iatf)

    print(f"\n{'step':>6} {'fixed':>8} {'adaptive':>9}   (tracked voxels)")
    for i, t in enumerate(times):
        print(f"{t:>6} {fixed.voxel_counts[i]:>8} {adaptive.voxel_counts[i]:>9}")

    truth = [v.mask("feature") for v in sequence]
    print(f"\ncontinuity: fixed={tracking_continuity(fixed.masks, truth, min_voxels=10):.2f} "
          f"adaptive={tracking_continuity(adaptive.masks, truth, min_voxels=10):.2f}")
    print("The fixed criterion loses the feature (0 voxels at the end); the "
          "adaptive criterion tracks it throughout — the Fig. 10 result.")

    context = TransferFunction1D(
        sequence.value_range, colormap=grayscale_colormap()
    ).add_box(0.1, sequence.value_range[1], 0.05)
    camera = Camera(azimuth=30, elevation=30, width=140, height=140)
    for i, t in enumerate((times[0], times[len(times) // 2], times[-1])):
        vol = sequence.at_time(t)
        idx = times.index(t)
        render_tracked(vol, fixed.step_mask(idx), context, camera=camera).save_ppm(
            OUT / f"fixed_t{t}.ppm")
        render_tracked(vol, adaptive.step_mask(idx), context, camera=camera).save_ppm(
            OUT / f"adaptive_t{t}.ppm")
    print(f"Highlight renders written to {OUT}/")


if __name__ == "__main__":
    main()
