"""Golden-trajectory regression tests for the tracking stack.

Two scenarios with committed lineage/event fixtures under ``tests/golden/``:

- **argon ring** — the drifting smoke ring tracked with per-step value
  bands read off the ground-truth histogram (the user workflow of Figs.
  3–4), exercising long-range continuation;
- **synthetic events** — a handcrafted block world whose tracked feature
  exhibits every event kind: birth (a disjoint blob joins the lineage
  only through a *later* merge, so backward-in-time reachability is
  required), merge, split, and death.

Each scenario must produce byte-identical trajectories through the
``grow_4d`` oracle over the stacked criteria and through the tracker,
fed both an in-memory criteria stack (``track_with_criteria``) and a
per-step criterion callable (``track_streaming``) — and those
trajectories must match the committed goldens exactly.  Regenerate after
an *intentional* behavior change with::

    PYTHONPATH=src python tests/test_golden_trajectories.py --regen
"""

import json
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.core import FeatureTracker, TrackResult
from repro.core.tracking import _pack_mask
from repro.data import make_argon_sequence
from repro.data.argon import ring_value_band
from repro.segmentation import FeatureLineage, grow_4d
from repro.volume.grid import Volume, VolumeSequence

GOLDEN_DIR = Path(__file__).parent / "golden"

ARGON_KW = dict(shape=(24, 32, 32), times=[195, 210, 225, 240, 255], seed=7)


# --------------------------------------------------------------------- #
# Scenarios
# --------------------------------------------------------------------- #
@lru_cache(maxsize=1)
def argon_scenario():
    """The argon ring under per-step histogram bands: (sequence, criteria_fn, seed)."""
    seq = make_argon_sequence(**ARGON_KW)
    bands = {t: ring_value_band(seq, t) for t in seq.times}

    def criteria_fn(vol):
        lo, hi = bands[vol.time]
        return (vol.data >= lo) & (vol.data <= hi)

    coords = np.argwhere(seq[0].mask("ring") & criteria_fn(seq[0]))
    seed = (0, *(int(c) for c in coords[0]))
    return seq, criteria_fn, seed


@lru_cache(maxsize=1)
def synthetic_scenario():
    """Block world covering birth, merge, split, and death.

    Blocks A (y 2:6) and B (y 10:14) share z/x extents.  B first exists at
    t=2 with no t=1 overlap; the lineage only reaches it through the t=3
    merged bar — forward-only growth misses B at t=2, making this scenario
    a regression test for backward-in-time reachability.  The bar splits
    again at t=4 and B's branch dies after it.
    """
    shape = (16, 16, 16)
    A = (slice(2, 6), slice(2, 6), slice(2, 6))
    B = (slice(2, 6), slice(10, 14), slice(2, 6))
    BAR = (slice(2, 6), slice(2, 14), slice(2, 6))
    crit = np.zeros((6, *shape), dtype=bool)
    for t in (0, 1, 2):
        crit[t][A] = True
    crit[2][B] = True
    crit[3][BAR] = True
    crit[4][A] = True
    crit[4][B] = True
    crit[5][A] = True

    volumes = [Volume(step.astype(np.float32), time=t, name="blocks")
               for t, step in enumerate(crit)]
    seq = VolumeSequence(volumes, name="blocks")

    def criteria_fn(vol):
        return vol.data > 0.5

    return seq, criteria_fn, (0, 3, 3, 3)


SCENARIOS = {
    "argon_ring": argon_scenario,
    "synthetic_events": synthetic_scenario,
}


# --------------------------------------------------------------------- #
# Trajectory records
# --------------------------------------------------------------------- #
def event_records(events):
    return [
        {"kind": e.kind, "time_a": int(e.time_a), "time_b": int(e.time_b),
         "sources": [int(s) for s in e.sources],
         "targets": [int(t) for t in e.targets]}
        for e in events
    ]


def lineage_record(masks, times):
    lineage = FeatureLineage(list(masks), times=times)
    root_voxel = np.argwhere(masks[0])[0]
    root = lineage.node_at(times[0], root_voxel)
    return {
        "n_features": int(lineage.n_features),
        "n_edges": int(lineage.graph.number_of_edges()),
        "events_along": [[kind, int(ta), int(tb)]
                         for kind, ta, tb in lineage.events_along(root)],
        "volume_history": [[int(t), int(v)]
                           for t, v in lineage.volume_history(root)],
    }


def trajectory_record(result):
    """Everything we pin: per-step counts, events, and lineage structure."""
    masks = result.masks
    return {
        "times": [int(t) for t in result.times],
        "voxel_counts": [int(c) for c in result.voxel_counts],
        "component_counts": [int(c) for c in result.component_counts()],
        "events": event_records(result.events),
        "lineage": lineage_record(masks, list(result.times)),
    }


def run_path(scenario: str, path: str):
    seq, criteria_fn, seed = SCENARIOS[scenario]()
    criteria = np.stack([criteria_fn(v) for v in seq])
    if path == "grow_4d":
        grown = grow_4d(criteria, [seed])
        return TrackResult(grown.shape[1:], seq.times, "golden",
                           [_pack_mask(m) for m in grown],
                           [int(m.sum()) for m in grown], sweeps=1)
    if path == "eager":
        tracker = FeatureTracker()
        return tracker.track_with_criteria(seq, criteria, seed, name="golden")
    if path == "streaming":
        tracker = FeatureTracker()
        return tracker.track_streaming(seq, seed, criteria_fn=criteria_fn,
                                       name="golden")
    raise ValueError(path)


def load_golden(scenario: str) -> dict:
    return json.loads((GOLDEN_DIR / f"{scenario}.json").read_text())


# --------------------------------------------------------------------- #
# Tests
# --------------------------------------------------------------------- #
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("path", ["grow_4d", "eager", "streaming"])
def test_trajectory_matches_golden(scenario, path):
    golden = load_golden(scenario)
    record = trajectory_record(run_path(scenario, path))
    assert record == golden


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_paths_agree_voxelwise(scenario):
    """Stronger than the golden: the three paths' masks are bit-identical."""
    ref = run_path(scenario, "grow_4d").masks
    assert np.array_equal(run_path(scenario, "eager").masks, ref)
    assert np.array_equal(run_path(scenario, "streaming").masks, ref)


def test_synthetic_golden_covers_all_event_kinds():
    kinds = {e["kind"] for e in load_golden("synthetic_events")["events"]}
    assert {"birth", "death", "split", "merge", "continuation"} <= kinds


def test_synthetic_requires_backward_reachability():
    """Forward-only streaming must *miss* block B at t=2 (it is reachable
    only through the later merge); refinement must recover it exactly."""
    seq, criteria_fn, seed = synthetic_scenario()
    tracker = FeatureTracker()
    forward = tracker.track_streaming(seq, seed, criteria_fn=criteria_fn,
                                      refine=False)
    refined = tracker.track_streaming(seq, seed, criteria_fn=criteria_fn)
    assert not forward.step_mask(2)[2:6, 10:14, 2:6].any()
    assert refined.step_mask(2)[2:6, 10:14, 2:6].all()
    assert refined.voxel_counts[2] > forward.voxel_counts[2]


class TestPredictSeeds:
    """Motion-extrapolated seeding is documented as a *superset* of plain
    4D growth: shifted seeds can only add criterion components, never
    drop tracked voxels, and a static feature gains nothing."""

    def test_static_feature_is_unchanged(self):
        seq, criteria_fn, seed = synthetic_scenario()
        tracker = FeatureTracker()
        plain = tracker.track_streaming(seq, seed, criteria_fn=criteria_fn)
        predicted = tracker.track_streaming(seq, seed, criteria_fn=criteria_fn,
                                            predict_seeds=True)
        assert np.array_equal(predicted.masks, plain.masks)
        assert event_records(predicted.events) == event_records(plain.events)

    def test_moving_feature_yields_superset(self):
        seq, criteria_fn, seed = argon_scenario()
        tracker = FeatureTracker()
        plain = tracker.track_streaming(seq, seed, criteria_fn=criteria_fn)
        predicted = tracker.track_streaming(seq, seed, criteria_fn=criteria_fn,
                                            predict_seeds=True)
        assert np.array_equal(predicted.masks & plain.masks, plain.masks)
        assert all(p >= q for p, q in
                   zip(predicted.voxel_counts, plain.voxel_counts))


def test_golden_fixtures_are_committed():
    for scenario in SCENARIOS:
        assert (GOLDEN_DIR / f"{scenario}.json").is_file(), (
            f"missing golden fixture for {scenario!r}; regenerate with "
            f"PYTHONPATH=src python tests/test_golden_trajectories.py --regen"
        )


class TestAdaptivePathAgreement:
    """Streaming with an IATF criterion equals the eager adaptive path.

    No committed floats — the trained network differs across library
    versions — only internal agreement between consumption models.
    """

    def test_streaming_matches_track_adaptive(self, swirl_small):
        from tests.test_tracking import swirl_iatf, swirl_seed

        tracker = FeatureTracker(opacity_threshold=0.1)
        iatf = swirl_iatf(swirl_small)
        seed = swirl_seed(swirl_small)
        eager = tracker.track_adaptive(swirl_small, seed, iatf)
        streamed = tracker.track_streaming(swirl_small, seed, iatf=iatf)
        assert streamed.criterion == "adaptive"
        assert np.array_equal(streamed.masks, eager.masks)
        assert event_records(streamed.events) == event_records(eager.events)


# --------------------------------------------------------------------- #
# Regeneration
# --------------------------------------------------------------------- #
def regenerate():
    GOLDEN_DIR.mkdir(exist_ok=True)
    for scenario in sorted(SCENARIOS):
        record = trajectory_record(run_path(scenario, "grow_4d"))
        out = GOLDEN_DIR / f"{scenario}.json"
        out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"wrote {out} ({len(record['events'])} events)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        regenerate()
    else:
        print(__doc__)
