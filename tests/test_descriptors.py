"""Descriptor matching battery: invariances, lineage, inertness, index.

Covers the `repro.features` subsystem and its tracker integration:

- descriptor invariance properties (translation of the mask within the
  volume, ±10% affine value rescaling);
- match-through-disappearance on the fast vortex — zero-overlap jumps
  plus a two-step occlusion — scored against ground truth and required
  to agree across the eager, pull-streaming, and push (in-order AND
  out-of-order) consumption models;
- threshold rejection of a genuinely-new feature (and of the planted
  decoy in the fast-vortex band);
- **fallback inertness**: with a matcher attached, every committed
  golden trajectory stays bit-identical (the fallback only fires on
  steps where growth found nothing);
- canonical event ordering: sorting is the identity on detect_events
  output, and the packed result's timeline equals the per-step
  labeling timeline;
- DescriptorIndex persistence round-trip and warm-load counters.
"""

import numpy as np
import pytest

from repro.cache.store import ArtifactStore
from repro.core.tracking import FeatureTracker, TrackResult, _pack_mask
from repro.features import (
    DescriptorConfig,
    DescriptorIndex,
    DescriptorMatcher,
    cached_index,
    describe_components,
    feature_descriptor,
)
from repro.obs import get_metrics
from repro.segmentation.events import (
    TrackEvent,
    canonical_event_order,
    detect_events,
    merge_match_events,
    track_timeline,
)
from repro.volume.grid import Volume, VolumeSequence

from tests.test_golden_trajectories import (
    SCENARIOS,
    event_records,
    load_golden,
    trajectory_record,
)


def _cos(a, b) -> float:
    return float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))


def _blob_volume(shape=(24, 28, 32), corner=(4, 5, 6), size=(5, 6, 6),
                 value=0.8, seed=0):
    """A box feature over low noise; returns (data, mask)."""
    rng = np.random.default_rng(seed)
    data = rng.random(shape).astype(np.float32) * 0.3
    mask = np.zeros(shape, dtype=bool)
    zs, ys, xs = corner
    dz, dy, dx = size
    mask[zs:zs + dz, ys:ys + dy, xs:xs + dx] = True
    data[mask] = value + 0.15 * rng.random(mask.sum()).astype(np.float32)
    return data, mask


# --------------------------------------------------------------------- #
# Descriptor invariances
# --------------------------------------------------------------------- #
class TestDescriptorInvariance:
    def test_translation_invariant(self):
        data, mask = _blob_volume()
        moved = np.zeros_like(data)
        moved_mask = np.roll(mask, (7, 6, 9), axis=(0, 1, 2))
        moved[moved_mask] = data[mask]
        d0 = feature_descriptor(data, mask)
        d1 = feature_descriptor(moved, moved_mask)
        assert np.allclose(d0, d1, atol=1e-6)

    @pytest.mark.parametrize("scale", [0.9, 1.1])
    def test_value_scale_invariant(self, scale):
        data, mask = _blob_volume()
        d0 = feature_descriptor(data, mask)
        d1 = feature_descriptor(data * scale, mask)
        assert np.allclose(d0, d1, atol=1e-5)

    def test_same_feature_similar_across_steps(self, fast_vortex_small):
        seq = fast_vortex_small
        descs = [feature_descriptor(v.data, v.mask("vortex"))
                 for v in seq if v.mask("vortex").any()]
        sims = [_cos(descs[0], d) for d in descs[1:]]
        assert min(sims) > 0.9

    def test_different_shape_is_distant(self, fast_vortex_small):
        seq = fast_vortex_small
        tube = feature_descriptor(seq[0].data, seq[0].mask("vortex"))
        decoy = feature_descriptor(seq[0].data, seq[0].mask("decoy"))
        assert _cos(tube, decoy) < 0.6

    def test_length_matches_config(self):
        data, mask = _blob_volume()
        config = DescriptorConfig(n_shells=3, n_bins=5)
        assert feature_descriptor(data, mask, config=config).shape == (
            config.length(),)

    def test_empty_mask_raises(self):
        data, mask = _blob_volume()
        with pytest.raises(ValueError, match="empty"):
            feature_descriptor(data, np.zeros_like(mask))

    def test_describe_components_ascending_labels(self):
        data, mask = _blob_volume()
        crit = data > 0.5
        cands = describe_components(data, crit, min_voxels=1)
        assert [c.label for c in cands] == sorted(c.label for c in cands)


# --------------------------------------------------------------------- #
# Fast-vortex dataset contract
# --------------------------------------------------------------------- #
class TestFastVortexDataset:
    def test_zero_interstep_overlap(self, fast_vortex_small):
        truths = [v.mask("vortex") for v in fast_vortex_small]
        for a, b in zip(truths[:-1], truths[1:]):
            assert not (a & b).any()

    def test_occlusion_window(self, fast_vortex_small):
        counts = [int(v.mask("vortex").sum()) for v in fast_vortex_small]
        assert counts[4] == 0 and counts[5] == 0
        assert all(c > 0 for c in counts[:4] + counts[6:])

    def test_band_holds_exactly_tube_and_decoy(self, fast_vortex_small):
        for vol in fast_vortex_small:
            crit = (vol.data >= 0.5) & (vol.data <= 1.0)
            assert np.array_equal(crit,
                                  vol.mask("vortex") | vol.mask("decoy"))


# --------------------------------------------------------------------- #
# Match-through-disappearance vs ground truth
# --------------------------------------------------------------------- #
def _fast_seed(seq):
    first = np.argwhere(seq[0].mask("vortex"))[0]
    return (0, *(int(c) for c in first))


def _iou_per_step(masks, truths):
    out = []
    for mask, truth in zip(masks, truths):
        union = int((mask | truth).sum())
        out.append(1.0 if union == 0
                   else int((mask & truth).sum()) / union)
    return out


def _lineage(events):
    return [(e.kind, e.time_a, e.time_b) for e in events
            if e.kind in ("lost", "reacquired")]


EXPECTED_LINEAGE = [("reacquired", 0, 1), ("reacquired", 1, 2),
                    ("reacquired", 2, 3), ("lost", 3, 4),
                    ("reacquired", 3, 6), ("reacquired", 6, 7)]


class TestMatchThroughDisappearance:
    @pytest.fixture(scope="class")
    def matcher(self):
        return DescriptorMatcher(threshold=0.7, max_gap=3)

    def test_eager(self, fast_vortex_small, matcher):
        seq = fast_vortex_small
        tracker = FeatureTracker(matcher=matcher)
        result = tracker.track_fixed(seq, _fast_seed(seq), lo=0.5, hi=1.0)
        truths = [v.mask("vortex") for v in seq]
        assert min(_iou_per_step(result.masks, truths)) >= 0.95
        assert _lineage(result.events) == EXPECTED_LINEAGE

    def test_streaming_matches_eager(self, fast_vortex_small, matcher):
        seq = fast_vortex_small
        tracker = FeatureTracker(matcher=matcher)
        eager = tracker.track_fixed(seq, _fast_seed(seq), lo=0.5, hi=1.0)
        streamed = tracker.track_streaming(seq, _fast_seed(seq),
                                           lo=0.5, hi=1.0)
        assert np.array_equal(streamed.masks, eager.masks)
        assert event_records(streamed.events) == event_records(eager.events)

    @pytest.mark.parametrize("order", [None, [0, 1, 4, 2, 3, 6, 5, 7]],
                             ids=["in_order", "out_of_order"])
    def test_push_mode(self, fast_vortex_small, matcher, order):
        seq = fast_vortex_small
        tracker = FeatureTracker(matcher=matcher)
        eager = tracker.track_fixed(seq, _fast_seed(seq), lo=0.5, hi=1.0)
        stream = tracker.open_stream(_fast_seed(seq))
        for i in order or range(len(seq)):
            vol = seq[i]
            crit = (vol.data >= 0.5) & (vol.data <= 1.0)
            stream.push(vol.time, crit, data=vol.data)
        result = stream.finalize()
        assert np.array_equal(result.masks, eager.masks)
        assert _lineage(result.events) == EXPECTED_LINEAGE

    def test_never_matches_decoy(self, fast_vortex_small, matcher):
        seq = fast_vortex_small
        tracker = FeatureTracker(matcher=matcher)
        result = tracker.track_fixed(seq, _fast_seed(seq), lo=0.5, hi=1.0)
        for mask, vol in zip(result.masks, seq):
            assert not (mask & vol.mask("decoy")).any()

    def test_baseline_tracker_loses_feature(self, fast_vortex_small):
        """The scenario genuinely defeats overlap-only tracking."""
        seq = fast_vortex_small
        result = FeatureTracker().track_fixed(seq, _fast_seed(seq),
                                              lo=0.5, hi=1.0)
        assert result.voxel_counts[1:] == [0] * (len(seq) - 1)

    def test_counters(self, fast_vortex_small, matcher):
        seq = fast_vortex_small
        before = get_metrics().counter_values("track.match.")
        FeatureTracker(matcher=matcher).track_fixed(
            seq, _fast_seed(seq), lo=0.5, hi=1.0)
        after = get_metrics().counter_values("track.match.")
        delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
        assert delta["track.match.reacquired"] == 5
        assert delta["track.match.lost"] == 1


class TestMatchRejection:
    def _disappearing_scenario(self):
        """Tube at t0, gone forever after; an unrelated ball appears."""
        shape = (32, 32, 32)
        vols = []
        for t in range(4):
            data = np.zeros(shape, np.float32)
            if t == 0:
                data[6:26, 14:18, 14:18] = 0.9      # elongated tube
            else:
                data[4:12, 2:10, 2:10] = 0.9        # fat ball, disjoint
            vols.append(Volume(data, time=t))
        return VolumeSequence(vols)

    def test_new_feature_rejected(self):
        seq = self._disappearing_scenario()
        matcher = DescriptorMatcher(threshold=0.7, max_gap=3)
        result = FeatureTracker(matcher=matcher).track_fixed(
            seq, (0, 10, 15, 15), lo=0.5, hi=1.0)
        assert result.voxel_counts[1:] == [0, 0, 0]
        assert _lineage(result.events) == [("lost", 0, 1)]

    def test_max_gap_expires(self, fast_vortex_small):
        """With the gap budget below the occlusion length, no late match."""
        seq = fast_vortex_small
        matcher = DescriptorMatcher(threshold=0.7, max_gap=1)
        result = FeatureTracker(matcher=matcher).track_fixed(
            seq, _fast_seed(seq), lo=0.5, hi=1.0)
        # Jumps (gap 1) still reacquire; the 2-step occlusion does not.
        assert result.voxel_counts[4:] == [0, 0, 0, 0]
        assert _lineage(result.events) == EXPECTED_LINEAGE[:4]

    def test_displacement_prior_gates(self):
        matcher = DescriptorMatcher(threshold=0.5, max_displacement=3.0)
        data, mask = _blob_volume()
        cands = describe_components(data, data > 0.5, min_voxels=8)
        query = feature_descriptor(data, mask)
        near = matcher.best(query, cands, last_centroid=cands[0].centroid,
                            gap=1)
        assert near is not None
        far = matcher.best(query, cands,
                           last_centroid=np.asarray(cands[0].centroid) + 50.0,
                           gap=1)
        assert far is None


# --------------------------------------------------------------------- #
# Inertness: goldens stay bit-identical with a matcher attached
# --------------------------------------------------------------------- #
class TestFallbackInertness:
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_golden_trajectories_unchanged(self, scenario):
        seq, criteria_fn, seed = SCENARIOS[scenario]()
        criteria = np.stack([criteria_fn(v) for v in seq])
        tracker = FeatureTracker(matcher=DescriptorMatcher())
        result = tracker.track_with_criteria(seq, criteria, seed,
                                             name="golden")
        assert result.match_events == []
        assert trajectory_record(result) == load_golden(scenario)

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_streaming_unchanged(self, scenario):
        seq, criteria_fn, seed = SCENARIOS[scenario]()
        plain = FeatureTracker().track_streaming(seq, seed,
                                                 criteria_fn=criteria_fn)
        matched = FeatureTracker(matcher=DescriptorMatcher()).track_streaming(
            seq, seed, criteria_fn=criteria_fn)
        assert matched.match_events == []
        assert np.array_equal(matched.masks, plain.masks)
        assert event_records(matched.events) == event_records(plain.events)


# --------------------------------------------------------------------- #
# Canonical event ordering
# --------------------------------------------------------------------- #
def _multi_component_masks():
    """Several components appearing/dying at the same timestep."""
    masks = np.zeros((3, 12, 12, 12), dtype=bool)
    masks[0, 1:3, 1:7, 1:3] = True       # splits into two
    masks[0, 8:10, 8:10, 8:10] = True    # dies
    masks[1, 1:3, 1:3, 1:3] = True
    masks[1, 1:3, 5:7, 1:3] = True
    masks[1, 4:6, 8:10, 8:10] = True     # born at t=1
    masks[1, 8:10, 1:3, 8:10] = True     # born at t=1
    masks[2, 1:3, 1:6, 1:3] = True       # the two merge
    masks[2, 4:6, 8:10, 8:10] = True
    return masks


class TestCanonicalEventOrder:
    def test_sort_is_identity_on_timeline(self):
        from repro.segmentation.components import label_components

        masks = _multi_component_masks()
        labelings = [label_components(m)[0] for m in masks]
        timeline = track_timeline(labelings, times=[0, 1, 2])
        assert canonical_event_order(timeline) == timeline
        for i, (a, b) in enumerate(zip(labelings[:-1], labelings[1:])):
            pair = detect_events(a, b, time_a=i, time_b=i + 1)
            assert canonical_event_order(pair) == pair

    def test_eager_and_streaming_results_agree(self):
        from repro.segmentation.components import label_components

        masks = _multi_component_masks()
        result = TrackResult(
            masks.shape[1:], [0, 1, 2], "x",
            [_pack_mask(m) for m in masks],
            [int(m.sum()) for m in masks], sweeps=1)
        timeline = track_timeline([label_components(m)[0] for m in masks],
                                  times=[0, 1, 2])
        assert event_records(result.events) == event_records(timeline)
        kinds = {e.kind for e in result.events}
        assert {"split", "merge", "birth", "death"} <= kinds

    def test_merge_supersedes_death_and_birth(self):
        timeline = [
            TrackEvent("death", 1, 2, (3,), ()),
            TrackEvent("birth", 3, 4, (), (2,)),
            TrackEvent("continuation", 4, 5, (2,), (2,)),
        ]
        merged = merge_match_events(timeline, [
            TrackEvent("lost", 1, 2, (1,), ()),
            TrackEvent("reacquired", 1, 4, (1,), (1,)),
        ])
        kinds = [(e.kind, e.sources, e.targets) for e in merged]
        assert ("death", (3,), ()) not in kinds
        assert ("birth", (), (2,)) not in kinds
        # ids inherited from the superseded overlap events
        assert ("lost", (3,), ()) in kinds
        assert ("reacquired", (3,), (2,)) in kinds
        assert ("continuation", (2,), (2,)) in kinds

    def test_merge_with_no_match_events_is_canonical_sort(self):
        timeline = [TrackEvent("birth", 0, 1, (), (2,)),
                    TrackEvent("death", 0, 1, (1,), ())]
        assert merge_match_events(timeline, []) == canonical_event_order(
            timeline)
        assert [e.kind for e in merge_match_events(timeline, [])] == [
            "death", "birth"]


# --------------------------------------------------------------------- #
# DescriptorIndex persistence
# --------------------------------------------------------------------- #
class TestDescriptorIndex:
    def _populated(self):
        data, mask = _blob_volume()
        index = DescriptorIndex(metric="cosine")
        for cand in describe_components(data, data > 0.5, min_voxels=1):
            index.add(cand.descriptor, cand.meta(time=0))
        return index, feature_descriptor(data, mask)

    def test_roundtrip(self, tmp_path):
        index, query = self._populated()
        store = ArtifactStore(tmp_path)
        index.save(store, "idx")
        loaded = DescriptorIndex.load(store, "idx")
        assert len(loaded) == len(index)
        assert np.array_equal(loaded.matrix, index.matrix)
        assert loaded.metas == index.metas
        assert loaded.query(query, k=2) == index.query(query, k=2)

    def test_query_best_first(self):
        index, query = self._populated()
        scores = [s for s, _ in index.query(query, k=len(index))]
        assert scores == sorted(scores, reverse=True)
        assert scores[0] == pytest.approx(1.0)

    def test_l2_metric(self):
        index, query = self._populated()
        l2 = DescriptorIndex(metric="l2")
        for row, meta in zip(index.matrix, index.metas):
            l2.add(row, meta)
        scores = [s for s, _ in l2.query(query, k=len(l2))]
        assert scores == sorted(scores)
        assert scores[0] == pytest.approx(0.0, abs=1e-6)

    def test_dim_mismatch_raises(self):
        index = DescriptorIndex(dim=4)
        index.add(np.ones(4, np.float32), {})
        with pytest.raises(ValueError, match="dims"):
            index.add(np.ones(5, np.float32), {})

    def test_cached_index_counters(self, tmp_path):
        index, _ = self._populated()
        store = ArtifactStore(tmp_path)

        def snapshot():
            return get_metrics().counter_values("track.match.index.")

        before = snapshot()
        first, hit = cached_index(store, "k", lambda: index)
        assert not hit
        second, hit = cached_index(store, "k", lambda: index)
        assert hit
        assert len(second) == len(index)
        after = snapshot()
        misses = after.get("track.match.index.misses", 0) - before.get(
            "track.match.index.misses", 0)
        hits = after.get("track.match.index.hits", 0) - before.get(
            "track.match.index.hits", 0)
        assert (misses, hits) == (1, 1)

    @pytest.mark.parametrize("damage", ["payload-list", "no-metas", "matrix-deleted"])
    def test_unloadable_index_rebuilds_and_counts(self, tmp_path, damage):
        index, _ = self._populated()
        store = ArtifactStore(tmp_path)
        cached_index(store, "k", lambda: index)
        if damage == "payload-list":
            store.put_json("k", [])
        elif damage == "no-metas":
            payload = store.get_json("k")
            del payload["metas"]
            store.put_json("k", payload)
        else:
            store.remove("k.mat")
        corrupt = get_metrics().counter("track.match.index.corrupt")
        before = corrupt.value
        rebuilt, hit = cached_index(store, "k", lambda: index)
        assert not hit and len(rebuilt) == len(index)
        assert corrupt.value == before + 1
        # The rebuild stored a loadable index again.
        assert cached_index(store, "k", lambda: index)[1]

    def test_unrelated_load_error_propagates(self, tmp_path, monkeypatch):
        index, _ = self._populated()
        store = ArtifactStore(tmp_path)
        cached_index(store, "k", lambda: index)

        def broken(store, key):
            raise RuntimeError("not a storage problem")

        monkeypatch.setattr(DescriptorIndex, "load", broken)
        with pytest.raises(RuntimeError, match="not a storage problem"):
            cached_index(store, "k", lambda: index)


# --------------------------------------------------------------------- #
# CI hypothesis profile
# --------------------------------------------------------------------- #
def test_ci_hypothesis_profile_registered():
    hypothesis = pytest.importorskip("hypothesis")
    profile = hypothesis.settings.get_profile("ci")
    assert profile.max_examples <= 25
