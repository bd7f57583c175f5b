"""Segmentation substrate: region growing, components, tracking events.

The paper builds feature extraction and tracking on flood-fill style region
growing where *"the criteria for region growing are in the form of an
arbitrary-dimensional classification function rather than a particular
threshold value"* (Sec. 2) and tracking is *"4D region growing where the
fourth dimension is time"* (Sec. 5).

- :mod:`repro.segmentation.regiongrow` — seeded growth in 3D and 4D under
  arbitrary criterion masks (vectorized frontier propagation).
- :mod:`repro.segmentation.components` — the one connected-component
  labeler and per-feature attributes (volume, centroid, bounding box,
  mass).
- :mod:`repro.segmentation.events` — step-to-step overlap graph classified
  into continuation / split / merge / birth / death events.
- :mod:`repro.segmentation.fastgrow` — label-and-select region growing
  and the two labeling paths behind ``label_components``: one dense
  labeling pass, plus a sparse voxel-graph strategy for near-empty
  criteria (both exact).
"""

from repro.segmentation.components import (
    FeatureAttributes,
    feature_attributes,
    label_components,
)
from repro.segmentation.events import TrackEvent, detect_events, overlap_graph, track_timeline
from repro.segmentation.fastgrow import grow_bricked, grow_sparse
from repro.segmentation.lineage import FeatureLineage, FeatureNode
from repro.segmentation.octree import OctreeMask, encode_tracked_masks
from repro.segmentation.prediction import PredictionTrackResult, PredictionVerificationTracker
from repro.segmentation.regiongrow import grow_4d, grow_region

__all__ = [
    "FeatureAttributes",
    "FeatureLineage",
    "FeatureNode",
    "OctreeMask",
    "PredictionTrackResult",
    "PredictionVerificationTracker",
    "TrackEvent",
    "detect_events",
    "encode_tracked_masks",
    "feature_attributes",
    "grow_4d",
    "grow_bricked",
    "grow_region",
    "grow_sparse",
    "label_components",
    "overlap_graph",
    "track_timeline",
]
