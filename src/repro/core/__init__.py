"""The paper's primary contribution: learning-based extraction & tracking.

- :mod:`repro.core.mlp` — the Sec. 3 machine-learning engine: a three-layer
  perceptron trained with feed-forward back-propagation (BPN), written from
  scratch in numpy, with incremental ("idle-loop") training and the Sec. 6
  network-resize-with-weight-transfer operation.
- :mod:`repro.core.iatf` — the Sec. 4.2 Intelligent Adaptive Transfer
  Function: learns ⟨data, cumulative-histogram, time⟩ → opacity from
  key-frame transfer functions and regenerates a 1D TF for any time step.
- :mod:`repro.core.dataspace` — the Sec. 4.3 data-space extraction:
  per-voxel shell-neighborhood feature vectors and a whole-volume
  classifier that can separate features by size.
- :mod:`repro.core.tracking` — the Sec. 5 feature tracking: 4D region
  growing under fixed or adaptive (IATF) criteria, with event detection.
- :mod:`repro.core.pipeline` — end-to-end orchestration across sequences,
  optionally parallel over time steps.
"""

from repro.core.mlp import NeuralNetwork, TrainingSet
from repro.core.iatf import AdaptiveTransferFunction, KeyFrame
from repro.core.bayes import GaussianNaiveBayes
from repro.core.hmm import TemporalHMM, smooth_certainty_stack
from repro.core.svm import SupportVectorMachine
from repro.core.engines import BayesEngine, MLPEngine, SVMEngine, make_engine
from repro.core.dataspace import (
    DataSpaceClassifier,
    MultivariateShellExtractor,
    ShellFeatureExtractor,
    derive_shell_radius,
)
from repro.core.fastclassify import (
    FastVolumeClassifier,
    TemporalCoherenceCache,
    fast_feature_matrix,
)
from repro.core.introspect import (
    classifier_importance,
    permutation_importance,
    rank_features,
    suggest_feature_subset,
    weight_saliency,
)
from repro.core.tracking import FeatureTracker, TrackResult
from repro.core.pipeline import (
    classify_sequence,
    generate_sequence_tfs,
    render_sequence,
)

__all__ = [
    "AdaptiveTransferFunction",
    "BayesEngine",
    "DataSpaceClassifier",
    "FastVolumeClassifier",
    "FeatureTracker",
    "GaussianNaiveBayes",
    "KeyFrame",
    "MLPEngine",
    "MultivariateShellExtractor",
    "NeuralNetwork",
    "SVMEngine",
    "ShellFeatureExtractor",
    "SupportVectorMachine",
    "TemporalCoherenceCache",
    "TemporalHMM",
    "TrackResult",
    "TrainingSet",
    "classifier_importance",
    "classify_sequence",
    "derive_shell_radius",
    "fast_feature_matrix",
    "generate_sequence_tfs",
    "make_engine",
    "permutation_importance",
    "rank_features",
    "render_sequence",
    "smooth_certainty_stack",
    "suggest_feature_subset",
    "weight_saliency",
]
