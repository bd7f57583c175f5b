"""repro — reproduction of Tzeng & Ma, SC'05.

Intelligent feature extraction and tracking for visualizing large-scale 4D
flow simulations: a machine-learning (three-layer perceptron) approach to
adaptive transfer functions (IATF), data-space per-voxel feature
extraction, and 4D region-growing feature tracking, plus the full substrate
stack (volumes, transfer functions, software DVR, segmentation, synthetic
datasets, parallel execution) documented in DESIGN.md.

Quick tour
----------
>>> from repro import (
...     make_argon_sequence, TransferFunction1D, AdaptiveTransferFunction,
... )
>>> seq = make_argon_sequence(shape=(24, 32, 32), times=[195, 225, 255])
>>> iatf = AdaptiveTransferFunction.for_sequence(seq)
>>> # ... add key-frame TFs, train, and generate per-step TFs; see
>>> # examples/quickstart.py for the full workflow.
"""

from repro.core import (
    AdaptiveTransferFunction,
    DataSpaceClassifier,
    FeatureTracker,
    KeyFrame,
    NeuralNetwork,
    ShellFeatureExtractor,
    TrackResult,
    TrainingSet,
    classify_sequence,
    derive_shell_radius,
    generate_sequence_tfs,
    render_sequence,
)
from repro.data import (
    make_argon_sequence,
    make_combustion_sequence,
    make_cosmology_sequence,
    make_swirl_sequence,
    make_vortex_sequence,
)
from repro.interface import InteractiveSession, Oracle, PaintStroke
from repro.render import Camera, Image, render_tracked, render_volume, slice_image
from repro.transfer import (
    Colormap,
    TransferFunction1D,
    default_flow_colormap,
    grayscale_colormap,
    interpolate_transfer_functions,
)
from repro.volume import (
    CumulativeHistogram,
    Volume,
    VolumeSequence,
    cumulative_histogram,
    histogram,
    load_sequence,
    load_volume,
    save_sequence,
    save_volume,
    vorticity_magnitude,
)

__version__ = "1.0.0"

__all__ = [
    "AdaptiveTransferFunction",
    "Camera",
    "Colormap",
    "CumulativeHistogram",
    "DataSpaceClassifier",
    "FeatureTracker",
    "Image",
    "InteractiveSession",
    "KeyFrame",
    "NeuralNetwork",
    "Oracle",
    "PaintStroke",
    "ShellFeatureExtractor",
    "TrackResult",
    "TrainingSet",
    "TransferFunction1D",
    "Volume",
    "VolumeSequence",
    "__version__",
    "classify_sequence",
    "cumulative_histogram",
    "default_flow_colormap",
    "derive_shell_radius",
    "generate_sequence_tfs",
    "grayscale_colormap",
    "histogram",
    "interpolate_transfer_functions",
    "load_sequence",
    "load_volume",
    "make_argon_sequence",
    "make_combustion_sequence",
    "make_cosmology_sequence",
    "make_swirl_sequence",
    "make_vortex_sequence",
    "render_sequence",
    "render_tracked",
    "render_volume",
    "save_sequence",
    "save_volume",
    "slice_image",
    "vorticity_magnitude",
]
