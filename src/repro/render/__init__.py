"""Software direct-volume-rendering substrate.

The paper renders with view-aligned 3D textures and fragment programs on a
GeForce 6800 (Sec. 7).  This package is the software equivalent: the same
pipeline stages — per-sample transfer-function lookup, gradient Phong
shading, front-to-back alpha compositing, multi-pass tracked-feature
highlighting, axis-aligned slicing for the painting interface — implemented
as vectorized numpy over ray-sample batches.

- :mod:`repro.render.image` — RGBA image buffer and PPM export.
- :mod:`repro.render.raycast` — orthographic ray caster (scalar + TF, or a
  precomputed RGBA volume) with early ray termination.
- :mod:`repro.render.fastcast` — fast path over the same
  semantics: macro-cell empty-space skipping, per-ray box clipping, and
  configurable early termination (bit-identical at the default cutoff).
- :mod:`repro.render.shading` — gradient-based Phong headlight shading.
- :mod:`repro.render.multipass` — the Sec. 7 tracked-feature highlight
  pass (tracked voxels forced red, opacity from the adaptive TF).
- :mod:`repro.render.slicer` — slice images for the Sec. 6 painting UI.
"""

from repro.render.camera import Camera
from repro.render.fastcast import (
    SkipGrid,
    build_alpha_skip_grid,
    build_skip_grid,
    render_rgba_volume_fast,
    render_volume_fast,
)
from repro.render.image import Image
from repro.render.image_metrics import image_difference, mse, psnr, ssim
from repro.render.multipass import render_tracked
from repro.render.plots import bar_chart, line_chart
from repro.render.raycast import render_rgba_volume, render_volume
from repro.render.slicer import slice_image
from repro.render.shading import phong_shade
from repro.render.validation import (
    AgreementReport,
    agreement_overlay,
    agreement_report,
    tracking_agreement,
)

__all__ = [
    "AgreementReport",
    "Camera",
    "Image",
    "SkipGrid",
    "agreement_overlay",
    "agreement_report",
    "bar_chart",
    "build_alpha_skip_grid",
    "build_skip_grid",
    "image_difference",
    "line_chart",
    "mse",
    "psnr",
    "ssim",
    "tracking_agreement",
    "phong_shade",
    "render_rgba_volume",
    "render_rgba_volume_fast",
    "render_tracked",
    "render_volume",
    "render_volume_fast",
    "slice_image",
]
