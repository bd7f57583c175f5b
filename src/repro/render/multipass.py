"""Tracked-feature highlight rendering (paper Sec. 7).

The paper's rule for rendering tracking results: *"when a voxel's value in
the region growing texture is one, its color is set to red and its opacity
is set to the opacity in the adaptive transfer function.  Otherwise, the
color and opacity looked up from the user specified 1D transfer function
are shown."*  The GPU version does this in multiple passes over a 3D
region-growing texture; here we bake the rule into a per-voxel RGBA volume
and send it through :func:`repro.render.raycast.render_rgba_volume`, or
through the fast path (:func:`repro.render.fastcast.render_rgba_volume_fast`).
"""

from __future__ import annotations

import numpy as np

from repro.render.camera import Camera
from repro.render.fastcast import render_rgba_volume_fast
from repro.render.image import Image
from repro.render.raycast import render_rgba_volume
from repro.transfer.tf1d import TransferFunction1D
from repro.volume.grid import Volume

HIGHLIGHT_RED = (0.9, 0.08, 0.08)


def tracked_rgba(
    volume,
    tracked_mask: np.ndarray,
    context_tf: TransferFunction1D,
    adaptive_tf: TransferFunction1D | None = None,
    highlight_color=HIGHLIGHT_RED,
    min_highlight_opacity: float = 0.35,
) -> np.ndarray:
    """Build the combined RGBA volume for a tracked feature + context.

    Parameters
    ----------
    volume:
        The scalar field at this time step.
    tracked_mask:
        Boolean region-growing result for this step.
    context_tf:
        The user's 1D transfer function (colors/opacity for everything
        outside the tracked feature — "the original volume for providing
        content", Fig. 9 caption).
    adaptive_tf:
        The IATF-generated TF supplying the tracked voxels' opacity; when
        ``None`` the context TF's opacity is used.
    min_highlight_opacity:
        Floor on tracked-voxel opacity so the feature stays visible even
        where the adaptive TF is faint — one of the paper's "variety of
        highlighting criteria".
    """
    data = volume.data if isinstance(volume, Volume) else np.asarray(volume, dtype=np.float32)
    tracked_mask = np.asarray(tracked_mask, dtype=bool)
    if tracked_mask.shape != data.shape:
        raise ValueError(
            f"tracked mask shape {tracked_mask.shape} != volume shape {data.shape}"
        )
    rgba = np.empty(data.shape + (4,), dtype=np.float32)
    rgba[..., :3] = context_tf.color_at(data)
    rgba[..., 3] = context_tf.opacity_at(data)

    opacity_tf = adaptive_tf if adaptive_tf is not None else context_tf
    tracked_opacity = opacity_tf.opacity_at(data[tracked_mask])
    rgba[tracked_mask, 0] = highlight_color[0]
    rgba[tracked_mask, 1] = highlight_color[1]
    rgba[tracked_mask, 2] = highlight_color[2]
    rgba[tracked_mask, 3] = np.maximum(tracked_opacity, min_highlight_opacity)
    return rgba


def render_tracked(
    volume,
    tracked_mask: np.ndarray,
    context_tf: TransferFunction1D,
    adaptive_tf: TransferFunction1D | None = None,
    camera: Camera | None = None,
    step: float = 1.0,
    shading: bool = True,
    highlight_color=HIGHLIGHT_RED,
    fast: bool = False,
    fast_options: dict | None = None,
) -> Image:
    """Render one time step with the tracked feature highlighted in red.

    This is the Fig. 9 frame renderer; Sec. 7 reports ~4 fps for it on the
    paper's GPU versus ~6 fps for the plain pass — the multi-pass overhead
    ratio our Sec. 7 bench reproduces.

    ``fast=True`` sends the baked RGBA volume through the ESS/ERT
    renderer (:func:`repro.render.fastcast.render_rgba_volume_fast`) with
    ``fast_options`` forwarded (``ert_alpha``, ``cell``) —
    bit-identical at the default termination threshold.
    """
    if fast_options is not None and not fast:
        raise ValueError("fast_options requires fast=True")
    data = volume.data if isinstance(volume, Volume) else np.asarray(volume, dtype=np.float32)
    rgba = tracked_rgba(
        volume, tracked_mask, context_tf, adaptive_tf, highlight_color=highlight_color
    )
    if fast:
        return render_rgba_volume_fast(
            rgba,
            camera=camera,
            step=step,
            shading_field=data if shading else None,
            **(fast_options or {}),
        )
    return render_rgba_volume(
        rgba,
        camera=camera,
        step=step,
        shading_field=data if shading else None,
    )
