"""Gradient-based Phong shading.

The paper's Sec. 7 performance numbers are measured "with shading"; the
standard DVR shading model of the era is Phong lighting with the scalar
gradient as the surface normal.  :func:`phong_shade` is a batch operation
over arbitrary sample arrays so the ray caster can shade a whole sample
shell at once.
"""

from __future__ import annotations

import numpy as np


def check_shading_shape(shape) -> None:
    """Raise ``ValueError`` unless a field of ``shape`` can be shaded.

    Shading lights samples along the field's gradient, and a gradient
    needs every axis at least 2 voxels long.  Both casters, ``repro
    render``, a run's render stage and serve's render apply this check.
    """
    if min(shape) < 2:
        raise ValueError("shading needs a gradient, which needs every axis "
                         f"at least 2 voxels long; got shape {tuple(shape)}")


def phong_shade(
    colors: np.ndarray,
    gradients: np.ndarray,
    light_dir,
    view_dir,
    ambient: float = 0.3,
    diffuse: float = 0.6,
    specular: float = 0.3,
    shininess: float = 16.0,
) -> np.ndarray:
    """Shade sample colors with Phong lighting.

    Parameters
    ----------
    colors:
        ``(..., 3)`` RGB samples.
    gradients:
        ``(..., 3)`` scalar-field gradients at the samples (need not be
        normalized; near-zero gradients fall back to unshaded ambient+
        diffuse so homogeneous regions don't flicker).
    light_dir, view_dir:
        Direction *toward* the light / viewer, (z, y, x) order.
    ambient, diffuse, specular, shininess:
        Standard Phong coefficients.

    Returns
    -------
    Shaded RGB of the same shape as ``colors``.
    """
    colors = np.asarray(colors, dtype=np.float32)
    gradients = np.asarray(gradients, dtype=np.float32)
    if colors.shape[-1] != 3 or gradients.shape[-1] != 3:
        raise ValueError("colors and gradients must end in a 3-vector axis")
    light = np.asarray(light_dir, dtype=np.float32)
    light = light / np.linalg.norm(light)
    view = np.asarray(view_dir, dtype=np.float32)
    view = view / np.linalg.norm(view)

    norm = np.linalg.norm(gradients, axis=-1, keepdims=True)
    flat = (norm[..., 0] < 1e-6)
    normals = np.where(norm > 1e-6, gradients / np.maximum(norm, 1e-12), 0.0)

    # Two-sided lighting: a gradient is an isosurface normal without a
    # consistent sign, so take |n·l|.
    ndotl = np.abs(np.einsum("...c,c->...", normals, light))
    half = light + view
    half = half / np.linalg.norm(half)
    ndoth = np.abs(np.einsum("...c,c->...", normals, half))

    intensity = ambient + diffuse * ndotl
    intensity = np.where(flat, ambient + diffuse, intensity)
    spec = specular * np.power(ndoth, shininess)
    spec = np.where(flat, 0.0, spec)

    shaded = colors * intensity[..., None] + spec[..., None]
    return np.clip(shaded, 0.0, 1.0).astype(np.float32)
