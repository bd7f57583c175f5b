"""1D transfer functions (paper Sec. 4.1–4.2).

A :class:`TransferFunction1D` is a table of ``entries`` opacity values over
a fixed scalar domain plus a shared colormap.  It is simultaneously:

- the thing the user edits per key frame (tent/box primitives mirror the
  classic TF-widget interactions),
- the *training set source* for the IATF (each table entry becomes one
  ⟨data, cumhist(data), t⟩ → opacity sample, paper Sec. 4.2.2), and
- the *output* of the IATF (the trained network regenerates one table per
  time step).

:func:`interpolate_transfer_functions` is the linear-interpolation baseline
the paper contrasts against in Fig. 3.
"""

from __future__ import annotations

import numpy as np

from repro.transfer.colormap import Colormap, default_flow_colormap
from repro.volume.grid import Volume


class TransferFunction1D:
    """Opacity table over a scalar domain with an attached colormap.

    Parameters
    ----------
    domain:
        ``(lo, hi)`` scalar range the table spans.  For time-varying work
        this is the *sequence-global* range so entry indices mean the same
        value at every step.
    entries:
        Table resolution (default 256, the paper's TF resolution).
    opacity:
        Optional initial opacity array of length ``entries`` in [0, 1];
        defaults to fully transparent.
    colormap:
        Color assignment, fixed to data value (paper Sec. 7).
    """

    def __init__(self, domain, entries: int = 256, opacity=None, colormap: Colormap | None = None):
        lo, hi = float(domain[0]), float(domain[1])
        if not hi > lo:
            raise ValueError(f"domain must satisfy hi > lo, got ({lo}, {hi})")
        if entries < 2:
            raise ValueError(f"entries must be >= 2, got {entries}")
        self.lo = lo
        self.hi = hi
        self.entries = int(entries)
        if opacity is None:
            self.opacity = np.zeros(self.entries, dtype=np.float64)
        else:
            opacity = np.asarray(opacity, dtype=np.float64)
            if opacity.shape != (self.entries,):
                raise ValueError(
                    f"opacity must have shape ({self.entries},), got {opacity.shape}"
                )
            if opacity.min() < 0.0 or opacity.max() > 1.0:
                raise ValueError("opacity values must lie in [0, 1]")
            self.opacity = opacity.copy()
        self.colormap = colormap if colormap is not None else default_flow_colormap()

    # ------------------------------------------------------------------ #
    # Construction helpers (the "TF widget" edits)
    # ------------------------------------------------------------------ #
    def add_tent(self, center: float, width: float, peak: float = 1.0) -> "TransferFunction1D":
        """Add a triangular opacity bump centered at scalar ``center``.

        The result at each entry is the max of the existing opacity and the
        tent — matching how TF widgets stack primitives.  Returns ``self``
        for chaining.
        """
        if width <= 0:
            raise ValueError(f"width must be positive, got {width}")
        if not 0 <= peak <= 1:
            raise ValueError(f"peak must be in [0, 1], got {peak}")
        values = self.entry_values()
        tent = peak * np.clip(1.0 - np.abs(values - center) / (width / 2.0), 0.0, 1.0)
        np.maximum(self.opacity, tent, out=self.opacity)
        return self

    def add_box(self, lo: float, hi: float, opacity: float = 1.0) -> "TransferFunction1D":
        """Add a rectangular opacity step over scalar range ``[lo, hi]``."""
        if hi <= lo:
            raise ValueError(f"box requires hi > lo, got ({lo}, {hi})")
        if not 0 <= opacity <= 1:
            raise ValueError(f"opacity must be in [0, 1], got {opacity}")
        values = self.entry_values()
        box = np.where((values >= lo) & (values <= hi), opacity, 0.0)
        np.maximum(self.opacity, box, out=self.opacity)
        return self

    def clear(self) -> "TransferFunction1D":
        """Reset to fully transparent."""
        self.opacity[:] = 0.0
        return self

    def thresholded(self, min_opacity: float = 0.1) -> "TransferFunction1D":
        """Copy with opacities below ``min_opacity`` zeroed.

        The standard display floor: a learned TF may assign faint residual
        opacity across wide value ranges (e.g. the IATF's cumulative-
        histogram band twins); flooring suppresses that fog for
        presentation without touching the confident structure.
        """
        if not 0.0 <= min_opacity <= 1.0:
            raise ValueError(f"min_opacity must be in [0, 1], got {min_opacity}")
        out = self.copy()
        out.opacity[out.opacity < min_opacity] = 0.0
        return out

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    def entry_values(self) -> np.ndarray:
        """Scalar value at the center of each table entry (length ``entries``)."""
        step = (self.hi - self.lo) / self.entries
        return self.lo + (np.arange(self.entries) + 0.5) * step

    def indices_of(self, values) -> np.ndarray:
        """Table entry index for each scalar value (clipped to the domain)."""
        values = np.asarray(values, dtype=np.float64)
        scaled = (values - self.lo) / (self.hi - self.lo) * self.entries
        # np.minimum/np.maximum rather than np.clip: the same integers
        # without np.clip's per-call overhead (one call per ray shell).
        return np.minimum(np.maximum(scaled.astype(np.int64), 0), self.entries - 1)

    def opacity_at(self, values) -> np.ndarray:
        """Opacity for arbitrary scalar values (nearest-entry lookup)."""
        return self.opacity[self.indices_of(values)]

    def color_at(self, values) -> np.ndarray:
        """RGB for arbitrary scalar values via the fixed colormap."""
        values = np.asarray(values, dtype=np.float64)
        coords = (values - self.lo) / (self.hi - self.lo)
        return self.colormap(coords)

    def apply(self, volume) -> np.ndarray:
        """Classify a whole volume: returns RGBA of shape ``(nz, ny, nx, 4)``."""
        data = volume.data if isinstance(volume, Volume) else np.asarray(volume)
        rgba = np.empty(data.shape + (4,), dtype=np.float32)
        rgba[..., :3] = self.color_at(data)
        rgba[..., 3] = self.opacity_at(data)
        return rgba

    def opacity_mask(self, volume, threshold: float = 0.05) -> np.ndarray:
        """Boolean mask of voxels whose TF opacity exceeds ``threshold``.

        This is the "extracted feature" a transfer function defines — the
        quantity the Fig. 3/4/5 retention scores are computed on, and the
        region-growing criterion feed for tracking (Sec. 5).
        """
        data = volume.data if isinstance(volume, Volume) else np.asarray(volume)
        return self.opacity_at(data) > threshold

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """JSON-serializable representation (colormap omitted: shared, fixed)."""
        return {
            "domain": [self.lo, self.hi],
            "entries": self.entries,
            "opacity": self.opacity.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict, colormap: Colormap | None = None) -> "TransferFunction1D":
        """Inverse of :meth:`to_dict`."""
        return cls(
            domain=payload["domain"],
            entries=payload["entries"],
            opacity=np.asarray(payload["opacity"], dtype=np.float64),
            colormap=colormap,
        )

    def copy(self) -> "TransferFunction1D":
        """Independent copy sharing the (immutable) colormap."""
        return TransferFunction1D(
            (self.lo, self.hi), self.entries, opacity=self.opacity, colormap=self.colormap
        )


def interpolate_transfer_functions(
    tf_a: TransferFunction1D, tf_b: TransferFunction1D, alpha: float
) -> TransferFunction1D:
    """Linearly blend two transfer functions: the Fig. 3 baseline.

    ``alpha = 0`` returns a copy of ``tf_a``; ``alpha = 1`` of ``tf_b``.
    Both TFs must share domain and resolution.  The paper shows this
    combines *"two separated features … with reduced opacity"* instead of
    following the moving feature — the failure the IATF fixes.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    if (tf_a.lo, tf_a.hi, tf_a.entries) != (tf_b.lo, tf_b.hi, tf_b.entries):
        raise ValueError("transfer functions must share domain and resolution")
    blended = (1.0 - alpha) * tf_a.opacity + alpha * tf_b.opacity
    return TransferFunction1D(
        (tf_a.lo, tf_a.hi), tf_a.entries, opacity=blended, colormap=tf_a.colormap
    )
