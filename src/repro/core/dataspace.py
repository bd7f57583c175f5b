"""Data-space feature extraction (paper Sec. 4.3).

Some features — the reionization dataset's "large structures vs tiny
noise" — cannot be separated by any function of the scalar value alone, but
can by *size*.  The paper's trick: instead of measuring size explicitly
("there is generally no systematic and robust way to measure the size of a
3D feature"), give the classifier the voxel's value **plus a shell of
neighborhood samples at a fixed distance** — *"we do not use all the voxel
values in the neighborhood; only those voxels a fixed distance away from
the feature of interest are used, and this distance is data dependent and
derived according to the characteristics of the selected features so
far"* — plus position and the time step, and let the network learn the
separation per voxel.

A voxel deep inside a large structure sees high values on its shell; a
voxel in a tiny blob sees background.  With the shell samples sorted
descending (orientation invariance — filaments point in arbitrary
directions), a small perceptron learns the rule from a handful of painted
strokes.

All feature extraction is gather-based and chunked: coordinates → clipped
neighbour coordinates → flat-index gathers, so classifying a whole volume
never materializes more than one chunk of feature rows.
"""

from __future__ import annotations

import numpy as np

from repro.core.fastclassify import FastVolumeClassifier, TemporalCoherenceCache
from repro.core.mlp import NeuralNetwork, TrainingSet
from repro.obs import get_metrics
from repro.segmentation.components import feature_attributes, label_components
from repro.volume.grid import Volume

_DIRECTION_SETS = {
    "faces": np.array(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
        dtype=np.float64,
    ),
    "faces+corners": np.concatenate(
        [
            np.array(
                [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
                dtype=np.float64,
            ),
            np.array(
                [(s0, s1, s2) for s0 in (-1, 1) for s1 in (-1, 1) for s2 in (-1, 1)],
                dtype=np.float64,
            )
            / np.sqrt(3.0),
        ]
    ),
}


def derive_shell_radius(selected_mask: np.ndarray, factor: float = 1.0,
                        min_radius: int = 1, max_radius: int = 8) -> int:
    """Derive the shell distance from the user's selected features.

    The radius is ``factor`` × the median *inscribed half-thickness* of the
    selected connected components (the maximum of the Euclidean distance
    transform inside each component).  That scale is the size signal: a
    shell at the selected features' own thickness stays *inside* them (all
    directions high) but reaches *outside* any feature thinner than the
    selection (shell sees background).  Bounding-box extents overestimate
    the thickness of elongated or diagonal features — a filament's box is
    huge while its body is thin — which is why the inscribed distance is
    used instead.  This implements the paper's "data dependent … derived
    according to the characteristics of the selected features so far".

    The transform runs on the mask's bounding box grown by one voxel on
    every side not at the grid edge, which gives the whole grid's answer:
    every component lies inside the box, and a mask voxel's nearest
    background voxel outside it is never nearer than the margin voxel
    straight across the box face (clamping a point onto the box moves it
    no farther from a voxel inside).
    """
    from scipy import ndimage

    selected_mask = np.asarray(selected_mask, dtype=bool)
    if not selected_mask.any():
        raise ValueError("selected mask is empty; paint some voxels first")
    box = []
    for axis in range(selected_mask.ndim):
        others = tuple(a for a in range(selected_mask.ndim) if a != axis)
        hit = np.flatnonzero(selected_mask.any(axis=others))
        box.append(slice(max(int(hit[0]) - 1, 0), int(hit[-1]) + 2))
    selected_mask = selected_mask[tuple(box)]
    labels, n = label_components(selected_mask)
    dist = ndimage.distance_transform_edt(selected_mask)
    thickness = ndimage.maximum(dist, labels=labels, index=np.arange(1, n + 1))
    radius = int(round(factor * float(np.median(np.atleast_1d(thickness)))))
    return int(np.clip(radius, min_radius, max_radius))


class ShellFeatureExtractor:
    """Per-voxel feature vectors: value + shell samples (+ position, time).

    Parameters
    ----------
    radius:
        Shell distance in voxels (see :func:`derive_shell_radius`).
    directions:
        ``"faces"`` (6 samples) or ``"faces+corners"`` (14 samples).
    include_position:
        Append the normalized (z, y, x) voxel position — the paper lists
        *location* among the learnable properties.
    include_time:
        Append the time-step id *"so that the size of the tracked feature
        can be different over time"*.
    sort_shell:
        Sort each voxel's shell samples descending, making the vector
        invariant to feature orientation (a filament's two on-axis
        neighbours always land in the first slots).
    """

    def __init__(self, radius: int = 3, directions: str = "faces+corners",
                 include_position: bool = True, include_time: bool = True,
                 sort_shell: bool = True) -> None:
        if radius < 1:
            raise ValueError(f"radius must be >= 1, got {radius}")
        if directions not in _DIRECTION_SETS:
            raise ValueError(
                f"unknown direction set {directions!r}; options: {sorted(_DIRECTION_SETS)}"
            )
        self.radius = int(radius)
        self.directions_name = directions
        self._offsets = np.rint(_DIRECTION_SETS[directions] * self.radius).astype(np.int64)
        self.include_position = bool(include_position)
        self.include_time = bool(include_time)
        self.sort_shell = bool(sort_shell)

    @property
    def n_shell(self) -> int:
        """Number of shell samples per voxel."""
        return len(self._offsets)

    @property
    def offsets(self) -> np.ndarray:
        """Integer ``(n_shell, 3)`` voxel offsets of the shell samples.

        Read-only view; the fast classification path derives its padded
        strided views from these.
        """
        view = self._offsets.view()
        view.flags.writeable = False
        return view

    @property
    def n_features(self) -> int:
        """Total feature-vector length."""
        return 1 + self.n_shell + 3 * self.include_position + self.include_time

    @property
    def feature_names(self) -> list[str]:
        """Human-readable feature labels (for the Sec. 6 property UI)."""
        names = ["value"]
        names += [f"shell_{i}" for i in range(self.n_shell)]
        if self.include_position:
            names += ["pos_z", "pos_y", "pos_x"]
        if self.include_time:
            names += ["time"]
        return names

    def features_at(self, volume, coords: np.ndarray, time: float = 0.0) -> np.ndarray:
        """Feature matrix for specific voxels.

        ``coords`` is ``(n, 3)`` integer (z, y, x).  Shell neighbours are
        clamped at the volume boundary (replicate edges) — the same
        convention a streaming ghost-zone reader would produce.
        """
        data = volume.data if isinstance(volume, Volume) else np.asarray(volume, dtype=np.float32)
        coords = np.atleast_2d(np.asarray(coords, dtype=np.int64))
        if coords.shape[1] != 3:
            raise ValueError(f"coords must be (n, 3), got {coords.shape}")
        nz, ny, nx = data.shape
        if coords.min() < 0 or (coords >= np.array([nz, ny, nx])).any():
            raise IndexError("voxel coordinates out of range")
        flat = data.ravel()
        n = len(coords)
        out = np.empty((n, self.n_features), dtype=np.float64)
        center_idx = (coords[:, 0] * ny + coords[:, 1]) * nx + coords[:, 2]
        out[:, 0] = flat[center_idx]
        shell = np.empty((n, self.n_shell), dtype=np.float64)
        for k, off in enumerate(self._offsets):
            cz = np.clip(coords[:, 0] + off[0], 0, nz - 1)
            cy = np.clip(coords[:, 1] + off[1], 0, ny - 1)
            cx = np.clip(coords[:, 2] + off[2], 0, nx - 1)
            shell[:, k] = flat[(cz * ny + cy) * nx + cx]
        if self.sort_shell:
            # In-place ascending sort read through a reversed view gives
            # the descending order without the two negated temporaries of
            # the old -np.sort(-shell).
            shell.sort(axis=1)
            shell = shell[:, ::-1]
        out[:, 1 : 1 + self.n_shell] = shell
        col = 1 + self.n_shell
        if self.include_position:
            out[:, col] = coords[:, 0] / max(nz - 1, 1)
            out[:, col + 1] = coords[:, 1] / max(ny - 1, 1)
            out[:, col + 2] = coords[:, 2] / max(nx - 1, 1)
            col += 3
        if self.include_time:
            out[:, col] = float(time)
        return out

    def iter_volume_features(self, volume, time: float = 0.0, chunk: int = 1 << 18):
        """Yield ``(flat_slice, feature_matrix)`` chunks covering the volume.

        The whole-volume classification path: bounded memory regardless of
        grid size (paper Sec. 7 classifies 256³ volumes).
        """
        data = volume.data if isinstance(volume, Volume) else np.asarray(volume)
        nz, ny, nx = data.shape
        total = nz * ny * nx
        for start in range(0, total, int(chunk)):
            stop = min(start + int(chunk), total)
            flat_idx = np.arange(start, stop, dtype=np.int64)
            coords = np.stack(np.unravel_index(flat_idx, (nz, ny, nx)), axis=1)
            yield slice(start, stop), self.features_at(volume, coords, time=time)


class DataSpaceClassifier:
    """Per-voxel feature classifier: the Sec. 4.3 extraction engine.

    Wraps a :class:`ShellFeatureExtractor` and a pluggable learning engine
    (Sec. 3: perceptron by default; SVM and naive Bayes via ``engine=``);
    accumulates painted training examples across volumes/time steps,
    trains (incrementally where the engine supports it), and classifies
    whole volumes into per-voxel certainty fields.
    """

    def __init__(self, extractor: ShellFeatureExtractor | None = None,
                 hidden: int = 16, learning_rate: float = 0.3,
                 momentum: float = 0.9, seed=0, engine="mlp") -> None:
        from repro.core.engines import MLPEngine, make_engine

        self.extractor = extractor if extractor is not None else ShellFeatureExtractor()
        if isinstance(engine, str):
            if engine == "mlp":
                self.engine = MLPEngine(
                    self.extractor.n_features, hidden=hidden,
                    learning_rate=learning_rate, momentum=momentum, seed=seed,
                )
            else:
                self.engine = make_engine(engine, self.extractor.n_features, seed=seed)
        else:
            if engine.n_inputs != self.extractor.n_features:
                raise ValueError(
                    f"engine expects {engine.n_inputs} inputs but the extractor "
                    f"produces {self.extractor.n_features} features"
                )
            self.engine = engine
        self.training = TrainingSet(self.extractor.n_features)
        # Voxel/block/cache counts of the most recent fast-path classify().
        self.last_fast_stats: dict | None = None

    @property
    def net(self) -> NeuralNetwork:
        """The underlying perceptron (MLP engine only), kept for
        introspection and the Sec. 6 resize path."""
        if not hasattr(self.engine, "net"):
            raise AttributeError(
                f"engine {type(self.engine).__name__} has no neural network"
            )
        return self.engine.net

    def add_examples(self, volume, positive_mask=None, negative_mask=None,
                     time: float | None = None) -> int:
        """Add painted voxels as training samples; returns samples added.

        ``positive_mask`` voxels get target 1.0 (feature of interest),
        ``negative_mask`` voxels 0.0 (unwanted).  ``time`` defaults to the
        volume's own step id.
        """
        if positive_mask is None and negative_mask is None:
            raise ValueError("provide at least one of positive_mask / negative_mask")
        t = float(volume.time if (time is None and isinstance(volume, Volume)) else (time or 0.0))
        added = 0
        for mask, target in ((positive_mask, 1.0), (negative_mask, 0.0)):
            if mask is None:
                continue
            mask = np.asarray(mask, dtype=bool)
            coords = np.argwhere(mask)
            if len(coords) == 0:
                continue
            feats = self.extractor.features_at(volume, coords, time=t)
            self.training.add(feats, np.full(len(feats), target))
            added += len(feats)
        return added

    def train(self, epochs: int = 300, batch_size: int = 64, tol: float = 1e-4) -> list[float]:
        """Full training pass over the accumulated examples.

        Returns a loss history for incremental engines (the MLP) or a
        single-element history for batch engines (SVM, naive Bayes).
        """
        X, y = self.training.arrays()
        with get_metrics().span("dataspace.train", samples=len(self.training),
                                epochs=int(epochs),
                                engine=type(self.engine).__name__):
            if hasattr(self.engine, "net"):
                return self.engine.net.train(X, y, epochs=epochs,
                                             batch_size=batch_size, tol=tol)
            return [self.engine.train_full(X, y)]

    def train_increment(self, epochs: int = 10, batch_size: int = 64) -> float:
        """Idle-loop training slice (Sec. 6).

        Batch engines retrain from scratch — the idle loop degenerates to
        "refit between interactions", which their training cost permits.
        """
        X, y = self.training.arrays()
        with get_metrics().span("dataspace.train_increment",
                                samples=len(self.training), epochs=int(epochs),
                                engine=type(self.engine).__name__):
            return self.engine.train_more(X, y, epochs=epochs, batch_size=batch_size)

    def supports_fast_path(self) -> tuple[bool, str]:
        """Whether the fused float32 path can classify for this setup.

        Returns ``(ok, reason)``; the reason names the first blocker
        (non-MLP engine, untrained network, or an extractor with no
        padded-view plan, e.g. the Sec. 6 feature-subset view).
        """
        if not getattr(self.engine, "supports_fast", False) or not hasattr(self.engine, "net"):
            return False, (f"engine {type(self.engine).__name__} has no neural "
                           "network to fold into a fused float32 kernel")
        if not self.engine.net.is_fitted:
            return False, ("network is untrained: no standardization "
                           "statistics to fold into the first layer")
        if not isinstance(self.extractor, (ShellFeatureExtractor,
                                           MultivariateShellExtractor)):
            return False, (f"extractor {type(self.extractor).__name__} has no "
                           "padded-view feature plan")
        return True, "ok"

    def classify(self, volume, time: float | None = None, chunk: int = 1 << 18,
                 mode: str = "exact", cache: TemporalCoherenceCache | None = None) -> np.ndarray:
        """Per-voxel certainty field for a whole volume.

        This is the operation Sec. 7 times at 10 s for a 256³ grid; its
        cost is linear in voxels × features × hidden units.

        ``mode`` selects the implementation:

        - ``"exact"`` (default) — the float64 reference: coordinate
          gathers in chunks of ``chunk`` voxels, standardization, float64
          forward pass.
        - ``"fast"`` — edge-padded strided views + fused float32 GEMMs
          over plane-major batches of
          :data:`~repro.core.fastclassify.BATCH_VOXELS` voxels
          (:class:`~repro.core.fastclassify.FastVolumeClassifier`;
          ``chunk`` does not apply); agrees with exact to
          |Δcertainty| ≤ 1e-3.  Raises when unsupported (see
          :meth:`supports_fast_path`).
        - ``"auto"`` — fast when supported, else the exact fallback.

        ``cache`` (fast path only) reuses unchanged 32³ blocks across
        calls by content digest; uncached calls walk z-slabs.  Block
        statistics land in the ``classify.*`` counters of
        :func:`repro.obs.get_metrics`.
        """
        if mode not in ("exact", "fast", "auto"):
            raise ValueError(f"unknown mode {mode!r}; expected exact/fast/auto")
        data = volume.data if isinstance(volume, Volume) else np.asarray(volume)
        t = float(volume.time if (time is None and isinstance(volume, Volume)) else (time or 0.0))
        use_fast = False
        if mode in ("fast", "auto"):
            ok, reason = self.supports_fast_path()
            if ok:
                use_fast = True
            elif mode == "fast":
                raise ValueError(f"fast classification path unavailable: {reason}")
        if cache is not None and not use_fast:
            raise ValueError("cache requires the fast classification path "
                             "(mode='fast', or 'auto' with a trained MLP)")
        metrics = get_metrics()
        with metrics.span("dataspace.classify", voxels=int(data.size),
                          mode="fast" if use_fast else "exact",
                          cached=cache is not None) as span:
            if use_fast:
                engine = FastVolumeClassifier(self.extractor, self.engine.net)
                out = engine.classify(volume, time=t, cache=cache)
                stats = engine.last_stats
                self.last_fast_stats = stats
                for key in ("blocks_total", "cache_hits", "cache_misses"):
                    metrics.counter(f"classify.{key}").inc(stats[key])
                    span.attrs[key] = stats[key]
            else:
                out = np.empty(data.size, dtype=np.float32)
                for flat_slice, feats in self.extractor.iter_volume_features(
                        volume, time=t, chunk=chunk):
                    out[flat_slice] = self.engine.predict(feats)
                out = out.reshape(data.shape)
        metrics.counter("classify.voxels").inc(int(data.size))
        return out

    def classify_slice(self, volume, axis: int, index: int, time: float | None = None) -> np.ndarray:
        """Certainty for one axis-aligned slice only — the interactive
        feedback path (classify a slice in real time, Sec. 6)."""
        data = volume.data if isinstance(volume, Volume) else np.asarray(volume)
        t = float(volume.time if (time is None and isinstance(volume, Volume)) else (time or 0.0))
        if axis not in (0, 1, 2):
            raise ValueError(f"axis must be 0, 1 or 2, got {axis}")
        shape = data.shape
        other = [a for a in range(3) if a != axis]
        grids = np.meshgrid(
            np.arange(shape[other[0]]), np.arange(shape[other[1]]), indexing="ij"
        )
        coords = np.empty((grids[0].size, 3), dtype=np.int64)
        coords[:, axis] = index
        coords[:, other[0]] = grids[0].ravel()
        coords[:, other[1]] = grids[1].ravel()
        feats = self.extractor.features_at(volume, coords, time=t)
        cert = self.engine.predict(feats)
        return cert.reshape(shape[other[0]], shape[other[1]]).astype(np.float32)

    def with_features(self, keep_names) -> "DataSpaceClassifier":
        """Sec. 6 property removal: new classifier on a feature subset.

        Weights for kept features and all accumulated training data
        transfer; the extractor is *not* rebuilt (subsetting happens at the
        network/training level), so callers keep using the same
        ``classify`` API while the network is smaller.
        """
        names = self.extractor.feature_names
        keep_idx = [names.index(n) for n in keep_names]
        clone = DataSpaceClassifier.__new__(DataSpaceClassifier)
        clone.extractor = _SubsetExtractor(self.extractor, keep_idx)
        clone.engine = self.engine.with_input_subset(keep_idx)
        clone.training = self.training.subset_features(keep_idx)
        return clone


class _SubsetExtractor:
    """Feature-subset view over a :class:`ShellFeatureExtractor`."""

    def __init__(self, base: ShellFeatureExtractor, keep_idx: list[int]) -> None:
        self._base = base
        self._keep = list(keep_idx)

    @property
    def n_features(self) -> int:
        return len(self._keep)

    @property
    def feature_names(self) -> list[str]:
        base_names = self._base.feature_names
        return [base_names[i] for i in self._keep]

    def features_at(self, volume, coords, time: float = 0.0) -> np.ndarray:
        return self._base.features_at(volume, coords, time=time)[:, self._keep]

    def iter_volume_features(self, volume, time: float = 0.0, chunk: int = 1 << 18):
        for flat_slice, feats in self._base.iter_volume_features(volume, time=time, chunk=chunk):
            yield flat_slice, feats[:, self._keep]


class MultivariateShellExtractor:
    """Shell features over several variables at once (paper Sec. 8).

    Concatenates one value+shell block per named field of a
    :class:`~repro.volume.multivariate.MultiVolume` (position and time
    appended once), so the classifier sees the *joint* signature — e.g.
    "high vorticity AND positive streamwise velocity" — without the user
    ever specifying the relationship between the variables, which is
    precisely the paper's multivariate pitch: *"the machine learning
    engine can take high-dimensional data directly but the scientists do
    not need to specify explicitly the relationship between these
    different dimensions"*.
    """

    def __init__(self, field_names, radius: int = 3, directions: str = "faces+corners",
                 include_position: bool = True, include_time: bool = True,
                 sort_shell: bool = True) -> None:
        field_names = list(field_names)
        if not field_names:
            raise ValueError("need at least one field name")
        if len(set(field_names)) != len(field_names):
            raise ValueError(f"duplicate field names: {field_names}")
        self.field_names_used = field_names
        self._block = ShellFeatureExtractor(
            radius=radius, directions=directions, include_position=False,
            include_time=False, sort_shell=sort_shell,
        )
        self.include_position = bool(include_position)
        self.include_time = bool(include_time)
        self.radius = self._block.radius

    @property
    def directions_name(self) -> str:
        """Direction-set name of the per-field shell block."""
        return self._block.directions_name

    @property
    def sort_shell(self) -> bool:
        """Whether each field's shell samples are sorted descending."""
        return self._block.sort_shell

    @property
    def offsets(self) -> np.ndarray:
        """Shell sample offsets shared by every field (read-only)."""
        return self._block.offsets

    @property
    def n_features(self) -> int:
        """Total feature-vector length across all fields."""
        per_field = 1 + self._block.n_shell
        return (len(self.field_names_used) * per_field
                + 3 * self.include_position + self.include_time)

    @property
    def feature_names(self) -> list[str]:
        """Qualified names: ``field:value``, ``field:shell_i``, pos, time."""
        names: list[str] = []
        for fname in self.field_names_used:
            names.append(f"{fname}:value")
            names += [f"{fname}:shell_{i}" for i in range(self._block.n_shell)]
        if self.include_position:
            names += ["pos_z", "pos_y", "pos_x"]
        if self.include_time:
            names += ["time"]
        return names

    def features_at(self, volume, coords, time: float = 0.0) -> np.ndarray:
        """Feature matrix for specific voxels of a :class:`MultiVolume`."""
        coords = np.atleast_2d(np.asarray(coords, dtype=np.int64))
        blocks = []
        for fname in self.field_names_used:
            field = volume.field(fname)
            blocks.append(self._block.features_at(field, coords, time=0.0))
        out_parts = blocks
        nz, ny, nx = volume.shape
        extras = []
        if self.include_position:
            pos = np.empty((len(coords), 3), dtype=np.float64)
            pos[:, 0] = coords[:, 0] / max(nz - 1, 1)
            pos[:, 1] = coords[:, 1] / max(ny - 1, 1)
            pos[:, 2] = coords[:, 2] / max(nx - 1, 1)
            extras.append(pos)
        if self.include_time:
            extras.append(np.full((len(coords), 1), float(time)))
        return np.concatenate(out_parts + extras, axis=1)

    def iter_volume_features(self, volume, time: float = 0.0, chunk: int = 1 << 18):
        """Chunked whole-volume feature iteration (classifier protocol)."""
        nz, ny, nx = volume.shape
        total = nz * ny * nx
        for start in range(0, total, int(chunk)):
            stop = min(start + int(chunk), total)
            flat_idx = np.arange(start, stop, dtype=np.int64)
            coords = np.stack(np.unravel_index(flat_idx, (nz, ny, nx)), axis=1)
            yield slice(start, stop), self.features_at(volume, coords, time=time)
