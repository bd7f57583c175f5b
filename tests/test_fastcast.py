"""Differential battery for the fast renderer.

The fast path's contract is exact: at the reference's own termination
threshold it must be *bit-identical* to ``render_volume`` /
``render_rgba_volume`` — for any camera and step size, and wherever the
per-step map renders the frame — because it only ever
skips samples certified to contribute exactly zero opacity.  Lower ERT thresholds give
a deviation bounded by ``1 - ert_alpha``.  The soundness tests certify
the skip machinery itself: every octree-enumerated skip region is probed
with fresh samples that must all carry zero opacity.
"""

import re
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import SharedArrayCache
from repro.core.fastclassify import TemporalCoherenceCache
from repro.core.pipeline import frame_digest, render_sequence
from repro.data.argon import ring_value_band
from repro.data.swirl import feature_peak_at
from repro.obs import get_metrics
from repro.parallel.bricking import content_digest
from repro.render import Camera, render_rgba_volume, render_tracked, render_volume
from repro.render.fastcast import (
    _GradientSlices,
    _ray_sample_ranges,
    _view_rays,
    build_alpha_skip_grid,
    build_skip_grid,
    render_rgba_volume_fast,
    render_volume_fast,
    tf_interval_occupancy,
)
from repro.render.image import Image, encode_png_rgb
from repro.render.raycast import ALPHA_CUTOFF, _sample, _sample_channels
from repro.segmentation.octree import OctreeMask
from repro.transfer import TransferFunction1D
from repro.volume import Volume, VolumeSequence
from repro.volume.pyramid import minmax_pool

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def argon_tf(sequence, time=195):
    lo, hi = ring_value_band(sequence, time)
    return TransferFunction1D(sequence.value_range).add_tent(
        (lo + hi) / 2, (hi - lo) * 2.5, 1.0)


def swirl_tf(sequence, time=23):
    peak = feature_peak_at(sequence, time)
    return TransferFunction1D(sequence.value_range).add_tent(
        0.75 * peak, 0.9 * peak, 1.0)


def _coverage_tf(vol, coverage):
    """A TF opaque in a two-entry band around the median (``band``) or at
    every value, the outside's 0.0 included (``everywhere``)."""
    tf = TransferFunction1D((float(vol.data.min()), float(vol.data.max())))
    if coverage == "everywhere":
        tf.opacity[:] = 0.05
    else:
        tf.opacity[tf.indices_of(np.median(vol.data)) + np.arange(2)] = 0.9
    return tf


def _opaque_outside(tf, alpha=0.3):
    """Copy of ``tf`` whose entry for the outside value 0.0 is opaque."""
    tf = tf.copy()
    tf.opacity[tf.indices_of(0.0)] = alpha
    return tf


ORTHO = Camera(width=30, height=26, azimuth=30, elevation=20)
PERSPECTIVE = Camera(width=24, height=24, azimuth=120, elevation=-35,
                     projection="perspective")


@pytest.fixture(scope="module")
def argon_case(argon_small):
    vol = argon_small.at_time(195)
    return vol, argon_tf(argon_small)


@pytest.fixture(scope="module")
def swirl_case(swirl_small):
    vol = swirl_small.at_time(23)
    return vol, swirl_tf(swirl_small)


@pytest.fixture(scope="module")
def blob():
    """An 18^3 Gaussian blob (values in (0, 1], 0.0 only outside)."""
    n = 18
    z, y, x = np.meshgrid(*(np.arange(n, dtype=np.float32),) * 3, indexing="ij")
    r2 = (z - n / 2) ** 2 + (y - n / 2) ** 2 + (x - n / 2) ** 2
    return Volume(np.exp(-r2 / (2 * (n / 6) ** 2)).astype(np.float32))


# --------------------------------------------------------------------- #
# Bit-identity at the reference termination threshold
# --------------------------------------------------------------------- #
class TestBitIdentical:
    @pytest.mark.parametrize("case", ["argon", "swirl"])
    @pytest.mark.parametrize("camera", [ORTHO, PERSPECTIVE], ids=["ortho", "persp"])
    @pytest.mark.parametrize("shading", [True, False])
    def test_matches_reference(self, case, camera, shading, argon_case, swirl_case):
        vol, tf = argon_case if case == "argon" else swirl_case
        ref = render_volume(vol, tf, camera=camera, shading=shading)
        fast = render_volume_fast(vol, tf, camera=camera, shading=shading, cell=2)
        assert np.array_equal(ref.pixels, fast.pixels)

    @pytest.mark.parametrize("step", [0.65, 1.4])
    def test_matches_reference_off_unit_step(self, step, argon_case):
        vol, tf = argon_case
        ref = render_volume(vol, tf, camera=ORTHO, step=step)
        fast = render_volume_fast(vol, tf, camera=ORTHO, step=step)
        assert np.array_equal(ref.pixels, fast.pixels)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_worker_count_invariance(self, workers, argon_small):
        """Fast frames rendered by pool workers of the per-step map carry
        the same bits as frames rendered in-process."""
        tf = argon_tf(argon_small)
        kwargs = dict(camera=ORTHO, mode="fast")
        serial = render_sequence(argon_small, tf, **kwargs)
        fanned = render_sequence(argon_small, tf, workers=workers, **kwargs)
        assert all(np.array_equal(a.pixels, b.pixels)
                   for a, b in zip(serial, fanned))

    @pytest.mark.parametrize("with_field", [True, False])
    def test_rgba_matches_reference(self, with_field, argon_case):
        vol, _ = argon_case
        rgba = np.zeros(vol.data.shape + (4,), dtype=np.float32)
        hot = vol.data > np.percentile(vol.data, 97)
        rgba[hot] = [0.9, 0.4, 0.1, 0.6]
        field = vol.data if with_field else None
        ref = render_rgba_volume(rgba, camera=ORTHO, shading_field=field)
        fast = render_rgba_volume_fast(rgba, camera=ORTHO, shading_field=field)
        assert np.array_equal(ref.pixels, fast.pixels)

    def test_multipass_fast_equivalence(self, argon_case):
        vol, tf = argon_case
        mask = vol.data > np.percentile(vol.data, 98)
        ref = render_tracked(vol, mask, tf, camera=ORTHO)
        fast = render_tracked(vol, mask, tf, camera=ORTHO, fast=True)
        assert np.array_equal(ref.pixels, fast.pixels)

    def test_opaque_outside_tf_still_exact(self):
        """A TF that maps the outside value 0.0 to nonzero opacity defeats
        box clipping; the fast path must notice and composite outside
        samples like the reference does."""
        n = 18
        z, y, x = np.meshgrid(*(np.arange(n, dtype=np.float32),) * 3, indexing="ij")
        r2 = (z - n / 2) ** 2 + (y - n / 2) ** 2 + (x - n / 2) ** 2
        vol = Volume(np.exp(-r2 / (2 * (n / 6) ** 2)).astype(np.float32))
        tf = TransferFunction1D((0.0, 1.0)).add_box(0.0, 1.0, 0.4)
        assert float(np.asarray(tf.opacity_at(0.0))) > 0
        cam = Camera(width=20, height=20)
        ref = render_volume(vol, tf, camera=cam)
        fast = render_volume_fast(vol, tf, camera=cam)
        assert np.array_equal(ref.pixels, fast.pixels)

    @pytest.mark.parametrize("step", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("camera", [Camera(width=20, height=20), PERSPECTIVE],
                             ids=["ortho", "persp"])
    @pytest.mark.parametrize("cell", [3, 17])
    def test_opaque_outside_constant_table(self, step, camera, cell, blob):
        """Rays start from the table of outside-constant states at their
        box entry, and composite the constant per shell after the box
        exit: exact under the step correction, diverging rays, and macro
        cells that tile the 18^3 blob evenly (3) or leave a one-voxel
        ragged layer (17)."""
        tf = TransferFunction1D((0.0, 1.0)).add_box(0.0, 1.0, 0.4)
        ref = render_volume(blob, tf, camera=camera, step=step)
        fast = render_volume_fast(blob, tf, camera=camera, step=step, cell=cell)
        assert np.array_equal(ref.pixels, fast.pixels)

    @pytest.mark.parametrize("coverage", ["band", "everywhere"])
    def test_culled_and_unculled_samples(self, coverage, argon_case):
        """Opacity-first marching colors and shades only nonzero-opacity
        samples: a TF opaque in a narrow band (most samples culled) and
        one opaque everywhere, outside included (none culled), on both
        entry points and the multipass tracked volume."""
        vol, _ = argon_case
        tf = _coverage_tf(vol, coverage)
        cam = Camera(width=26, height=22, azimuth=50, elevation=30)
        ref = render_volume(vol, tf, camera=cam)
        fast = render_volume_fast(vol, tf, camera=cam, cell=2)
        assert np.array_equal(ref.pixels, fast.pixels)
        rgba = tf.apply(vol)
        ref = render_rgba_volume(rgba, camera=cam, shading_field=vol.data)
        fast = render_rgba_volume_fast(rgba, camera=cam, shading_field=vol.data,
                                       cell=2)
        assert np.array_equal(ref.pixels, fast.pixels)
        mask = vol.data > np.percentile(vol.data, 98)
        ref = render_tracked(vol, mask, tf, camera=cam)
        fast = render_tracked(vol, mask, tf, camera=cam, fast=True,
                              fast_options={"cell": 2})
        assert np.array_equal(ref.pixels, fast.pixels)


# --------------------------------------------------------------------- #
# What a frame builds: gradient slices on first use, one ray set per view
# --------------------------------------------------------------------- #
@st.composite
def gradient_cases(draw):
    """A random field (every axis 2..9 long), a block size, batches of
    coordinates for partial builds, and the final batch to gather.
    Coordinates fall inside, exactly on the faces 0 and n-1, or outside."""
    shape = tuple(draw(st.integers(2, 9)) for _ in range(3))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    field = np.random.default_rng(seed).standard_normal(shape).astype(np.float32)

    def coordinate(n):
        return st.one_of(st.floats(0.0, n - 1.0, width=32),
                         st.sampled_from([0.0, float(n - 1)]),
                         st.floats(-3.0, n + 2.0, width=32))

    batch = st.lists(st.tuples(*(coordinate(n) for n in shape)),
                     min_size=1, max_size=12)
    return (field, draw(st.integers(1, 4)), draw(st.lists(batch, max_size=4)),
            draw(batch))


class TestGradientSlices:
    @given(case=gradient_cases())
    @settings(max_examples=80, deadline=None)
    def test_gather_matches_whole_volume_gradient(self, case):
        """After any sequence of partial builds, the slice buffer gathers
        what the reference casters' whole-volume stack gathers: the same
        bytes inside the volume, and zeros (sign aside) outside it.  Built
        slices hold the stack's bytes; unbuilt ones hold zeros."""
        field, block, partial, final = case
        slices = _GradientSlices(field, block)
        for batch in partial:
            slices.sample(np.array(batch, dtype=np.float32))
        coords = np.array(final, dtype=np.float32)
        got = slices.sample(coords)
        stack = np.stack(np.gradient(field), axis=-1)
        want = _sample_channels(stack, coords)
        inside = ((coords >= 0) & (coords <= np.array(field.shape) - 1)).all(axis=1)
        assert got[inside].tobytes() == want[inside].tobytes()
        assert np.array_equal(got[~inside], want[~inside])
        built = np.repeat(slices.built, block)[:field.shape[0]]
        assert slices.grad[built].tobytes() == stack[built].tobytes()
        assert not slices.grad[~built].any()

    @pytest.mark.parametrize("outside", ["transparent", "opaque"])
    def test_frame_builds_only_the_slices_it_shades(self, outside):
        """A feature in the first z-slices, as on combustion frames: the
        frame equals the reference and leaves the far slices unbuilt."""
        n = 18
        z, y, x = np.meshgrid(*(np.arange(n, dtype=np.float32),) * 3, indexing="ij")
        bump = np.exp(-(z ** 2 + (y - n / 2) ** 2 + (x - n / 2) ** 2) / 8.0)
        data = (0.5 + 0.5 * bump).astype(np.float32)
        tf = TransferFunction1D((0.0, 1.0)).add_box(0.75, 1.0, 0.8)
        if outside == "opaque":
            tf = _opaque_outside(tf)
        cam = Camera(width=24, height=24, azimuth=30, elevation=20)
        counter = get_metrics().counter("render.fast.gradient_slices")
        before = counter.value
        fast = render_volume_fast(data, tf, camera=cam, cell=2)
        built = counter.value - before
        assert render_volume(data, tf, camera=cam).pixels.tobytes() == fast.pixels.tobytes()
        assert 0 < built < n

    @pytest.mark.parametrize("shape", [(1, 6, 6), (6, 1, 6), (6, 6, 1)])
    def test_axis_shorter_than_two_cannot_shade(self, shape, rng):
        """Shading needs a gradient, which needs every axis >= 2 voxels:
        both casters raise one shared ``ValueError``; unshaded, both
        render alike."""
        data = rng.random(shape).astype(np.float32)
        tf = TransferFunction1D((0.0, 1.0)).add_box(0.3, 1.0, 0.6)
        rgba = tf.apply(data)
        cam = Camera(width=10, height=10)
        message = f"shading needs a gradient.*got shape {re.escape(str(shape))}"
        for caster in (render_volume, render_volume_fast):
            with pytest.raises(ValueError, match=message):
                caster(data, tf, camera=cam)
        for caster in (render_rgba_volume, render_rgba_volume_fast):
            with pytest.raises(ValueError, match=message):
                caster(rgba, camera=cam, shading_field=data)
        ref = render_volume(data, tf, camera=cam, shading=False)
        fast = render_volume_fast(data, tf, camera=cam, shading=False)
        assert ref.pixels.tobytes() == fast.pixels.tobytes()
        ref = render_rgba_volume(rgba, camera=cam)
        fast = render_rgba_volume_fast(rgba, camera=cam)
        assert ref.pixels.tobytes() == fast.pixels.tobytes()


class TestViewRays:
    def test_two_renders_of_one_view_are_equal(self, argon_case):
        vol, tf = argon_case
        cam = Camera(width=21, height=19, azimuth=75, elevation=10)
        _view_rays.cache_clear()
        first = render_volume_fast(vol, tf, camera=cam)
        second = render_volume_fast(vol, tf, camera=cam)
        assert _view_rays.cache_info().hits == 1
        assert first.pixels.tobytes() == second.pixels.tobytes()
        assert render_volume(vol, tf, camera=cam).pixels.tobytes() == first.pixels.tobytes()

    def test_cached_arrays_are_read_only(self):
        origins, directions, _, s_min, s_max = _view_rays(ORTHO, (12, 16, 16), 1.0)
        for array in (origins, directions, s_min, s_max):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0

    @pytest.mark.parametrize("camera,shape,step", [
        (PERSPECTIVE, (12, 16, 16), 1.0),
        (Camera(width=30, height=26, azimuth=31, elevation=20), (12, 16, 16), 1.0),
        (ORTHO, (12, 16, 17), 1.0),
        (ORTHO, (12, 16, 16), 0.65),
    ], ids=["projection", "azimuth", "shape", "step"])
    def test_each_view_gets_its_own_rays(self, camera, shape, step):
        base = _view_rays(ORTHO, (12, 16, 16), 1.0)
        assert _view_rays(ORTHO, (12, 16, 16), 1.0) is base
        rays = _view_rays(camera, shape, step)
        assert rays is not base
        origins, directions, n_samples = camera.ray_grid(shape, step=step)
        s_min, s_max = _ray_sample_ranges(origins, directions, shape, step, n_samples)
        assert rays[2] == n_samples
        for got, want in zip(rays[:2] + rays[3:], (origins, directions, s_min, s_max)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("azimuth,elevation", [(0, 20), (90, 0), (0, 0)])
    def test_axis_aligned_views_raise_no_warning(self, azimuth, elevation,
                                                 argon_case):
        """Rays parallel to a slab they lie outside of carry infinite slab
        parameters; they are misses, set aside before the integer casts."""
        vol, tf = argon_case
        cam = Camera(width=20, height=18, azimuth=azimuth, elevation=elevation)
        rgba = tf.apply(vol)
        _view_rays.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fast = render_volume_fast(vol, tf, camera=cam)
            fast_rgba = render_rgba_volume_fast(rgba, camera=cam,
                                                shading_field=vol.data)
        assert render_volume(vol, tf, camera=cam).pixels.tobytes() == fast.pixels.tobytes()
        ref_rgba = render_rgba_volume(rgba, camera=cam, shading_field=vol.data)
        assert ref_rgba.pixels.tobytes() == fast_rgba.pixels.tobytes()


# --------------------------------------------------------------------- #
# Early-ray-termination deviation bound
# --------------------------------------------------------------------- #
class TestErtBound:
    @pytest.mark.parametrize("ert", [0.6, 0.8])
    def test_deviation_bounded(self, ert, argon_case):
        """Terminating at accumulated alpha ``ert`` drops a compositing
        tail of total weight at most ``1 - ert`` per channel."""
        vol, tf = argon_case
        ref = render_volume(vol, tf, camera=ORTHO)
        fast = render_volume_fast(vol, tf, camera=ORTHO, ert_alpha=ert)
        diff = np.abs(ref.pixels - fast.pixels).max()
        assert diff <= (1.0 - ert) + 1e-6

    def test_lower_threshold_terminates_more_rays(self, argon_case):
        vol, tf = argon_case
        metrics = get_metrics()

        def terminated(**kw):
            before = metrics.counter("render.fast.rays_terminated_early").value
            render_volume_fast(vol, tf, camera=ORTHO, **kw)
            return metrics.counter("render.fast.rays_terminated_early").value - before

        assert terminated(ert_alpha=0.5) >= terminated(ert_alpha=ALPHA_CUTOFF)

    @pytest.mark.parametrize("outside", ["transparent", "opaque"])
    @pytest.mark.parametrize("ert", [ALPHA_CUTOFF, 0.6])
    def test_terminated_rays_are_pixels_past_threshold(self, outside, ert,
                                                       argon_case):
        """``rays_terminated_early`` counts every ray whose alpha reached
        ``ert_alpha``, rays finished inside the outside-constant table
        included: exactly the pixels at or past the threshold."""
        vol, tf = argon_case
        if outside == "opaque":
            tf = _opaque_outside(tf)
        counter = get_metrics().counter("render.fast.rays_terminated_early")
        before = counter.value
        image = render_volume_fast(vol, tf, camera=ORTHO, ert_alpha=ert)
        expect = int(np.count_nonzero(image.pixels[..., 3] >= ert))
        assert expect > 0
        assert counter.value - before == expect

    def test_invalid_ert_rejected(self, argon_case):
        vol, tf = argon_case
        for bad in (0.0, -0.2, 1.5):
            with pytest.raises(ValueError, match="ert_alpha"):
                render_volume_fast(vol, tf, camera=ORTHO, ert_alpha=bad)


# --------------------------------------------------------------------- #
# Non-finite voxels: rendered through the reference
# --------------------------------------------------------------------- #
PLACES = {"corner": (0, 0, 0), "edge": (0, 0, 16), "centre": (12, 16, 16),
          "near-corner": (2, 3, 4)}
NON_FINITE = pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf],
                                     ids=["nan", "inf", "-inf"])


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestNonFinite:
    """No fast-path certificate holds for a NaN or infinite voxel (its
    cell bounds certify nothing and a NaN color survives a zero weight),
    so such frames must come out bit-identical to the reference."""

    CAMERA = Camera(width=48, height=48)

    @staticmethod
    def _box_tf(sequence):
        lo, hi = sequence.value_range
        return TransferFunction1D((lo, hi)).add_box(lo + 0.3 * (hi - lo), hi, 0.8)

    @NON_FINITE
    @pytest.mark.parametrize("place", PLACES)
    def test_scalar_volume(self, value, place, argon_small):
        data = argon_small.at_time(195).data.copy()
        data[PLACES[place]] = value
        tf = self._box_tf(argon_small)
        ref = render_volume(data, tf, camera=self.CAMERA)
        fast = render_volume_fast(data, tf, camera=self.CAMERA)
        assert ref.pixels.tobytes() == fast.pixels.tobytes()

    @NON_FINITE
    @pytest.mark.parametrize("place", PLACES)
    @pytest.mark.parametrize("target", ["rgba", "shading_field"])
    def test_rgba_volume(self, value, place, target, argon_small):
        vol = argon_small.at_time(195)
        rgba = self._box_tf(argon_small).apply(vol)
        field = vol.data.copy()
        (rgba if target == "rgba" else field)[PLACES[place]] = value
        ref = render_rgba_volume(rgba, camera=self.CAMERA, shading_field=field)
        fast = render_rgba_volume_fast(rgba, camera=self.CAMERA,
                                       shading_field=field)
        assert ref.pixels.tobytes() == fast.pixels.tobytes()


# --------------------------------------------------------------------- #
# Empty-space-skipping soundness
# --------------------------------------------------------------------- #
def _probe_empty_boxes(skip, shape3, sampler, rng, points_per_box=24):
    """Sample random positions inside every octree-enumerated skip region
    and return the sampled quantity (opacity / alpha) at each.

    ``empty_octree`` encodes the skip mask (True = certified empty), so
    the skip regions are its *full* leaves."""
    boxes = skip.empty_octree.leaf_boxes("full")
    probes = []
    for z0, z1, y0, y1, x0, x1 in boxes:
        hi = np.minimum(np.array([z1, y1, x1], dtype=np.float64) * skip.cell,
                        np.asarray(shape3) - 1.0)
        lo = np.array([z0, y0, x0], dtype=np.float64) * skip.cell
        pts = lo + rng.random((points_per_box, 3)) * (hi - lo)
        probes.append(sampler(pts.astype(np.float32)))
    return np.concatenate(probes) if probes else np.zeros(0)


class TestSkipSoundness:
    def test_scalar_skip_cells_have_zero_opacity(self, argon_case, rng):
        """Every skipped macro cell is *provably* empty: fresh samples at
        random positions inside the skip regions all classify to exactly
        zero opacity under the TF."""
        vol, tf = argon_case
        skip = build_skip_grid(vol.data, tf, cell=2)
        assert 0 < skip.cells_empty < skip.cells_total  # not vacuous
        opacities = _probe_empty_boxes(
            skip, vol.data.shape,
            lambda pts: np.asarray(tf.opacity_at(_sample(vol.data, pts))), rng)
        assert opacities.size > 0
        assert (opacities == 0.0).all()

    def test_rgba_skip_cells_have_zero_alpha(self, argon_case, rng):
        vol, _ = argon_case
        rgba = np.zeros(vol.data.shape + (4,), dtype=np.float32)
        hot = vol.data > np.percentile(vol.data, 95)
        rgba[hot] = [0.2, 0.3, 0.4, 0.5]
        skip = build_alpha_skip_grid(rgba[..., 3], cell=8)
        assert skip.cells_empty > 0
        alphas = _probe_empty_boxes(
            skip, vol.data.shape,
            lambda pts: _sample(np.ascontiguousarray(rgba[..., 3]), pts), rng)
        assert (alphas == 0.0).all()

    def test_octree_encodes_exact_complement(self, argon_case):
        vol, tf = argon_case
        skip = build_skip_grid(vol.data, tf, cell=2)
        assert np.array_equal(skip.empty_octree.to_mask(), ~skip.occupied)

    def test_occupied_cells_cover_all_nonzero_voxels(self, argon_case):
        """Contrapositive at voxel resolution: every voxel with nonzero
        opacity lies in an occupied cell."""
        vol, tf = argon_case
        skip = build_skip_grid(vol.data, tf, cell=2)
        visible = np.asarray(tf.opacity_at(vol.data)) > 0
        zz, yy, xx = np.nonzero(visible)
        assert skip.occupied[zz // skip.cell, yy // skip.cell, xx // skip.cell].all()


# --------------------------------------------------------------------- #
# Units: macro-cell summaries, occupancy, octree boxes
# --------------------------------------------------------------------- #
class TestSupportUnits:
    def test_minmax_pool_matches_bruteforce(self, rng):
        cases = [((7, 9, 5), 4), ((8, 8, 16), 8), ((5, 6, 7), 1),
                 ((7, 10, 11), 3), ((11, 5, 13), 5), ((3, 4, 2), 5)]
        for shape, cell in cases:
            data = rng.standard_normal(shape).astype(np.float32)
            lo, hi = minmax_pool(data, cell)
            cells = tuple(-(-n // cell) for n in shape)
            assert lo.shape == hi.shape == cells
            for iz, iy, ix in np.ndindex(cells):
                block = data[iz * cell:(iz + 1) * cell, iy * cell:(iy + 1) * cell,
                             ix * cell:(ix + 1) * cell]
                assert lo[iz, iy, ix] == block.min()
                assert hi[iz, iy, ix] == block.max()

    def test_minmax_pool_validation(self):
        with pytest.raises(ValueError, match="3D"):
            minmax_pool(np.zeros((4, 4)), 2)
        with pytest.raises(ValueError, match="cell"):
            minmax_pool(np.zeros((4, 4, 4)), 0)

    def test_tf_interval_occupancy(self):
        tf = TransferFunction1D((0.0, 1.0)).add_box(0.4, 0.6, 0.5)
        lo = np.array([0.0, 0.30, 0.45, 0.80])
        hi = np.array([0.1, 0.70, 0.50, 0.90])
        assert tf_interval_occupancy(tf, lo, hi).tolist() == [False, True, True, False]
        silent = TransferFunction1D((0.0, 1.0))
        assert not tf_interval_occupancy(silent, lo, hi).any()

    def test_leaf_boxes_cover_mask_exactly(self, rng):
        mask = rng.random((9, 10, 11)) > 0.7
        tree = OctreeMask.from_mask(mask)
        for state, expect in (("full", mask), ("empty", ~mask)):
            rebuilt = np.zeros(mask.shape, dtype=bool)
            count = 0
            for z0, z1, y0, y1, x0, x1 in tree.leaf_boxes(state):
                rebuilt[z0:z1, y0:y1, x0:x1] = True
                count += (z1 - z0) * (y1 - y0) * (x1 - x0)
            assert np.array_equal(rebuilt, expect)
            assert count == int(expect.sum())  # boxes never overlap
        with pytest.raises(ValueError, match="state"):
            tree.leaf_boxes("mixed")

    def test_png_roundtrip(self, rng):
        rgba = rng.random((6, 9, 4)).astype(np.float32)
        image = Image.from_array(rgba)
        blob = encode_png_rgb((image.composited() * 255.0 + 0.5).astype(np.uint8))
        assert blob.startswith(b"\x89PNG\r\n\x1a\n")
        # IHDR: width/height big-endian right after the 8-byte signature
        # and the 8-byte chunk header.
        width = int.from_bytes(blob[16:20], "big")
        height = int.from_bytes(blob[20:24], "big")
        assert (height, width) == (6, 9)
        idat_start = blob.index(b"IDAT") + 4
        idat_len = int.from_bytes(blob[idat_start - 8:idat_start - 4], "big")
        raw = zlib.decompress(blob[idat_start:idat_start + idat_len])
        decoded = np.frombuffer(raw, dtype=np.uint8).reshape(6, 1 + 9 * 3)
        assert (decoded[:, 0] == 0).all()
        expect = (image.composited() * 255.0 + 0.5).astype(np.uint8)
        assert np.array_equal(decoded[:, 1:].reshape(6, 9, 3), expect)

    def test_save_png_writes_file(self, tmp_path, rng):
        image = Image.from_array(rng.random((5, 5, 4)).astype(np.float32))
        path = image.save_png(tmp_path / "frame.png")
        assert path.read_bytes().startswith(b"\x89PNG")


# --------------------------------------------------------------------- #
# Sequence pipeline: fast mode + content-keyed frame cache
# --------------------------------------------------------------------- #
class TestRenderSequenceFast:
    @pytest.fixture(scope="class")
    def short_seq(self, argon_small):
        vols = [argon_small[0], argon_small[1],
                Volume(argon_small[0].data.copy(), time=900)]
        return VolumeSequence(vols, name="short")

    def test_fast_mode_matches_exact(self, short_seq, argon_small):
        tf = argon_tf(argon_small)
        cam = Camera(width=20, height=20)
        exact = render_sequence(short_seq, tf, camera=cam)
        fast = render_sequence(short_seq, tf, camera=cam, mode="fast")
        assert all(np.array_equal(a.pixels, b.pixels)
                   for a, b in zip(exact, fast))

    def test_frame_cache_hits_repeated_content(self, short_seq, argon_small,
                                               tmp_path):
        """The third step repeats the first step's voxels: one cache hit,
        bit-identical frames, misses only for unique content."""
        tf = argon_tf(argon_small)
        cam = Camera(width=20, height=20)
        cache = TemporalCoherenceCache(store=SharedArrayCache(tmp_path))
        first = render_sequence(short_seq, tf, camera=cam, mode="fast", cache=cache)
        assert cache.hits == 1 and cache.misses == 2
        assert np.array_equal(first[0].pixels, first[2].pixels)
        again = render_sequence(short_seq, tf, camera=cam, mode="fast", cache=cache)
        assert cache.hits == 4  # warm across calls
        assert all(np.array_equal(a.pixels, b.pixels)
                   for a, b in zip(first, again))

    def test_frame_digest_separates_renderers(self, argon_small):
        tf = argon_tf(argon_small)
        cam = Camera(width=20, height=20)
        voxels = content_digest(argon_small[0].data)
        base = frame_digest(voxels, tf, cam, 1.0, True, "exact")
        assert frame_digest(voxels, tf, cam, 1.0, True, "fast:[]") != base
        assert frame_digest(voxels, tf, cam, 0.5, True, "exact") != base
        assert frame_digest(voxels, tf, cam, 1.0, True, "exact") == base

    def test_cache_rejects_process_backend(self, short_seq, argon_small):
        """No in-memory cache mode remains: ``cache=True`` is rejected
        before any frame renders, in-process or on workers."""
        for workers in (1, 2):
            with pytest.raises(TypeError, match="cache"):
                render_sequence(short_seq, argon_tf(argon_small), cache=True,
                                workers=workers)

    def test_fast_options_require_fast_mode(self, short_seq, argon_small):
        with pytest.raises(ValueError, match="fast_options"):
            render_sequence(short_seq, argon_tf(argon_small),
                            fast_options={"cell": 8})
        with pytest.raises(ValueError, match="mode"):
            render_sequence(short_seq, argon_tf(argon_small), mode="warp")

    def test_multipass_fast_options_require_fast(self, argon_case):
        vol, tf = argon_case
        mask = vol.data > np.percentile(vol.data, 98)
        with pytest.raises(ValueError, match="fast_options"):
            render_tracked(vol, mask, tf, fast_options={"cell": 8})


# --------------------------------------------------------------------- #
# CLI argument validation + fast-path flags
# --------------------------------------------------------------------- #
class TestCliFastPath:
    @pytest.fixture(scope="class")
    def seqdir(self, tmp_path_factory):
        from repro.cli import main
        path = tmp_path_factory.mktemp("fastcli") / "argon"
        assert main(["generate", "argon", str(path), "--shape", "12", "16", "16",
                     "--times", "195", "210"]) == 0
        return path

    def test_fast_render_writes_png_frames(self, seqdir, tmp_path):
        from repro.cli import main
        out = tmp_path / "frames"
        rc = main(["render", str(seqdir), "--out", str(out), "--size", "16",
                   "--fast", "--ert-alpha", "0.9",
                   "--format", "png", "--cache", str(tmp_path / "cache")])
        assert rc == 0
        frames = sorted(out.glob("frame_*.png"))
        assert len(frames) == 2
        assert frames[0].read_bytes().startswith(b"\x89PNG")

    @pytest.mark.parametrize("flags", [
        ["--cell", "-4", "--fast"],
        ["--retries", "-1"],
        ["--workers", "0"],
        ["--workers", "-2"],
        ["--cell", "0", "--fast"],
    ])
    def test_nonpositive_counts_rejected(self, seqdir, tmp_path, flags):
        from repro.cli import main
        with pytest.raises(SystemExit) as err:
            main(["render", str(seqdir), "--out", str(tmp_path / "x")] + flags)
        assert err.value.code != 0

    @pytest.mark.parametrize("value", ["2", "0", "-0.2"])
    def test_ert_alpha_out_of_range_rejected_by_argparse(self, seqdir, tmp_path,
                                                         value, capsys):
        """``--ert-alpha`` outside (0, 1] is refused like ``--cell 0``:
        argparse's exit 2 and one error line, before any frame renders."""
        from repro.cli import main
        out = tmp_path / "x"
        with pytest.raises(SystemExit) as err:
            main(["render", str(seqdir), "--out", str(out), "--fast",
                  "--ert-alpha", value])
        assert err.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if "error:" in line]
        assert errors == [f"repro render: error: argument --ert-alpha: "
                          f"must be a number in (0, 1], got {value!r}"]
        assert not out.exists()

    def test_fast_flags_require_fast(self, seqdir, tmp_path):
        from repro.cli import main
        with pytest.raises(SystemExit, match="--fast"):
            main(["render", str(seqdir), "--out", str(tmp_path / "x"),
                  "--ert-alpha", "0.5"])

    @pytest.mark.parametrize("fast", [[], ["--fast"]], ids=["exact", "fast"])
    def test_thin_axis_shaded_render_exits_with_one_line(self, tmp_path, fast):
        """A volume with an axis shorter than 2 cannot be shaded: exit 1
        with one line before any frame renders; unshaded it renders."""
        from repro.cli import main
        seq = tmp_path / "thin"
        assert main(["generate", "argon", str(seq), "--shape", "1", "16", "16",
                     "--times", "195"]) == 0
        out = tmp_path / "frames"
        with pytest.raises(SystemExit) as err:
            main(["render", str(seq), "--out", str(out), "--size", "8"] + fast)
        assert isinstance(err.value.code, str)
        assert err.value.code.startswith("shading needs a gradient")
        assert "\n" not in err.value.code
        assert not out.exists()
        assert main(["render", str(seq), "--out", str(out), "--size", "8",
                     "--no-shading"] + fast) == 0
        assert len(list(out.glob("frame_*.ppm"))) == 1

    def test_cache_composes_with_workers(self, seqdir, tmp_path):
        """--cache DIR rides the shared on-disk store, so fanning out is
        no longer rejected: frames land and the store fills."""
        from repro.cli import main
        out = tmp_path / "frames"
        cachedir = tmp_path / "cache"
        rc = main(["render", str(seqdir), "--out", str(out),
                   "--size", "16", "--fast",
                   "--cache", str(cachedir), "--workers", "2"])
        assert rc == 0
        assert len(sorted(out.glob("frame_*.ppm"))) == 2
        assert any(cachedir.rglob("*.bin"))
