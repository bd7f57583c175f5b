"""Tests for repro.parallel.streaming: out-of-core per-step processing."""

import numpy as np
import pytest

from repro.data import make_argon_sequence
from repro.parallel.streaming import (
    sequence_step_stems,
    stream_map,
    stream_map_parallel,
)
from repro.volume.io import save_sequence


def mean_value(volume):
    return float(volume.data.mean())


@pytest.fixture(scope="module")
def saved_sequence(tmp_path_factory):
    directory = tmp_path_factory.mktemp("stream") / "argon"
    sequence = make_argon_sequence(shape=(12, 16, 16), times=[195, 205, 215, 225])
    save_sequence(sequence, directory)
    return directory, sequence


class TestStepStems:
    def test_lists_all_steps(self, saved_sequence):
        directory, sequence = saved_sequence
        stems = sequence_step_stems(directory)
        assert [t for t, _ in stems] == sequence.times


class TestStreamMap:
    def test_results_match_in_core(self, saved_sequence):
        directory, sequence = saved_sequence
        streamed = dict(stream_map(mean_value, directory))
        for vol in sequence:
            assert streamed[vol.time] == pytest.approx(float(vol.data.mean()))

    def test_time_filter(self, saved_sequence):
        directory, _ = saved_sequence
        out = list(stream_map(mean_value, directory, times=[205, 225]))
        assert [t for t, _ in out] == [205, 225]

    def test_lazy_generator(self, saved_sequence):
        directory, _ = saved_sequence
        gen = stream_map(mean_value, directory)
        first = next(gen)
        assert first[0] == 195

    def test_mmap_path(self, saved_sequence):
        directory, sequence = saved_sequence
        out = dict(stream_map(mean_value, directory, mmap=True))
        assert out[195] == pytest.approx(float(sequence[0].data.mean()))


class TestStreamMapParallel:
    def test_matches_serial(self, saved_sequence):
        directory, _ = saved_sequence
        serial = dict(stream_map(mean_value, directory))
        parallel = dict(stream_map_parallel(mean_value, directory,
                                            workers=2, backend="process"))
        assert serial.keys() == parallel.keys()
        for t in serial:
            assert serial[t] == pytest.approx(parallel[t])

    def test_order_preserved(self, saved_sequence):
        directory, sequence = saved_sequence
        out = stream_map_parallel(mean_value, directory, workers=2, backend="process")
        assert [t for t, _ in out] == sequence.times

    def test_time_filter(self, saved_sequence):
        directory, _ = saved_sequence
        out = stream_map_parallel(mean_value, directory, times=[215], backend="serial")
        assert [t for t, _ in out] == [215]

    def test_manifest_read_exactly_once(self, saved_sequence, monkeypatch):
        """Items and returned times derive from a single manifest parse, so
        a directory rewritten mid-call cannot desync them."""
        import repro.parallel.streaming as streaming

        calls = []
        real = streaming.sequence_step_stems

        def counting(directory, times=None):
            calls.append(directory)
            return real(directory, times=times)

        directory, sequence = saved_sequence
        monkeypatch.setattr(streaming, "sequence_step_stems", counting)
        out = stream_map_parallel(mean_value, directory, backend="serial")
        assert len(calls) == 1
        assert [t for t, _ in out] == sequence.times

    def test_skip_mode_yields_none_for_failed_step(self, saved_sequence, monkeypatch):
        """Chaos-testing via REPRO_FAULT_INJECT reaches the streaming farm:
        the faulted step's slot is None, the rest stream through."""
        from repro.parallel.faults import FAULT_ENV

        directory, sequence = saved_sequence
        monkeypatch.setenv(FAULT_ENV, "1:99")
        out = stream_map_parallel(mean_value, directory, backend="serial",
                                  on_error="skip")
        assert [t for t, _ in out] == sequence.times
        results = [r for _, r in out]
        assert results[1] is None
        assert all(r is not None for i, r in enumerate(results) if i != 1)

    def test_with_trained_classifier(self, saved_sequence, cosmology_small):
        """The real workload: ship a trained classifier over disk steps."""
        directory, sequence = saved_sequence
        from repro.core import AdaptiveTransferFunction, generate_sequence_tfs
        from repro.data.argon import ring_value_band
        from repro.transfer import TransferFunction1D

        iatf = AdaptiveTransferFunction.for_sequence(sequence, seed=3, committee=2)
        for t in (195, 225):
            lo, hi = ring_value_band(sequence, t)
            tf = TransferFunction1D(sequence.value_range).add_tent(
                (lo + hi) / 2, (hi - lo) * 2.5, 1.0)
            iatf.add_key_frame(sequence.at_time(t), tf)
        iatf.train(epochs=100)

        out = stream_map_parallel(iatf.generate, directory, workers=2, backend="process")
        in_core = generate_sequence_tfs(iatf, sequence, backend="serial")
        for (t, tf_streamed), tf_ref in zip(out, in_core):
            assert np.allclose(tf_streamed.opacity, tf_ref.opacity)
