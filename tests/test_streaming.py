"""Tests for repro.parallel.streaming: the saved sequence's step list."""

import pytest

from repro.data import make_argon_sequence
from repro.parallel.streaming import sequence_step_stems
from repro.volume.io import save_sequence


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
