"""Tests for the IDS error channel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import DNA_ALPHABET
from repro.exceptions import WetlabError
from repro.sequence import is_valid_sequence, levenshtein_distance
from repro.wetlab.errors import ErrorModel

RATES = (0.0, 0.0005, 0.002, 0.02, 0.3, 0.9)


def _reference_corrupt(model, sequence, rng):
    """The per-base channel walk ``ErrorModel.corrupt`` must reproduce."""
    if model.total_error_rate == 0.0:
        return sequence
    bases = []
    alphabet = DNA_ALPHABET
    n = len(sequence)
    substitution_draws = rng.random(n)
    insertion_draws = rng.random(n + 1)
    deletion_draws = rng.random(n)
    random_bases = rng.integers(0, 4, size=2 * n + 2)
    random_cursor = 0
    for i in range(n):
        if insertion_draws[i] < model.insertion_rate:
            bases.append(alphabet[random_bases[random_cursor]])
            random_cursor += 1
        if deletion_draws[i] < model.deletion_rate:
            continue
        base = sequence[i]
        if substitution_draws[i] < model.substitution_rate:
            replacement = alphabet[random_bases[random_cursor]]
            random_cursor += 1
            if replacement == base:
                replacement = alphabet[(alphabet.index(base) + 1) % 4]
            base = replacement
        bases.append(base)
    if insertion_draws[n] < model.insertion_rate:
        bases.append(alphabet[random_bases[random_cursor]])
    return "".join(bases)


class TestErrorModel:
    def test_default_rates_are_small(self):
        model = ErrorModel()
        assert 0 < model.total_error_rate < 0.02

    def test_noiseless(self):
        model = ErrorModel.noiseless()
        assert model.total_error_rate == 0.0
        rng = np.random.default_rng(0)
        assert model.corrupt("ACGT" * 20, rng) == "ACGT" * 20

    def test_nanopore_profile_is_noisier(self):
        assert ErrorModel.nanopore().total_error_rate > ErrorModel().total_error_rate

    def test_invalid_rates_rejected(self):
        with pytest.raises(WetlabError):
            ErrorModel(substitution_rate=-0.1)
        with pytest.raises(WetlabError):
            ErrorModel(insertion_rate=1.0)

    def test_corrupt_output_is_valid_dna(self):
        model = ErrorModel(substitution_rate=0.1, insertion_rate=0.05, deletion_rate=0.05)
        rng = np.random.default_rng(1)
        for _ in range(20):
            noisy = model.corrupt("ACGTACGTACGTACGTACGTACGTACGT", rng)
            assert is_valid_sequence(noisy)

    def test_substitution_only_preserves_length(self):
        model = ErrorModel(substitution_rate=0.2, insertion_rate=0.0, deletion_rate=0.0)
        rng = np.random.default_rng(2)
        sequence = "ACGT" * 30
        assert len(model.corrupt(sequence, rng)) == len(sequence)

    def test_deletion_only_shrinks_or_preserves(self):
        model = ErrorModel(substitution_rate=0.0, insertion_rate=0.0, deletion_rate=0.3)
        rng = np.random.default_rng(3)
        sequence = "ACGT" * 30
        assert len(model.corrupt(sequence, rng)) <= len(sequence)

    def test_insertion_only_grows_or_preserves(self):
        model = ErrorModel(substitution_rate=0.0, insertion_rate=0.3, deletion_rate=0.0)
        rng = np.random.default_rng(4)
        sequence = "ACGT" * 30
        assert len(model.corrupt(sequence, rng)) >= len(sequence)

    def test_average_edit_distance_tracks_rates(self):
        model = ErrorModel(substitution_rate=0.02, insertion_rate=0.005, deletion_rate=0.005)
        rng = np.random.default_rng(5)
        sequence = "ACGT" * 25
        distances = [
            levenshtein_distance(sequence, model.corrupt(sequence, rng))
            for _ in range(100)
        ]
        mean_distance = sum(distances) / len(distances)
        expected = model.total_error_rate * len(sequence)
        assert 0.3 * expected <= mean_distance <= 2.0 * expected

    def test_corrupt_many(self):
        model = ErrorModel()
        rng = np.random.default_rng(6)
        reads = model.corrupt_many(["ACGTACGT"] * 5, rng)
        assert len(reads) == 5

    @settings(max_examples=25, deadline=None)
    @given(st.text(alphabet="ACGT", min_size=0, max_size=120), st.integers(min_value=0, max_value=1000))
    def test_corruption_always_valid_dna(self, sequence, seed):
        model = ErrorModel(substitution_rate=0.05, insertion_rate=0.02, deletion_rate=0.02)
        rng = np.random.default_rng(seed)
        assert is_valid_sequence(model.corrupt(sequence, rng))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    substitution=st.sampled_from(RATES),
    insertion=st.sampled_from(RATES),
    deletion=st.sampled_from(RATES),
    sequences=st.lists(
        st.text(alphabet="ACGT", min_size=0, max_size=200), min_size=1, max_size=3
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_corrupt_matches_per_base_reference(
    substitution, insertion, deletion, sequences, seed
):
    """Same reads and the same RNG stream as the per-base channel walk."""
    model = ErrorModel(
        substitution_rate=substitution, insertion_rate=insertion, deletion_rate=deletion
    )
    rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)
    for sequence in sequences:
        assert model.corrupt(sequence, rng) == _reference_corrupt(
            model, sequence, reference_rng
        )
        assert rng.bit_generator.state == reference_rng.bit_generator.state
