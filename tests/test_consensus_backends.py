"""The batched consensus backends against the scalar double-sided BMA oracle.

``consensus_batch`` must return exactly ``[double_sided_bma(g, L) for g in
groups]`` on every backend: noisy reads with substitutions, insertions and
deletions, vote ties (the majority tie-break follows ``Counter``
first-insertion order), empty and over-long reads, and groups of one read.
The property is derandomized so every run checks the same examples.

The ``python`` backend case runs without numpy; the numpy cases skip when
numpy is absent.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline.consensus import consensus_batch, double_sided_bma

BASES = "ACGT"


@st.composite
def noisy_reads(draw, strand: str) -> str:
    """One read of ``strand``: edited, emptied or over-long."""
    shape = draw(st.sampled_from(("noisy", "noisy", "noisy", "empty", "over_long")))
    if shape == "empty":
        return ""
    read = list(strand)
    for _ in range(draw(st.integers(0, 4))):
        edit = draw(st.sampled_from(("substitute", "insert", "delete")))
        if edit == "insert":
            read.insert(draw(st.integers(0, len(read))), draw(st.sampled_from(BASES)))
        elif read:
            position = draw(st.integers(0, len(read) - 1))
            if edit == "substitute":
                read[position] = draw(st.sampled_from(BASES))
            else:
                del read[position]
    if shape == "over_long":
        read.extend(draw(st.text(BASES, min_size=1, max_size=len(strand) + 2)))
    return "".join(read)


@st.composite
def read_groups(draw) -> tuple[list[list[str]], int]:
    """Clusters of noisy copies of random strands of one shared length."""
    length = draw(st.integers(1, 24))
    groups = []
    for _ in range(draw(st.integers(1, 8))):
        strand = draw(st.text(BASES, min_size=length, max_size=length))
        size = draw(st.integers(1, 5))
        groups.append([draw(noisy_reads(strand)) for _ in range(size)])
    return groups, length


def _oracle(groups: list[list[str]], length: int) -> list[str]:
    return [double_sided_bma(group, length) for group in groups]


@pytest.mark.parametrize("backend", ["python", "numpy"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=read_groups())
def test_batch_matches_scalar_oracle(backend, case):
    if backend == "numpy":
        pytest.importorskip("numpy")
    groups, length = case
    assert consensus_batch(groups, length, backend=backend) == _oracle(groups, length)


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_majority_tie_break_follows_first_vote(backend):
    if backend == "numpy":
        pytest.importorskip("numpy")
    # Every position is a 1-1 or 2-2 tie; the first read's symbol wins.
    groups = [["AC", "CA"], ["GT", "TG", "TG", "GT"], ["ACGT", "TGCA"]]
    expected = _oracle(groups, 4)
    assert expected[0].startswith("AC")
    assert consensus_batch(groups, 4, backend=backend) == expected


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_single_read_and_all_empty_groups(backend):
    if backend == "numpy":
        pytest.importorskip("numpy")
    groups = [["ACGTAC"], [""], ["", ""], ["ACGTACGTAC"]]
    assert consensus_batch(groups, 6, backend=backend) == _oracle(groups, 6)
