"""Tests for the end-to-end block decoder on small simulated readouts."""

import dataclasses
import hashlib

import pytest

from repro.core.partition import Partition, PartitionConfig
from repro.core.updates import UpdatePatch
from repro.pipeline.decoder import BlockDecoder
from repro.primers.library import PrimerPair
from repro.wetlab.errors import ErrorModel
from repro.wetlab.pcr import PCRConfig, PCRSimulator
from repro.wetlab.sequencing import Sequencer
from repro.wetlab.synthesis import SynthesisVendor, synthesize
from repro.workloads.text import alice_like_text

PAIR = PrimerPair("ATCGTGCAAGCTTGACCTGA", "CGTAGACTTGCAACTGGACT")


@pytest.fixture(scope="module")
def small_setup():
    """A 20-block partition with one updated block, synthesized and amplified."""
    partition = Partition(PartitionConfig(primers=PAIR, leaf_count=64, tree_seed=17))
    partition.write(alice_like_text(20 * 256))
    partition.update_block(7, UpdatePatch(5, 10, 5, b"[patched]"))
    molecules = partition.all_molecules()
    pool = synthesize(molecules, SynthesisVendor.twist(), seed=3)
    for molecule in molecules:
        address = partition.parse_unit_index(molecule.unit_index)
        pool.metadata[molecule.to_strand()].update(block=address.block, slot=address.slot)
    return partition, pool


def precise_reads(partition, pool, block, read_count=600, seed=5):
    primer = partition.primer_for_block(block)
    amplified = PCRSimulator(PCRConfig.touchdown()).amplify(
        pool, primer, PAIR.reverse, residual_forward_primer=PAIR.forward
    )
    result = Sequencer(ErrorModel(), seed=seed).sequence(amplified, read_count)
    return result.sequences()


class TestBlockDecoder:
    def test_decodes_clean_block(self, small_setup):
        partition, pool = small_setup
        reads = precise_reads(partition, pool, 3)
        report = BlockDecoder(partition).decode_block(reads, 3)
        assert report.success
        expected = partition.read_block_reference(3)
        assert report.data[: len(expected)] == expected

    def test_decodes_updated_block_with_patch_applied(self, small_setup):
        partition, pool = small_setup
        reads = precise_reads(partition, pool, 7)
        report = BlockDecoder(partition).decode_block(reads, 7)
        assert report.success
        expected = partition.read_block_reference(7)
        assert report.data[: len(expected)] == expected
        assert b"[patched]" in report.data
        assert set(report.slots_recovered) == {0, 1}

    def test_report_accounting(self, small_setup):
        partition, pool = small_setup
        reads = precise_reads(partition, pool, 3)
        report = BlockDecoder(partition).decode_block(reads, 3)
        assert report.reads_total == len(reads)
        assert 0 < report.reads_on_prefix <= report.reads_total
        assert report.clusters_total >= report.strands_recovered
        assert report.strands_recovered >= 15

    def test_wrong_block_fails_gracefully(self, small_setup):
        """Asking for a block whose reads were not amplified cannot succeed,
        but must not raise either."""
        partition, pool = small_setup
        reads = precise_reads(partition, pool, 3)
        report = BlockDecoder(partition).decode_block(reads, 15)
        assert not report.success
        assert report.data is None

    def test_empty_reads(self, small_setup):
        partition, _ = small_setup
        report = BlockDecoder(partition).decode_block([], 3)
        assert not report.success
        assert report.reads_on_prefix == 0

    def test_noiseless_channel_decodes_with_few_reads(self, small_setup):
        partition, pool = small_setup
        primer = partition.primer_for_block(4)
        amplified = PCRSimulator(PCRConfig.touchdown()).amplify(
            pool, primer, PAIR.reverse, residual_forward_primer=PAIR.forward
        )
        result = Sequencer(ErrorModel.noiseless(), seed=9).sequence(amplified, 150)
        report = BlockDecoder(partition).decode_block(result.sequences(), 4)
        assert report.success
        expected = partition.read_block_reference(4)
        assert report.data[: len(expected)] == expected


#: SHA-256 over ``repr(dataclasses.asdict(report))`` of every report of
#: :func:`_digest_grid`, in grid order.  Any change to what
#: ``decode_block`` reports — success, bytes, counts, recovered slots —
#: moves it.  Recorded with the retired ``clusters_used`` field (a copy
#: of ``clusters_total``) popped from each dict before it was deleted, so
#: every other field is pinned to its value from before the deletion.
DECODE_BLOCK_DIGEST = (
    "5f4659199e17e25fdac5b14a81ac79955da54ee944c2c333605842623800695f"
)

#: Blocks of the digest grid: both ends of the partition plus the block
#: patched once (7) and the block patched twice (12).
DIGEST_BLOCKS = (0, 7, 12, 19)
DIGEST_COVERAGES = (600, 120, 40, 15)


@pytest.fixture(scope="module")
def patched_setup():
    """A 20-block partition with block 7 patched once and block 12 twice."""
    partition = Partition(PartitionConfig(primers=PAIR, leaf_count=64, tree_seed=17))
    partition.write(alice_like_text(20 * 256))
    partition.update_block(7, UpdatePatch(5, 10, 5, b"[patched]"))
    partition.update_block(12, UpdatePatch(0, 4, 0, b"[one]"))
    partition.update_block(12, UpdatePatch(40, 0, 40, b"[two]"))
    molecules = partition.all_molecules()
    pool = synthesize(molecules, SynthesisVendor.twist(), seed=3)
    for molecule in molecules:
        address = partition.parse_unit_index(molecule.unit_index)
        pool.metadata[molecule.to_strand()].update(block=address.block, slot=address.slot)
    return partition, pool


def _digest_grid(partition, pool):
    """Reports over own/neighbour targets × coverages, plus empty reads."""
    decoder = BlockDecoder(partition)
    reports = []
    for block in DIGEST_BLOCKS:
        reads = precise_reads(partition, pool, block, read_count=600, seed=block)
        neighbour = (block + 1) % 20
        for count in DIGEST_COVERAGES:
            for target in (block, neighbour):
                reports.append(decoder.decode_block(reads[:count], target))
        reports.append(decoder.decode_block([], block))
    return reports


class TestDecodeBlockDigest:
    def test_reports_match_pinned_digest(self, patched_setup):
        partition, pool = patched_setup
        reports = _digest_grid(partition, pool)
        digest = hashlib.sha256()
        for report in reports:
            digest.update(repr(dataclasses.asdict(report)).encode())
        assert digest.hexdigest() == DECODE_BLOCK_DIGEST
        # The grid must exercise both outcomes and the patched blocks.
        decoded = {report.block for report in reports if report.success}
        assert {7, 12} <= decoded
        assert any(report.slots_recovered == [0, 1, 2] for report in reports)
        assert any(not report.success and report.reads_on_prefix for report in reports)
