"""Tests for the process-parallel decode engine.

The engine's contract is strict determinism: decoded payloads, per-block
reports and failure strings must be byte-identical for every worker count
(1 = inline serial, N = process pool) and shard count, staged or not, and
with the fused kernels on or off.  Everything here runs without numpy
except the tests that explicitly request the numpy distance backend or
wetlab-fidelity sequencing.
"""

import os
import pickle

import pytest

from repro.exceptions import DecodingError, ServiceError
from repro.pipeline import consensus
from repro.pipeline.decoder import BlockDecoder
from repro.pipeline.clustering import cluster_reads
from repro.pipeline.distance import (
    PythonDistanceBackend,
    available_distance_backends,
    get_distance_backend,
)
from repro.pipeline.parallel import (
    DecodeEngine,
    DecodeTask,
    StageProfile,
    resolve_worker_count,
    shared_engine,
)
from repro.observability.stages import collect_stages, record_stages
from repro.store import DnaVolume, ObjectStore, VolumeConfig
from repro.workloads.objects import object_corpus


def _numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


def _distance_backends() -> list[str]:
    backends = ["python"]
    if _numpy_available():
        backends.append("numpy")
    return backends


@pytest.fixture(scope="module")
def workload():
    """A two-partition store with digitally perfect reads (numpy-free).

    Each written partition contributes every strand three times — enough
    coverage for clustering and consensus without a sequencing simulator,
    so the engine's determinism is testable on the pure-Python stack.
    """
    volume = DnaVolume(
        config=VolumeConfig(partition_leaf_count=16, stripe_blocks=2, stripe_width=2)
    )
    store = ObjectStore(volume)
    corpus = object_corpus(
        {f"obj-{i}": volume.block_size * 3 for i in range(3)}, seed=7
    )
    for name, data in corpus.items():
        store.put(name, data)
    blocks: dict[str, list[int]] = {}
    reads: dict[str, list[str]] = {}
    for partition_name in volume.partition_names:
        partition = volume.partition(partition_name)
        written = partition.written_blocks()
        if not written:
            continue
        blocks[partition_name] = list(written)
        reads[partition_name] = [
            molecule.to_strand()
            for molecule in partition.all_molecules()
            for _ in range(3)
        ]
    assert len(blocks) >= 2, "the engine should get several tasks"
    return store, blocks, reads


def _tasks(workload, **decoder_options) -> list[DecodeTask]:
    """One decode task per written partition of the workload."""
    store, blocks, reads = workload
    return [
        DecodeTask(
            partition=store.volume.partition(name),
            reads=reads[name],
            blocks=targets,
            decoder_options=decoder_options,
        )
        for name, targets in blocks.items()
    ]


# ----------------------------------------------------------------------
# Resolution
# ----------------------------------------------------------------------
class TestResolution:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_DECODE_WORKERS", "7")
        assert resolve_worker_count(3) == 3

    def test_environment_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_DECODE_WORKERS", "5")
        assert resolve_worker_count(None) == 5

    def test_defaults_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_DECODE_WORKERS", raising=False)
        assert resolve_worker_count(None) == (os.cpu_count() or 1)

    def test_rejects_non_integer_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_DECODE_WORKERS", "many")
        with pytest.raises(DecodingError):
            resolve_worker_count(None)

    def test_rejects_zero_workers(self):
        with pytest.raises(DecodingError):
            resolve_worker_count(0)

    def test_shared_engine_keys_on_workers_and_shards(self):
        engine = shared_engine(workers=2, cluster_shards=3)
        assert (engine.workers, engine.cluster_shards) == (2, 3)
        # Three-argument callers of the old signature pass None second.
        assert shared_engine(2, None, 3) is engine
        with pytest.raises(TypeError):
            shared_engine(2, True, 3)

    def test_service_config_validates_decode_workers(self):
        from repro.service import ServiceConfig

        with pytest.raises(ServiceError):
            ServiceConfig(decode_workers=0)
        assert ServiceConfig(decode_workers=2).decode_workers == 2

    def test_service_config_validates_cluster_shards(self):
        from repro.service import ServiceConfig

        with pytest.raises(ServiceError):
            ServiceConfig(decode_cluster_shards=0)
        assert ServiceConfig(decode_cluster_shards=4).decode_cluster_shards == 4


# ----------------------------------------------------------------------
# Byte-identity across worker counts and backends
# ----------------------------------------------------------------------
class TestByteIdentity:
    @pytest.mark.parametrize("distance_backend", _distance_backends())
    def test_worker_counts_decode_identically(self, workload, distance_backend):
        store, blocks, reads = workload
        results = {}
        for workers in (1, 2, 4):
            results[workers] = store.try_decode_blocks(
                blocks, reads, workers=workers, distance_backend=distance_backend
            )
        payloads, failures = results[1]
        assert not failures
        assert set(payloads) == {
            (name, block) for name, targets in blocks.items() for block in targets
        }
        assert results[2] == results[1]
        assert results[4] == results[1]

    @pytest.mark.parametrize("codec_backend", ["python", "numpy"])
    def test_codec_backends_decode_identically(self, workload, monkeypatch, codec_backend):
        if codec_backend == "numpy" and not _numpy_available():
            pytest.skip("numpy codec backend unavailable")
        monkeypatch.setenv("REPRO_CODEC_BACKEND", codec_backend)
        tasks = _tasks(workload)
        # Fresh engines so the pooled workers fork *after* the env change
        # and resolve the same backend as the inline run.
        serial = DecodeEngine(workers=1)
        pooled = DecodeEngine(workers=2)
        try:
            inline = serial.decode(tasks)
            forked = pooled.decode(tasks)
        finally:
            pooled.shutdown()
        assert inline == forked
        for reports in inline:
            assert all(report.success for report in reports.values())

    def test_fused_and_reference_kernels_decode_identically(
        self, workload, monkeypatch
    ):
        store, blocks, reads = workload
        outputs = {}
        for flag in ("0", "1"):
            monkeypatch.setenv("REPRO_FUSED_KERNELS", flag)
            outputs[flag] = store.try_decode_blocks(blocks, reads, workers=1)
        assert outputs["0"] == outputs["1"]
        assert not outputs["1"][1]

    @staticmethod
    def _assert_pool_paths_match_serial(workload, monkeypatch, backend):
        """Pooled (1 shard) and staged (4 shards) decoding match serial.

        Each multi-worker run makes the scheduler not under test fail, so
        a passing run proves which path decoded.
        """
        store, blocks, reads = workload
        baseline = store.try_decode_blocks(
            blocks, reads, workers=1, distance_backend=backend
        )
        assert not baseline[1]

        def refuse(*args, **kwargs):
            raise AssertionError("the other decode path ran")

        for shards, other in ((1, "_decode_staged"), (4, "_decode_pooled")):
            with monkeypatch.context() as patch:
                patch.setattr(DecodeEngine, other, refuse)
                decoded = store.try_decode_blocks(
                    blocks,
                    reads,
                    workers=2,
                    cluster_shards=shards,
                    distance_backend=backend,
                )
            assert decoded == baseline

    @pytest.mark.parametrize("by_name", [True, False], ids=["1", "0"])
    def test_sharded_staged_decode_is_byte_identical(
        self, workload, monkeypatch, by_name
    ):
        """A distance backend by name or as an instance decodes identically.

        Backends pickle by name, so an instance rides the staged path's
        stage tasks exactly like a name does.
        """
        backend = None if by_name else PythonDistanceBackend()
        self._assert_pool_paths_match_serial(workload, monkeypatch, backend)

    def test_numpy_backend_instance_decodes_identically(
        self, workload, monkeypatch
    ):
        pytest.importorskip("numpy")
        from repro.pipeline.distance import NumpyDistanceBackend

        self._assert_pool_paths_match_serial(
            workload, monkeypatch, NumpyDistanceBackend()
        )

    def test_missing_partition_reads_fail_identically(self, workload):
        store, blocks, reads = workload
        partial = dict(reads)
        dropped = next(iter(partial))
        del partial[dropped]
        serial = store.try_decode_blocks(blocks, partial, workers=1)
        pooled = store.try_decode_blocks(blocks, partial, workers=2)
        assert serial == pooled
        for block in blocks[dropped]:
            assert (
                serial[1][(dropped, block)]
                == f"no reads provided for partition {dropped!r}"
            )


# ----------------------------------------------------------------------
# Transport and robustness
# ----------------------------------------------------------------------
class TestEngineInternals:
    def test_large_batches_decode_identically(self, workload):
        # Batches padded past 1 MiB per task travel over the executor
        # pipe like any other.
        store, blocks, reads = workload
        one_mib = 1 << 20
        padded = {
            name: batch * (one_mib // max(1, sum(map(len, batch))) + 1)
            for name, batch in reads.items()
        }
        assert all(sum(map(len, batch)) >= one_mib for batch in padded.values())
        pooled = store.try_decode_blocks(blocks, padded, workers=2)
        serial = store.try_decode_blocks(blocks, padded, workers=1)
        assert pooled == serial

    def test_broken_pool_falls_back_inline(self, workload):
        tasks = _tasks(workload)
        engine = DecodeEngine(workers=2)
        try:
            expected = engine.decode(tasks)
            # Kill the pool out from under the engine: submissions now
            # raise, and every task must still decode (inline).
            engine._pool().shutdown(wait=True)
            recovered = engine.decode(tasks)
        finally:
            engine.shutdown()
        assert recovered == expected

    def test_staged_broken_pool_falls_back_inline(self, workload):
        tasks = _tasks(workload)
        engine = DecodeEngine(workers=2, cluster_shards=4)
        try:
            expected = engine.decode(tasks)
            engine._pool().shutdown(wait=True)
            recovered = engine.decode(tasks)
        finally:
            engine.shutdown()
        assert recovered == expected

    def test_stage_profile_predicts_after_observation(self):
        profile = StageProfile()
        assert profile.predict("cluster", 100) is None
        profile.observe("cluster", 100, 1.0)
        assert profile.predict("cluster", 200) == pytest.approx(2.0)
        # EWMA: 0.1 + (0.3 - 0.1) * alpha, alpha = 0.4
        profile.observe("solve", 10, 1.0)
        profile.observe("solve", 10, 3.0)
        assert profile.predict("solve", 10) == pytest.approx(1.8)
        assert profile.snapshot()["solve"] == pytest.approx(0.18)
        profile.observe("solve", 10, -1.0)  # clock skew: ignored
        assert profile.snapshot()["solve"] == pytest.approx(0.18)

    def test_staged_decode_warms_the_stage_profile(self, workload):
        tasks = _tasks(workload)
        engine = DecodeEngine(workers=2, cluster_shards=4)
        try:
            engine.decode(tasks)
        finally:
            engine.shutdown()
        rates = engine.profile.snapshot()
        assert rates.get("cluster", 0.0) > 0.0
        assert rates.get("consensus", 0.0) > 0.0
        assert rates.get("syndrome_solve", 0.0) > 0.0

    def test_stage_seconds_fold_into_parent_collector(self, workload):
        store, blocks, reads = workload
        with collect_stages() as stages:
            store.try_decode_blocks(blocks, reads, workers=2)
        assert stages.get("cluster", 0.0) > 0.0
        assert "consensus" in stages

    def test_record_stages_accumulates(self):
        with collect_stages() as stages:
            record_stages({"cluster": 1.0, "consensus": 0.5})
            record_stages({"cluster": 0.25})
        assert stages == {"cluster": 1.25, "consensus": 0.5}
        record_stages({"cluster": 9.0})  # no active collector: no-op

    @pytest.mark.parametrize("name", available_distance_backends())
    def test_distance_backend_pickles_by_name(self, name):
        backend = get_distance_backend(name)
        assert pickle.loads(pickle.dumps(backend)) is get_distance_backend(name)
        fresh = type(backend)()
        assert pickle.loads(pickle.dumps(fresh)) is get_distance_backend(name)

    @pytest.mark.parametrize("name", available_distance_backends())
    def test_cluster_sharded_accepts_backend_instances(self, workload, name):
        store, blocks, reads = workload
        partition_name = next(iter(blocks))
        decoder = BlockDecoder(store.volume.partition(partition_name))
        signature_start, signature_length = decoder._signature_window()
        window = {
            "signature_start": signature_start,
            "signature_length": signature_length,
        }
        batch = reads[partition_name]
        expected = cluster_reads(batch, distance_backend=name, **window)
        engine = DecodeEngine(workers=2, cluster_shards=4)
        try:
            clusters, _ = engine.cluster_sharded(
                batch, distance_backend=type(get_distance_backend(name))(), **window
            )
        finally:
            engine.shutdown()
        assert [(c.signature, c.reads) for c in clusters] == [
            (c.signature, c.reads) for c in expected
        ]

    def test_decode_task_pickles_with_shared_galois_tables(self, workload):
        store, blocks, reads = workload
        name = next(iter(blocks))
        task = DecodeTask(
            partition=store.volume.partition(name),
            reads=reads[name][:4],
            blocks=blocks[name],
        )
        clone = pickle.loads(pickle.dumps(task))
        assert clone.reads == task.reads
        assert clone.blocks == task.blocks


# ----------------------------------------------------------------------
# Faults inside decode stages
# ----------------------------------------------------------------------
class InjectedFault(Exception):
    """Raised by a decode stage patched to fail."""


def _fail_in_workers(original):
    """``original``, except that it raises in any process but this one."""
    parent = os.getpid()

    def patched(*args, **kwargs):
        if os.getpid() != parent:
            raise InjectedFault("injected decode-stage fault")
        return original(*args, **kwargs)

    return patched


class TestStageFaults:
    """A failing stage surfaces as its own exception, never as wrong bytes.

    Each case uses a fresh engine, shut down in ``finally``: workers fork
    on first use and keep whatever patch was active then.
    """

    @pytest.mark.parametrize(
        "shards, owner, name",
        [
            (1, BlockDecoder, "decode_readout"),
            (2, consensus, "consensus_batch"),
        ],
        ids=["pooled", "staged"],
    )
    def test_injected_worker_fault_raises(self, workload, monkeypatch, shards, owner, name):
        tasks = _tasks(workload)
        baseline = DecodeEngine(workers=1).decode(tasks)
        engine = DecodeEngine(workers=2, cluster_shards=shards)
        try:
            with monkeypatch.context() as patch:
                # Patched before the engine forks.  Only workers fail, so
                # an engine that swallowed the fault and decoded inline
                # would return instead of raising.
                patch.setattr(owner, name, _fail_in_workers(getattr(owner, name)))
                with pytest.raises(InjectedFault):
                    engine.decode(tasks)
            # The patched workers are retired; the same engine forks
            # clean ones and decodes byte-identically.
            engine.shutdown()
            assert engine.decode(tasks) == baseline
        finally:
            engine.shutdown()

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_bad_decoder_option_raises_type_error(self, workload, workers, shards):
        tasks = _tasks(workload)
        baseline = DecodeEngine(workers=1).decode(tasks)
        engine = DecodeEngine(workers=workers, cluster_shards=shards)
        try:
            with pytest.raises(TypeError):
                engine.decode(_tasks(workload, no_such_option=1))
            assert engine.decode(tasks) == baseline
        finally:
            engine.shutdown()


# ----------------------------------------------------------------------
# Retry cycles under workers > 1
# ----------------------------------------------------------------------
class TestRetryCycles:
    def _injector(self):
        first: list[tuple[int, tuple[str, int]]] = []

        def injector(cycle_id, attempt, key):
            if attempt == 1 and not first:
                first.append((cycle_id, key))
            return attempt == 1 and first[0] == (cycle_id, key)

        return injector

    def _run(self, fidelity: str, workers: int):
        from repro.service import ServiceConfig, ServicePipeline
        from repro.workloads import multi_tenant_trace

        volume = DnaVolume(
            config=VolumeConfig(
                partition_leaf_count=16, stripe_blocks=2, stripe_width=2
            )
        )
        store = ObjectStore(volume)
        corpus = object_corpus(
            {f"obj-{i}": volume.block_size * 2 for i in range(3)}, seed=9
        )
        for name, data in corpus.items():
            store.put(name, data)
        catalog = {name: len(data) for name, data in corpus.items()}
        trace = multi_tenant_trace(
            catalog, tenants=3, requests=8, duration_hours=6.0, seed=11
        )
        simulator = ServicePipeline(
            store,
            config=ServiceConfig(
                window_hours=0.5,
                reads_per_block=120,
                retry_budget=2,
                decode_workers=workers,
                decode_failure_injector=self._injector(),
            ),
        )
        return simulator.run(trace, "batched+cache", fidelity=fidelity)

    def test_injected_failure_retries_with_workers_configured(self):
        # Reference fidelity is numpy-free: the injected failure must ride
        # a retry cycle and recover with multi-worker decode configured.
        report = self._run("reference", workers=2)
        assert report.failed == ()
        assert report.retry_cycles >= 1
        assert report.decode_failures >= 1

    @pytest.mark.skipif(not _numpy_available(), reason="wetlab needs numpy")
    def test_wetlab_retry_cycle_decodes_through_the_pool(self):
        pooled = self._run("wetlab", workers=2)
        serial = self._run("wetlab", workers=1)
        assert pooled.failed == ()
        assert pooled.retry_cycles >= 1
        assert pooled.checksum == serial.checksum
