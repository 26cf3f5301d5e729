"""Golden outcomes of the serving pipeline, pinned byte for byte.

Every case below serves a small generated trace — reads, puts, updates,
deletes, malformed requests and zero-length reads — and folds each
request's terminal outcome plus the report's counters into one SHA-256
digest:

* completions: ``request_id, op, checksum, repr(completion_hours),
  attempts, batch_id, served_from_cache``;
* failures: ``request_id, reason, repr(failure_hours), attempts``;
* counters: every aggregate field of :class:`PolicyReport`.

The expected digests were recorded before the pipeline's event loop was
restructured, so any refactor of ``ServicePipeline.run`` must reproduce
the old behaviour exactly: same bytes, same simulated times, same retry
attempts, same batch ids, same failure reasons.  The cases cover all
three policies, QoS off and on (with throttling and deferral both
firing), one and three wetlab lanes, and injected decode failures with
retries; one numpy-gated case serves through the physical wetlab path at
one and two decode workers, and at two workers with clustering sharded
two ways (the staged decode scheduler).

To inspect a mismatch, ``python tests/test_service_golden.py`` prints the
digests the current code produces.
"""

from __future__ import annotations

import hashlib
import zlib

import pytest

from repro.service import POLICIES, QoSConfig, ServiceConfig, ServicePipeline, TenantQoS
from repro.store import DnaVolume, ObjectStore, VolumeConfig
from repro.workloads import RequestEvent, multi_tenant_trace
from repro.workloads.objects import object_corpus

#: Report fields folded into the digest besides the per-request outcomes.
COUNTERS = (
    "policy",
    "fidelity",
    "makespan_hours",
    "throughput_per_hour",
    "latency",
    "write_latency",
    "batches",
    "pcr_reactions",
    "amplified_blocks",
    "requested_block_accesses",
    "distinct_requested_blocks",
    "sequenced_reads",
    "decoded_bytes",
    "written_bytes",
    "synthesis_orders",
    "synthesized_strands",
    "synthesized_nucleotides",
    "synthesis_hours",
    "retry_cycles",
    "retried_requests",
    "decode_failures",
    "wetlab_lanes",
    "lane_busy_hours",
    "lane_busy_hours_by_lane",
    "lane_schedule_horizon_hours",
    "qos_enabled",
    "qos_throttled",
    "qos_deferred",
    "deadline_violations",
    "checksum",
    "cache",
)


def build_store(objects=5, leaf_count=32):
    store = ObjectStore(
        DnaVolume(
            config=VolumeConfig(
                partition_leaf_count=leaf_count, stripe_blocks=2, stripe_width=2
            )
        )
    )
    block_size = store.volume.block_size
    corpus = object_corpus(
        {f"obj-{i}": block_size * (1 + i % 3) for i in range(objects)}, seed=7
    )
    for name, data in corpus.items():
        store.put(name, data)
    return store, {name: len(data) for name, data in corpus.items()}


def mixed_trace(catalog, *, seed, requests=36):
    """A generated read/write trace plus hand-placed edge cases."""
    events = multi_tenant_trace(
        catalog,
        tenants=3,
        requests=requests,
        duration_hours=5.0,
        seed=seed,
        update_fraction=0.15,
        put_fraction=0.06,
    )
    return events + [
        RequestEvent(0.7, "tenant-x", "obj-1", offset=3, length=0),
        RequestEvent(1.3, "tenant-x", "missing-object"),
        RequestEvent(2.1, "tenant-x", "obj-0", offset=catalog["obj-0"] - 4, length=64),
        RequestEvent(2.3, "tenant-x", "obj-4", offset=-1, length=4),
        RequestEvent(2.6, "tenant-y", "obj-2", op="delete"),
        RequestEvent(2.65, "tenant-y", "obj-2"),
        RequestEvent(3.2, "tenant-y", "obj-3", op="put", payload=b"duplicate"),
        RequestEvent(3.3, "tenant-y", "obj-4", op="update", offset=5, payload=b"PATCHED"),
        RequestEvent(3.35, "tenant-x", "obj-4", offset=0, length=32),
    ]


def qos_config():
    """Tight buckets and a small window budget: both throttling and
    deferral fire on the generated traces."""
    return QoSConfig(
        profiles={
            "tenant-000": TenantQoS(rate_blocks_per_hour=2.0, burst_blocks=2.0),
            "tenant-001": TenantQoS(priority=0, weight=2.0),
            "tenant-002": TenantQoS(rate_blocks_per_hour=4.0, burst_blocks=3.0),
        },
        window_block_budget=3,
    )


def injector(cycle_id, attempt, key):
    """Fail about a third of first-attempt block decodes and some retries,
    independent of the interpreter's hash seed."""
    mark = zlib.crc32(f"{cycle_id}:{attempt}:{key[0]}:{key[1]}".encode())
    return mark % 3 == 0 if attempt == 1 else mark % 4 == 0


def outcome_digest(report) -> str:
    lines = []
    for item in sorted(report.completed, key=lambda c: c.request.request_id):
        lines.append(
            "C {} {} {} {} {} {} {}".format(
                item.request.request_id,
                item.request.op,
                item.checksum,
                repr(item.completion_hours),
                item.attempts,
                item.batch_id,
                item.served_from_cache,
            )
        )
    for item in sorted(report.failed, key=lambda f: f.request_id):
        lines.append(
            "F {} {} {} {}".format(
                item.request_id, item.reason, repr(item.failure_hours), item.attempts
            )
        )
    for name in COUNTERS:
        lines.append(f"{name}={getattr(report, name)!r}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def run_case(scenario, policy, qos, lanes):
    store, catalog = build_store()
    retry = scenario == "retry"
    config = ServiceConfig(
        window_hours=0.5,
        wetlab_lanes=lanes,
        cache_capacity_bytes=store.volume.block_size * 6,
        retry_budget=1 if retry else 2,
        decode_failure_injector=injector if retry else None,
        qos=qos_config() if qos else None,
    )
    trace = mixed_trace(catalog, seed=5 if retry else 2)
    return ServicePipeline(store, config=config).run(trace, policy)


CASES = [
    (scenario, policy, qos, lanes)
    for scenario in ("mixed", "retry")
    for policy in POLICIES
    for qos in (False, True)
    for lanes in (1, 3)
    # The unbatched policy has no admission window and ignores QoS.
    if not (qos and policy == "unbatched")
]

GOLDEN = {
    ("mixed", "unbatched", False, 1): "ec0a690f7fa21209ff69c34d718633c2fd2f0ca15db4e69c81a559ebb9111d00",
    ("mixed", "unbatched", False, 3): "3b84153302382e2fdbd6bd63757bca438e81eca55f18be3da5c7a493b77209b7",
    ("mixed", "batched", False, 1): "80ee2c3a2c2df4462954431de2f14207e3ed44e048306e843b1b967e748fe726",
    ("mixed", "batched", False, 3): "cd0563b1c4db06734d88d5761b991f6267ab63683f198f72eb33e342554a4e3e",
    ("mixed", "batched", True, 1): "72b57602ca1d98ada0008c191e7db8e5a751193f3a8bbc618ce786af29e786bb",
    ("mixed", "batched", True, 3): "1d09b7db191afb39098681cc74180855fb2365a6158b0513e0293025ffdca759",
    ("mixed", "batched+cache", False, 1): "885cc2b3aaa6cd8b7f0ff052f796ccac506a3266660fc5e7374afe56a537596d",
    ("mixed", "batched+cache", False, 3): "5cbf12a2b4afb7d4f5b3cc6684055250ecde97854d5330feaa3fc9d5efb84a89",
    ("mixed", "batched+cache", True, 1): "471920d3c98e78c36ac6b009acbdecd30bccf74ac5f5f39d00ac46ec1b8f8206",
    ("mixed", "batched+cache", True, 3): "fa19c8787a4f029237d2fd48992a68f8e8d4e6b575247e8c5061688aa3768128",
    ("retry", "unbatched", False, 1): "6dac39ac2cbd1c2260c45a520ddf17652a9555ea7f93fc9936f4bf3effdab727",
    ("retry", "unbatched", False, 3): "122f257264b80b1e8896eae3b1898fb9f6d16b063ab793c84781ede1dbd6f7d2",
    ("retry", "batched", False, 1): "8ecf1a5f23935332ec7584df0d41bd92f68917253f8eb08b3510c474d0605120",
    ("retry", "batched", False, 3): "4a9a5333517a0b80b41ba73f5948e3ca56f363c533eefd7b3e7d978c549fbf90",
    ("retry", "batched", True, 1): "3f981748c7f40adf03886cf3c55ae44fccf3c4db8829d344afc5544c26935f32",
    ("retry", "batched", True, 3): "625638f91a74eabe6923536050174a48de0a48f1f98f00b2ee203572c93decf8",
    ("retry", "batched+cache", False, 1): "2faee25179dc1e677fae237fe64cd92e7620787933a16c8f95c230130ae5dd36",
    ("retry", "batched+cache", False, 3): "c83848cf95e35e50b6261833e08bfa902b35953a8395fd345f39069e04411f12",
    ("retry", "batched+cache", True, 1): "9161f8c96056f4b3ec7d8e5c74d3e4ffb16ba66bc0cfc7ae87af511295cbbbb0",
    ("retry", "batched+cache", True, 3): "79717db723178d2e1b4a9c1543a5a475ad10f895d830dbbc1b79f398a5884857",
}


def case_id(case) -> str:
    scenario, policy, qos, lanes = case
    return f"{scenario}-{policy}-{'qos' if qos else 'noqos'}-lanes{lanes}"


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_outcomes_match_golden(case):
    report = run_case(*case)
    assert outcome_digest(report) == GOLDEN[case]


def test_cases_exercise_every_path():
    """The golden cases are only as strong as the paths they reach."""
    reports = {case: run_case(*case) for case in CASES if case[2:] == (True, 3)}
    for (scenario, policy, _, _), report in reports.items():
        reasons = " ".join(item.reason for item in report.failed)
        assert report.synthesis_orders > 0
        assert any(c.byte_count == 0 and c.request.op == "read" for c in report.completed)
        assert "missing-object" in reasons
        if policy != "unbatched":
            assert report.qos_throttled > 0
            assert report.qos_deferred > 0
        if scenario == "retry":
            assert report.retry_cycles > 0
            assert "decode failed after" in reasons
            assert any(c.attempts == 2 for c in report.completed)


WETLAB_GOLDEN = "754316561baf8b46c0a0512d6e2addd458a109052fa11f7705ff792a6cf8451e"


@pytest.mark.parametrize(
    "workers, shards", [(1, None), (2, None), (2, 2)], ids=["1", "2", "2x2"]
)
def test_wetlab_outcomes_match_golden(workers, shards):
    pytest.importorskip("numpy")
    store, catalog = build_store(objects=3, leaf_count=16)
    trace = multi_tenant_trace(
        catalog, tenants=2, requests=8, duration_hours=4.0, seed=3, update_fraction=0.2
    )
    config = ServiceConfig(
        window_hours=0.5,
        reads_per_block=150,
        wetlab_lanes=2,
        cache_capacity_bytes=store.volume.block_size * 32,
        decode_workers=workers,
        decode_cluster_shards=shards,
    )
    report = ServicePipeline(store, config=config).run(
        trace, "batched+cache", fidelity="wetlab"
    )
    assert outcome_digest(report) == WETLAB_GOLDEN


if __name__ == "__main__":
    for case in CASES:
        print(case_id(case), outcome_digest(run_case(*case)))
