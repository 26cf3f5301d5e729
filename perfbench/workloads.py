"""The benchmark's three workloads: seeded inputs, timed passes, output checks.

Every workload follows one shape.  ``setup()`` builds a fresh store and
the workload's inputs from the seed (timed: the ``setup_s`` samples);
``run_pass(state)`` serves or executes those inputs once (timed: the
``ops_per_s`` samples) and returns a :class:`Pass` holding the outcome
figures, which depend only on the seed; ``check(state, result)`` holds the
outputs against an independent model and returns the mismatches.  The
store loop times its single calls inside the pass; the serving workloads
time them with ``op_round(state)``, one round of :data:`OP_ROUND_GETS`
direct gets on the checked pass's store after each timed pass.

* ``serve_qos_mixed`` — reference-fidelity ``batched+cache`` serving with
  tenant QoS on: Zipf-hot victims, one rate-limited cold-scan aggressor,
  and spread writes.
* ``serve_wetlab`` — wetlab-fidelity ``batched+cache`` serving with QoS
  off: every cycle samples PCR/sequencing reads and decodes them.
* ``store_churn`` — one client calling ``ObjectStore`` in a closed loop:
  put, update, get, ``get(at=)``, snapshot, release, restore, delete.

The simulated trace is open loop (arrivals fixed in simulated hours,
latency measured from arrival); the benchmark itself is one process that
runs each pass closed loop.
"""

from __future__ import annotations

import os
import random
import time
import zlib
from dataclasses import dataclass, field, replace

from repro.core.addressing import BlockAddress
from repro.exceptions import DnaStorageError, StoreError, UpdateError
from repro.service import QoSConfig, ServiceConfig, ServicePipeline
from repro.service.queue import PartitionSynthesisJob, SynthesisOrder
from repro.store import DnaVolume, ObjectStore, VolumeConfig
from repro.wetlab.readout import WetlabReadout, plan_units
from repro.workloads import (
    RequestEvent,
    ZipfSampler,
    multi_tenant_trace,
    object_corpus,
    tenant_qos_profiles,
)

AGGRESSOR = "aggressor"

#: Victim read-latency limit of the capacity sweep, in simulated hours.
#: A read queued behind a write waits for its synthesis order (12 h
#: setup), and that write may itself wait behind earlier work on its
#: object; the limit admits three such waits, not a growing backlog.
CAPACITY_SLO_HOURS = 36.0

#: Offered rates of the capacity sweep, as shares of the estimated lane
#: capacity of the workload's trace shape.
CAPACITY_LADDER = (0.5, 0.8, 0.95, 1.1)

#: Decode workers and clustering shards of the wetlab workload, pinned at
#: two (one on a one-CPU host) so the decode schedule does not grow with
#: the host's CPU count.
DECODE_WORKERS = max(1, min(2, os.cpu_count() or 1))
CLUSTER_SHARDS = 2

#: Direct gets timed per round on the serving workloads: a fixed sample
#: count, so every round weighs the same in the run's pooled percentiles.
OP_ROUND_GETS = 8000


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile of a sample (``share`` in [0, 1])."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


@dataclass
class Pass:
    """One execution of a workload's inputs.

    Attributes:
        ops: operations attempted.
        wall_s: wall seconds of the timed program calls.
        outcome: figures that depend only on the seed (simulated
            latencies, wetlab cost, counts); every pass must repeat them.
        op_ms: wall latency of single store calls, when the pass times
            them one by one.
        detail: whatever the workload's check needs (the report, a log).
    """

    ops: int
    wall_s: float
    outcome: dict[str, float]
    op_ms: list[float] = field(default_factory=list)
    detail: object = None


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
def _build_store(config: VolumeConfig, sizes: dict[str, int], seed: int):
    store = ObjectStore(DnaVolume(config=config))
    corpus = object_corpus(sizes, seed=seed)
    for name, data in corpus.items():
        store.put(name, data)
    return store, corpus


def _serving_outcome(report, trace: list[RequestEvent]) -> dict[str, float]:
    """The simulated-service figures of one served trace."""
    reads = [
        item.latency_hours
        for item in report.completed
        if item.request.op == "read" and item.request.tenant != AGGRESSOR
    ]
    writes = [
        item.latency_hours for item in report.completed if item.request.op != "read"
    ]
    return {
        "read_p50_sim_h": percentile(reads, 0.50),
        "read_p99_sim_h": percentile(reads, 0.99),
        "write_p99_sim_h": percentile(writes, 0.99),
        "seq_reads_per_block": report.sequenced_reads
        / report.requested_block_accesses,
        "nt_per_user_byte": report.synthesized_nucleotides / report.written_bytes,
        "ok_ratio": len(report.completed) / len(trace),
        "checksum": report.checksum,
    }


def check_served_bytes(
    report, trace: list[RequestEvent], corpus: dict[str, bytes]
) -> tuple[list[str], dict[str, bytes]]:
    """Hold every served read against a dict-of-bytes model of the store.

    The model replays the acknowledged writes in admission order.  A live
    read must return its object as left by exactly the writes admitted
    before it (per-object FIFO); a time-travel read must return the
    object as left by the writes committed at or before its ``as_of``.

    Returns:
        ``(mismatches, final)``: one message per wrong response, and the
        model's final bytes per object.
    """
    acked = {
        item.request.request_id: item.completion_hours
        for item in report.completed
        if item.request.op != "read"
    }
    # Per object: (request_id, commit hours, bytes) after each write.
    versions: dict[str, list[tuple[int, float, bytes]]] = {
        name: [(-1, float("-inf"), data)] for name, data in corpus.items()
    }
    for index, event in enumerate(trace):
        if event.op == "read" or index not in acked:
            continue
        history = versions.setdefault(event.object_name, [])
        if event.op == "put":
            data = event.payload
        else:
            old = history[-1][2]
            data = (
                old[: event.offset]
                + event.payload
                + old[event.offset + len(event.payload) :]
            )
        history.append((index, acked[index], data))

    mismatches: list[str] = []
    for item in report.completed:
        request = item.request
        if request.op != "read":
            continue
        history = versions[request.object_name]
        if request.as_of is None:
            data = [v for rid, _, v in history if rid < request.request_id][-1]
        else:
            data = [v for _, hours, v in history if hours <= request.as_of][-1]
        end = None if request.length is None else request.offset + request.length
        if zlib.crc32(data[request.offset : end]) != item.checksum:
            mismatches.append(
                f"request {request.request_id} ({request.object_name!r}"
                f"{'' if request.as_of is None else f' as of {request.as_of:.3f} h'})"
                " served bytes that differ from the model"
            )
    final = {name: history[-1][2] for name, history in versions.items()}
    return mismatches, final


def time_direct_gets(
    store: ObjectStore,
    trace: list[RequestEvent],
    final: dict[str, bytes],
) -> tuple[list[float], list[str]]:
    """Time :data:`OP_ROUND_GETS` direct ``ObjectStore.get`` calls.

    The gets walk the trace's read ranges in order, from the first again
    when they run out.  The store is the one the checked pass left
    behind; each get must equal the model's final bytes.  Returns the
    latencies in ms and the mismatches.
    """
    latencies: list[float] = []
    mismatches: list[str] = []
    reads = [event for event in trace if event.op == "read"]
    for index in range(OP_ROUND_GETS):
        event = reads[index % len(reads)]
        started = time.perf_counter()
        data = store.get(
            event.object_name,
            offset=event.offset,
            length=event.length,
            block_cache=None,
        )
        latencies.append((time.perf_counter() - started) * 1000.0)
        end = None if event.length is None else event.offset + event.length
        if data != final[event.object_name][event.offset : end]:
            mismatches.append(f"direct get of {event.object_name!r} differs")
    return latencies, mismatches


def capacity_sweep(trace_at, config_for, store_factory, base_rate: float):
    """Serve the trace shape at a ladder of offered rates.

    A run at the base rate estimates lane capacity as the rate over its
    lane utilization; each rung re-serves the same shape at a share of
    that estimate.  A rung meets the limit when its victim read p99 is
    within :data:`CAPACITY_SLO_HOURS` with no growing backlog: the reads
    arriving in the trace's last quarter are within it too.  Walking up
    the ladder, the capacity is the rate where that worse p99 reaches the
    limit, interpolated linearly between the last rung that met it and
    the first that did not (the top rung when all meet it, 0 when the
    first does not).  Returns the capacity and one row per rung.
    """

    def serve(rate: float):
        store, _, catalog = store_factory()
        trace = trace_at(catalog, rate)
        report = ServicePipeline(store, config=config_for(trace, catalog)).run(
            trace, "batched+cache"
        )
        late = 0.75 * max(event.time_hours for event in trace)
        victims = [
            item
            for item in report.completed
            if item.request.op == "read" and item.request.tenant != AGGRESSOR
        ]
        p99 = percentile([item.latency_hours for item in victims], 0.99)
        late_p99 = percentile(
            [item.latency_hours for item in victims if item.request.arrival_hours >= late],
            0.99,
        )
        return {
            "rate_rph": rate,
            "p50_sim_h": percentile([item.latency_hours for item in victims], 0.50),
            "p99_sim_h": p99,
            "late_p99_sim_h": late_p99,
            "lane_utilization": report.lane_utilization,
            "meets_slo": max(p99, late_p99) <= CAPACITY_SLO_HOURS,
        }

    estimate = base_rate / serve(base_rate)["lane_utilization"]
    rungs = [serve(share * estimate) for share in CAPACITY_LADDER]
    capacity, met_p99 = 0.0, 0.0
    for rung in rungs:
        worst = max(rung["p99_sim_h"], rung["late_p99_sim_h"])
        if not rung["meets_slo"]:
            if capacity:
                share = (CAPACITY_SLO_HOURS - met_p99) / (worst - met_p99)
                capacity += share * (rung["rate_rph"] - capacity)
            break
        capacity, met_p99 = rung["rate_rph"], worst
    return capacity, rungs


class ServeQosMixed:
    """Reference-fidelity serving with tenant QoS on.

    16000 requests over 160 simulated hours against 300 objects of 1-6
    blocks; the decoded-block cache holds 32 blocks, a thirtieth of the
    catalog.  Victim reads are Zipf-hot (exponent 1.1, small objects
    hotter), all live: the trace carries no time-travel reads (see the
    README).  4% of requests are writes (three updates per put) spread
    evenly over the catalog, because a Zipf-hot write stream serializes on
    one object's 12-hour synthesis orders and measures that backlog
    instead of serving.  One aggressor sends 10% of requests as
    whole-object scans of the cold catalog; its token bucket admits twice
    its mean block demand, so bursts are throttled without an unbounded
    backlog.  24 lanes run at about 60% utilization.
    """

    name = "serve_qos_mixed"
    requests = 16000
    rate_rph = 100.0
    objects = 300
    volume = VolumeConfig(partition_leaf_count=512, stripe_blocks=8, stripe_width=6)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.block_size = DnaVolume(config=self.volume).block_size

    def _sizes(self) -> dict[str, int]:
        return {
            f"obj-{i:03d}": self.block_size * (1 + i % 6) for i in range(self.objects)
        }

    def _store(self):
        store, corpus = _build_store(self.volume, self._sizes(), self.seed)
        return store, corpus, {name: len(data) for name, data in corpus.items()}

    def build_trace(
        self, catalog: dict[str, int], rate: float, duration: float
    ) -> list[RequestEvent]:
        requests = round(rate * duration)
        scan = requests // 10
        writes = requests * 4 // 100
        victims = multi_tenant_trace(
            catalog,
            tenants=24,
            requests=requests - scan - writes,
            duration_hours=duration,
            seed=self.seed,
            object_exponent=1.1,
            size_popularity_bias=0.9,
        )
        updates = multi_tenant_trace(
            catalog,
            tenants=24,
            requests=writes,
            duration_hours=duration,
            seed=self.seed + 1,
            object_exponent=0.01,
            update_fraction=0.75,
            put_fraction=0.25,
        )
        aggressor = multi_tenant_trace(
            catalog,
            tenants=1,
            requests=scan,
            duration_hours=duration,
            seed=self.seed + 2,
            object_exponent=0.01,
            whole_object_fraction=1.0,
            aggressor_fraction=1.0,
            aggressor_tenant=AGGRESSOR,
        )
        return sorted(victims + updates + aggressor, key=lambda e: e.time_hours)

    def config_for(self, trace: list[RequestEvent], catalog: dict[str, int]):
        duration = max(event.time_hours for event in trace)
        mean_blocks = sum(-(-size // self.block_size) for size in catalog.values()) / len(
            catalog
        )
        scan_blocks_per_hour = (
            sum(1 for event in trace if event.tenant == AGGRESSOR)
            * mean_blocks
            / duration
        )
        victim_blocks_per_window = (
            sum(1 for event in trace if event.tenant != AGGRESSOR)
            * mean_blocks
            * 0.5
            / duration
        )
        profiles = tenant_qos_profiles(
            trace,
            priority=1,
            deadline_hours=CAPACITY_SLO_HOURS,
            overrides={
                AGGRESSOR: {
                    "weight": 0.1,
                    "rate_blocks_per_hour": 2.0 * scan_blocks_per_hour,
                    "burst_blocks": 8 * mean_blocks,
                    "priority": 2,
                    "deadline_hours": None,
                }
            },
        )
        return ServiceConfig(
            window_hours=0.5,
            wetlab_lanes=24,
            pcr_hours=0.1,
            cache_capacity_bytes=self.block_size * 32,
            qos=QoSConfig(
                profiles=profiles,
                window_block_budget=max(64, round(4 * victim_blocks_per_window)),
            ),
        )

    def setup(self):
        store, corpus, catalog = self._store()
        trace = self.build_trace(
            catalog, self.rate_rph, self.requests / self.rate_rph
        )
        return {
            "store": store,
            "corpus": corpus,
            "trace": trace,
            "config": self.config_for(trace, catalog),
        }

    def run_pass(self, state) -> Pass:
        pipeline = ServicePipeline(state["store"], config=state["config"])
        started = time.perf_counter()
        report = pipeline.run(state["trace"], "batched+cache")
        wall = time.perf_counter() - started
        return Pass(
            ops=len(state["trace"]),
            wall_s=wall,
            outcome=_serving_outcome(report, state["trace"]),
            detail=report,
        )

    def check(self, state, result: Pass) -> list[str]:
        mismatches, state["final"] = check_served_bytes(
            result.detail, state["trace"], state["corpus"]
        )
        return mismatches

    def op_round(self, state) -> tuple[list[float], list[str]]:
        return time_direct_gets(state["store"], state["trace"], state["final"])

    def capacity(self) -> tuple[float, list[dict[str, float]]]:
        # Half-length traces per rung keep the sweep near four passes.
        duration = self.requests / self.rate_rph / 2
        return capacity_sweep(
            lambda catalog, rate: self.build_trace(catalog, rate, duration),
            self.config_for,
            self._store,
            self.rate_rph,
        )


class ServeWetlab:
    """Wetlab-fidelity serving with QoS off.

    Twelve objects of 1-4 blocks striped over four 16-block partitions,
    so cycles decode several partitions at once; the 64-block cache holds
    the whole catalog.  60 requests over 15 simulated hours, read-mostly,
    with two updates (so patch slots are amplified and decoded) and two
    puts.  Every cycle samples PCR and sequencing reads and decodes them
    through clustering, consensus and Reed-Solomon on
    :data:`DECODE_WORKERS` workers; the partitions' pools are synthesized
    in set-up.

    The seed drives the object bytes and every wetlab draw (synthesis
    skew, PCR, sequencing); the request trace comes from the fixed
    :attr:`trace_seed`, because 60 requests are too few for their
    simulated latency percentiles to agree across trace seeds.
    """

    name = "serve_wetlab"
    requests = 60
    rate_rph = 4.0
    trace_seed = 2023
    volume = VolumeConfig(partition_leaf_count=16, stripe_blocks=2, stripe_width=4)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.block_size = DnaVolume(config=self.volume).block_size

    def _store(self):
        sizes = {f"obj-{i:02d}": self.block_size * (1 + i % 4) for i in range(12)}
        store, corpus = _build_store(self.volume, sizes, self.seed)
        return store, corpus, {name: len(data) for name, data in corpus.items()}

    def build_trace(self, catalog: dict[str, int], rate: float) -> list[RequestEvent]:
        """The fixed trace, its arrivals compressed to the offered rate."""
        duration = self.requests / self.rate_rph
        reads = multi_tenant_trace(
            catalog,
            tenants=6,
            requests=self.requests - 4,
            duration_hours=duration,
            seed=self.trace_seed,
        )
        writes = multi_tenant_trace(
            catalog,
            tenants=6,
            requests=4,
            duration_hours=duration,
            seed=self.trace_seed + 1,
            object_exponent=0.01,
            update_fraction=0.5,
            put_fraction=0.5,
        )
        scale = self.rate_rph / rate
        return sorted(
            (replace(event, time_hours=event.time_hours * scale) for event in reads + writes),
            key=lambda event: event.time_hours,
        )

    def config_for(self, trace=None, catalog=None) -> ServiceConfig:
        """The serving config (the same for every trace of the shape)."""
        return ServiceConfig(
            window_hours=1.0,
            reads_per_block=150,
            wetlab_lanes=4,
            cache_capacity_bytes=self.block_size * 64,
            wetlab_seed=self.seed,
            decode_workers=DECODE_WORKERS,
            decode_cluster_shards=CLUSTER_SHARDS,
        )

    def setup(self):
        store, corpus, catalog = self._store()
        trace = self.build_trace(catalog, self.rate_rph)
        config = self.config_for()
        readout = WetlabReadout(
            store.volume, reads_per_block=config.reads_per_block, seed=self.seed
        )
        for name in store.volume.partition_names:
            readout.partition_pool(name)
        return {
            "store": store,
            "corpus": corpus,
            "trace": trace,
            "config": config,
            "readout": readout,
        }

    def run_pass(self, state) -> Pass:
        pipeline = ServicePipeline(
            state["store"], config=state["config"], readout=state["readout"]
        )
        started = time.perf_counter()
        report = pipeline.run(state["trace"], "batched+cache", fidelity="wetlab")
        wall = time.perf_counter() - started
        return Pass(
            ops=len(state["trace"]),
            wall_s=wall,
            outcome=_serving_outcome(report, state["trace"]),
            detail=report,
        )

    def check(self, state, result: Pass) -> list[str]:
        mismatches, state["final"] = check_served_bytes(
            result.detail, state["trace"], state["corpus"]
        )
        store, _, _ = self._store()
        reference = ServicePipeline(store, config=state["config"]).run(
            state["trace"], "batched+cache"
        )
        if reference.checksum != result.detail.checksum:
            mismatches.append(
                f"wetlab checksum {result.detail.checksum} differs from the "
                f"reference-fidelity checksum {reference.checksum}"
            )
        return mismatches

    def op_round(self, state) -> tuple[list[float], list[str]]:
        return time_direct_gets(state["store"], state["trace"], state["final"])

    def capacity(self) -> tuple[float, list[dict[str, float]]]:
        # Reference fidelity charges the same lane time; only decode
        # retries differ.
        return capacity_sweep(
            self.build_trace,
            self.config_for,
            self._store,
            self.rate_rph,
        )


# ----------------------------------------------------------------------
# Store workload
# ----------------------------------------------------------------------
#: Charges of the simulated cost model (the serving layer's defaults).
CHARGES = ServiceConfig()

#: Operation mix of the churn loop (relative weights).
CHURN_MIX = {
    "get": 42,
    "get_at": 10,
    "update": 24,
    "put": 10,
    "delete": 8,
    "snapshot": 3,
    "release": 2,
    "restore": 1,
}
MAX_SNAPSHOTS = 3


def churn_ops(seed: int, sizes: dict[str, int], count: int, block_size: int):
    """The churn loop's operations, fixed by the seed.

    The generator tracks only object names, sizes and live snapshots —
    state no store outcome can change (a rejected update leaves both
    alone) — so the same seed always yields the same operations.
    """
    rng = random.Random(seed)
    live = dict(sizes)
    order = list(sizes)  # creation order: older objects are hotter
    snapshots: dict[int, dict[str, int]] = {}
    next_snapshot = 0
    puts = 0
    kinds = list(CHURN_MIX)
    weights = list(CHURN_MIX.values())
    samplers: dict[tuple[int, float], ZipfSampler] = {}

    def zipf_pick(names: list[str], exponent: float) -> str:
        key = (len(names), exponent)
        if key not in samplers:
            samplers[key] = ZipfSampler(len(names), exponent=exponent, rng=rng)
        return names[samplers[key].sample()]

    ops = []
    while len(ops) < count:
        kind = rng.choices(kinds, weights)[0]
        names = [name for name in order if name in live]
        if kind == "snapshot" and len(snapshots) >= MAX_SNAPSHOTS:
            kind = "release"
        if kind in ("release", "restore", "get_at") and not snapshots:
            kind = "snapshot"
        if kind == "delete" and len(names) <= 40:
            kind = "put"
        if kind == "get":
            name = zipf_pick(names, 1.1)
            offset, length = _churn_range(rng, live[name])
            ops.append(("get", name, offset, length, None))
        elif kind == "get_at":
            snap = rng.choice(sorted(snapshots))
            name = rng.choice(sorted(snapshots[snap]))
            offset, length = _churn_range(rng, snapshots[snap][name])
            ops.append(("get_at", name, offset, length, snap))
        elif kind == "update":
            # Small patches within an object's first block (its header).
            name = zipf_pick(names, 1.2)
            offset = rng.randrange(min(block_size, live[name]))
            length = rng.randint(1, min(48, live[name] - offset))
            ops.append(("update", name, offset, rng.randbytes(length), None))
        elif kind == "put":
            name = f"new-{puts:05d}"
            puts += 1
            size = block_size * rng.randint(0, 3) + rng.randint(1, block_size)
            live[name] = size
            order.append(name)
            ops.append(("put", name, 0, rng.randbytes(size), None))
        elif kind == "delete":
            name = rng.choice(names)
            del live[name]
            ops.append(("delete", name, 0, None, None))
        elif kind == "snapshot":
            snapshots[next_snapshot] = dict(live)
            ops.append(("snapshot", None, 0, None, next_snapshot))
            next_snapshot += 1
        elif kind == "release":
            snap = min(snapshots)
            del snapshots[snap]
            ops.append(("release", None, 0, None, snap))
        else:  # restore
            snap = rng.choice(sorted(snapshots))
            live = dict(snapshots[snap])
            ops.append(("restore", None, 0, None, snap))
    return ops


def _churn_range(rng: random.Random, size: int) -> tuple[int, int | None]:
    if rng.random() < 0.5:
        return 0, None
    offset = rng.randrange(size)
    return offset, rng.randint(1, size - offset)


def slot_exhausted(store: ObjectStore, name: str, offset: int, patch: bytes) -> bool:
    """Whether an update touches a block that has no free update slot.

    Read from the store's state, not from an error message: a touched
    block that no live snapshot shares is patched in place, which needs
    a free slot.  Called after a rejected update, which changes nothing.
    """
    volume = store.volume
    first = offset // volume.block_size
    last = (offset + len(patch) - 1) // volume.block_size
    for extent, block, _ in store.record(name).blocks_in_range(first, last):
        partition = volume.partition(extent.partition)
        if (
            volume.snapshot_references(extent.partition, block) == 0
            and partition.update_count(block) + 1 >= partition.config.slots_per_block
        ):
            return True
    return False


class StoreChurn:
    """One client calling ``ObjectStore`` directly in a closed loop.

    Eighty objects of 1-4 blocks (the hottest are the largest), then 4000
    operations of the :data:`CHURN_MIX`; at most three snapshots are
    live.  Updates are Zipf-hot small patches of an object's first block,
    so hot blocks run out of their three update slots between snapshots
    and the store rejects the update: a design limit the workload shows.
    Each put and update also encodes the strands of its synthesis order.
    Every get is charged one precise-PCR cycle and every write one
    synthesis order, both priced by the serving layer's own cost model.
    """

    name = "store_churn"
    objects = 80
    operations = 4000
    volume = VolumeConfig(partition_leaf_count=256, stripe_blocks=4, stripe_width=4)

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.block_size = DnaVolume(config=self.volume).block_size

    def setup(self):
        sizes = {
            f"obj-{i:03d}": self.block_size * (4 - i % 4) - 7 * (i % 3)
            for i in range(self.objects)
        }
        store, corpus = _build_store(self.volume, sizes, self.seed)
        ops = churn_ops(
            self.seed, {n: len(d) for n, d in corpus.items()}, self.operations,
            self.block_size,
        )
        return {"store": store, "corpus": corpus, "ops": ops}

    def run_pass(self, state) -> Pass:
        store: ObjectStore = state["store"]
        volume = store.volume
        # Prices each write's synthesis order as served requests are priced.
        pricing = ServicePipeline(store, config=CHARGES)
        snapshots = {}
        op_ms: list[float] = []
        log = []  # (op, result, rejected for a full update slot) for the check
        rejected = 0
        read_hours: list[float] = []
        write_hours: list[float] = []
        reads_charged = 0
        blocks_requested = 0
        nucleotides = 0
        user_bytes = 0
        for op in state["ops"]:
            kind, name, offset, arg, snap = op
            result = None
            # Per partition: [block slots, strands, nucleotides] to synthesize.
            jobs: dict[str, list[int]] = {}
            started = time.perf_counter()
            try:
                if kind == "get":
                    result = store.get(name, offset=offset, length=arg)
                elif kind == "get_at":
                    result = store.get(name, offset=offset, length=arg, at=snapshots[snap])
                elif kind == "update":
                    for partition_name, block in store.update_blocks(name, offset, arg):
                        partition = volume.partition(partition_name)
                        address = BlockAddress(
                            block=block, slot=partition.update_count(block)
                        )
                        molecules = partition.molecules_for_addresses([address])
                        job = jobs.setdefault(partition_name, [0, 0, 0])
                        job[0] += 1
                        job[1] += len(molecules)
                        job[2] += sum(len(molecule.to_strand()) for molecule in molecules)
                elif kind == "put":
                    record = store.put(name, arg)
                    for partition_name, molecules in volume.molecules_for_record(
                        record
                    ).items():
                        jobs[partition_name] = [
                            0,
                            len(molecules),
                            sum(len(molecule.to_strand()) for molecule in molecules),
                        ]
                    for extent in record.extents:
                        jobs[extent.partition][0] += extent.block_count
                elif kind == "delete":
                    store.delete(name)
                elif kind == "snapshot":
                    snapshots[snap] = store.snapshot()
                elif kind == "release":
                    snapshots.pop(snap).release()
                else:
                    store.restore(snapshots[snap])
            except DnaStorageError as exc:
                result = exc
                rejected += 1
            op_ms.append((time.perf_counter() - started) * 1000.0)
            slot_full = (
                kind == "update"
                and isinstance(result, (StoreError, UpdateError))
                and slot_exhausted(store, name, offset, arg)
            )
            log.append((op, result, slot_full))
            if kind in ("get", "get_at") and not isinstance(result, Exception):
                # Charge the get one precise-PCR cycle of its read plan.
                at = snapshots[snap] if kind == "get_at" else None
                plan = store.read_plan(name, offset=offset, length=arg, at=at)
                read_hours.append(
                    sum(
                        unit.wetlab_hours(
                            pcr_hours=CHARGES.pcr_hours,
                            sequencing_hours=CHARGES.sequencing_hours,
                            reads_per_block=CHARGES.reads_per_block,
                        )
                        for unit in plan_units(plan)
                    )
                )
                reads_charged += CHARGES.reads_per_block * plan.block_count
                last = offset + len(result) - 1
                blocks_requested += last // self.block_size - offset // self.block_size + 1
            if jobs:
                order = SynthesisOrder(
                    order_id=len(log),
                    jobs=tuple(
                        PartitionSynthesisJob(
                            partition=partition_name,
                            block_slots=block_slots,
                            strands=strand_count,
                            nucleotides=bases,
                        )
                        for partition_name, (block_slots, strand_count, bases) in jobs.items()
                    ),
                )
                write_hours.append(pricing._order_hours(order))
                nucleotides += order.nucleotide_count
                user_bytes += len(arg)
        for snapshot in snapshots.values():
            snapshot.release()
        sim_hours = sum(read_hours) + sum(write_hours)
        return Pass(
            ops=len(state["ops"]),
            wall_s=sum(op_ms) / 1000.0,
            outcome={
                "read_p50_sim_h": percentile(read_hours, 0.50),
                "read_p99_sim_h": percentile(read_hours, 0.99),
                "write_p99_sim_h": percentile(write_hours, 0.99),
                "seq_reads_per_block": reads_charged / blocks_requested,
                "nt_per_user_byte": nucleotides / user_bytes,
                "ok_ratio": 1.0 - rejected / len(state["ops"]),
                # One synchronous client has no offered rate to sweep: its
                # capacity is its operations per simulated hour charged.
                "sim_capacity_rph": len(state["ops"]) / sim_hours,
            },
            op_ms=op_ms,
            detail=log,
        )

    def check(self, state, result: Pass) -> list[str]:
        """Replay the log against a dict-of-bytes model with snapshot copies.

        Only updates may be rejected, with the store's typed error, and
        only for a block without a free update slot (the loop asks
        :func:`slot_exhausted` right after the rejection, which leaves the
        store unchanged); every other outcome must equal the model's.
        """
        live = dict(state["corpus"])
        snapshots: dict[int, dict[str, bytes]] = {}
        mismatches: list[str] = []
        for index, ((kind, name, offset, arg, snap), outcome, slot_full) in enumerate(
            result.detail
        ):
            if isinstance(outcome, Exception):
                if not slot_full:
                    mismatches.append(f"op {index} ({kind} {name!r}) raised: {outcome}")
                continue
            if kind in ("get", "get_at"):
                data = (live if kind == "get" else snapshots[snap])[name]
                end = None if arg is None else offset + arg
                if outcome != data[offset:end]:
                    mismatches.append(f"op {index} ({kind} {name!r}) read wrong bytes")
            elif kind == "update":
                old = live[name]
                live[name] = old[:offset] + arg + old[offset + len(arg) :]
            elif kind == "put":
                live[name] = arg
            elif kind == "delete":
                del live[name]
            elif kind == "snapshot":
                snapshots[snap] = dict(live)
            elif kind == "release":
                del snapshots[snap]
            else:
                live = dict(snapshots[snap])
        return mismatches


WORKLOADS = {
    workload.name: workload for workload in (ServeQosMixed, ServeWetlab, StoreChurn)
}
