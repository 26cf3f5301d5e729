"""Per-layer wall-clock self times of a traced run, recorded from outside.

:class:`LayerTrace` replaces public functions of the program's layers
with timing wrappers for the extent of a ``with`` block and restores them
after; the program's source is untouched.  Each wrapper records its
call's *self* time — its duration minus the part spent in other wrapped
calls it made — so the self times of one run partition the time spent
inside wrapped calls, and the run's wall time minus their sum is the
orchestration remainder (benchmark loop, model bookkeeping, unwrapped
glue).  Wrappers also take exact work counts at the same boundaries.

Decode workers are separate processes: their clustering, consensus and
Reed-Solomon time comes from the program's own stage collector
(:func:`repro.observability.stages.collect_stages`, which folds worker
time back) and is reported beside the self times, not inside their sum.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

from repro.codec.matrix_unit import EncodingUnit
from repro.codec.molecule import Molecule
from repro.core.partition import Partition
from repro.exceptions import StoreError, UpdateError
from repro.observability.stages import collect_stages
from repro.pipeline.parallel import DecodeEngine
from repro.service.cache import DecodedBlockCache
from repro.service.queue import BatchScheduler, RequestQueue
from repro.service.scheduler_qos import QoSAdmission, SharedLanePool
from repro.service.simulator import ServicePipeline
from repro.store import planner
from repro.store.object_store import ObjectStore
from repro.store.snapshots import StoreSnapshot
from repro.store.volume import DnaVolume
from repro.wetlab.readout import WetlabReadout
from repro.workloads import objects, service_traces
from workloads import slot_exhausted

#: The program's layers; a timed key belongs to its first dotted part.
LAYERS = ("workloads", "service", "store", "core", "codec", "wetlab", "pipeline")

class LayerTrace:
    """Self times and work counts of the wrapped calls made in a block.

    Args:
        names: the per-layer metric names to report; those no wrapped call
            touched read 0.
    """

    def __init__(self, names) -> None:
        self.names = list(names)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.stages: dict[str, float] = {}
        self.throttled_ids: set[int] = set()
        self.block_requests = 0  # per-request block needs of scheduled batches
        self.distinct_blocks = 0  # the same after cross-request dedup
        self.lane_waits: list[float] = []
        self.lane_busy = 0.0
        self.lane_count = 0
        self.lane_horizon: dict[int, float] = {}
        self._children: list[float] = []
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def __enter__(self) -> "LayerTrace":
        self._install()
        self._stage_scope = collect_stages()
        self.stages = self._stage_scope.__enter__()
        return self

    def __exit__(self, *exc) -> None:
        self._stage_scope.__exit__(*exc)
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def _wrap(self, owner, name: str, key: str, observe=None, on_error=None) -> None:
        """Time ``owner.name`` under ``key``.

        ``observe(args, kwargs, result)`` records counts after a call that
        returned, ``on_error(args, kwargs, exc)`` after one that raised.
        """
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        children = self._children
        self_s = self.self_s

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            started = perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(args, kwargs, exc)
                raise
            finally:
                elapsed = perf_counter() - started
                self_s[key] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
            if observe is not None:
                observe(args, kwargs, result)
            return result

        targets = [owner]
        if not isinstance(owner, type):
            # A module function may be bound by name in other modules.
            targets = [
                module
                for module_name, module in list(sys.modules.items())
                if (module_name.startswith("repro") or module_name == "workloads")
                and getattr(module, name, None) is original
            ]
        for target in targets:
            self._restore.append((target, name, original))
            setattr(target, name, wrapper)

    def _install(self) -> None:
        wrap = self._wrap
        wrap(service_traces, "multi_tenant_trace", "workloads.trace_gen_s")
        wrap(objects, "object_corpus", "workloads.trace_gen_s")

        wrap(ServicePipeline, "run", "service.run.self_s")
        wrap(QoSAdmission, "admit", "service.qos.admit_s", self._on_admit)
        wrap(RequestQueue, "take", "service.queue.take_s", self._on_take)
        wrap(RequestQueue, "peek_op", "service.queue.take_s", self._on_peek)
        wrap(BatchScheduler, "schedule", "service.sched.schedule_s", self._on_schedule)
        wrap(BatchScheduler, "schedule_writes", "service.sched.schedule_writes_s")
        wrap(SharedLanePool, "schedule", "service.lanes.schedule_s", self._on_lanes)
        for method in ("get", "contains", "put", "invalidate"):
            wrap(DecodedBlockCache, method, "service.cache.get_s")

        wrap(ObjectStore, "get", "store.get_s")
        wrap(ObjectStore, "put", "store.put_s")
        wrap(ObjectStore, "update_blocks", "store.update_s", on_error=self._on_update_error)
        wrap(ObjectStore, "snapshot", "store.snapshot_s", self._count("store.snapshot_calls"))
        wrap(ObjectStore, "restore", "store.restore_s")
        wrap(ObjectStore, "try_decode_blocks", "store.try_decode_blocks_s", self._on_decode)
        for method in ("delete", "block_ranges", "read_plan"):
            wrap(ObjectStore, method, "store.other_s")
        wrap(StoreSnapshot, "release", "store.other_s")
        wrap(DnaVolume, "molecules_for_record", "store.other_s")
        wrap(planner, "plan_partition_ranges", "store.other_s")

        wrap(Partition, "read_block_reference", "core.read_block_reference_s")
        wrap(Partition, "molecules_for_addresses", "core.molecules_s")
        for method in ("write", "update_block"):
            wrap(Partition, method, "core.other_s")
        wrap(EncodingUnit, "encode_batch", "codec.encode_s", self._on_encode)
        wrap(Molecule, "to_strand", "codec.to_strand_s")

        wrap(WetlabReadout, "partition_pool", "wetlab.pool_build_s")
        wrap(WetlabReadout, "unit_reads_by_partition", "wetlab.readout_s", self._on_readout)
        wrap(DecodeEngine, "decode", "pipeline.engine_decode_s", self._on_engine)

    # ------------------------------------------------------------------
    # Observers (exact work counts at the wrapped boundaries)
    # ------------------------------------------------------------------
    def _count(self, key: str):
        def observe(args, kwargs, result) -> None:
            self.counts[key] += 1

        return observe

    def _on_admit(self, args, kwargs, decision) -> None:
        pending = args[1]
        self.counts["service.qos.admit_calls"] += 1
        self.counts["service.qos.screened"] += len(pending)
        self.counts["service.qos.screen_events"] += len(decision.throttled) + len(
            decision.deferred
        )
        self.throttled_ids.update(request.request_id for request in decision.throttled)

    def _on_take(self, args, kwargs, taken) -> None:
        # take() scans the whole queue: what it returned plus what it kept.
        self.counts["service.queue.scanned"] += len(taken) + len(args[0])

    def _on_peek(self, args, kwargs, result) -> None:
        self.counts["service.queue.scanned"] += len(args[0])

    def _on_schedule(self, args, kwargs, batch) -> None:
        self.counts["service.sched.batches"] += 1
        by_request = kwargs.get("blocks_by_request") or {}
        self.block_requests += sum(
            len(by_request.get(request.request_id, ())) for request in batch.requests
        )
        self.distinct_blocks += len(batch.requested_blocks)

    def _on_lanes(self, args, kwargs, schedule) -> None:
        pool, now = args[0], args[1]
        self.lane_count = pool.lane_count
        for _, start, end in schedule:
            self.lane_waits.append(start - now)
            self.lane_busy += end - start
            self.lane_horizon[id(pool)] = max(self.lane_horizon.get(id(pool), 0.0), end)

    def _on_update_error(self, args, kwargs, exc: Exception) -> None:
        # A typed rejection whose touched block the store shows full.
        call = inspect.signature(ObjectStore.update_blocks).bind(*args, **kwargs).arguments
        if isinstance(exc, (StoreError, UpdateError)) and slot_exhausted(
            call["self"], call["name"], call["offset"], call["new_bytes"]
        ):
            self.counts["store.update_slot_exhausted"] += 1

    def _on_decode(self, args, kwargs, result) -> None:
        payloads, failures = result
        self.counts["pipeline.blocks_ok"] += len(payloads)
        self.counts["pipeline.blocks_failed"] += len(failures)

    def _on_encode(self, args, kwargs, result) -> None:
        self.counts["codec.encode_units"] += len(args[1])

    def _on_readout(self, args, kwargs, result) -> None:
        self.counts["wetlab.reads_sampled"] += sum(len(reads) for reads in result.values())

    def _on_engine(self, args, kwargs, result) -> None:
        self.counts["pipeline.reads_in"] += sum(len(task.reads) for task in args[1])

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        """Self times, counts and ratios of the traced block.

        Every name given at construction but the ``trace.*`` run figures
        is present (0 for layers the workload never called); the ``trace.*``
        figures and the cache figures are the caller's.
        """
        out = {name: 0.0 for name in self.names if not name.startswith("trace.")}
        out.update(self.self_s)
        out.update(self.counts)
        out["service.qos.throttled_requests"] = float(len(self.throttled_ids))
        out["service.sched.dedup_ratio"] = (
            self.block_requests / self.distinct_blocks if self.distinct_blocks else 0.0
        )
        horizon = sum(self.lane_horizon.values())
        out["service.lanes.utilization"] = (
            self.lane_busy / (self.lane_count * horizon) if horizon else 0.0
        )
        waits = sorted(self.lane_waits)
        out["service.lanes.queue_h_p99"] = (
            waits[min(len(waits) - 1, int(0.99 * len(waits)))] if waits else 0.0
        )
        ok = out.get("pipeline.blocks_ok", 0.0)
        failed = out.get("pipeline.blocks_failed", 0.0)
        out["pipeline.decode_ok_ratio"] = ok / (ok + failed) if ok + failed else 0.0
        out["pipeline.cluster_s"] = self.stages.get("cluster", 0.0)
        out["pipeline.consensus_s"] = self.stages.get("consensus", 0.0)
        out["pipeline.rs_solve_s"] = self.stages.get("syndrome_solve", 0.0)
        for layer in LAYERS:
            out[f"layer.{layer}_s"] = sum(
                seconds for key, seconds in self.self_s.items() if key.split(".")[0] == layer
            )
        return out

    def self_total(self) -> float:
        return sum(self.self_s.values())
