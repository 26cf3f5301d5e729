"""Operation-agnostic request queue and batch scheduler.

One PCR access amplifies a whole block range regardless of how many
tenants asked for it (Section 3.1's prefix covers are shared physics, not
per-caller state).  The read side of the scheduler exploits that: all
reads that arrive within a scheduling window are coalesced, their
per-partition block ranges merged via
:func:`repro.store.planner.merge_partition_ranges` (overlap across
tenants collapses), blocks already in the decoded-block cache are
subtracted, and a single shared :class:`BatchReadPlan` is emitted for the
cycle.  The plan's reaction/primer/block counts are the wetlab bill the
whole batch splits.

The write side mirrors it: queued ``put``/``update``/``delete``
operations are applied to the store in admission order and coalesced into
one :class:`SynthesisOrder` per dispatch, whose per-partition
:class:`PartitionSynthesisJob` s size the strands (and nucleotides) the
vendor must manufacture — the synthesis bill the batch of writes splits,
charged latency the way read cycles are charged PCR + sequencing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.exceptions import DnaStorageError, ServiceError
from repro.service.cache import DecodedBlockCache
from repro.service.requests import ServiceRequest
from repro.store.object_store import ObjectStore
from repro.store.planner import BatchReadPlan, plan_partition_ranges


class RequestQueue:
    """FIFO admission queue of pending requests, any operation.

    ``drain_op``/``take`` remove selectively: the pipeline drains reads at
    each dispatch but leaves barrier-blocked writes queued for a later
    cycle.
    """

    def __init__(self) -> None:
        self._pending: list[ServiceRequest] = []

    def __len__(self) -> int:
        return len(self._pending)

    def push(self, request: ServiceRequest) -> None:
        """Admit one request at the tail of the queue."""
        self._pending.append(request)

    def drain_op(self, op: str) -> list[ServiceRequest]:
        """Remove and return the pending requests of one operation."""
        return self.take(lambda request: request.op == op)

    def peek_op(self, op: str) -> list[ServiceRequest]:
        """The pending requests of one operation, oldest first, *not* removed.

        The QoS admission engine inspects the queued reads with this
        before deciding which subset to :meth:`take`; everything else
        keeps its queue position.
        """
        return [request for request in self._pending if request.op == op]

    def take(self, predicate) -> list[ServiceRequest]:
        """Remove and return the requests matching ``predicate`` (in order).

        Non-matching requests keep their relative order in the queue.  The
        predicate is evaluated exactly once per request, oldest first, so
        stateful predicates (e.g. "skip every write behind a blocked one")
        behave deterministically.
        """
        taken: list[ServiceRequest] = []
        kept: list[ServiceRequest] = []
        for request in self._pending:
            (taken if predicate(request) else kept).append(request)
        self._pending = kept
        return taken


@dataclass(frozen=True)
class ScheduledBatch:
    """One scheduling cycle's merged wetlab read work.

    Attributes:
        batch_id: sequence number of the cycle.
        requests: the coalesced requests, in admission order.
        plan: the merged PCR plan covering every *uncached* block the
            batch needs (empty when the cache covers everything).
        requested_blocks: distinct ``(partition, block)`` keys the
            requests collectively asked for, in first-request order.
        pinned_payloads: key/payload pairs of the blocks found in the
            decoded-block cache at scheduling time, pinned so the batch's
            responses survive LRU evictions that happen while the cycle
            is in flight.
    """

    batch_id: int
    requests: tuple[ServiceRequest, ...]
    plan: BatchReadPlan
    requested_blocks: tuple[tuple[str, int], ...]
    pinned_payloads: tuple[tuple[tuple[str, int], bytes], ...] = ()

    @property
    def cached_blocks(self) -> tuple[tuple[str, int], ...]:
        """The blocks served from the cache at scheduling time."""
        return tuple(key for key, _ in self.pinned_payloads)

    @property
    def requested_block_count(self) -> int:
        """Distinct blocks wanted by the batch (after cross-tenant dedup)."""
        return len(self.requested_blocks)

    @property
    def amplified_block_count(self) -> int:
        """Blocks the merged plan actually amplifies."""
        return self.plan.block_count

    @property
    def reaction_count(self) -> int:
        """PCR reactions of the merged plan."""
        return self.plan.reaction_count


@dataclass(frozen=True)
class WriteOutcome:
    """How one queued write fared when its synthesis order was formed.

    Attributes:
        request: the originating write request.
        applied: whether the store accepted the operation.
        reason: rejection reason when ``applied`` is False.
        partitions: partitions whose pools the write touched (their
            wetlab pools must re-synthesize).
        block_slots: block version slots the write synthesizes (new
            originals for a ``put``, patch slots for an ``update``).
        bytes_written: payload bytes accepted.
    """

    request: ServiceRequest
    applied: bool
    reason: str | None = None
    partitions: tuple[str, ...] = ()
    block_slots: int = 0
    bytes_written: int = 0


@dataclass(frozen=True)
class PartitionSynthesisJob:
    """One partition's slice of a synthesis order.

    Vendors manufacture each partition's strands as an independent array
    job, so jobs of the same order run concurrently — the order is
    complete when its slowest job delivers.
    """

    partition: str
    block_slots: int
    strands: int
    nucleotides: int


@dataclass(frozen=True)
class SynthesisOrder:
    """One dispatch's coalesced write work.

    Attributes:
        order_id: sequence number (shared with read cycles' batch ids).
        outcomes: per-request application outcomes, admission order.
        jobs: per-partition synthesis jobs, first-touch order.
    """

    order_id: int
    outcomes: tuple[WriteOutcome, ...] = ()
    jobs: tuple[PartitionSynthesisJob, ...] = field(default=())

    @property
    def applied(self) -> tuple[WriteOutcome, ...]:
        """The outcomes the store accepted."""
        return tuple(outcome for outcome in self.outcomes if outcome.applied)

    @property
    def strand_count(self) -> int:
        """Strands the order synthesizes."""
        return sum(job.strands for job in self.jobs)

    @property
    def nucleotide_count(self) -> int:
        """Bases the order synthesizes."""
        return sum(job.nucleotides for job in self.jobs)

    @property
    def partitions(self) -> tuple[str, ...]:
        """Partitions whose pools the order rewrites."""
        return tuple(job.partition for job in self.jobs)


class BatchScheduler:
    """Coalesces concurrent requests into merged wetlab work per cycle.

    Reads become one deduplicated :class:`ScheduledBatch`; writes become
    one per-partition-coalesced :class:`SynthesisOrder`.
    """

    def __init__(self, store: ObjectStore) -> None:
        self.store = store

    def request_blocks(
        self, request: ServiceRequest, *, at=None
    ) -> list[tuple[str, int]]:
        """The ``(partition, block)`` keys backing one request's range.

        Args:
            at: optional :class:`repro.store.snapshots.StoreSnapshot` for
                time-travel reads — the range is resolved against the
                snapshot's catalog.  Blocks unchanged since the capture
                keep their live keys, so historical and current requests
                coalesce into the same PCR accesses.
        """
        ranges = self.store.block_ranges(
            request.object_name, offset=request.offset, length=request.length, at=at
        )
        return [
            (partition, block)
            for partition, spans in ranges.items()
            for start, end in spans
            for block in range(start, end + 1)
        ]

    def schedule(
        self,
        requests: list[ServiceRequest],
        *,
        cache: DecodedBlockCache | None = None,
        batch_id: int = 0,
        blocks_by_request: dict[int, list[tuple[str, int]]] | None = None,
    ) -> ScheduledBatch:
        """Merge a cycle's read requests into one deduplicated wetlab plan.

        Args:
            blocks_by_request: optional precomputed block keys per
                ``request_id`` (the simulator computes them once at
                admission); missing entries are resolved here.

        Raises:
            ServiceError: if the cycle contains no requests or contains a
                write (writes go through :meth:`schedule_writes`).
        """
        if not requests:
            raise ServiceError("cannot schedule an empty batch")
        if any(request.is_write for request in requests):
            raise ServiceError(
                "write operations are scheduled as synthesis orders, "
                "not read batches"
            )
        # Dicts (not sets) keep every derived ordering deterministic
        # across processes regardless of string-hash randomization.
        requested: dict[tuple[str, int], None] = {}
        for request in requests:
            keys = None
            if blocks_by_request is not None:
                keys = blocks_by_request.get(request.request_id)
            if keys is None:
                keys = self.request_blocks(request)
            for key in keys:
                requested.setdefault(key, None)
        pinned: dict[tuple[str, int], bytes] = {}
        missing: dict[str, list[tuple[int, int]]] = {}
        volume = self.store.volume
        for partition, block in requested:
            # Cache keys carry the block's birth epoch so entries from an
            # earlier store generation (pre-restore) can never be served.
            epoch = volume.block_epoch(partition, block)
            if cache is not None and cache.contains(partition, block, epoch):
                # One counted hit per distinct block (misses are counted
                # at serve time, when the fill happens); the payload is
                # pinned so in-flight evictions cannot unserve the batch.
                pinned[(partition, block)] = cache.get(partition, block, epoch)
            else:
                missing.setdefault(partition, []).append((block, block))
        plan = plan_partition_ranges(
            self.store.volume,
            missing,  # per-partition ranges are merged by the planner
            label=f"batch-{batch_id:05d}",
        )
        return ScheduledBatch(
            batch_id=batch_id,
            requests=tuple(requests),
            plan=plan,
            requested_blocks=tuple(requested),
            pinned_payloads=tuple(pinned.items()),
        )

    def schedule_writes(
        self,
        requests: list[ServiceRequest],
        *,
        order_id: int = 0,
    ) -> SynthesisOrder:
        """Apply a cycle's writes and coalesce them into one synthesis order.

        Operations are applied to the store *digitally* here, in admission
        order — that is what sizes the order exactly (a ``put``'s striped
        extents, an ``update``'s actually-patched blocks) — but callers
        acknowledge the writes only when the order's synthesis latency has
        been charged.  A request the store rejects (duplicate name,
        exhausted update slots, range outside the object) fails alone: its
        outcome records the reason and every other write still applies.

        Raises:
            ServiceError: if the cycle is empty or contains a non-write.
        """
        if not requests:
            raise ServiceError("cannot schedule an empty synthesis order")
        if any(not request.is_write for request in requests):
            raise ServiceError("schedule_writes only accepts write operations")
        volume = self.store.volume
        outcomes: list[WriteOutcome] = []
        slots_by_partition: dict[str, int] = {}
        for request in requests:
            try:
                if request.op == "put":
                    record = self.store.put(request.object_name, request.payload)
                    touched: dict[str, int] = {}
                    for extent in record.extents:
                        touched[extent.partition] = (
                            touched.get(extent.partition, 0) + extent.block_count
                        )
                    bytes_written = len(request.payload)
                elif request.op == "update":
                    patched = self.store.update_blocks(
                        request.object_name, request.offset, request.payload
                    )
                    touched = {}
                    for partition_name, _ in patched:
                        touched[partition_name] = touched.get(partition_name, 0) + 1
                    bytes_written = len(request.payload)
                else:  # delete: catalog drop, no new strands
                    self.store.delete(request.object_name)
                    touched = {}
                    bytes_written = 0
            except DnaStorageError as exc:
                outcomes.append(
                    WriteOutcome(request=request, applied=False, reason=str(exc))
                )
                continue
            for partition_name, slots in touched.items():
                slots_by_partition[partition_name] = (
                    slots_by_partition.get(partition_name, 0) + slots
                )
            outcomes.append(
                WriteOutcome(
                    request=request,
                    applied=True,
                    partitions=tuple(touched),
                    block_slots=sum(touched.values()),
                    bytes_written=bytes_written,
                )
            )
        jobs = []
        for partition_name, slots in slots_by_partition.items():
            strands, nucleotides = volume.synthesis_footprint(slots)
            jobs.append(
                PartitionSynthesisJob(
                    partition=partition_name,
                    block_slots=slots,
                    strands=strands,
                    nucleotides=nucleotides,
                )
            )
        return SynthesisOrder(
            order_id=order_id, outcomes=tuple(outcomes), jobs=tuple(jobs)
        )
