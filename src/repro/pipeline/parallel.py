"""Process-parallel decode engine: multi-worker readout decoding.

One wetlab cycle produces independent per-partition read batches (the
concatenated reads of the cycle's :class:`~repro.wetlab.readout.ReadoutUnit`
s, in access order), and decoding a batch — clustering, trace
reconstruction, Reed-Solomon — is pure CPU work on immutable inputs.  The
:class:`DecodeEngine` fans those batches out to a pool of worker
processes:

* **Determinism.**  A task carries everything its decode depends on (the
  pickled partition, the reads, the target blocks, the decoder options),
  tasks never share state, and results are collected in submission order —
  so the decoded bytes, per-block reports and failure strings are
  byte-identical for *any* worker count, including the inline ``workers=1``
  path.  Sequencing randomness is seeded per readout unit upstream, so
  worker scheduling cannot perturb it either.
* **Worker resolution.**  An explicit ``workers`` argument wins, then the
  ``REPRO_DECODE_WORKERS`` environment variable, then the CPU count.
  ``workers=1`` decodes inline with no pool and no pickling — today's
  serial path.
* **Payload transport.**  Every task and stage task travels to its
  worker as an ordinary pickle over the executor pipe, and its result
  comes back the same way.
* **Intra-partition staging.**  With ``REPRO_CLUSTER_SHARDS`` > 1 a
  multi-worker engine decomposes each readout into *stage tasks* —
  cluster shards (:func:`repro.pipeline.clustering.cluster_shard`),
  consensus batches
  (:func:`repro.pipeline.consensus.split_consensus_batches`) and the
  batched syndrome solve — scheduled by a :class:`StageProfile` (EWMA
  seconds-per-unit fed back from workers), so a hot partition's cluster
  shards interleave with other partitions' consensus work instead of
  head-of-line blocking one worker.  Results are byte-identical either
  way because the stage pieces are exactly the serial path's phases.
* **Robustness.**  A broken pool (a worker killed mid-cycle) falls back to
  decoding the remaining tasks inline rather than failing the cycle.

Workers report their per-stage wall-clock (cluster / consensus /
syndrome+solve) with each result; the engine folds those into the
caller's active :mod:`~repro.observability.stages` collector, so
benchmarks see one stage breakdown whatever the worker count.

Lane scheduling (wetlab time,
:class:`repro.service.scheduler_qos.SharedLanePool`) and worker
scheduling (compute time, this module) stay separate axes: the first
decides when simulated chemistry finishes, the second how fast the host
decodes the resulting reads.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass, field
from multiprocessing import get_all_start_methods, get_context
from typing import TYPE_CHECKING, Sequence

from repro import envflags
from repro.exceptions import DecodingError
from repro.observability.stages import collect_stages, record_stages, stage
from repro.observability.tracing import (
    Tracer,
    activate,
    current_tracer,
    maybe_wall_span,
    wall_now,
    worker_track,
)
from repro.pipeline.clustering import (
    DEFAULT_MAX_READ_DISTANCE,
    DEFAULT_MAX_SIGNATURE_ERRORS,
    DEFAULT_MIN_KMER_SIMILARITY,
    ClusterShard,
    ReadCluster,
    build_shard_payloads,
    merge_shard_clusters,
    resolve_cluster_shards,
    route_reads,
)
from repro.pipeline.consensus import split_consensus_batches

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.partition import Partition
    from repro.pipeline.decoder import (
        BlockDecoder,
        DecodeReport,
        ReadoutCandidates,
        ReadoutPlan,
        RoutedReads,
    )
    from repro.pipeline.distance import DistanceBackend

_WORKERS_ENV = "REPRO_DECODE_WORKERS"

#: A syndrome solve predicted to run at least this long goes to a worker;
#: cheaper solves run inline in the parent, where the submission +
#: pickling round-trip would cost more than the solve itself.  An
#: unprofiled solve goes to a worker once so the profile learns its rate.
_REMOTE_SOLVE_MIN_SECONDS = 0.05

#: Stage-collector name per staged-task kind (the solve kind feeds the
#: ``syndrome_solve`` stage the serial decoder reports).
_STAGE_OF_KIND = {
    "cluster": "cluster",
    "consensus": "consensus",
    "solve": "syndrome_solve",
}

#: The only type names allowed to cross the worker-process boundary —
#: :class:`DecodeTask` fields and the :func:`_run_task` /
#: :func:`_run_stage_task` signatures may reference nothing outside this
#: set (reprolint rule RL008).  Every non-builtin
#: entry must pickle deterministically: ``Partition`` carries its geometry
#: by value and its ``GaloisField`` resolves through ``GaloisField.cached``
#: (``__reduce__``), so workers share one per-process table source instead
#: of re-deriving exp/log tables per task.
PICKLE_BOUNDARY_TYPES = frozenset(
    {
        "Partition",
        "DecodeReport",
        "Span",
        "Sequence",
        "bool",
        "bytes",
        "dict",
        "float",
        "int",
        "list",
        "str",
        "tuple",
        "None",
    }
)


def resolve_worker_count(workers: int | None = None) -> int:
    """The effective worker count: argument, then env, then CPU count."""
    if workers is None:
        raw = envflags.read(_WORKERS_ENV).strip()
        if raw:
            try:
                workers = int(raw)
            except ValueError:
                raise DecodingError(
                    f"{_WORKERS_ENV} must be an integer, got {raw!r}"
                ) from None
        else:
            workers = os.cpu_count() or 1
    if workers < 1:
        raise DecodingError("decode worker count must be >= 1")
    return workers


@dataclass(frozen=True)
class DecodeTask:
    """One partition readout to decode.

    Attributes:
        partition: the partition whose blocks the reads encode (pickled to
            the worker; it carries primers, layout and ECC geometry).
        reads: raw sequencing reads of the partition's readout units,
            concatenated in access order.
        blocks: target block numbers (``None`` = every written block).
        decoder_options: forwarded to
            :class:`~repro.pipeline.decoder.BlockDecoder`.
        label: display name used on trace spans (conventionally the
            partition's name; diagnostics only, never affects decoding).
    """

    partition: "Partition"
    reads: list[str]
    blocks: list[int] | None = None
    decoder_options: dict = field(default_factory=dict)
    label: str = ""


def _observed(execute, trace: bool | None, span: str, **attributes) -> tuple:
    """Run ``execute()`` collecting its stage seconds and worker spans.

    ``trace`` selects the span-propagation mode: ``None`` leaves the
    ambient tracer alone (the inline path — spans land directly in the
    caller's tracer), ``True`` runs under a fresh local tracer, inside one
    ``span`` on the worker's track, whose spans are returned for the
    parent to adopt (a worker of a traced run), and ``False`` explicitly
    sheds any tracer inherited across a ``fork`` (a worker of an untraced
    run).  Returns ``(result, stages, seconds, spans)``.
    """
    tracer = Tracer() if trace else None
    scope = activate(tracer) if trace is not None else nullcontext()
    begin = wall_now()
    with scope, collect_stages() as stages:
        if tracer is None:
            result = execute()
        else:
            with tracer.wall_span(span, track=worker_track(), **attributes):
                result = execute()
    spans = tracer.spans if tracer is not None else []
    return result, dict(stages), wall_now() - begin, spans


def _run_task(
    partition: "Partition",
    blocks: list[int] | None,
    decoder_options: dict,
    reads: list[str],
    trace: bool | None = None,
    label: str = "",
) -> tuple["dict[int, DecodeReport]", dict[str, float], float, list]:
    """Decode one task (worker entry point; also the inline path's core).

    Returns ``(reports, stages, seconds, spans)``; ``trace`` is the
    span-propagation mode of :func:`_observed`.
    """
    from repro.pipeline.decoder import BlockDecoder

    def decode() -> "dict[int, DecodeReport]":
        decoder = BlockDecoder(partition, **decoder_options)
        return decoder.decode_readout(reads, blocks)

    return _observed(
        decode,
        trace,
        f"decode:{label or 'task'}",
        blocks=len(blocks) if blocks is not None else None,
        reads=len(reads),
    )


def _run_stage_task(
    kind: str,
    payload: tuple,
    options: dict,
    trace: bool | None = None,
    label: str = "",
) -> tuple:
    """Run one decode stage (worker entry point of the staged engine).

    ``kind`` selects the stage: ``"cluster"`` agglomerates one clustering
    shard (payload ``(reads, buckets)``), ``"consensus"`` reconstructs a
    batch of cluster strands (payload ``(groups, length)``), ``"solve"``
    batch-decodes encoding units (payload ``(partition, units)``).
    Returns ``(result, stages, seconds, spans)``; ``trace`` is the
    span-propagation mode of :func:`_observed`.
    """
    stage_name = _STAGE_OF_KIND.get(kind)
    if stage_name is None:
        raise DecodingError(f"unknown decode stage kind {kind!r}")

    def execute():
        with stage(stage_name):
            if kind == "cluster":
                from repro.pipeline.clustering import cluster_shard

                return cluster_shard(*payload, **options)
            if kind == "consensus":
                from repro.pipeline.consensus import consensus_batch

                return consensus_batch(*payload, backend=options.get("backend"))
            from repro.pipeline.decoder import try_decode_units_batch

            return try_decode_units_batch(*payload)

    return _observed(execute, trace, f"{kind}:{label or 'stage'}", kind=kind)


class StageProfile:
    """EWMA seconds-per-unit per decode stage, fed back from workers.

    Units are stage-appropriate sizes (reads for clustering and
    consensus, encoding units for solves); the staged scheduler uses the
    predictions to submit the longest stage tasks first and to keep
    trivially small solves inline.  Predictions only shape *scheduling
    order*, never results, so a cold or wildly wrong profile still
    decodes byte-identically.
    """

    #: Weight of the newest observation (higher = adapts faster).
    alpha = 0.4

    def __init__(self) -> None:
        self._rates: dict[str, float] = {}

    def observe(self, stage_name: str, units: int, seconds: float) -> None:
        """Fold one completed stage task into the profile."""
        if seconds < 0.0:
            return
        rate = seconds / max(1, units)
        previous = self._rates.get(stage_name)
        if previous is None:
            self._rates[stage_name] = rate
        else:
            self._rates[stage_name] = previous + (rate - previous) * self.alpha

    def predict(self, stage_name: str, units: int) -> float | None:
        """Predicted seconds for ``units`` of a stage (None = no data yet)."""
        rate = self._rates.get(stage_name)
        if rate is None:
            return None
        return rate * max(1, units)

    def snapshot(self) -> dict[str, float]:
        """The current per-stage seconds-per-unit rates (diagnostics)."""
        return dict(self._rates)


@dataclass
class _StageSubmission:
    """One stage task queued for a submission wave."""

    task_index: int
    kind: str
    position: int
    units: int
    payload: tuple
    options: dict
    label: str


@dataclass
class _StagedTask:
    """Parent-side state of one :class:`DecodeTask` in the staged engine."""

    index: int
    task: DecodeTask
    decoder: "BlockDecoder"
    plan: "ReadoutPlan | None" = None
    routed: "RoutedReads | None" = None
    payloads: list[ClusterShard] = field(default_factory=list)
    shard_outputs: list = field(default_factory=list)
    shards_remaining: int = 0
    clusters: list[ReadCluster] = field(default_factory=list)
    strand_parts: list = field(default_factory=list)
    batches_remaining: int = 0
    collected: "ReadoutCandidates | None" = None


class DecodeEngine:
    """A reusable pool of decode workers.

    Args:
        workers: worker processes (``None`` = ``REPRO_DECODE_WORKERS``,
            then CPU count; ``1`` decodes inline).
        cluster_shards: intra-partition clustering shard count (``None``
            = ``REPRO_CLUSTER_SHARDS``, then 1).  With shards > 1 a
            multi-worker engine decomposes readouts into profile-staged
            stage tasks; with one shard it decodes one pool task per
            partition.  Results are byte-identical at any shard count.
    """

    def __init__(
        self,
        workers: int | None = None,
        cluster_shards: int | None = None,
    ) -> None:
        self.workers = resolve_worker_count(workers)
        self.cluster_shards = resolve_cluster_shards(cluster_shards)
        self.profile = StageProfile()
        self._executor: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _pool(self) -> ProcessPoolExecutor:
        if self._executor is None:
            # Fork keeps worker startup cheap and inherits warm numpy /
            # Galois tables; platforms without it use their default.
            context = (
                get_context("fork")
                if "fork" in get_all_start_methods()
                else None
            )
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers, mp_context=context
            )
        return self._executor

    def shutdown(self) -> None:
        """Stop the worker processes (the engine can be reused after)."""
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(
        self, tasks: Sequence[DecodeTask]
    ) -> "list[dict[int, DecodeReport]]":
        """Decode every task, returning its per-block reports in task order.

        Results are byte-identical for any worker count and shard count,
        staged or not; stage timings are folded into the caller's active
        collector either way.
        """
        if not tasks:
            return []
        with maybe_wall_span(
            "decode_engine",
            tasks=len(tasks),
            workers=self.workers,
            shards=self.cluster_shards,
        ):
            if self.workers == 1:
                return [self._decode_inline(task) for task in tasks]
            if self.cluster_shards > 1:
                return self._decode_staged(tasks)
            return self._decode_pooled(tasks)

    def _task_options(self, task: DecodeTask) -> dict:
        """Decoder options with the engine's shard count folded in."""
        if self.cluster_shards <= 1 or "cluster_shards" in task.decoder_options:
            return task.decoder_options
        return {**task.decoder_options, "cluster_shards": self.cluster_shards}

    def _decode_inline(self, task: DecodeTask) -> "dict[int, DecodeReport]":
        with maybe_wall_span(
            f"decode:{task.label or 'task'}",
            blocks=len(task.blocks) if task.blocks is not None else None,
            reads=len(task.reads),
        ):
            reports, stages, _, _ = _run_task(
                task.partition, task.blocks, self._task_options(task), task.reads
            )
        record_stages(stages)
        return reports

    def _run_ordered(self, entry, calls: Sequence[tuple[tuple, str]]) -> list:
        """Run ``entry(*args, trace, label)`` per call on the pool, in order.

        Every call is submitted in order and collected in that same order,
        so results line up with ``calls`` deterministically.  Each
        result's stage seconds are recorded into the caller's collector
        and its spans adopted into the caller's tracer.  Returns one
        ``(result, seconds)`` per call, or ``None`` for a call a
        broken pool never finished — the caller runs those inline, and
        the next decode starts a fresh pool.
        """
        parent_tracer = current_tracer()
        # Workers on a ``fork`` context inherit the ambient tracer; send an
        # explicit flag so untraced runs shed it and traced runs record
        # into a fresh local tracer whose spans ride home with the result.
        trace_flag = parent_tracer is not None
        results: list = [None] * len(calls)
        futures: list[Future] = []
        broken = False
        pool = self._pool()
        for args, label in calls:
            try:
                futures.append(pool.submit(entry, *args, trace_flag, label))
            except (BrokenProcessPool, RuntimeError):
                broken = True
                break
        for index, future in enumerate(futures):
            try:
                result, stages, seconds, spans = future.result()
            except BrokenProcessPool:
                broken = True
                break
            record_stages(stages)
            if parent_tracer is not None and spans:
                parent_tracer.adopt(spans)
            results[index] = (result, seconds)
        if broken:
            # A dead pool must not fail the cycle.
            self.shutdown()
        return results

    def _decode_pooled(
        self, tasks: Sequence[DecodeTask]
    ) -> "list[dict[int, DecodeReport]]":
        results = self._run_ordered(
            _run_task,
            [
                (
                    (task.partition, task.blocks, self._task_options(task), task.reads),
                    task.label,
                )
                for task in tasks
            ],
        )
        return [
            result[0] if result is not None else self._decode_inline(task)
            for task, result in zip(tasks, results)
        ]

    # ------------------------------------------------------------------
    # Staged decoding (intra-partition parallelism)
    # ------------------------------------------------------------------
    def _submission_cost(self, submission: _StageSubmission) -> float:
        predicted = self.profile.predict(
            _STAGE_OF_KIND[submission.kind], submission.units
        )
        return predicted if predicted is not None else float(submission.units)

    def _decode_staged(
        self, tasks: Sequence[DecodeTask]
    ) -> "list[dict[int, DecodeReport]]":
        """Decode tasks as interleaved cluster/consensus/solve stage tasks.

        An event loop over ``concurrent.futures.wait``: each completed
        stage task advances its owning readout's state machine (route →
        shard clustering → merge → consensus batches → collect → solve →
        finish), and every wave of new stage tasks is submitted longest-
        predicted-first, so one partition's hot cluster shards interleave
        with other partitions' consensus and solve work.  Completed
        futures are processed in submission order (RL003: never in set
        order), which — together with per-task positions — keeps every
        merge deterministic.
        """
        from repro.pipeline.decoder import BlockDecoder

        shards = self.cluster_shards
        reports: "list[dict[int, DecodeReport] | None]" = [None] * len(tasks)
        parent_tracer = current_tracer()
        trace_flag = parent_tracer is not None
        broken = False
        # future -> (task_index, kind, position, units), in submission order
        waiting: dict[Future, tuple[int, str, int, int]] = {}
        states: list[_StagedTask] = []
        pool = self._pool()

        def flush(wave: list[_StageSubmission]) -> None:
            nonlocal broken
            if broken:
                return
            order = sorted(
                wave,
                key=lambda sub: (
                    -self._submission_cost(sub), sub.task_index, sub.position
                ),
            )
            for sub in order:
                try:
                    future = pool.submit(
                        _run_stage_task,
                        sub.kind,
                        sub.payload,
                        sub.options,
                        trace_flag,
                        sub.label,
                    )
                except (BrokenProcessPool, RuntimeError):
                    broken = True
                    return
                waiting[future] = (sub.task_index, sub.kind, sub.position, sub.units)

        wave: list[_StageSubmission] = []
        for index, task in enumerate(tasks):
            state = _StagedTask(
                index=index,
                task=task,
                decoder=BlockDecoder(task.partition, **task.decoder_options),
            )
            states.append(state)
            state.plan = state.decoder.readout_plan(task.reads, task.blocks)
            wave.extend(self._staged_route(state, shards, reports))
        flush(wave)

        while waiting and not broken:
            done, _ = wait(list(waiting), return_when=FIRST_COMPLETED)
            wave = []
            for future in [future for future in waiting if future in done]:
                task_index, kind, position, units = waiting.pop(future)
                try:
                    result, stages, seconds, spans = future.result()
                except BrokenProcessPool:
                    broken = True
                    break
                record_stages(stages)
                if parent_tracer is not None and spans:
                    parent_tracer.adopt(spans)
                self.profile.observe(_STAGE_OF_KIND[kind], units, seconds)
                wave.extend(
                    self._staged_advance(
                        states[task_index], kind, position, result, reports
                    )
                )
            flush(wave)
        if broken:
            self.shutdown()
        # Tasks interrupted by a broken pool decode inline from scratch —
        # partial stage results are discarded so the fallback is exactly
        # the serial path.
        return [
            task_reports
            if task_reports is not None
            else self._decode_inline(tasks[index])
            for index, task_reports in enumerate(reports)
        ]

    def _staged_route(
        self,
        state: _StagedTask,
        shards: int,
        reports: "list[dict[int, DecodeReport] | None]",
    ) -> list[_StageSubmission]:
        """Route one readout's reads (sequential phase 1) and shard it."""
        decoder = state.decoder
        signature_start, signature_length = decoder._signature_window()
        with stage("cluster"):
            state.routed = route_reads(
                state.plan.on_prefix,
                signature_start=signature_start,
                signature_length=signature_length,
                max_signature_errors=DEFAULT_MAX_SIGNATURE_ERRORS,
                distance_backend=decoder.distance_backend,
            )
            state.payloads = build_shard_payloads(
                state.plan.on_prefix, state.routed.bucket_reads, shards
            )
        if not state.payloads:
            state.shard_outputs = []
            return self._staged_after_cluster(state, reports)
        state.shard_outputs = [None] * len(state.payloads)
        state.shards_remaining = len(state.payloads)
        options = {
            "max_read_distance": decoder.max_read_distance,
            "min_kmer_similarity": DEFAULT_MIN_KMER_SIMILARITY,
            "distance_backend": decoder.distance_backend,
        }
        label = state.task.label or "task"
        return [
            _StageSubmission(
                task_index=state.index,
                kind="cluster",
                position=position,
                units=len(payload.reads),
                payload=(payload.reads, payload.buckets),
                options=options,
                label=f"{label}#{payload.shard}/{shards}",
            )
            for position, payload in enumerate(state.payloads)
        ]

    def _staged_advance(
        self,
        state: _StagedTask,
        kind: str,
        position: int,
        result,
        reports: "list[dict[int, DecodeReport] | None]",
    ) -> list[_StageSubmission]:
        """Fold one completed stage task; return the next submissions."""
        if kind == "cluster":
            state.shard_outputs[position] = result
            state.shards_remaining -= 1
            if state.shards_remaining:
                return []
            return self._staged_after_cluster(state, reports)
        if kind == "consensus":
            state.strand_parts[position] = result
            state.batches_remaining -= 1
            if state.batches_remaining:
                return []
            strands = [
                strand for part in state.strand_parts for strand in part
            ]
            return self._staged_after_consensus(state, strands, reports)
        self._staged_finish(state, result, reports)
        return []

    def _staged_after_cluster(
        self, state: _StagedTask, reports: "list[dict[int, DecodeReport] | None]"
    ) -> list[_StageSubmission]:
        """Merge shard outputs; fan the clusters out as consensus batches."""
        with stage("cluster"):
            state.clusters = merge_shard_clusters(
                state.routed, state.shard_outputs
            )
        groups = [cluster.reads for cluster in state.clusters]
        if not groups:
            return self._staged_after_consensus(state, [], reports)
        batches = split_consensus_batches(groups, self.cluster_shards)
        state.strand_parts = [None] * len(batches)
        state.batches_remaining = len(batches)
        length = state.decoder._layout.strand_length
        label = state.task.label or "task"
        return [
            _StageSubmission(
                task_index=state.index,
                kind="consensus",
                position=position,
                units=sum(len(group) for group in chunk),
                payload=(chunk, length),
                options={"backend": None},
                label=f"{label}[{position + 1}/{len(batches)}]",
            )
            for position, chunk in enumerate(batches)
        ]

    def _staged_after_consensus(
        self,
        state: _StagedTask,
        strands: list[str],
        reports: "list[dict[int, DecodeReport] | None]",
    ) -> list[_StageSubmission]:
        """Collect candidates; solve remotely only when predictably big."""
        state.collected = state.decoder.collect_readout(
            state.plan, state.clusters, strands
        )
        units = state.collected.batch_units
        predicted = self.profile.predict("syndrome_solve", len(units))
        if units and (
            predicted is None or predicted >= _REMOTE_SOLVE_MIN_SECONDS
        ):
            return [
                _StageSubmission(
                    task_index=state.index,
                    kind="solve",
                    position=0,
                    units=len(units),
                    payload=(state.task.partition, units),
                    options={},
                    label=state.task.label or "task",
                )
            ]

        from repro.pipeline.decoder import try_decode_units_batch

        begin = wall_now()
        with stage("syndrome_solve"):
            decoded_units = try_decode_units_batch(state.task.partition, units)
        self.profile.observe(
            "syndrome_solve", max(1, len(units)), wall_now() - begin
        )
        self._staged_finish(state, decoded_units, reports)
        return []

    def _staged_finish(
        self,
        state: _StagedTask,
        decoded_units: dict,
        reports: "list[dict[int, DecodeReport] | None]",
    ) -> None:
        """Assemble the task's reports (always in the parent)."""
        with stage("syndrome_solve"):
            reports[state.index] = state.decoder.finish_readout(
                state.plan, state.collected, decoded_units
            )

    # ------------------------------------------------------------------
    # Sharded clustering as a standalone service (benchmarks, callers
    # that want clusters rather than decoded blocks)
    # ------------------------------------------------------------------
    def cluster_sharded(
        self,
        reads: list[str],
        *,
        signature_start: int,
        signature_length: int,
        max_signature_errors: int = DEFAULT_MAX_SIGNATURE_ERRORS,
        max_read_distance: int = DEFAULT_MAX_READ_DISTANCE,
        min_kmer_similarity: float = DEFAULT_MIN_KMER_SIMILARITY,
        distance_backend: "str | DistanceBackend | None" = None,
        shards: int | None = None,
    ) -> tuple[list[ReadCluster], list[dict]]:
        """Cluster one read batch with shard agglomeration on the pool.

        Byte-identical to
        :func:`repro.pipeline.clustering.cluster_reads` at any shard and
        worker count (it drives the same route/shard/merge primitives).
        Returns ``(clusters, shard_stats)`` where ``shard_stats`` holds
        one ``{shard, buckets, reads, seconds}`` row per non-empty shard,
        in shard order — the per-shard cluster-stage breakdown the
        decoding benchmark publishes.
        """
        shard_count = (
            self.cluster_shards if shards is None else resolve_cluster_shards(shards)
        )
        with maybe_wall_span(
            "cluster_sharded", shards=shard_count, reads=len(reads)
        ):
            routed = route_reads(
                reads,
                signature_start=signature_start,
                signature_length=signature_length,
                max_signature_errors=max_signature_errors,
                distance_backend=distance_backend,
            )
            payloads = build_shard_payloads(
                reads, routed.bucket_reads, shard_count
            )
            options = {
                "max_read_distance": max_read_distance,
                "min_kmer_similarity": min_kmer_similarity,
                "distance_backend": distance_backend,
            }
            calls = [
                (
                    ("cluster", (payload.reads, payload.buckets), options),
                    f"shard#{payload.shard}/{shard_count}",
                )
                for payload in payloads
            ]
            results = (
                self._run_ordered(_run_stage_task, calls)
                if self.workers > 1 and len(payloads) > 1
                else [None] * len(payloads)
            )
            outputs: list = []
            stats: list[dict] = []
            for payload, (args, _), pooled in zip(payloads, calls, results):
                # Inline whatever never ran (workers == 1, a single
                # payload, or a pool that broke mid-batch).
                if pooled is None:
                    result, stages, seconds, _ = _run_stage_task(*args)
                    record_stages(stages)
                else:
                    result, seconds = pooled
                self.profile.observe("cluster", len(payload.reads), seconds)
                outputs.append(result)
                stats.append(
                    {
                        "shard": payload.shard,
                        "buckets": len(payload.buckets),
                        "reads": len(payload.reads),
                        "seconds": seconds,
                    }
                )
            return merge_shard_clusters(routed, outputs), stats


# ----------------------------------------------------------------------
# Shared engines
# ----------------------------------------------------------------------
_shared_engines: dict[tuple[int, int], DecodeEngine] = {}


def shared_engine(
    workers: int | None = None,
    _retired: None = None,
    cluster_shards: int | None = None,
) -> DecodeEngine:
    """A process-wide engine per resolved configuration.

    Worker pools are expensive to start, so every decode entry point
    (:meth:`ObjectStore.try_decode_blocks`, the serving pipeline) shares
    one engine per ``(workers, cluster_shards)`` resolution; the pools
    are torn down at interpreter exit.  Sharing also keeps the engine's
    :class:`StageProfile` warm across cycles.

    The second positional slot is retired: it selected a payload
    transport that no longer exists and must be ``None``.  It stays only
    so three-argument callers written against the old signature (the
    repository benchmark's ``perfbench/run.py``) resolve the same engine;
    pass ``cluster_shards`` by keyword.
    """
    if _retired is not None:
        raise TypeError(
            "shared_engine's second positional argument is retired; "
            "pass cluster_shards= by keyword"
        )
    key = (resolve_worker_count(workers), resolve_cluster_shards(cluster_shards))
    engine = _shared_engines.get(key)
    if engine is None:
        engine = DecodeEngine(workers=key[0], cluster_shards=key[1])
        _shared_engines[key] = engine
    return engine


@atexit.register
def _shutdown_shared_engines() -> None:  # pragma: no cover - exit hook
    for engine in _shared_engines.values():
        engine.shutdown()


__all__ = [
    "DecodeEngine",
    "DecodeTask",
    "StageProfile",
    "resolve_worker_count",
    "shared_engine",
]
