"""The fast pair-comparison engine.

Candidate-pair comparison is the quadratic hot path of the whole
linkage stack. :class:`ParallelComparisonEngine` runs it as one loop
over two small seams; every combination preserves the output of the
naive per-pair path bit for bit.

* **Chunk scorer** — how a chunk of id pairs becomes a chunk value:
  :class:`_DictScorer` (pair by pair) or :class:`_ColumnarScorer`
  (vectorized, a chunk per call).
* **Chunk runner** — where a chunk is scored: inline, or by a
  :class:`_PoolRunner` keeping several chunks in flight on a
  :class:`~repro.resilience.workers.WorkerPool`.
* **The loop** —
  :class:`~repro.resilience.executor.ResilientChunkExecutor`, alone:
  chunks are awaited, validated, checkpointed, dead-lettered and
  consumed strictly in input order. ``resilience=None`` is its
  fail-fast configuration, not a second code path.

Records must be immutable after preparation (library records are
immutable by construction); a prepared record is only meaningful to
the comparator that produced it.
"""

from __future__ import annotations

import math
import os
from collections import Counter, OrderedDict, deque
from dataclasses import dataclass, field
from itertools import islice
from typing import Iterable, Iterator, Literal, Mapping, Sequence

from repro.core.errors import ConfigurationError
from repro.core.record import Record
from repro.linkage.classify.threshold import plain_threshold
from repro.linkage.comparison import (
    ComparisonVector,
    PreparedRecord,
    RecordComparator,
)
from repro.obs import NULL_TRACER, SCORE_BUCKETS
from repro.resilience import (
    ChunkResultInvalid,
    ChunkTimeoutError,
    DeadLetterLog,
    ResilienceConfig,
)
from repro.resilience.executor import ResilientChunkExecutor
from repro.resilience.workers import WorkerPool

__all__ = [
    "EngineRun",
    "ParallelComparisonEngine",
    "PreparedRecord",
    "prepare_records",
]

#: ``"sharded"`` is accepted by :func:`repro.linkage.resolve` (which
#: routes it to :mod:`repro.dist.runtime`); the engine itself executes
#: only ``"serial"`` and ``"process"``.
ExecutionMode = Literal["serial", "process", "sharded"]
Representation = Literal["dict", "columnar"]

IdPair = tuple[str, str]

# What ``resilience=None`` means: the same loop under a fail-fast
# config — one attempt, no retries, abort on the first failure with a
# ChunkExecutionError naming the chunk.
_CHECKPOINT_PASSTHROUGH = ResilienceConfig(failure="fail")


def prepare_records(
    comparator: RecordComparator, records: Iterable[Record]
) -> dict[str, PreparedRecord]:
    """Prepare every record once, keyed by record id."""
    return {
        record.record_id: comparator.prepare(record) for record in records
    }


@dataclass(frozen=True)
class EngineRun:
    """Everything one engine pass over a pair list produced.

    ``scored_edges`` lists ``(left_id, right_id, score)`` for matched
    pairs in input-pair order, with scores identical to full
    comparison. ``n_early_exit`` counts pairs the staged scorer
    decided without evaluating every field (0 for non-threshold
    classifiers, which always score fully).

    The last fields carry the run's fault-tolerance outcome: the
    dead-letter log of quarantined work and the quarantined pairs
    themselves (empty unless ``failure="skip"`` let the run survive
    failures), and the ``completed_chunks``/``n_chunks`` split —
    partial-result semantics for such runs, equal on every clean one.
    ``replayed_chunks`` counts chunks restored from a checkpoint store
    instead of recomputed (0 for fresh runs and without a store).
    """

    match_pairs: set[frozenset[str]]
    scored_edges: list[tuple[str, str, float]]
    n_pairs: int
    n_early_exit: int
    execution: str
    n_workers: int
    dead_letters: DeadLetterLog = field(default_factory=DeadLetterLog)
    quarantined_pairs: tuple[IdPair, ...] = ()
    completed_chunks: int = 0
    n_chunks: int = 0
    representation: str = "dict"
    replayed_chunks: int = 0


# The executor validates every attempt's result: a wrong shape — a
# worker that OOMed mid-pickle, a fault injector returning garbage —
# becomes a retryable failure instead of silent corruption downstream.


def _validate_score_result(pairs: list[IdPair], value) -> None:
    if (
        not isinstance(value, tuple)
        or len(value) != 2
        or not isinstance(value[0], list)
        or len(value[0]) != len(pairs)
        or not isinstance(value[1], dict)
    ):
        raise ChunkResultInvalid(
            f"score chunk of {len(pairs)} pairs returned {value!r:.80}"
        )


def _validate_match_result(pairs: list[IdPair], value) -> None:
    if (
        not isinstance(value, tuple)
        or len(value) != 3
        or not isinstance(value[0], list)
        or len(value[0]) > len(pairs)
        or not isinstance(value[1], int)
        or not isinstance(value[2], dict)
    ):
        raise ChunkResultInvalid(
            f"match chunk of {len(pairs)} pairs returned {value!r:.80}"
        )


def _chunk_records(
    by_id: Mapping[str, Record], pairs: list[IdPair]
) -> dict[str, Record]:
    """Exactly the records ``pairs`` references."""
    records: dict[str, Record] = {}
    for left, right in pairs:
        if left not in records:
            records[left] = by_id[left]
        if right not in records:
            records[right] = by_id[right]
    return records


class _ChunkScorer:
    """The scorer seam: ``score(pairs, threshold)`` returns the chunk's
    value — ``(vectors, stats)`` when ``threshold`` is None,
    ``(matches, n_early, stats)`` for staged threshold matching. Both
    scorers produce both shapes, so checkpointed chunks interchange
    between representations. ``stats`` is a plain dict of whatever the
    scorer counts — the degenerate form of the obs collection protocol
    (:meth:`repro.obs.MetricsRegistry.merge_counters`); the loop sums
    them key by key, agnostic of which.

    ``budget`` is the :class:`repro.outofcore.MemoryBudget` a serial
    out-of-core run charges; ``measure`` asks for byte sizes (a live
    tracer wants them, and they are not free); ``stream`` says the
    corpus may not fit in memory at once. Scorers pickle — a pool's
    workers are started with one — so they hold no tracer.
    """

    def __init__(
        self,
        comparator: RecordComparator,
        by_id: Mapping[str, Record],
        budget=None,
        measure: bool = False,
        stream: bool = False,
    ) -> None:
        self.comparator = comparator
        self.measure = measure
        self._by_id = by_id
        self._budget = budget
        self._stream = stream

    def close(self) -> None:
        """Release whatever is still charged to the budget."""


class _DictScorer(_ChunkScorer):
    """Scores a chunk pair by pair over lazily prepared records
    (normalized, tokenized, measurements parsed — once per record);
    a plain threshold gets the staged scorer, which stops as soon as a
    pair provably cannot reach, or fall below, it.

    It is also the one prepared-record cache: unbounded without a
    budget, and indexed directly by the scoring loop. With one, entries
    are charged (a small multiple of the raw record payload) and
    evicted least-recently-used when an insert would exceed it; the
    loop then indexes the scorer itself, so a record evicted mid-chunk
    is prepared again rather than missed.
    """

    #: What every chunk's stats count (a run of no chunks reports zeros).
    counters = ("engine.prepared_cache_hits", "engine.prepared_cache_misses")

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._cache: OrderedDict[str, PreparedRecord] = OrderedDict()
        self._costs: dict[str, int] = {}
        self._misses = 0
        self._nbytes = 0

    def score(self, pairs: list[IdPair], threshold: float | None) -> tuple:
        comparator = self.comparator
        misses, nbytes = self._misses, self._nbytes
        prepared: Mapping[str, PreparedRecord] = self
        if self._budget is None:
            # Fill first and index the dict itself in the hot loop: a
            # Python-level lookup per pair side costs ~10% of a run.
            prepared = self._cache
            for left, right in pairs:
                if left not in prepared:
                    self._prepare(left)
                if right not in prepared:
                    self._prepare(right)
        if threshold is None:
            vectors = [
                comparator.compare_prepared(prepared[left], prepared[right])
                for left, right in pairs
            ]
            head: tuple = (vectors,)
        else:
            matches: list[tuple[str, str, float]] = []
            n_early = 0
            decide = comparator.decide
            for left, right in pairs:
                is_match, score, exact, __ = decide(
                    prepared[left], prepared[right], threshold
                )
                if not exact:
                    n_early += 1
                if is_match:
                    matches.append((left, right, score))
            head = (matches, n_early)
        # Each pair performs two cache lookups; every lookup that did
        # not prepare a record was a hit.
        misses = self._misses - misses
        stats = {
            "engine.prepared_cache_misses": misses,
            "engine.prepared_cache_hits": 2 * len(pairs) - misses,
        }
        if self.measure:
            stats["engine.prepared_bytes"] = self._nbytes - nbytes
        return (*head, stats)

    def __getitem__(self, record_id: str) -> PreparedRecord:
        prepared = self._cache.get(record_id)
        if prepared is None:
            return self._prepare(record_id)
        self._cache.move_to_end(record_id)
        return prepared

    def _prepare(self, record_id: str) -> PreparedRecord:
        self._misses += 1
        record = self._by_id[record_id]
        prepared = self.comparator.prepare(record)
        budget = self._budget
        cost = 0
        if budget is not None or self.measure:
            # The estimate walks every attribute of the record, so an
            # untraced unbounded run skips it.
            from repro.outofcore.budget import (
                PREPARED_RECORD_FACTOR,
                record_nbytes,
            )

            cost = PREPARED_RECORD_FACTOR * record_nbytes(record)
        if budget is not None:
            while self._cache and budget.would_exceed(cost):
                evicted, __ = self._cache.popitem(last=False)
                budget.remove(self._costs.pop(evicted))
            if budget.would_exceed(cost):
                # Another component holds the remaining budget; serve
                # the prepared record uncached rather than exceed it.
                return prepared
            budget.add(cost)
            self._costs[record_id] = cost
        self._cache[record_id] = prepared
        self._nbytes += cost
        return prepared

    def close(self) -> None:
        for cost in self._costs.values():
            self._budget.remove(cost)


class _ColumnarScorer(_ChunkScorer):
    """Scores a chunk per call through the :mod:`repro.columnar` kernels:
    prepared records packed into per-field numpy columns, a vectorized
    early-exit mask, the scalar path only for the pairs surviving it.

    The corpus is columnarized once, up front; the block travels to
    pool workers inside the scorer (interned columns are far smaller
    than the record list the dict scorer carries). Under ``stream``
    each chunk instead gets a block over just the records it
    references, charged to the budget for the chunk's lifetime and,
    like the bounded prepared cache, never past the limit: a chunk
    whose block would exceed the remaining budget is scored in halves
    until each sub-block fits (pairs score independently, so the
    concatenated results are bit-identical). Only a single pair whose
    own block exceeds the budget is charged past the limit, mirroring
    the dict cache's one-resident-record floor. ``block_bytes`` is the
    size of the latest block built here.
    """

    counters = _DictScorer.counters + (
        "columnar.pairs_vectorized",
        "columnar.pairs_residual",
    )

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._block = None
        self.block_bytes = 0
        if not self._stream:
            from repro.columnar import build_block

            self._block = build_block(self.comparator, self._by_id.values())
            if self.measure:
                self.block_bytes = self._block.nbytes

    def score(self, pairs: list[IdPair], threshold: float | None) -> tuple:
        from repro.columnar import build_block, match_id_pairs, score_id_pairs
        from repro.outofcore.budget import columnar_block_nbytes

        block = self._block
        budget = self._budget
        cost = 0
        if block is None:
            records = _chunk_records(self._by_id, pairs)
            block = build_block(self.comparator, records)
            cost = self.block_bytes = columnar_block_nbytes(block)
            if (
                budget is not None
                and len(pairs) > 1
                and budget.would_exceed(cost)
            ):
                mid = len(pairs) // 2
                *first, stats = self.score(pairs[:mid], threshold)
                *second, more = self.score(pairs[mid:], threshold)
                stats = Counter(stats)
                stats.update(more)
                return (*(a + b for a, b in zip(first, second)), dict(stats))
        if budget is not None:
            budget.add(cost)
        try:
            if threshold is None:
                return score_id_pairs(block, pairs)
            return match_id_pairs(block, pairs, threshold)
        finally:
            if budget is not None:
                budget.remove(cost)


_WORKER: dict = {}


def _worker_init(scorer: _ChunkScorer) -> None:
    """Pool initializer: a worker keeps the scorer it started with (a
    dict scorer's cache then fills lazily, once per worker)."""
    _WORKER["scorer"] = scorer


def _score_chunk(pairs: list[IdPair], threshold, records) -> tuple:
    """The worker-side function: score one chunk with the pool's
    scorer — or, when the chunk's records came with it, with one of the
    same kind over those alone, so worker residency stays bounded by
    chunk size however long the stream runs."""
    scorer = _WORKER["scorer"]
    if records is not None:
        scorer = type(scorer)(scorer.comparator, records, None, scorer.measure)
    return scorer.score(pairs, threshold)


class _PoolRunner:
    """Scores chunks on a worker pool, several in flight, in order.

    :meth:`feed` passes the chunks through to the executor while
    holding a window on them: the chunk the executor has plus up to
    ``n_workers`` upcoming ones. Whenever the executor runs a top-level
    chunk, whatever in the window is not yet submitted is submitted, so
    workers stay busy while results are still awaited — and validated,
    checkpointed, consumed — strictly in input order. Submission starts
    at the first chunk the executor actually runs, so a
    checkpoint-replayed prefix is never re-scored, and a stream is read
    at most ``n_workers`` chunks ahead. Workers hold the corpus from
    pool start, unless ``ship_from`` names the mapping each chunk's
    records are read from to travel with it.

    The pool is the mechanism; this class only orders and charges. A
    chunk that outlasts its timeout loses its worker and is charged a
    :class:`~repro.resilience.ChunkTimeoutError`; one whose worker died
    is charged the pool's :class:`~repro.resilience.WorkerDied` when
    its turn comes. Every other chunk in flight keeps its worker and
    its answer, and retries and bisection corner the culprit.
    """

    def __init__(self, scorer, n_workers: int, threshold, ship_from) -> None:
        self._pool = WorkerPool(n_workers, _worker_init, (scorer,))
        self._threshold = threshold
        self._ship_from = ship_from
        self._lookahead = n_workers
        # [chunk, its job or None]; the head is the executor's chunk.
        self._window: deque[list] = deque()

    def feed(self, chunks: Iterable[list[IdPair]]) -> Iterator[list[IdPair]]:
        source = iter(chunks)
        window = self._window
        while True:
            for chunk in islice(source, 1 + self._lookahead - len(window)):
                window.append([chunk, None])
            if not window:
                return
            yield window[0][0]
            window.popleft()

    def run(self, pairs: list[IdPair], timeout: float | None) -> tuple:
        """One attempt at ``pairs`` (the executor's ``run_attempt``)."""
        window = self._window
        if window and pairs == window[0][0]:
            for slot in window:
                if slot[1] is None:
                    slot[1] = self._submit(slot[0])
            job, window[0][1] = window[0][1], None
        else:
            job = self._submit(pairs)  # part of a bisected chunk
        try:
            return self._pool.result(job, timeout)
        except TimeoutError:
            raise ChunkTimeoutError(timeout) from None

    def _submit(self, pairs: list[IdPair]) -> int:
        records = None
        if self._ship_from is not None:
            records = _chunk_records(self._ship_from, pairs)
        return self._pool.submit(_score_chunk, pairs, self._threshold, records)

    def close(self) -> None:
        """End of the run, clean or aborted: chunks still in flight are
        chunks nobody wants, so their workers are killed, not awaited."""
        self._pool.close()


class ParallelComparisonEngine:
    """Executes pair comparisons with prepared records, early exit, and
    an optional multiprocess backend.

    Every call — plain, resilient, checkpointed, streamed; serial or
    process; dict or columnar — runs the same chunked loop, so a
    failing chunk always surfaces the same way: under the default
    fail-fast policy, a :class:`~repro.resilience.ChunkExecutionError`
    naming the chunk, with the comparator's (or worker's) own exception
    as its ``__cause__``. ``comparator``, ``execution``,
    ``representation``, ``n_workers`` and ``resilience`` are readable
    as attributes; ``dead_letters`` is the most recent call's
    :class:`~repro.resilience.DeadLetterLog` (also on the
    :class:`EngineRun`; the attribute serves :meth:`compare_pairs`).

    Parameters
    ----------
    comparator:
        The comparison rules; picklable for ``execution="process"``
        (the built-in comparators are).
    execution:
        ``"serial"`` runs in-process; ``"process"`` fans chunks out over
        ``n_workers`` OS processes (default: CPU count).
    representation:
        ``"dict"`` (the default) scores pairs one at a time over
        prepared records; ``"columnar"`` packs them into a
        :class:`repro.columnar.ColumnarBlock` and scores whole chunks
        per call. Every combination with ``execution``, streaming,
        resilience, and checkpointing produces bit-identical output,
        and chunk checkpoints interchange between representations.
    chunk_size:
        Maximum pairs per chunk; the engine shrinks chunks when the
        pair list is small so every worker gets work.
    tracer:
        An :class:`repro.obs.Tracer` to record spans and counters into
        (pairs compared, early exits, prepared-cache hits, matched-score
        histogram, chunk counts). Defaults to the no-op
        :data:`repro.obs.NULL_TRACER` (overhead below bench noise).
    resilience:
        A :class:`~repro.resilience.ResilienceConfig` to survive worker
        failures: crashed, hung, or garbage-returning chunks are
        retried with backoff, bisected down to the poison pair, and —
        under ``failure="skip"`` — quarantined into the dead-letter
        log rather than aborting the run. ``None`` (the default) means
        ``ResilienceConfig(failure="fail")``: the same loop, one
        attempt per chunk, abort on the first failure.
    checkpoint:
        A checkpoint store (a :class:`repro.recovery.RunStore`, a view
        of one, or a directory path to open one at). Completed chunks
        are durably saved as they finish, and a rerun of the same
        workload against the same store resumes after the last one.
    """

    def __init__(
        self,
        comparator: RecordComparator,
        execution: ExecutionMode = "serial",
        n_workers: int | None = None,
        chunk_size: int = 2048,
        tracer=None,
        resilience: ResilienceConfig | None = None,
        checkpoint=None,
        representation: Representation = "dict",
    ) -> None:
        if execution not in ("serial", "process"):
            raise ConfigurationError(f"unknown execution mode {execution!r}")
        if representation not in ("dict", "columnar"):
            raise ConfigurationError(
                f"unknown representation {representation!r}"
            )
        if n_workers is not None and n_workers < 1:
            raise ConfigurationError("n_workers must be >= 1")
        if chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        if resilience is not None and not isinstance(
            resilience, ResilienceConfig
        ):
            raise ConfigurationError(
                "resilience must be a ResilienceConfig or None"
            )
        self.comparator = comparator
        self.execution: ExecutionMode = execution
        self.representation: Representation = representation
        self.n_workers = n_workers or os.cpu_count() or 1
        self.resilience = resilience
        self.dead_letters: DeadLetterLog | None = None
        self._chunk_size = chunk_size
        self._tracer = tracer if tracer is not None else NULL_TRACER
        if isinstance(checkpoint, (str, os.PathLike)):
            from repro.recovery import RunStore

            checkpoint = RunStore(checkpoint)
        self._checkpoint = checkpoint

    def _chunks(self, pairs: list[IdPair]) -> list[list[IdPair]]:
        """The list feed: cut so that every worker gets work — serial
        runs too, since chunk indexes name checkpoints and so must not
        depend on the execution mode."""
        size = max(
            1,
            min(
                self._chunk_size,
                math.ceil(len(pairs) / max(1, self.n_workers)),
            ),
        )
        return [pairs[i : i + size] for i in range(0, len(pairs), size)]

    def _stream_chunks(
        self, pairs: Iterator[IdPair]
    ) -> Iterator[list[IdPair]]:
        """The stream feed: ``chunk_size`` pairs at a time, never a list."""
        while chunk := list(islice(pairs, self._chunk_size)):
            yield chunk

    def compare_pairs(
        self,
        records: Sequence[Record] | Mapping[str, Record],
        pairs: Sequence[IdPair],
    ) -> list[ComparisonVector]:
        """Full comparison vectors for ``pairs``, in input order.

        Byte-identical to calling
        :meth:`RecordComparator.compare` per pair, at prepared-record
        speed; chunk results reassemble in order under either backend.
        Pairs quarantined under ``failure="skip"`` are absent (see
        ``dead_letters``).
        """
        vectors: list[ComparisonVector] = []
        self._run(records, pairs, None, vectors)
        return vectors

    def match_pairs(
        self,
        records: Sequence[Record] | Mapping[str, Record],
        pairs: Sequence[IdPair],
        classifier,
    ) -> EngineRun:
        """Classify every pair, skipping provably-decided work.

        When ``classifier`` is a plain ``ThresholdClassifier``
        (:func:`plain_threshold`) the staged early-exit scorer decides
        most non-matches after the cheap fields; matches are always
        scored fully, so ``scored_edges`` carries exact scores. Other
        classifiers, subclasses included, get full vectors and their
        own ``is_match``.
        """
        return self._run(records, pairs, classifier)

    def match_pairs_stream(
        self,
        records: Sequence[Record] | Mapping[str, Record],
        pairs: Iterable[IdPair],
        classifier,
        budget=None,
    ) -> EngineRun:
        """Classify a lazily produced pair stream with bounded memory.

        ``pairs`` may be any iterable — typically the sorted-unique
        merge off a spill (:class:`repro.outofcore.ExternalPairDeduper`)
        — consumed once, chunked lazily, never materialized as a list.
        Output is identical to :meth:`match_pairs` over the same pairs
        in the same order. ``records`` is usually a lazy mapping
        (:class:`repro.outofcore.IndexedRecordStore`); the serial
        backend holds prepared records in an LRU (or one columnar block
        per chunk) charged to ``budget`` (a
        :class:`repro.outofcore.MemoryBudget`, optional), the process
        backend ships each chunk's records with the chunk. Chunks
        checkpoint by index and content signature as in
        :meth:`match_pairs`, so a killed streamed run resumes mid-stream.
        """
        return self._run(records, pairs, classifier, None, True, budget)

    def _run(
        self,
        records: Sequence[Record] | Mapping[str, Record],
        pairs: Iterable[IdPair],
        classifier,
        vectors: list[ComparisonVector] | None = None,
        stream: bool = False,
        budget=None,
    ) -> EngineRun:
        """The one loop: chunk feed → runner → resilient executor →
        ``consume``, which sees every chunk value in input order.

        Full comparison vectors are collected into ``vectors`` when
        given; otherwise pairs are classified. Everything a run reports
        is published here, whatever it ran on; counters are touched
        even when zero, so an empty pair list reports zeros.
        """
        tracer = self._tracer
        matching = vectors is None
        by_id = records
        if not isinstance(records, Mapping):
            by_id = {record.record_id: record for record in records}
        if stream:  # pairs naming unknown ids are dropped, as naive loops do
            chunks = self._stream_chunks(
                (a, b) for a, b in pairs if a in by_id and b in by_id
            )
        else:
            chunks = self._chunks(
                [(a, b) for a, b in pairs if a in by_id and b in by_id]
            )
        threshold = plain_threshold(classifier)
        columnar = self.representation == "columnar"
        Scorer = _ColumnarScorer if columnar else _DictScorer
        measure = tracer is not NULL_TRACER
        if self.execution == "serial":
            scorer = Scorer(self.comparator, by_id, budget, measure, stream)
            feed = iter
            close = scorer.close

            def run_attempt(pairs: list[IdPair], timeout) -> tuple:
                return scorer.score(pairs, threshold)
        else:
            # Workers sent each chunk's records start with none
            # resident; this process's memory budget is not theirs.
            resident = {} if stream else by_id
            scorer = Scorer(self.comparator, resident, None, measure, stream)
            pool = _PoolRunner(
                scorer, self.n_workers, threshold, by_id if stream else None
            )
            feed, run_attempt, close = pool.feed, pool.run, pool.close
        # Score chunks and match chunks carry differently-shaped values,
        # so they checkpoint under distinct prefixes — a store reused
        # across both operations never replays one shape into the other.
        kind, validate = "match", _validate_match_result
        if threshold is None:
            kind, validate = "score", _validate_score_result
        checkpoint = self._checkpoint
        if checkpoint is not None:
            checkpoint = checkpoint.sub(kind)
        executor = ResilientChunkExecutor(
            self.resilience or _CHECKPOINT_PASSTHROUGH,
            tracer=tracer,
            scope="engine.chunk",
            checkpoint=checkpoint,
        )
        match_pairs: set[frozenset[str]] = set()
        scored_edges: list[tuple[str, str, float]] = []
        n_pairs = n_early = 0
        folded = Counter(dict.fromkeys(scorer.counters, 0))

        def consume(pairs: list[IdPair], value: tuple) -> None:
            nonlocal n_pairs, n_early
            n_pairs += len(pairs)
            folded.update(value[-1])  # sums, key by key
            if not matching:
                vectors.extend(value[0])
                return
            if threshold is not None:
                edges = value[0]
                n_early += value[1]
            else:
                edges = [
                    (vector.left_id, vector.right_id, vector.score)
                    for vector in value[0]
                    if classifier.is_match(vector)
                ]
            for left, right, __ in edges:
                match_pairs.add(frozenset((left, right)))
            scored_edges.extend(edges)

        with tracer.span(
            "engine.match_pairs" if matching else "engine.compare_pairs",
            execution=self.execution,
            n_workers=self.n_workers,
            streaming=stream,
        ) as span:
            try:
                outcome = executor.run_stream(
                    feed(chunks), run_attempt, validate, consume
                )
            finally:
                close()
            self.dead_letters = outcome.dead_letters
            # Every pair fed was consumed or quarantined.
            n_pairs += len(outcome.quarantined_items)
            tracer.gauge("engine.chunks_done").set(outcome.n_chunks)
            tracer.gauge("engine.prepared_bytes").set(
                folded.pop("engine.prepared_bytes", 0)
            )
            if columnar:
                tracer.gauge("columnar.block_bytes").set(scorer.block_bytes)
            tracer.counter("engine.pairs_total").inc(n_pairs)
            tracer.counter("engine.chunks").inc(outcome.n_chunks)
            for key, value in folded.items():
                tracer.counter(key).inc(value)
            span.set("n_pairs", n_pairs)
            if matching:
                tracer.counter("engine.pairs_matched").inc(len(scored_edges))
                tracer.counter("engine.pairs_early_exit").inc(n_early)
                tracer.histogram(
                    "engine.match_score", SCORE_BUCKETS
                ).observe_many(score for __, __, score in scored_edges)
                span.set("n_matched", len(scored_edges))
                span.set("n_early_exit", n_early)
                rate = round(n_early / n_pairs, 4) if n_pairs else 0.0
                span.set("early_exit_rate", rate)
        return EngineRun(
            match_pairs,
            scored_edges,
            n_pairs,
            n_early,
            self.execution,
            self.n_workers,
            dead_letters=outcome.dead_letters,
            quarantined_pairs=outcome.quarantined_items,
            completed_chunks=outcome.completed_chunks,
            n_chunks=outcome.n_chunks,
            representation=self.representation,
            replayed_chunks=outcome.replayed_chunks,
        )
