"""Fault-tolerance walkthrough: survive a poison pair, keep the run.

At web scale partial failure is the norm: one pathological record pair
can crash or hang a worker and, without a recovery layer, take the
whole linkage run down with it. This example injects exactly that
failure deterministically — a *poison pair* that crashes every attempt
it participates in — and shows the three ``failure`` policies side
by side:

- ``"retry"`` — transient faults are retried with exponential backoff
  and the output is byte-identical to a fault-free run;
- ``"skip"``  — persistent faults are bisected down to the poison pair
  and quarantined into a dead-letter log; the run completes with
  partial results instead of aborting;
- ``"fail"``  — the run aborts on the first failure, naming the chunk.

Everything is deterministic: the fault injector fires on declarative
rules, and backoff sleeps consume simulated time on a
:class:`~repro.obs.ManualClock` (``sleep=clock.advance``), so the
walkthrough runs instantly and identically every time.

Run:  python examples/resilience.py [--json PATH]
      (--json writes the dead-letter log artifact to PATH)
"""

import argparse

from repro.core import Record
from repro.linkage import (
    FieldComparator,
    ParallelComparisonEngine,
    RecordComparator,
    ThresholdClassifier,
)
from repro.obs import ManualClock, Tracer
from repro.resilience import (
    ChunkExecutionError,
    ResilienceConfig,
    RetryPolicy,
)
from repro.resilience.testing import FaultInjector, crash


def build_workload():
    """Eight records (two per entity) and all 28 unordered pairs."""
    records = [
        Record(
            f"r{i}", f"s{i % 2}",
            {"name": f"canon powershot {i // 2}", "brand": "canon"},
        )
        for i in range(8)
    ]
    ids = [record.record_id for record in records]
    pairs = [
        (ids[i], ids[j])
        for i in range(len(ids))
        for j in range(i + 1, len(ids))
    ]
    return records, pairs


def comparator():
    from repro.text import exact_similarity

    return RecordComparator(
        fields=[
            FieldComparator("name", exact_similarity, weight=2.0),
            FieldComparator("brand", exact_similarity, weight=1.0),
        ]
    )


def engine(resilience=None, tracer=None):
    # chunk_size=7 → four chunks of seven pairs.
    return ParallelComparisonEngine(
        comparator(), n_workers=1, chunk_size=7,
        tracer=tracer, resilience=resilience,
    )


def config(failure, poison):
    """A fully deterministic resilience config: the poison pair crashes
    every chunk (and every bisected sub-chunk) that contains it."""
    clock = ManualClock(tick=0.0)
    return ResilienceConfig(
        retry=RetryPolicy(max_attempts=3, base_delay=1.0, multiplier=2.0),
        failure=failure,
        clock=clock,
        sleep=clock.advance,
        fault_injector=FaultInjector(crash(item=poison)),
    ), clock


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="also write the dead-letter log JSON artifact to PATH",
    )
    args = parser.parse_args()

    records, pairs = build_workload()
    classifier = ThresholdClassifier(0.9)
    poison = pairs[0]  # ("r0", "r1") — a true match, and a poison pair

    # 1. The fault-free baseline every recovery must be judged against.
    clean = engine().match_pairs(records, pairs, classifier)
    print(f"fault-free run:  {len(clean.match_pairs)} matches "
          f"from {clean.n_pairs} pairs")

    # 2. failure="retry" with a *transient* fault: chunk 0 crashes on
    #    its first attempt only, the retry succeeds, and the output is
    #    byte-identical to the baseline.
    clock = ManualClock(tick=0.0)
    transient = ResilienceConfig(
        retry=RetryPolicy(max_attempts=3, base_delay=1.0),
        failure="retry",
        clock=clock,
        sleep=clock.advance,
        fault_injector=FaultInjector(crash(chunk=0, attempts=1)),
    )
    run = engine(transient).match_pairs(records, pairs, classifier)
    assert run.match_pairs == clean.match_pairs
    assert run.scored_edges == clean.scored_edges
    print(f'failure="retry": transient crash retried after '
          f'{clock.now():.0f}s backoff — output identical')

    # 3. failure="skip" with a *persistent* poison pair: the crashing
    #    chunk is retried, bisected down to the single poison pair, and
    #    that pair alone is quarantined. 27 of 28 pairs survive.
    skip_config, clock = config("skip", poison)
    tracer = Tracer()
    run = engine(skip_config, tracer=tracer).match_pairs(
        records, pairs, classifier
    )
    assert run.quarantined_pairs == (poison,)
    assert run.match_pairs == clean.match_pairs - {frozenset(poison)}
    print(f'failure="skip":  poison pair {poison} isolated by bisection '
          f"and quarantined; {run.completed_chunks}/{run.n_chunks} chunks "
          f"clean, {len(run.match_pairs)} matches kept")

    # 4. The dead-letter log names exactly what was lost and why — the
    #    run report's resilience counters tell the recovery story.
    [entry] = run.dead_letters
    print(f"dead letter:     chunk {entry.chunk_id} ({entry.kind}) "
          f"after {entry.attempts} attempts: {entry.error}")
    counters = tracer.metrics.snapshot()["counters"]
    for name in (
        "resilience.attempts",
        "resilience.retries",
        "resilience.bisections",
        "resilience.backoff_seconds",
        "resilience.quarantined_items",
    ):
        print(f"  {name:35s} {counters[name]:g}")

    # 5. failure="fail" aborts on the first failure, naming the chunk.
    fail_config, __ = config("fail", poison)
    try:
        engine(fail_config).match_pairs(records, pairs, classifier)
    except ChunkExecutionError as error:
        print(f'failure="fail":  aborted — chunk {error.chunk_id} '
              f"({error.kind})")

    # 6. The machine view: the dead-letter log is a lossless JSON
    #    artifact (DeadLetterLog.from_json round-trips).
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(run.dead_letters.to_json())
        print(f"\nwrote dead-letter log JSON to {args.json}")


if __name__ == "__main__":
    main()
