"""E5 — Skew-aware distributed ER (Kolb, Thor & Rahm, ICDE'12).

Blocking over a Zipf world yields Zipf-sized blocks; quadratic
comparison cost concentrates in the few head blocks. Naive
one-block-per-reducer hashing therefore stops scaling almost
immediately, while BlockSplit and PairRange stay near-linear. Rows
report simulated makespan, speedup, and skew per reducer count.
"""

from __future__ import annotations

from bench_common import table

from repro.dist import ClusterCostModel, partition_blocks
from repro.linkage import StandardBlocker
from repro.linkage.blocking import NAME_ALIASES, first_token_key
from repro.synth import (
    CorpusConfig,
    WorldConfig,
    generate_dataset,
    generate_world,
)

REDUCERS = (1, 2, 4, 8, 16, 32, 64)


def skewed_blocks():
    world = generate_world(
        WorldConfig(
            categories=("camera",),
            entities_per_category=150,
            zipf_exponent=1.0,
            seed=3,
        )
    )
    dataset = generate_dataset(
        world,
        CorpusConfig(
            n_sources=14, min_source_size=10, max_source_size=250, seed=5
        ),
    )
    records = list(dataset.records())
    blocker = StandardBlocker(
        first_token_key("name", aliases=NAME_ALIASES)
    )
    return blocker.block(records)


def figure() -> str:
    blocks = skewed_blocks()
    model = ClusterCostModel(
        comparison_cost=1.0, task_overhead=2.0, startup=50.0
    )
    rows = []
    speedups: dict[tuple[str, int], float] = {}
    for strategy in ("naive", "blocksplit", "pairrange"):
        for n_reducers in REDUCERS:
            partition = partition_blocks(blocks, strategy, n_reducers)
            cost = model.evaluate(partition)
            rows.append(
                [
                    strategy,
                    n_reducers,
                    cost.makespan,
                    cost.speedup,
                    cost.skew,
                    cost.efficiency,
                ]
            )
            speedups[(strategy, n_reducers)] = cost.speedup
    assert speedups[("naive", 64)] < 0.5 * speedups[("blocksplit", 64)]
    assert speedups[("blocksplit", 16)] > 10
    assert speedups[("pairrange", 16)] > 10
    return table(
        "E5: distributed ER — makespan/speedup/skew by partitioning "
        f"strategy ({blocks.n_comparisons} comparisons, "
        f"{len(blocks)} blocks)",
        ["strategy", "reducers", "makespan", "speedup", "skew", "efficiency"],
        rows,
        note=(
            "Expected shape (Kolb et al.): naive plateaus under skew; "
            "BlockSplit/PairRange near-linear to high reducer counts."
        ),
    )
