"""Out-of-core walkthrough: resolve a corpus under a tiny memory budget.

The volume axis of big data integration eventually crosses the line
where the working set — blocking index, candidate pairs, prepared
records, claim groups — no longer fits in memory. ``repro.outofcore``
moves every one of those structures onto a spill-to-disk path whose
output is **byte-identical** to the in-memory run. This example shows
the whole surface:

1. A synthetic product corpus is written to JSONL and reopened as an
   :class:`~repro.outofcore.IndexedRecordStore` — record lookups seek
   into the file through a budget-bounded LRU instead of holding the
   corpus resident.
2. ``resolve(..., memory_budget=...)`` streams blocks through a
   spillable index, dedups candidate pairs with an external merge
   sort, and feeds the comparison engine chunk by chunk.
3. The full ``BDIPipeline.run(memory_budget=...)`` does the same end
   to end, including streamed claim grouping, AccuVote fusion and CRH
   numeric fusion of the measurement items over the spilled groups.
4. Every output is asserted equal to the unbounded in-memory run, and
   the budget's spill statistics (peak tracked bytes, spill count,
   spilled bytes) are printed and optionally written as a JSON
   artifact.

Run:  python examples/outofcore.py [--json PATH]
      (--json writes the spill-stats artifact to PATH)
"""

import argparse
import json
import sys
import tempfile
from pathlib import Path

from repro.core.pipeline import BDIPipeline, PipelineConfig
from repro.fusion import CRHNumericFuser
from repro.io import save_dataset
from repro.linkage import (
    ThresholdClassifier,
    TokenBlocker,
    default_product_comparator,
    resolve,
)
from repro.obs import Tracer
from repro.outofcore import IndexedRecordStore, MemoryBudget
from repro.synth import (
    CorpusConfig,
    WorldConfig,
    generate_dataset,
    generate_world,
)

BUDGET = 32 * 1024  # 32 KiB of tracked bytes — far below the corpus.


def build_dataset():
    world = generate_world(WorldConfig(entities_per_category=20, seed=21))
    return generate_dataset(
        world, CorpusConfig(n_sources=6, seed=21)
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--json", type=Path, default=None,
        help="write the spill-stats artifact to this path",
    )
    args = parser.parse_args(argv)

    dataset = build_dataset()
    records = list(dataset.records())
    blocker = TokenBlocker(max_block_size=40)
    comparator = default_product_comparator()
    classifier = ThresholdClassifier(0.6)

    print(f"corpus: {len(records)} records from "
          f"{len(dataset.sources)} sources")
    print(f"budget: {BUDGET} tracked bytes")

    with tempfile.TemporaryDirectory(prefix="repro-outofcore-") as root:
        # 1. Records on disk, random access through a bounded cache.
        stem = Path(root) / "corpus"
        save_dataset(dataset, stem)
        budget = MemoryBudget(BUDGET)
        store = IndexedRecordStore(
            stem.with_suffix(".records.jsonl"), budget
        )
        print(f"indexed {len(store)} records "
              f"({store.path.stat().st_size} bytes on disk)")

        # 2. Streamed linkage vs the in-memory reference.
        reference = resolve(records, blocker, comparator, classifier)
        streamed = resolve(
            store, blocker, comparator, classifier,
            memory_budget=budget, spill_dir=Path(root) / "spill",
        )
        assert streamed.clusters == reference.clusters
        assert streamed.match_pairs == reference.match_pairs
        assert streamed.scored_edges == reference.scored_edges
        assert streamed.n_candidates == reference.n_candidates
        assert budget.peak <= BUDGET
        print(f"resolve: {streamed.n_clusters} clusters from "
              f"{streamed.n_candidates} candidate pairs — identical to "
              "the in-memory run")
        resolve_stats = budget.stats()
        print(f"  peak tracked: {resolve_stats['peak_tracked_bytes']} B, "
              f"spills: {resolve_stats['spill_count']} "
              f"({resolve_stats['spill_bytes']} B)")

        # 3. The full pipeline under the same budget.
        config = PipelineConfig(fusion="accuvote", numeric_fusion=True)
        base = BDIPipeline(config).run(dataset)
        n_numeric = len(CRHNumericFuser().fuse(base.claims).chosen)
        assert n_numeric > 0
        tracer = Tracer()
        result = BDIPipeline(config).run(
            dataset, tracer=tracer,
            memory_budget=BUDGET, spill_dir=Path(root) / "pipeline",
        )
        assert result.clusters == base.clusters
        assert dict(result.fusion.chosen) == dict(base.fusion.chosen)
        assert dict(result.fusion.confidence) == dict(base.fusion.confidence)
        assert result.entity_table == base.entity_table
        gauges = tracer.report().metrics.get("gauges", {})
        assert gauges["outofcore.peak_tracked_bytes"] <= BUDGET
        assert gauges["outofcore.spill_count"] > 0
        print(f"pipeline: {len(result.clusters)} entities, "
              f"{result.claims.n_claims} claims fused over "
              f"{result.fusion.iterations} AccuVote iterations, "
              f"{n_numeric} measurement items fused by CRH — identical "
              "to the in-memory run")
        pipeline_stats = {
            "peak_tracked_bytes": gauges["outofcore.peak_tracked_bytes"],
            "spill_count": gauges["outofcore.spill_count"],
            "spill_bytes": gauges["outofcore.spill_bytes"],
            "budget_limit_bytes": gauges["outofcore.budget_limit_bytes"],
        }
        print(f"  peak tracked: {pipeline_stats['peak_tracked_bytes']} B, "
              f"spills: {pipeline_stats['spill_count']} "
              f"({pipeline_stats['spill_bytes']} B)")

    if args.json is not None:
        artifact = {
            "budget_limit_bytes": BUDGET,
            "n_records": len(records),
            "resolve": resolve_stats,
            "pipeline": pipeline_stats,
        }
        args.json.write_text(json.dumps(artifact, indent=2) + "\n")
        print(f"spill-stats artifact -> {args.json}")

    print("OK: out-of-core output is byte-identical under a "
          f"{BUDGET}-byte budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
