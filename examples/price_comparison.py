"""Price comparison: the classic motivating application, stage by stage.

A price-comparison engine needs exactly the pipeline this library
implements: discover which differently-named attributes mean the same
thing across shops, figure out which listings are the same product,
and reconcile the conflicting spec values the shops report. This
example drives each stage *explicitly* (rather than through
``BDIPipeline``) to show the intermediate artifacts a real application
would inspect.

Run:  python examples/price_comparison.py
"""

from repro.linkage import (
    ThresholdClassifier,
    TokenBlocker,
    default_product_comparator,
    detect_identifier_attributes,
    link_by_identifier,
    meta_block,
    resolve,
)
from repro.fusion import AccuVote, Claim, ClaimSet
from repro.quality import (
    bcubed_quality,
    blocking_quality,
    pairwise_cluster_quality,
    render_kv,
    render_table,
)
from repro.schema import build_mediated_schema, profile_attributes
from repro.synth import (
    CorpusConfig,
    WorldConfig,
    generate_dataset,
    generate_world,
)
from repro.text import canonical_value


def main() -> None:
    # A camera-shop world: 80 products, 14 shops, heavy heterogeneity.
    world = generate_world(
        WorldConfig(categories=("camera",), entities_per_category=80, seed=17)
    )
    dataset = generate_dataset(
        world,
        CorpusConfig(
            n_sources=14,
            dialect_noise=0.7,
            format_noise=0.5,
            typo_rate=0.04,
            error_rate=0.05,
            seed=18,
        ),
    )
    records = list(dataset.records())
    truth = dataset.ground_truth

    # --- Stage 1: schema alignment --------------------------------
    profiles = profile_attributes(dataset)
    schema = build_mediated_schema(dataset, threshold=0.6, profiles=profiles)
    print(render_kv(
        [
            ("source attributes", sum(len(m.members) for m in schema.attributes)),
            ("mediated attributes", len(schema)),
        ],
        title="stage 1 — schema alignment",
    ))
    biggest = max(schema.attributes, key=len)
    print(f"largest cluster: {biggest.name!r} ← "
          f"{sorted({a for _, a in biggest.members})[:6]} ...")

    # --- Stage 2: record linkage ----------------------------------
    blocks = TokenBlocker(max_block_size=60).block(records)
    candidates = meta_block(blocks, weight="cbs", pruning="wep")
    bq = blocking_quality(candidates, truth, len(records))
    result = resolve(
        records,
        TokenBlocker(max_block_size=60),
        default_product_comparator(),
        ThresholdClassifier(0.72),
        candidate_pairs=candidates,
    )
    # Fortify with identifier joins — shops publish SKUs for the
    # shopping engines, so use them.
    detections = detect_identifier_attributes(profiles)
    id_clusters = link_by_identifier(records, detections)
    from repro.linkage import connected_components
    from repro.quality import clusters_to_pairs

    clusters = connected_components(
        clusters_to_pairs(result.clusters) | clusters_to_pairs(id_clusters),
        [r.record_id for r in records],
    )
    lq = pairwise_cluster_quality(clusters, truth)
    b3 = bcubed_quality(clusters, truth)
    print()
    print(render_kv(
        [
            ("candidates after meta-blocking", len(candidates)),
            ("blocking pairs-completeness", round(bq.pairs_completeness, 3)),
            ("identifier attributes found", len(detections)),
            ("product clusters", len(clusters)),
            ("pairwise F1", round(lq.f1, 3)),
            ("B-cubed F1", round(b3.f1, 3)),
        ],
        title="stage 2 — record linkage",
    ))

    # --- Stage 3: data fusion -------------------------------------
    claims = ClaimSet()
    seen = set()
    for cluster in clusters:
        item_prefix = min(cluster)
        for record_id in cluster:
            record = dataset.record(record_id)
            for attribute, value in schema.translate(record).items():
                key = (record.source_id, f"{item_prefix}::{attribute}")
                if key in seen:
                    continue
                seen.add(key)
                claims.add(Claim(key[0], key[1], canonical_value(value)))
    fused = AccuVote(n_false_values=8).fuse(claims)
    ranked = sorted(
        fused.source_accuracy.items(), key=lambda kv: -kv[1]
    )
    print()
    print(render_kv(
        [
            ("data items fused", len(fused.chosen)),
            ("most trusted shop", f"{ranked[0][0]} ({ranked[0][1]:.2f})"),
            ("least trusted shop", f"{ranked[-1][0]} ({ranked[-1][1]:.2f})"),
        ],
        title="stage 3 — data fusion",
    ))

    # A spot-check: one product's reconciled spec sheet.
    cluster = max(clusters, key=len)
    item_prefix = min(cluster)
    rows = []
    for item, value in sorted(fused.chosen.items()):
        if item.startswith(item_prefix + "::"):
            attribute = item.split("::", 1)[1]
            rows.append([attribute, value, round(fused.confidence[item], 2)])
    print("\nreconciled spec sheet of the most-listed product "
          f"({len(cluster)} listings):")
    print(render_table(["attribute", "fused value", "confidence"], rows[:8]))


if __name__ == "__main__":
    main()
