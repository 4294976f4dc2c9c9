"""Evaluation metrics for every pipeline stage, plus report rendering."""

from repro import _lazy

_lazy.export(
    globals(),
    {
        "blocking": "BlockingQuality blocking_quality total_pairs",
        "clusters": (
            "BCubedQuality bcubed_quality clusters_to_pairs "
            "pairwise_cluster_quality"
        ),
        "corpus_stats": "AttributeTailStatistics attribute_tail_statistics",
        "fusion": (
            "CopyDetectionQuality copy_detection_quality estimation_rmse "
            "fusion_accuracy"
        ),
        "matching": "PairQuality as_pair_set pair_quality",
        "report": "format_cell render_kv render_table",
        "schema": (
            "attribute_cluster_quality correspondence_quality "
            "true_attribute_pairs"
        ),
    },
)
