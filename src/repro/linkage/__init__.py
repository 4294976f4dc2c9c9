"""Record linkage: blocking, meta-blocking, comparison, classification,
clustering, identifier/incremental/temporal linkage."""

from repro import _lazy

_lazy.export(
    globals(),
    {
        "active": "ActiveThresholdLearner LabeledPair noisy_oracle",
        "blocking": (
            "Block BlockCollection Blocker CanopyBlocker CompositeBlocker "
            "KeyBlocker KeyFunction MinHashBlocker QGramBlocker "
            "SortedNeighborhoodBlocker StandardBlocker SuffixArrayBlocker "
            "TokenBlocker"
        ),
        "classify": (
            "FellegiSunterModel MatchDecision MatchRule RuleBasedClassifier "
            "ThresholdClassifier fit_fellegi_sunter plain_threshold rule_for"
        ),
        "clustering": (
            "center_clustering connected_components merge_center_clustering"
        ),
        "comparison": (
            "BoundedComparison ComparisonVector FieldComparator "
            "PreparedRecord RecordComparator default_product_comparator"
        ),
        "engine": "EngineRun ParallelComparisonEngine Representation",
        "identifier": (
            "IdentifierDetection detect_identifier_attributes "
            "link_by_identifier normalize_identifier"
        ),
        "incremental": "BatchStats IncrementalLinker ProbeResult",
        "metablocking": "BlockingGraph build_blocking_graph meta_block",
        "progressive": (
            "ProgressivePoint order_candidates progressive_resolution_curve"
        ),
        "resolver": "LinkageResult MatchClassifier resolve",
        "temporal": "TemporalField TemporalMatcher link_temporal_stream",
    },
)
