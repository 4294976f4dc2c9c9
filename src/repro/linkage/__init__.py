"""Record linkage: blocking, meta-blocking, comparison, classification,
clustering, identifier/incremental/temporal linkage."""

from repro.linkage.active import (
    ActiveThresholdLearner,
    LabeledPair,
    noisy_oracle,
)
from repro.linkage.blocking import (
    Block,
    MinHashBlocker,
    BlockCollection,
    Blocker,
    CanopyBlocker,
    CompositeBlocker,
    KeyBlocker,
    KeyFunction,
    QGramBlocker,
    SortedNeighborhoodBlocker,
    StandardBlocker,
    SuffixArrayBlocker,
    TokenBlocker,
)
from repro.linkage.classify import (
    FellegiSunterModel,
    MatchDecision,
    MatchRule,
    RuleBasedClassifier,
    ThresholdClassifier,
    fit_fellegi_sunter,
    plain_threshold,
    rule_for,
)
from repro.linkage.clustering import (
    center_clustering,
    connected_components,
    merge_center_clustering,
)
from repro.linkage.comparison import (
    BoundedComparison,
    ComparisonVector,
    FieldComparator,
    PreparedRecord,
    RecordComparator,
    default_product_comparator,
)
from repro.linkage.engine import (
    EngineRun,
    ParallelComparisonEngine,
    Representation,
    prepare_records,
)
from repro.linkage.identifier import (
    IdentifierDetection,
    detect_identifier_attributes,
    link_by_identifier,
    normalize_identifier,
)
from repro.linkage.incremental import (
    BatchStats,
    IncrementalLinker,
    ProbeResult,
)
from repro.linkage.metablocking import (
    BlockingGraph,
    build_blocking_graph,
    meta_block,
)
from repro.linkage.progressive import (
    ProgressivePoint,
    order_candidates,
    progressive_resolution_curve,
)
from repro.linkage.resolver import LinkageResult, MatchClassifier, resolve
from repro.linkage.swoosh import SwooshResult, r_swoosh, union_merge
from repro.linkage.temporal import (
    TemporalField,
    TemporalMatcher,
    link_temporal_stream,
)

__all__ = [
    "ActiveThresholdLearner",
    "BatchStats",
    "Block",
    "BlockCollection",
    "Blocker",
    "BlockingGraph",
    "BoundedComparison",
    "CanopyBlocker",
    "ComparisonVector",
    "CompositeBlocker",
    "EngineRun",
    "FellegiSunterModel",
    "FieldComparator",
    "IdentifierDetection",
    "IncrementalLinker",
    "KeyBlocker",
    "KeyFunction",
    "LabeledPair",
    "LinkageResult",
    "MatchClassifier",
    "MatchDecision",
    "MatchRule",
    "MinHashBlocker",
    "ParallelComparisonEngine",
    "Representation",
    "PreparedRecord",
    "ProbeResult",
    "ProgressivePoint",
    "QGramBlocker",
    "RecordComparator",
    "RuleBasedClassifier",
    "SortedNeighborhoodBlocker",
    "StandardBlocker",
    "SuffixArrayBlocker",
    "SwooshResult",
    "TemporalField",
    "TemporalMatcher",
    "ThresholdClassifier",
    "TokenBlocker",
    "build_blocking_graph",
    "center_clustering",
    "connected_components",
    "default_product_comparator",
    "detect_identifier_attributes",
    "fit_fellegi_sunter",
    "link_by_identifier",
    "link_temporal_stream",
    "merge_center_clustering",
    "meta_block",
    "noisy_oracle",
    "normalize_identifier",
    "order_candidates",
    "plain_threshold",
    "prepare_records",
    "progressive_resolution_curve",
    "r_swoosh",
    "resolve",
    "rule_for",
    "union_merge",
]
