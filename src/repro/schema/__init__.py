"""Schema alignment: profiling, matching, mediated and probabilistic schemas."""

from repro import _lazy

_lazy.export(
    globals(),
    {
        "attribute_stats": "AttributeProfile SourceAttribute profile_attributes",
        "clustering": "cluster_attributes cluster_attributes_robust",
        "correspondence": "Correspondence score_all_pairs select_correspondences",
        "matchers": "AttributeMatcher HybridMatcher InstanceMatcher NameMatcher",
        "mediated": "MediatedAttribute MediatedSchema build_mediated_schema",
        "probabilistic": (
            "CandidateSchema ProbabilisticMediatedSchema "
            "build_probabilistic_mediated_schema"
        ),
        "query": (
            "Cell answer_with_pschema answer_with_schema "
            "answer_without_alignment cell_quality true_answer_cells"
        ),
    },
)
