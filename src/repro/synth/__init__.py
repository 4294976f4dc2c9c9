"""Synthetic-world substrate: worlds, sources, claims, copiers, time."""

from repro import _lazy

_lazy.export(
    globals(),
    {
        "claims": (
            "ClaimWorldConfig NumericClaimWorldConfig PlantedClaims "
            "PlantedNumericClaims generate_claims generate_numeric_claims"
        ),
        "copiers": "CopierConfig add_copier_sources",
        "corpus": "BuiltCorpus FourVKnobs build_corpus scaled",
        "evolution": (
            "EvolvingWorldConfig TemporalStreamConfig evolve_world "
            "generate_temporal_dataset stream_temporal_observations "
            "stream_world_snapshots"
        ),
        "sources": "CorpusConfig SourceProfile generate_dataset",
        "vocab": "AttributeSpec CategoryVocabulary category",
        "world": "Entity World WorldConfig generate_world",
    },
)
