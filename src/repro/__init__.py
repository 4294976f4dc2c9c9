"""repro — Big Data Integration.

A complete reproduction of the systems covered by the ICDE 2013 "Big
Data Integration" tutorial (Dong & Srivastava): schema alignment,
record linkage, and data fusion, re-examined under the volume /
velocity / variety / veracity dimensions, together with the synthetic
substrates (web-like corpora, claim worlds, a cluster cost model)
needed to regenerate the canonical experimental results.

Quickstart
----------

>>> from repro import BDIPipeline, build_corpus, FourVKnobs
>>> corpus = build_corpus(FourVKnobs(volume=0.1, variety=0.5, veracity=0.3))
>>> result = BDIPipeline().run(corpus.dataset)
>>> report = BDIPipeline().evaluate(corpus.dataset, result)

Subpackages
-----------

- :mod:`repro.core` — records, sources, datasets, ground truth, pipeline
- :mod:`repro.text` — normalization, tokenizers, similarity toolbox
- :mod:`repro.synth` — synthetic worlds, sources, claims, evolution
- :mod:`repro.schema` — attribute matching, mediated & probabilistic schemas
- :mod:`repro.linkage` — blocking, meta-blocking, classifiers, clustering
- :mod:`repro.dist` — sharded runtime, skew-aware partitioning, cost model
- :mod:`repro.obs` — tracing spans, metrics registry, run reports
- :mod:`repro.fusion` — voting, TruthFinder, AccuVote, AccuCopy, online
- :mod:`repro.selection` — source profiling, less-is-more selection
- :mod:`repro.velocity` — snapshots, diffing, incremental maintenance
- :mod:`repro.quality` — evaluation metrics and report rendering
"""

from repro.core import (
    Dataset,
    GroundTruth,
    Record,
    ReproError,
    Source,
)
from repro.core.pipeline import (
    BDIPipeline,
    PipelineConfig,
    PipelineReport,
    PipelineResult,
)
from repro.synth import FourVKnobs, build_corpus

__version__ = "1.0.0"

__all__ = [
    "BDIPipeline",
    "Dataset",
    "FourVKnobs",
    "GroundTruth",
    "PipelineConfig",
    "PipelineReport",
    "PipelineResult",
    "Record",
    "ReproError",
    "Source",
    "build_corpus",
    "__version__",
]
