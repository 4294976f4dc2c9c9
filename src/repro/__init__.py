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

Every package exposes its names through one table (:mod:`repro._lazy`):
``import repro`` loads nothing else, and reading a name loads only the
submodule that defines it.

Subpackages
-----------

- :mod:`repro.core` — records, sources, datasets, ground truth, pipeline
- :mod:`repro.text` — normalization, tokenizers, similarity functions
- :mod:`repro.synth` — synthetic worlds, sources, claims, evolution
- :mod:`repro.io` — the JSONL dataset format
- :mod:`repro.schema` — attribute matching, mediated & probabilistic schemas
- :mod:`repro.linkage` — blocking, meta-blocking, classifiers, clustering
- :mod:`repro.columnar` — numpy record blocks and batch scoring kernels
- :mod:`repro.fusion` — voting, TruthFinder, AccuVote, AccuCopy, online
- :mod:`repro.selection` — source profiling, less-is-more selection
- :mod:`repro.velocity` — snapshots, diffing, incremental maintenance
- :mod:`repro.quality` — evaluation metrics and report rendering
- :mod:`repro.obs` — tracing spans, metrics registry, run reports
- :mod:`repro.resilience` — retries, quarantine, the worker pool
- :mod:`repro.recovery` — checkpoint store, fingerprints, resumable runs
- :mod:`repro.outofcore` — memory budget, spilling, external sort
- :mod:`repro.dist` — sharded runtime, skew-aware partitioning, cost model
- :mod:`repro.supervision` — worker supervision, breaker, admission
- :mod:`repro.serve` — the durable online resolution service
- :mod:`repro.streaming` — windowed, drift-aware continuous resolution
"""

from repro import _lazy

__version__ = "1.0.0"

_lazy.export(
    globals(),
    {
        "core.dataset": "Dataset",
        "core.errors": "ReproError",
        "core.ground_truth": "GroundTruth",
        "core.pipeline": (
            "BDIPipeline PipelineConfig PipelineReport PipelineResult"
        ),
        "core.record": "Record",
        "core.source": "Source",
        "synth.corpus": "FourVKnobs build_corpus",
    },
)
