"""E13 — End-to-end pipeline quality under the 4-V knobs.

The tutorial's framing: each big-data dimension stresses a different
pipeline stage. This bench sweeps one dial at a time from a common
baseline and reports per-stage quality — variety erodes schema
alignment, veracity erodes fusion, volume (more redundancy) *helps*
fusion.
"""

from __future__ import annotations

from functools import lru_cache

from bench_common import table

from repro import BDIPipeline, FourVKnobs, PipelineConfig, build_corpus
from repro.synth import scaled

BASE = FourVKnobs(volume=0.05, variety=0.4, veracity=0.3, seed=3)
SWEEPS = {
    "variety": (0.1, 0.5, 0.9),
    "veracity": (0.0, 0.4, 0.8),
    "volume": (0.05, 0.12, 0.25),
}


@lru_cache(maxsize=None)
def run_knobs(dial: str, value: float):
    knobs = scaled(BASE, **{dial: value})
    corpus = build_corpus(knobs)
    pipeline = BDIPipeline(PipelineConfig(fusion="accuvote"))
    result = pipeline.run(corpus.dataset)
    report = pipeline.evaluate(corpus.dataset, result)
    return corpus, report


def figure() -> str:
    rows = []
    reports: dict[tuple[str, float], object] = {}
    for dial, values in SWEEPS.items():
        for value in values:
            corpus, report = run_knobs(dial, value)
            rows.append(
                [
                    dial,
                    value,
                    corpus.dataset.n_records,
                    report.schema_f1,
                    report.linkage_pairwise_f1,
                    report.fusion_accuracy,
                ]
            )
            reports[(dial, value)] = report
    assert (
        reports[("veracity", 0.0)].fusion_accuracy
        > reports[("veracity", 0.8)].fusion_accuracy
    ), "dirtier corpora must fuse worse"
    assert (
        reports[("variety", 0.1)].schema_f1
        > reports[("variety", 0.9)].schema_f1
    ), "more heterogeneity must erode schema alignment"
    for report in reports.values():
        assert report.linkage_pairwise_f1 > 0.8, "linkage must stay robust"
    return table(
        "E13: end-to-end pipeline quality, one 4-V dial at a time "
        f"(baseline volume={BASE.volume}, variety={BASE.variety}, "
        f"veracity={BASE.veracity})",
        ["dial", "value", "records", "schema F1", "linkage F1", "fusion acc"],
        rows,
        note=(
            "Expected shape: veracity ↑ erodes fusion accuracy; variety "
            "↑ erodes schema F1; linkage stays robust (identifier "
            "redundancy) across all dials."
        ),
    )
