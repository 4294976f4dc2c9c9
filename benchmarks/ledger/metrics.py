"""The ledger's tables: workloads, end-to-end metrics, per-layer metrics.

Every name, unit, direction and bound the benchmark reports lives here
and nowhere else; ``BENCHMARK.json`` at the repo root is written from
these tables (``run.py --write-contract``) and ``test_ledger.py``
asserts the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "COMPARED",
    "END_TO_END",
    "PER_LAYER",
    "RUN_SECONDS",
    "WORKLOADS",
    "Compared",
    "EndToEnd",
    "PerLayer",
    "contract",
]

#: How long one driver run measures (``--seconds``). A run stops before the
#: repetition that would overrun it, so an invocation lasts 20-25 s, which
#: keeps the driver's 4 + 22 x 5 runs inside its 3420 s cap with a sixth
#: to spare.
RUN_SECONDS = 24


@dataclass(frozen=True)
class EndToEnd:
    """One user-visible metric and the bound on how far it may worsen."""

    name: str
    unit: str
    better: str
    bound: float
    what: str


@dataclass(frozen=True)
class Compared:
    """One number ``run.py --compare`` gives a verdict on, and where.

    ``name`` is an end-to-end or per-layer metric as every untraced
    repetition reports it. ``bound`` is a share of the parent's median,
    or an absolute difference when ``absolute`` is set.
    """

    name: str
    better: str
    bound: float
    absolute: bool
    workloads: tuple[str, ...]


@dataclass(frozen=True)
class PerLayer:
    """One single-layer metric and the end-to-end number it should move."""

    name: str
    unit: str
    better: str
    moves: str


#: name -> why the workload exists (one line, at most 200 characters).
WORKLOADS: dict[str, str] = {
    "batch_link": (
        "Volume: BDIPipeline.run over ~1.3k records x 12 sources; blocking, "
        "pair dedup and scoring are ~55% of the run, so engine/blocking/"
        "out-of-core changes must show here."
    ),
    "batch_wide": (
        "Variety: BDIPipeline.run over 24 sources x ~180 records with heavy "
        "dialect noise; schema alignment is ~87% and engine+blocking ~9%, so "
        "an engine change must show no move here."
    ),
    "fuse_copiers": (
        "Veracity: Vote, AccuVote, TruthFinder, AccuCopy over ~27k planted "
        "claims (1500 items, 20 sources + 10 copiers); fusion only, linkage "
        "bypassed, so copy-detection cost is not hidden."
    ),
    "serve_mixed": (
        "Live path, closed loop, one client, fsync per ingest: 500 bulk "
        "ingests, 4000 mixed ingest/match/get ops, refresh, checkpoint, "
        "reopen; service (log, fusion, projection) ~52%, linker ~46%."
    ),
    "stream_steady": (
        "Velocity: StreamingResolver over 4 windows (~720 records, ~35 "
        "comparisons each, 64-candidate cap, no disk); scalar incremental "
        "scoring dominates, the stream is consumed as produced."
    ),
}

END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd(
        "setup_s", "s", "lower", 0.25,
        "imports + input generation + service/resolver construction, per "
        "repetition, median",
    ),
    EndToEnd(
        "items_per_s", "1/s", "higher", 0.25,
        "work completed per second of the workload's call, median over "
        "repetitions: records (batch_*, stream_steady), claims through all "
        "four fusers (fuse_copiers), operations of the whole script "
        "(serve_mixed, fsync waits left out)",
    ),
    EndToEnd(
        "peak_rss_mb", "MB", "lower", 0.10,
        "ru_maxrss of the repetition's own process when its call returns, "
        "median",
    ),
    EndToEnd(
        "quality", "ratio", "higher", 0.02,
        "batch_*: pairwise linkage F1 x fusion accuracy against planted "
        "truth; fuse_copiers: AccuCopy accuracy; serve_mixed, stream_steady: "
        "share of entities identical to a from-scratch batch resolution",
    ),
)

_ALL = tuple(WORKLOADS)
_BATCH = ("batch_link", "batch_wide")
_SERVE = ("serve_mixed",)

#: What ``run.py --compare`` judges: the issue's workload-specific metrics
#: at the issue's bounds, over as many runs per side as the ledgers hold;
#: the ``END_TO_END`` bounds above are the driver's gate on single runs.
#: Both ledgers of a comparison measure the same seed, hence the same
#: input. Quality is judged factor by factor and absolutely: on equal
#: inputs it is exact, and a product would hide a trade between linkage
#: and fusion.
COMPARED: tuple[Compared, ...] = (
    Compared("setup_s", "lower", 0.10, False, _ALL),
    Compared("items_per_s", "higher", 0.10, False, _ALL),
    Compared("peak_rss_mb", "lower", 0.10, False, _ALL),
    Compared("quality.linkage_f1", "higher", 0.005, True, _BATCH),
    Compared(
        "quality.fusion_accuracy", "higher", 0.005, True,
        (*_BATCH, "fuse_copiers"),
    ),
    Compared("serve.bulk_records_per_s", "higher", 0.10, False, _SERVE),
    Compared("serve.mixed_ops_per_s", "higher", 0.10, False, _SERVE),
    Compared("serve.ingest_p50_ms", "lower", 0.10, False, _SERVE),
    Compared("serve.query_p50_ms", "lower", 0.10, False, _SERVE),
    Compared("serve.ingest_p99_ms", "lower", 0.15, False, _SERVE),
    Compared("serve.query_p99_ms", "lower", 0.15, False, _SERVE),
    Compared("serve.refresh_s", "lower", 0.10, False, _SERVE),
    Compared("serve.restart_s", "lower", 0.10, False, _SERVE),
)


def _layer(prefix: str, moves: str, *specs: tuple[str, str, str]):
    return tuple(
        PerLayer(f"{prefix}.{name}", unit, better, moves)
        for name, unit, better in specs
    )


PER_LAYER: tuple[PerLayer, ...] = (
    *_layer(
        "synth", "setup_s on every workload",
        ("generate_s", "s", "lower"),
        ("records", "count", "lower"),
    ),
    *_layer(
        "schema", "items_per_s on batch_wide (~87%), ~26% on batch_link",
        ("align_s", "s", "lower"),
        ("attributes", "count", "lower"),
        ("attr_pairs", "count", "lower"),
        ("clusters", "count", "lower"),
        ("f1", "ratio", "higher"),
    ),
    *_layer(
        "blocking",
        "items_per_s on batch_link; quality if completeness drops",
        ("block_s", "s", "lower"),
        ("pair_dedup_s", "s", "lower"),
        ("blocks", "count", "lower"),
        ("candidate_pairs", "count", "lower"),
        ("pair_completeness", "ratio", "higher"),
        ("reduction_ratio", "ratio", "higher"),
    ),
    *_layer(
        "engine", "items_per_s on batch_link",
        ("prepare_s", "s", "lower"),
        ("match_s", "s", "lower"),
        ("pairs", "count", "lower"),
        ("pairs_per_s", "1/s", "higher"),
        ("early_exit_rate", "ratio", "higher"),
        ("match_rate", "ratio", "higher"),
    ),
    *_layer(
        "engine",
        "none until a PR changes the default path (engine-only probes on "
        "batch_link's ordered pairs)",
        ("columnar_pairs_per_s", "1/s", "higher"),
        ("process2_pairs_per_s", "1/s", "higher"),
    ),
    *_layer(
        "engine",
        "ceiling for items_per_s on stream_steady (the stream's own "
        "candidate pairs through the batch engine)",
        ("stream_pairs_dict_per_s", "1/s", "higher"),
        ("stream_pairs_columnar_per_s", "1/s", "higher"),
    ),
    *_layer(
        "clustering", "items_per_s on batch_link (~7% with identifier+claims)",
        ("cluster_s", "s", "lower"),
        ("clusters", "count", "lower"),
    ),
    *_layer(
        "identifier", "items_per_s on batch_link (~7% with clustering+claims)",
        ("link_s", "s", "lower"),
    ),
    *_layer(
        "claims", "items_per_s on batch_link (~7% with clustering+identifier)",
        ("extract_s", "s", "lower"),
        ("count", "count", "lower"),
    ),
    *_layer(
        "fusion", "~12% of items_per_s on batch_link; quality",
        ("fuse_s", "s", "lower"),
        ("iterations", "count", "lower"),
        ("items", "count", "lower"),
    ),
    *_layer(
        "fusion", "items_per_s and quality on fuse_copiers",
        ("vote_s", "s", "lower"),
        ("accuvote_s", "s", "lower"),
        ("truthfinder_s", "s", "lower"),
        ("accucopy_s", "s", "lower"),
        ("accucopy_iterations", "count", "lower"),
        ("copydetect_s", "s", "lower"),
        ("accuracy_vote", "ratio", "higher"),
        ("accuracy_accuvote", "ratio", "higher"),
        ("accuracy_truthfinder", "ratio", "higher"),
        ("accuracy_accucopy", "ratio", "higher"),
    ),
    *_layer(
        "outofcore",
        "peak_rss_mb against items_per_s on batch_link (tight budget vs "
        "in-memory resolve); stream_accuvote_s on fuse_copiers",
        ("resolve_s", "s", "lower"),
        ("slowdown_ratio", "ratio", "lower"),
        ("spill_count", "count", "lower"),
        ("peak_tracked_bytes", "bytes", "lower"),
        ("stream_accuvote_s", "s", "lower"),
    ),
    *_layer(
        "dist",
        "none on the default path; measured wall, recorded for the "
        "keep-or-delete decision on sharding",
        ("sharded2_resolve_s", "s", "lower"),
        ("sharded2_speedup", "ratio", "higher"),
    ),
    *_layer(
        "incremental",
        "items_per_s on serve_mixed (~46%) and stream_steady (~98%)",
        ("add_batch_s", "s", "lower"),
        ("probe_s", "s", "lower"),
        ("comparisons", "count", "lower"),
        ("comparisons_per_record", "ratio", "lower"),
        ("stream_add_batch_s", "s", "lower"),
    ),
    *_layer(
        "serve",
        "items_per_s on serve_mixed (the whole script's rate); the phases' "
        "rates, the latencies, refresh and restart are that workload's "
        "user-visible detail, "
        "measured on every untraced repetition and judged by --compare; "
        "fsync_wait_ms is the disk's mean wait per fsync as measured, which "
        "no other time includes",
        ("bulk_records_per_s", "1/s", "higher"),
        ("mixed_ops_per_s", "1/s", "higher"),
        ("ingest_p50_ms", "ms", "lower"),
        ("ingest_p99_ms", "ms", "lower"),
        ("query_p50_ms", "ms", "lower"),
        ("query_p99_ms", "ms", "lower"),
        ("refresh_s", "s", "lower"),
        ("restart_s", "s", "lower"),
        ("checkpoint_s", "s", "lower"),
        ("store_append_s", "s", "lower"),
        ("ingest_s_total", "s", "lower"),
        ("match_s_total", "s", "lower"),
        ("get_s_total", "s", "lower"),
        ("fusion_residual_s", "s", "lower"),
        ("fsyncs", "count", "lower"),
        ("fsync_wait_ms", "ms", "lower"),
        ("cache_hit_rate", "ratio", "higher"),
        ("log_bytes_per_record", "bytes", "lower"),
        ("replayed_records", "count", "lower"),
    ),
    *_layer(
        "streaming", "items_per_s on stream_steady",
        ("window_close_p50_ms", "ms", "lower"),
        ("window_close_max_ms", "ms", "lower"),
        ("comparisons", "count", "lower"),
        ("comparisons_per_s", "1/s", "higher"),
        ("state_bytes", "bytes", "lower"),
        ("late_records", "count", "lower"),
        ("windowing_fusion_residual_s", "s", "lower"),
        ("checkpoint_overhead_ratio", "ratio", "lower"),
        ("drift_records_per_s", "1/s", "higher"),
    ),
    *_layer(
        "quality", "the two factors of the end-to-end quality product",
        ("linkage_f1", "ratio", "higher"),
        ("fusion_accuracy", "ratio", "higher"),
    ),
    *_layer(
        "run",
        "the traced repetition's untraced call as the wall clock read it, "
        "and how fast the box then ran relative to the reference speed",
        ("wall_s", "s", "lower"),
        ("speed_factor", "ratio", "higher"),
    ),
    *_layer(
        "trace",
        "traced wall over untraced wall, and the share of the traced wall "
        "no layer span covers",
        ("overhead_ratio", "ratio", "lower"),
        ("unattributed_share", "ratio", "lower"),
    ),
)


def contract() -> dict:
    """The ``BENCHMARK.json`` document these tables define."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {
                "name": metric.name,
                "unit": metric.unit,
                "better": metric.better,
                "bound": metric.bound,
            }
            for metric in END_TO_END
        ],
        "per_layer": [
            {"name": metric.name, "unit": metric.unit, "better": metric.better}
            for metric in PER_LAYER
        ],
    }
