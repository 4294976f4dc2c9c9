"""Columnar prepared-record blocks and vectorized batch scoring.

The third engine layer (after prepared records and staged early exit):
:func:`build_block` packs a comparator's records into per-field
contiguous numpy columns once, and the batch kernels
(:func:`score_positions`, :func:`match_positions`) score whole pair
sets per call — numpy set-intersection/Jaccard/dice/overlap/exact/numeric
kernels plus a vectorized early-exit mask, with the scalar similarity
path reserved for the residual pairs that survive it. Output is
bit-identical to the scalar engine; select it end to end with
``representation="columnar"`` on
:class:`~repro.linkage.engine.ParallelComparisonEngine`,
:func:`~repro.linkage.resolver.resolve`, or
:class:`~repro.core.pipeline.PipelineConfig`.
"""

from repro import _lazy

_lazy.export(
    globals(),
    {
        "block": "ColumnarBlock build_block column_kind",
        "kernels": (
            "match_id_pairs match_positions score_id_pairs score_positions"
        ),
    },
)
