"""E4 — Meta-blocking: pruning the blocking graph (Papadakis et al.).

Schema-agnostic token blocking reaches near-perfect PC through heavy
redundancy; meta-blocking keeps most of that PC while cutting
candidates by up to an order of magnitude. Rows compare unpruned token
blocking against the four pruning schemes under two edge-weighting
functions.
"""

from __future__ import annotations

from bench_common import linkage_corpus, table

from repro.linkage import TokenBlocker, meta_block
from repro.quality import blocking_quality


def figure() -> str:
    dataset = linkage_corpus(n_entities=70, n_sources=14, typo_rate=0.06)
    records = list(dataset.records())
    truth = dataset.ground_truth
    blocks = TokenBlocker(max_block_size=60).block(records)
    base_pairs = blocks.candidate_pairs()
    base = blocking_quality(base_pairs, truth, len(records))
    rows = [
        [
            "token (unpruned)",
            "-",
            base.pairs_completeness,
            base.candidate_pairs,
            1.0,
        ]
    ]
    results = {}
    for weight in ("cbs", "js", "arcs"):
        for pruning in ("wep", "cep", "wnp", "cnp"):
            kept = meta_block(
                blocks,
                weight=weight,
                pruning=pruning,
                cardinality_ratio=0.05,
            )
            quality = blocking_quality(kept, truth, len(records))
            savings = (
                len(kept) / base.candidate_pairs
                if base.candidate_pairs
                else 1.0
            )
            rows.append(
                [
                    pruning,
                    weight,
                    quality.pairs_completeness,
                    quality.candidate_pairs,
                    savings,
                ]
            )
            results[(weight, pruning)] = quality
    wep = results[("cbs", "wep")]
    assert wep.pairs_completeness > base.pairs_completeness - 0.05
    assert wep.candidate_pairs < base.candidate_pairs * 0.5
    cep = results[("cbs", "cep")]
    assert cep.candidate_pairs < base.candidate_pairs * 0.1
    return table(
        "E4: meta-blocking — PC retained vs candidates kept",
        ["pruning", "weights", "PC", "candidates", "kept-fraction"],
        rows,
        note=(
            "Expected shape: WEP/WNP keep PC within a few points of "
            "unpruned at ~5-20% of candidates; CEP prunes hardest."
        ),
    )
