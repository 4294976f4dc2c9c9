"""E8 — Fusion under copying (Dong, Berti-Équille & Srivastava, VLDB'09).

The headline fusion result: a cabal of copiers replicating a
low-accuracy parent flips majority voting and even accuracy-aware
fusion (AccuVote *trusts* the self-consistent cabal), while AccuCopy's
copy discounting stays accurate. Copier fraction sweeps from 0 to ~60%
of sources.
"""

from __future__ import annotations

from bench_common import table

from repro.fusion import AccuCopy, AccuVote, TruthFinder, VotingFuser
from repro.quality import fusion_accuracy
from repro.synth import ClaimWorldConfig, generate_claims

COPIER_COUNTS = (0, 3, 6, 9, 12)
N_INDEPENDENT = 8


def world(n_copiers: int):
    return generate_claims(
        ClaimWorldConfig(
            n_items=300,
            n_independent=N_INDEPENDENT,
            n_copiers=n_copiers,
            accuracy_range=(0.45, 0.75),
            copy_rate=0.95,
            n_false_values=3,
            parent_pool=1,
            parent_accuracy=0.35,
            seed=11,
        )
    )


def fusers():
    return [
        VotingFuser(),
        TruthFinder(),
        AccuVote(n_false_values=3),
        AccuCopy(n_false_values=3),
    ]


def figure() -> str:
    rows = []
    by_method: dict[str, list[float]] = {}
    for n_copiers in COPIER_COUNTS:
        planted = world(n_copiers)
        row = [f"{n_copiers}/{N_INDEPENDENT + n_copiers}"]
        for fuser in fusers():
            accuracy = fusion_accuracy(
                fuser.fuse(planted.claims), planted.truth
            )
            row.append(accuracy)
            by_method.setdefault(fuser.name, []).append(accuracy)
        rows.append(row)
    assert by_method["accucopy"][0] >= by_method["vote"][0] - 0.02
    # Under heavy copying AccuCopy dominates by a wide margin.
    assert by_method["accucopy"][-1] > by_method["vote"][-1] + 0.2
    assert by_method["accucopy"][-1] > by_method["accuvote"][-1] + 0.2
    assert min(by_method["accucopy"]) > 0.8
    # Copy-unaware methods degrade monotonically-ish with copier share.
    assert by_method["vote"][-1] < by_method["vote"][0] - 0.2
    return table(
        "E8: fusion accuracy vs copier share "
        "(copiers replicate a 0.35-accuracy parent at copy rate 0.95)",
        ["copiers/sources", "vote", "truthfinder", "accuvote", "accucopy"],
        rows,
        note=(
            "Expected shape (Dong et al.): without copiers all "
            "accuracy-aware methods ≥ vote; with copiers, copy-unaware "
            "methods collapse while AccuCopy stays high."
        ),
    )
