"""fuse_copiers: four fusers over planted claims with copier sources.

Fusion only; linkage and schema alignment are bypassed entirely, so a
fusion or copy-detection change that the pipeline workloads hide inside
a ~13% share shows here at full size.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass, replace

from repro.fusion import (
    AccuCopy,
    AccuVote,
    ClaimSet,
    TruthFinder,
    VotingFuser,
)
from repro.fusion.copydetect import CopyDetector
from repro.outofcore import (
    MemoryBudget,
    SpillableClaimGroups,
    stream_accuvote,
)
from repro.recovery import RunStore
from repro.synth import ClaimWorldConfig, generate_claims

from harness import canonical_sha256
from refclock import clock

_SHAPE = dict(n_independent=20, n_copiers=10, coverage=0.6, n_false_values=8)

#: The planted world is one draw of the generator (``world_seed``), part of
#: the workload's definition like its size; the run's seed draws the order
#: the claims arrive in. Two draws differ by a third in claims per second
#: (AccuVote and AccuCopy converge in two rounds on most and three on some).
SIZES = {"fuse_copiers": dict(n_items=1500, world_seed=3000, **_SHAPE)}
SMOKE_SIZES = {"fuse_copiers": dict(n_items=150, world_seed=3000, **_SHAPE)}

#: Fuser name -> constructor, in the order they run.
FUSERS = {
    "vote": VotingFuser,
    "accuvote": lambda: AccuVote(n_false_values=_SHAPE["n_false_values"]),
    "truthfinder": TruthFinder,
    "accucopy": lambda: AccuCopy(n_false_values=_SHAPE["n_false_values"]),
}

#: The copy-aware fuser on a planted world must beat this or it is broken.
MIN_ACCURACY = 0.8
#: Out-of-core probe: small enough that grouped claims spill.
TIGHT_BUDGET_BYTES = 256 * 1024


@dataclass
class Inputs:
    name: str
    planted: object
    sizes: dict
    digest: str
    generate_s: float


def setup(name: str, seed: int, sizes: dict) -> Inputs:
    started = clock()
    shape = {key: value for key, value in sizes.items() if key != "world_seed"}
    planted = generate_claims(
        ClaimWorldConfig(seed=sizes["world_seed"], **shape)
    )
    arrival = list(planted.claims)
    random.Random(seed).shuffle(arrival)
    planted = replace(planted, claims=ClaimSet(arrival))
    generate_s = clock() - started
    claims = planted.claims
    return Inputs(
        name=name,
        planted=planted,
        sizes={
            "claims": len(claims),
            "items": len(claims.items()),
            "sources": len(claims.sources()),
        },
        digest=canonical_sha256(
            [[c.source_id, c.item_id, c.value] for c in claims]
        ),
        generate_s=generate_s,
    )


def run(inputs: Inputs) -> dict:
    return {
        name: make().fuse(inputs.planted.claims)
        for name, make in FUSERS.items()
    }


def check(inputs: Inputs, results: dict, verify: bool) -> dict:
    """Every item decided by every fuser; AccuCopy near the planted truth."""
    failures: list[str] = []
    truth = inputs.planted.truth
    items = set(inputs.planted.claims.items())
    accuracy = {}
    for name, result in results.items():
        if set(result.chosen) != items:
            failures.append(f"{name} did not decide every item")
        accuracy[name] = result.accuracy_against(truth)
    if accuracy["accucopy"] < MIN_ACCURACY:
        failures.append(f"accucopy accuracy {accuracy['accucopy']:.3f}")
    n_claims = inputs.sizes["claims"]
    return {
        "failures": failures,
        "ops_attempted": n_claims,
        "ops_failed": 0,
        "items": n_claims,
        "quality": accuracy["accucopy"],
        "output_sha256": canonical_sha256(
            {name: result.chosen for name, result in results.items()}
        ),
        "counts": {
            f"{name}_iterations": result.iterations
            for name, result in results.items()
        },
        "layers": {
            "quality.fusion_accuracy": accuracy["accucopy"],
            **{
                f"fusion.accuracy_{name}": value
                for name, value in accuracy.items()
            },
        },
    }


def trace(inputs: Inputs, results: dict, rec) -> tuple[dict, list[str]]:
    failures: list[str] = []
    claims = inputs.planted.claims
    rec.wrap(CopyDetector, "detect", "fusion.copydetect")
    traced = {}
    with rec.root():
        for name, make in FUSERS.items():
            with rec.span(f"fusion.{name}"):
                traced[name] = make().fuse(claims)
    rec.restore()
    for name, result in traced.items():
        if result.chosen != results[name].chosen:
            failures.append(f"traced {name} differs from the untraced run")

    budget = MemoryBudget(TIGHT_BUDGET_BYTES)
    with tempfile.TemporaryDirectory(prefix="ledger-claims-") as root:
        store = RunStore(root, durable=False)
        started = clock()
        groups = SpillableClaimGroups(store.sub("claims"), budget)
        for claim in claims:
            groups.add(claim.source_id, claim.item_id, claim.value)
        streamed = stream_accuvote(
            groups,
            store.sub("fusion"),
            budget,
            n_false_values=_SHAPE["n_false_values"],
        )
        stream_accuvote_s = clock() - started
        groups.release()
    if streamed.chosen != results["accuvote"].chosen:
        failures.append("streamed AccuVote differs from in-memory AccuVote")

    layers = {
        **{f"fusion.{name}_s": rec.total(f"fusion.{name}") for name in FUSERS},
        "fusion.accucopy_iterations": traced["accucopy"].iterations,
        "fusion.copydetect_s": rec.total("fusion.copydetect"),
        "fusion.items": len(traced["accucopy"].chosen),
        "outofcore.stream_accuvote_s": stream_accuvote_s,
        "outofcore.spill_count": budget.spill_count,
        "outofcore.peak_tracked_bytes": budget.peak,
    }
    return layers, failures
