"""Data fusion: voting, truth discovery, copy detection, online fusion."""

from repro import _lazy

_lazy.export(
    globals(),
    {
        "accu": "AccuVote",
        "accucopy": "AccuCopy",
        "base": "Claim ClaimSet Fuser FusionResult",
        "copydetect": "CopyDetector",
        "numeric": "CRHNumericFuser",
        "online": "OnlineFusion OnlineTrace claim_posterior vote_count",
        "truthfinder": "TruthFinder",
        "voting": "VotingFuser",
    },
)
