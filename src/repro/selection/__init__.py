"""Source selection: profiling, marginal gain, greedy less-is-more."""

from repro import _lazy

_lazy.export(
    globals(),
    {
        "gain": "expected_accuracy marginal_gain true_accuracy",
        "greedy": (
            "GreedySourceSelector SelectionResult SelectionStep "
            "baseline_order"
        ),
        "profiles": "SourceStats profile_sources",
    },
)
