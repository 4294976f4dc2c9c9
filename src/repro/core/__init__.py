"""Core data model: records, sources, datasets, ground truth, pipeline."""

from repro import _lazy

_lazy.export(
    globals(),
    {
        "dataset": "Dataset",
        "errors": (
            "ConfigurationError DataModelError EmptyInputError "
            "GroundTruthError ReproError UnknownRecordError "
            "UnknownSourceError"
        ),
        "ground_truth": "GroundTruth",
        "record": "Record",
        "source": "Source",
    },
)
