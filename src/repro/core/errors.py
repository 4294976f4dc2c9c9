"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised deliberately by the library derive from
:class:`ReproError`, so callers can catch a single base class at an
integration boundary while still discriminating finer-grained failures
when they need to.
"""

from __future__ import annotations


def _restore(cls, args, state, cause):
    error = cls.__new__(cls, *args)
    error.__dict__.update(state)
    if cause is not None:
        error.__cause__ = cause
    return error


def reduce_by_state(error: BaseException):
    """``__reduce__`` for an exception whose ``__init__`` takes something
    other than its message: rebuild from ``args`` and the instance's
    attributes instead of calling ``__init__`` again. ``__cause__``
    rides along, so an error names its cause on either side of a pipe.
    """
    return _restore, (
        type(error), error.args, error.__dict__, error.__cause__,
    )


class ReproError(Exception):
    """Base class for all errors raised by the repro library.

    Every subclass survives ``pickle`` with its type, message, public
    attributes and cause, whatever its constructor's signature — a
    worker process raises a named error and the parent receives it.
    """

    __reduce__ = reduce_by_state


class ConfigurationError(ReproError, ValueError):
    """A component was configured with invalid or inconsistent parameters.

    Also a :class:`ValueError`, so callers validating constructor
    arguments can catch it with either base.
    """


class DataModelError(ReproError):
    """A record, source, or dataset violates a structural invariant."""


class UnknownSourceError(DataModelError):
    """A record or claim refers to a source id absent from the dataset."""

    def __init__(self, source_id: str) -> None:
        super().__init__(f"unknown source id: {source_id!r}")
        self.source_id = source_id


class UnknownRecordError(DataModelError):
    """An operation referenced a record id absent from the dataset."""

    def __init__(self, record_id: str) -> None:
        super().__init__(f"unknown record id: {record_id!r}")
        self.record_id = record_id


class GroundTruthError(ReproError):
    """Ground truth is missing or inconsistent with the dataset."""


class ConvergenceError(ReproError):
    """An iterative algorithm failed to converge within its iteration cap."""

    def __init__(self, algorithm: str, iterations: int) -> None:
        super().__init__(
            f"{algorithm} did not converge within {iterations} iterations"
        )
        self.algorithm = algorithm
        self.iterations = iterations


class EmptyInputError(ReproError):
    """An operation that requires data was invoked on an empty input."""
