"""Exception types of the package.  Refusals are ``PreconditionError``s
and ``ValueError``s (CLI exit 4, 2 for ``ValidationFailed``); solver
failures are ``NonConvergence`` and ``DivergentSeries`` (exit 3)."""

from __future__ import annotations


class EntrographError(Exception):
    """Base class for all package errors.

    ``threshold`` is the filtration threshold at which
    ``persistent_entropy`` met the error, or None outside a filtration.
    ``t`` and ``component`` (its least vertex) locate a failed evaluation
    of any ``entropy._newton_down`` solve (``volume_entropy``,
    ``_vertex_root``, ``_schur_root``, direct steps), or are None.
    """

    threshold: float | None = None
    t: float | None = None
    component: str | None = None


class PreconditionError(EntrographError, ValueError):
    """An operation was called outside its documented preconditions."""


class ValidationFailed(PreconditionError):
    """A graph failed invariant validation; carries the report lines."""

    def __init__(self, report):
        self.report = tuple(report)
        super().__init__("invalid metric graph: " + "; ".join(self.report))


class UnknownVertex(PreconditionError):
    pass


class NonPositiveLength(PreconditionError):
    pass


class NonConvergence(EntrographError):
    """An iterative solver failed to reach its tolerance."""


class DivergentSeries(EntrographError):
    """A generating-function evaluation at or below the entropy."""


class DisconnectedPair(PreconditionError):
    pass


class TooFewAttachments(PreconditionError):
    pass


class InvalidDartIndex(PreconditionError):
    pass


class InsufficientData(PreconditionError):
    pass


class HorizonTooLarge(PreconditionError):
    """Projected enumeration size exceeds the configured cap."""

    def __init__(self, message, safe_horizon=None):
        self.safe_horizon = safe_horizon
        super().__init__(message)


class MarginTooSmall(PreconditionError):
    pass


class UnknownFormat(PreconditionError):
    pass
