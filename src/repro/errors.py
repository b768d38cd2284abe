"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError`, so callers
can catch one type to handle any library failure. More specific subclasses
distinguish user mistakes (bad topology / template) from scheduling outcomes
(no feasible placement exists).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class TopologyError(ReproError):
    """An application topology is malformed (unknown node, bad requirement,
    duplicate name, inconsistent diversity zone, ...)."""


class TemplateError(ReproError):
    """A QoS-enhanced Heat template could not be parsed or validated."""


class DataCenterError(ReproError):
    """A data-center description is malformed or an unknown element was
    referenced."""


class CapacityError(ReproError):
    """A reservation was attempted that exceeds the available capacity of a
    host, disk, or network link."""


class PlacementError(ReproError):
    """No feasible placement exists for the given topology on the given
    data center (capacity, bandwidth, or diversity constraints cannot all
    be satisfied)."""

    def __init__(self, message: str, node_name: str | None = None):
        super().__init__(message)
        #: Name of the first node for which no candidate host was found,
        #: if the failure is attributable to a single node.
        self.node_name = node_name


class MigrationAborted(PlacementError):
    """A migration plan stopped part-way (stale plan, crashed endpoint, or
    a step that failed and was rolled back); the executed prefix stands
    and is recorded as the application's placement."""

    def __init__(self, message: str, executed: int = 0):
        super().__init__(message)
        #: Steps of the plan that landed before the abort.
        self.executed = executed


class SchedulerError(ReproError):
    """An OpenStack-surrogate scheduler (Nova/Cinder) could not satisfy a
    request."""


class DeadlineError(ReproError):
    """A deadline-bounded search was configured with an unusable deadline."""


class FaultError(ReproError):
    """Base class for injected infrastructure / control-plane faults (see
    :mod:`repro.faults`)."""


class TransientAPIError(FaultError):
    """A surrogate API call (Nova/Cinder/Heat or the scheduler commit path)
    failed transiently. Retryable: wrapping the call in
    :func:`repro.faults.retry_call` is expected to succeed eventually."""


class PermanentAPIError(FaultError):
    """A surrogate API call failed permanently. Never retried; the caller
    must roll back whatever it partially applied."""


class RetryError(FaultError):
    """A retried call exhausted its attempt or time budget.

    The last underlying error is chained as ``__cause__``.

    Attributes:
        attempts: how many attempts were made before giving up.
        backoff_s: total (virtual) backoff delay accumulated across retries.
    """

    def __init__(self, message: str, attempts: int, backoff_s: float):
        super().__init__(message)
        self.attempts = attempts
        self.backoff_s = backoff_s
