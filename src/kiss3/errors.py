"""Exception types shared across the package."""


class Kiss3Error(Exception):
    """Base class for all package-specific errors."""


class DomainError(Kiss3Error):
    """An argument lies outside the mathematical domain of the operation."""


class DegenerateEndpoint(Kiss3Error):
    """Root counting or isolation was asked about the zero polynomial."""


class NoRoot(Kiss3Error):
    """Root isolation was asked for a root that does not exist in the interval."""


class MultipleRoots(Kiss3Error):
    """Root isolation requires a unique root but the interval contains several."""


class TooFewPoints(Kiss3Error):
    """The point-set operation needs more points than were supplied."""


class SaturationError(Kiss3Error):
    """Rejection sampling could not place another point at the required separation.

    `placed` is the PointSet accepted before saturation, in order.
    """

    def __init__(self, message: str, placed):
        super().__init__(message)
        self.placed = placed


class CertificateInvalid(Kiss3Error):
    """The certificate polynomial failed one of its structural invariants."""


class BoundFailure(Kiss3Error):
    """A bound computation crossed the threshold it was required to stay under."""


class SeparationViolation(Kiss3Error):
    """A point set does not meet the minimum angular separation precondition."""
