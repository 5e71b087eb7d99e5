"""Exception hierarchy shared across the package.

Every error carries a short machine-readable code (the class name) used by
the CLI's single-line error format.
"""


class LatcorrError(Exception):
    """Base class for all errors raised by this package."""

    @property
    def code(self):
        return type(self).__name__


class SingularMatrix(LatcorrError):
    pass


class NotPositiveDefinite(LatcorrError):
    pass


class SingularForm(LatcorrError):
    pass


class IndefiniteForm(LatcorrError):
    pass


class NotInDualLattice(LatcorrError):
    pass


class NotIntegral(LatcorrError):
    pass


class GroupTooLarge(LatcorrError):
    pass


class SearchTooLarge(LatcorrError):
    pass


class IncompleteTable(LatcorrError):
    pass


class GroupMismatch(LatcorrError):
    pass


class InputError(LatcorrError):
    """Malformed input file or CLI argument."""


class OracleDisagreement(LatcorrError):
    """A brute-force cross-check contradicted the optimized path."""


class InvariantViolation(LatcorrError):
    """An internal consistency check or a documented precondition failed."""
