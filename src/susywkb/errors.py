"""Exception types shared across the package."""


class SusyWkbError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(SusyWkbError):
    """Invalid parameters, out-of-domain evaluation points, or unbound levels."""


class UnboundEnergyError(DomainError):
    """Energy does not produce exactly one pair of real turning points."""


class ConvergenceError(SusyWkbError):
    """An iterative procedure failed to reach its tolerance."""

    def __init__(self, msg, residuals=None):
        super().__init__(msg)
        self.residuals = residuals
