"""Exception hierarchy shared across the solver modules."""


class ChoquardError(Exception):
    """Base class for all package errors."""


class GridMismatch(ChoquardError):
    """Two fields (or a field and an operator) live on different grids."""


class NonFinite(ChoquardError):
    """A field or energy evaluated to NaN/Inf."""


class DilationOutOfBox(ChoquardError):
    """Dilation moved more than 1% of the field's mass out of the box."""


class NegativeInput(ChoquardError):
    """An operation requiring a nonnegative field received negative values."""


class TooLarge(ChoquardError):
    """Grid too large for the direct-sum convolution oracle."""


class ZeroMass(ChoquardError):
    """A field with zero L2 norm where a positive mass is required."""


class NotSubcritical(ChoquardError):
    """Operation requires the mass-subcritical exponent regime."""


class ModeMismatch(ChoquardError):
    """State/parameters outside the regime an identity is derived for."""


class NotSupercritical(ModeMismatch):
    """Operation requires the mass-supercritical regime (and p = q for the
    dilation fiber): the regime it was derived for."""


class NoDescentStep(ChoquardError):
    """Backtracking line search underflowed without finding descent."""


class BetaTooLarge(ChoquardError):
    """Coupling sup-norm exceeds the admissible mountain-pass bound."""


class NoInteriorMax(ChoquardError):
    """Dilation-fiber maximum sits on the search bracket edge."""


class GeometryFailed(ChoquardError):
    """Sampled mountain-pass geometry is inconsistent (no well/barrier split)."""


class Stalled(ChoquardError):
    """Saddle outer iteration made no progress."""


class NotConverged(ChoquardError):
    """A converged solver report was required."""


class SchemaError(ChoquardError):
    """Run configuration is structurally invalid."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class RangeError(ChoquardError):
    """A parameter violates its admissible range."""


class AlphaOutOfRange(RangeError):
    """Riesz exponent alpha outside the open interval (0, dim)."""
