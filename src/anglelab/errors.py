"""Exception types shared across the package."""


class AngleLabError(ValueError):
    """Base class for all errors raised by this package."""


class DimensionMismatch(AngleLabError):
    """Points or structures of different dimensions were mixed."""


class DegenerateVector(AngleLabError):
    """A vector required to be nonzero is too short to use."""


class DegenerateSystem(AngleLabError):
    """A map system is degenerate (e.g. all centers coincide)."""


class TooFewPoints(AngleLabError):
    """The operation needs more points than the cloud provides."""


class EmptyCloud(AngleLabError):
    """An empty point collection where a nonempty one is required."""


class InvalidDimension(AngleLabError):
    """A dimension parameter is out of its valid range."""


class InvalidRatio(AngleLabError):
    """A contraction ratio is outside its valid open interval."""


class InvalidWindow(AngleLabError):
    """An angle window is malformed or empty."""


class BudgetExceeded(AngleLabError):
    """The requested computation exceeds the configured budget."""


class InvalidCode(AngleLabError):
    """A map index lies outside the system's maps."""


class InvalidDepth(AngleLabError):
    """An iteration depth is negative."""


class SameIndex(AngleLabError):
    """Two map indices required to differ are equal."""


class NotSeparated(AngleLabError):
    """The system is not strongly separated where separation is required."""


class DegenerateRange(AngleLabError):
    """Too few usable scales remain for a regression."""


class InvalidScales(AngleLabError):
    """Scale indices violate their required ordering or positivity."""


class InvalidArity(AngleLabError):
    """A count parameter is below its minimum."""


class NoFarPoint(AngleLabError):
    """The cloud cannot be rescaled to the required diameter."""


class EmptyGrid(AngleLabError):
    """A dyadic grid with no occupied cells where one is required."""


class InvalidDelta(AngleLabError):
    """A delta parameter is outside its valid range."""
