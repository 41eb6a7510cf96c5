"""Exception types shared across the package.

Each stage of the pipeline raises a dedicated error so callers can tell a
genuine mathematical obstruction (a residue that refuses to vanish, a curve
with colliding branch points) from plain bad input.  Every numeric gate goes
through ``at_most`` or ``above``, which fail a NaN and report value and limit.
A message to format comes as a zero-argument callable, called only on failure.
"""


def at_most(value, limit, error: type[Exception], what) -> None:
    """Raise error unless value <= limit; a NaN value or limit fails."""
    if not value <= limit:
        raise error(f"{_lead(what)} {value:.3e}, tolerance {limit:g}")


def above(value, limit, error: type[Exception], what) -> None:
    """Raise error unless value > limit; a NaN value or limit fails."""
    if not value > limit:
        raise error(f"{_lead(what)} {value:.3e}, needs > {limit:g}")


def _lead(what) -> str:
    # a callable is the message formatted only when its gate fails
    return what() if callable(what) else what


class NSCurveError(Exception):
    """Base class for every error raised by this package."""


# --- exact algebra ---

class NonUnitLeadingCoefficient(NSCurveError):
    """A series lead is not the unit that inversion or a normalization needs."""


class ResidueObstruction(NSCurveError):
    """Term-wise integration hit a nonzero coefficient at exponent -1."""


class TruncationTooShallow(NSCurveError):
    """A coefficient beyond the stored truncation order was requested."""


# --- curve model ---

class NotCoprime(NSCurveError):
    """Curve parameters n and s must satisfy gcd(n, s) = 1 and 2 <= n < s."""


class InvalidLambdaIndex(NSCurveError):
    """A lambda subscript outside the admissible index set for the family."""


class SymbolicLambda(NSCurveError):
    """Numeric evaluation requested on a family with symbolic coefficients."""


class RootFindingFailure(NSCurveError):
    """A polynomial root finder failed to converge or to match expectations."""


class CoordinateOverflow(NSCurveError, ValueError):
    """A coordinate is so large that the curve's powers of it overflow."""


# --- expansions at infinity ---

class AsymmetricGaps(NSCurveError):
    """A gap w has no monomial of weight 2g-1-w to carry du_w."""


class UnsolvableCorrection(NSCurveError):
    """The triangular system for second-kind corrections became singular."""


# --- sigma calculus ---

class OrderExceedsSupport(NSCurveError):
    """Expansion order beyond what the symbol table can express."""


class ZetaLeakage(NSCurveError):
    """A residue expansion produced first-order symbols it should not have."""


class NumeratorCollision(NSCurveError):
    """A first-kind numerator monomial also appears in a second-kind numerator."""


# --- divisor solver ---

class DegenerateDeterminant(NSCurveError):
    """The interpolation determinant vanished identically on the divisor."""


class DegreeCollapse(NSCurveError):
    """The degree of the x-elimination polynomial dropped below the genus."""


class NonFiniteValue(NSCurveError, ValueError):
    """A symbol value handed to a compiled system is NaN or infinite."""


class MalformedGrid(NSCurveError, ValueError):
    """A coefficient grid has the wrong shape or a degree above its bound."""


class NullSpaceDimensionError(NSCurveError):
    """No unique set of fiber points fits the grid over a root of chi."""


class SpecialDivisor(NSCurveError):
    """The divisor is special; the inversion map is not injective there."""


# --- hyperelliptic numerics ---

class NotTwoSheeted(NSCurveError, ValueError):
    """A hyperelliptic routine was given a curve that is not y^2 = p(x)."""


class UnsupportedGenus(NSCurveError, ValueError):
    """The curve's genus is above the largest the numeric layer covers."""


class ComplexBranchPoints(NSCurveError, ValueError):
    """The interval periods need real branch points; the curve has others."""


class BranchCollision(NSCurveError):
    """Two branch points coincide within tolerance; the curve is degenerate."""


class NonSymmetricTau(NSCurveError):
    """tau is not a Riemann matrix, or theta's cube at tau needs a radius above 64."""


class OnThetaDivisor(NSCurveError):
    """The argument lies on the theta divisor; kappa functions blow up."""


class QuadratureNotConverged(NSCurveError):
    """A quadrature sum moved by more than its tolerance at a finer node count."""


class SheetLoss(NSCurveError):
    """A point's y lies on neither sheet over its x."""
