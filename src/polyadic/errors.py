"""Exception types shared across the package."""


class PolyadicError(Exception):
    """Base class for all errors raised by this package."""


class PolynomialSyntaxError(PolyadicError):
    """The polynomial text or JSON could not be parsed."""


class AritySmallerThanTwo(PolyadicError):
    """The polynomial uses fewer than two variables."""


class NotHomogeneous(PolyadicError):
    """The polynomial mixes monomials of different total degree."""


class MissingMonomial(PolyadicError):
    """Some degree-d exponent vector has no positive coefficient."""


class NonPositiveCoefficient(PolyadicError):
    """A coefficient is zero or negative."""


class NonBijectiveLabeling(PolyadicError):
    """An edge labeling at some vertex is not a bijection onto 1..indegree."""


class MaximalAtHorizon(PolyadicError):
    """The successor of a maximal path would depend on edges below the horizon."""


class MinimalAtHorizon(PolyadicError):
    """The predecessor of a minimal path would depend on edges below the horizon."""


class RankOutOfRange(PolyadicError):
    """A tower rank outside 0..dimension-1 was requested."""


class TowerTooLarge(PolyadicError):
    """Materializing this tower would exceed the configured size budget."""


class LadderPreconditionViolated(PolyadicError):
    """source_ladder needs d <= z(j) <= (level-1)*d."""


class PreconditionNotMet(PolyadicError):
    """A level-range precondition of a whole-level check fails."""


class HypothesisNotMet(PolyadicError):
    """The hypotheses of a link-consequence check fail for the given input."""


class DsvAbsent(PolyadicError):
    """A required distinguished source vertex does not exist (coordinate < d)."""


class NoExtension(PolyadicError):
    """A distinguished chain could not be extended to the requested length."""


class LengthMismatch(PolyadicError):
    """Chain lists have inconsistent lengths."""


class InvalidWeight(PolyadicError):
    """A supplied weight vector is not positive or does not satisfy m(theta) = 1."""


class ReportTooLarge(PolyadicError):
    """A probe report would hold more survivors or conflict times than the cap."""
