"""Exception types shared across the package.

Validation failures carry enough detail to name the first offending
coefficient or check, so CLI diagnostics can point at the exact problem.
"""


class WeilrankError(Exception):
    """Base class for all package-specific errors."""


class PreconditionViolation(WeilrankError, ValueError):
    """An operation was called outside its stated domain."""


class NotMonic(PreconditionViolation):
    pass


class OddDegree(PreconditionViolation):
    pass


class NotPrimePower(PreconditionViolation):
    pass


class FunctionalEquationFails(WeilrankError, ValueError):
    """t^(2g) P(q/t) != q^g P(t); carries the first offending coefficient index."""

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"functional equation fails at coefficient {index}")


class RiemannHypothesisFails(WeilrankError, ValueError):
    """Some root does not have absolute value q^(1/2)."""


class NotSextic(PreconditionViolation):
    pass


class NotIrreducible(PreconditionViolation):
    pass


class NotSufficientlyLarge(WeilrankError, ValueError):
    """The base field admits nontrivial eigenvalue torsion; extend first."""

    def __init__(self, degree_needed, message=None):
        self.degree_needed = degree_needed
        super().__init__(
            message
            or f"base field not sufficiently large; extend by degree {degree_needed}"
        )


class DimensionTooLarge(PreconditionViolation):
    pass


class NonIntegralPolygon(PreconditionViolation):
    """A Newton polygon slope times its length is not an integer, so no
    abelian variety of dimension g has these eigenvalues (Honda-Tate)."""


class PrecisionExhausted(WeilrankError, RuntimeError):
    """Certified numerics hit the precision cap before reaching a verdict."""


class QNotSquare(PreconditionViolation):
    pass


class BSplitAtP(PreconditionViolation):
    pass


class ResidueConditionFails(PreconditionViolation):
    pass


class OracleDisagreement(WeilrankError, RuntimeError):
    """Classifier and certified oracle disagree on a rank; must never happen."""
