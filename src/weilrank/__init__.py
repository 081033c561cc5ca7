"""weilrank: exact analysis of Weil q-polynomials.

Validates characteristic polynomials of Frobenius, computes Newton polygons,
decides neatness and multiplicative rank in dimension <= 3 by theorem, and on
request (`force_oracle`) checks each rank with a certified oracle.
"""

__version__ = "0.1.0"

from .exactcore import IntPoly
from .weil import WeilPolynomial, base_change, eigenvalue_structure, validate

__all__ = [
    "IntPoly",
    "WeilPolynomial",
    "validate",
    "base_change",
    "eigenvalue_structure",
    "__version__",
]
