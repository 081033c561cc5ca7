"""Trusted exact-arithmetic substrate: integer polynomials, factorization,
resultants, Sturm counting and isolation, root transforms.  No floating point."""

from .factor import factor_over_integers, is_irreducible
from .intfactor import (
    factor_int,
    is_perfect_square,
    is_prime,
    legendre_symbol,
    prime_power,
    squarefree_part,
)
from .poly import (
    IntPoly,
    discriminant,
    fractions_to_intpoly,
    lagrange_interpolate,
    poly_gcd,
    resultant,
    squarefree_decomposition,
    sturm_real_root_count,
    sturm_surd_counts,
    surd_signs,
)
from .poly import squarefree_part as poly_squarefree_part
from .transforms import (
    cyclotomic_order,
    cyclotomic_part_orders,
    cyclotomic_polynomial,
    power_transform,
    product_transform,
    ratio_transform,
)

__all__ = [
    "IntPoly",
    "factor_over_integers",
    "is_irreducible",
    "poly_gcd",
    "poly_squarefree_part",
    "squarefree_decomposition",
    "resultant",
    "discriminant",
    "sturm_real_root_count",
    "sturm_surd_counts",
    "surd_signs",
    "lagrange_interpolate",
    "fractions_to_intpoly",
    "power_transform",
    "product_transform",
    "ratio_transform",
    "cyclotomic_polynomial",
    "cyclotomic_order",
    "cyclotomic_part_orders",
    "factor_int",
    "squarefree_part",
    "prime_power",
    "is_prime",
    "is_perfect_square",
    "legendre_symbol",
]
