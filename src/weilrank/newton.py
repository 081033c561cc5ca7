"""Newton polygons of Weil polynomials and slope-type classification.

Slopes are the p-adic valuations of the eigenvalues, normalized so that
ord(q) = 1; they are computed as the lower convex hull of the coefficient
valuations and always kept as exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .errors import PreconditionViolation, WeilrankError

if TYPE_CHECKING:  # weil imports this module for the slopes of its components
    from .weil import WeilPolynomial

__all__ = [
    "NewtonPolygon",
    "NewtonType",
    "newton_polygon",
    "root_valuation_segments",
    "classify_newton",
    "NEWTON_LABELS",
    "slope_divisibility_check",
]


@dataclass(frozen=True)
class NewtonPolygon:
    """Ordered (slope, length) segments; slopes strictly increasing in [0,1]."""

    segments: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        slopes = [s for s, _ in self.segments]
        lengths = [l for _, l in self.segments]
        if any(not (0 <= s <= 1) for s in slopes):
            raise PreconditionViolation("slopes must lie in [0, 1]")
        if any(l <= 0 for l in lengths):
            raise PreconditionViolation("segment lengths must be positive")
        if any(a >= b for a, b in zip(slopes, slopes[1:])):
            raise PreconditionViolation("slopes must be strictly increasing")

    @property
    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(s for s, _ in self.segments)

    def length(self, slope) -> int:
        slope = Fraction(slope)
        for s, l in self.segments:
            if s == slope:
                return l
        return 0

    @property
    def total_length(self) -> int:
        return sum(l for _, l in self.segments)

    def __str__(self):
        return "{" + ", ".join(f"({s}, {l})" for s, l in self.segments) + "}"


def _ord_p(n: int, p: int) -> int:
    if n == 0:
        raise PreconditionViolation("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def root_valuation_segments(poly, p: int, v: int) -> tuple:
    """(valuation, count) pairs for the roots of any integer polynomial.

    Lower convex hull of (i, ord_p(a_i)), built on integers; the slopes of
    its edges, negated and divided by v, are the root valuations.  Used
    directly for per-factor slope data.
    """
    pts = [(i, _ord_p(c, p)) for i, c in enumerate(poly.coeffs) if c != 0]
    # lower convex hull, left to right (Andrew monotone chain, lower part)
    hull: list[tuple[int, int]] = []
    for x, y in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    # edge slopes strictly increase, so reversed edges give increasing valuations
    edges = reversed(list(zip(hull, hull[1:])))
    return tuple((Fraction(y1 - y2, v * (x2 - x1)), x2 - x1) for (x1, y1), (x2, y2) in edges)


def newton_polygon(w: WeilPolynomial) -> NewtonPolygon:
    """Newton polygon of a Weil polynomial, slopes normalized by ord(q) = 1.

    Zero coefficients have valuation +infinity and contribute no hull
    point.  Total length, slope symmetry, lattice integrality (slope *
    length * v integral, true for every integer polynomial), and evenness
    of the half-slope length are checked before returning; their failure
    would mean an invalid polynomial slipped through validation.  The
    stronger normalized integrality (slope * length integral) holds for
    polygons of actual abelian varieties; `classify` refuses a polygon
    without it.
    """
    segments = root_valuation_segments(w.poly, w.p, w.v)
    np_ = NewtonPolygon(segments=segments)
    if np_.total_length != 2 * w.g:
        raise WeilrankError("Newton polygon length is not 2g")
    for s, l in segments:
        if np_.length(1 - s) != l:
            raise WeilrankError("slope symmetry violated")
        if (s * l * w.v).denominator != 1:
            raise WeilrankError("lattice integrality violated")
    if np_.length(Fraction(1, 2)) % 2:
        raise WeilrankError("slope 1/2 must have even length")
    return np_


@dataclass(frozen=True)
class NewtonType:
    labels: frozenset[str]
    primary: str

    def __str__(self):
        return self.primary


NEWTON_LABELS = ("ordinary", "supersingular", "almost_ordinary", "k3_type", "other")


def classify_newton(np_: NewtonPolygon, g: int) -> NewtonType:
    """Slope-pattern labels; the primary one is the first of NEWTON_LABELS that applies.

    ordinary: slopes {0, 1}; supersingular: {1/2}; almost_ordinary:
    {0, 1/2, 1} with length(1/2) = 2; k3_type: slopes within {0, 1/2, 1}
    and length(0) = length(1) = 1.  Small g makes several labels coincide
    (a g=1 ordinary polygon is also K3 type), so all that apply are kept.
    """
    slopes = set(np_.slopes)
    zero, half, one = Fraction(0), Fraction(1, 2), Fraction(1)
    labels = set()
    if slopes == {zero, one}:
        labels.add("ordinary")
    if slopes == {half}:
        labels.add("supersingular")
    if slopes == {zero, half, one} and np_.length(half) == 2:
        labels.add("almost_ordinary")
    if slopes <= {zero, half, one} and np_.length(zero) == 1 and np_.length(one) == 1:
        labels.add("k3_type")
    if not labels:
        labels.add("other")
    primary = next(l for l in NEWTON_LABELS if l in labels)
    return NewtonType(labels=frozenset(labels), primary=primary)


def slope_divisibility_check(np_: NewtonPolygon, e: int) -> bool:
    """True when e divides every segment length (must hold for simple X)."""
    if e <= 0:
        raise PreconditionViolation("multiplicity must be positive")
    return all(l % e == 0 for _, l in np_.segments)
