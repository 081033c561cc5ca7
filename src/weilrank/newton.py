"""Newton polygons of Weil polynomials and slope-type classification.

Slopes are the p-adic valuations of the eigenvalues, normalized so that
ord(q) = 1.  They come from the lower convex hull of the coefficient
valuations, built and checked on its integer edges; each returned slope is
one exact rational.
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
        # on numerators and denominators: a Fraction's denominator is positive
        slopes = [(s.numerator, s.denominator) for s, _ in self.segments]
        if any(not (0 <= a <= b) for a, b in slopes):
            raise PreconditionViolation("slopes must lie in [0, 1]")
        if any(l <= 0 for _, l in self.segments):
            raise PreconditionViolation("segment lengths must be positive")
        if any(a * d >= c * b for (a, b), (c, d) in zip(slopes, slopes[1:])):
            raise PreconditionViolation("slopes must be strictly increasing")

    @property
    def slopes(self) -> tuple[Fraction, ...]:
        return tuple(s for s, _ in self.segments)

    def length(self, slope) -> int:
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


def _hull_edges(poly, p: int) -> list[tuple[int, int]]:
    """(drop, run) edges of the lower convex hull of the points (i, ord_p(a_i)).

    Right to left, so the root valuations drop / (v run) they give increase
    strictly; collinear points make one edge.
    """
    hull: list[tuple[int, int]] = []
    for x, c in enumerate(poly.coeffs):
        if c == 0:
            continue
        y = _ord_p(c, p)
        # lower convex hull, left to right (Andrew monotone chain, lower part)
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    return [(y1 - y2, x2 - x1) for (x1, y1), (x2, y2) in zip(hull[-2::-1], hull[:0:-1])]


def root_valuation_segments(poly, p: int, v: int) -> tuple:
    """(valuation, count) pairs for the roots of any integer polynomial.

    Lower convex hull of (i, ord_p(a_i)), built on integers; the slopes of
    its edges, negated and divided by v, are the root valuations.  Used
    directly for per-factor slope data.
    """
    return tuple((Fraction(drop, v * run), run) for drop, run in _hull_edges(poly, p))


def newton_polygon(w: WeilPolynomial) -> NewtonPolygon:
    """Newton polygon of a Weil polynomial, slopes normalized by ord(q) = 1.

    Zero coefficients have valuation +infinity and contribute no hull
    point.  Total length and slope symmetry are checked before returning;
    their failure would mean an invalid polynomial slipped through
    validation.  They are checked on the integer hull edges (drop, run) of
    slope drop / (v run): slopes s and 1 - s of one length l pair the edges
    (d, l) and (v l - d, l) from either end.  Each pair is checked from both
    of its ends, so d + d' = v l = v l' also makes the lengths equal.
    Two more properties then hold without a check.  Lattice integrality:
    slope * length * v is the drop d, an integer.  The slope-1/2 length is
    even: slopes increase strictly, so a slope-1/2 edge is its own partner,
    the middle edge, and the others pair up with equal lengths, so its
    length is 2g less an even number.  The stronger normalized integrality
    (slope * length integral) holds for polygons of actual abelian
    varieties; `classify` refuses a polygon without it.
    """
    edges = _hull_edges(w.poly, w.p)
    v = w.v
    np_ = NewtonPolygon(segments=tuple((Fraction(d, v * l), l) for d, l in edges))
    if sum(l for _, l in edges) != 2 * w.g:
        raise WeilrankError("Newton polygon length is not 2g")
    if any(d + d2 != v * l for (d, l), (d2, _) in zip(edges, reversed(edges))):
        raise WeilrankError("slope symmetry violated")
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
    # 2 * slope -> length, for the slopes 0, 1/2 and 1
    lengths = {2 * s.numerator // s.denominator: l for s, l in np_.segments if s.denominator <= 2}
    labels = set()
    if len(lengths) == len(np_.segments):  # no other slope
        if lengths.keys() == {0, 2}:
            labels.add("ordinary")
        if lengths.keys() == {1}:
            labels.add("supersingular")
        if lengths.keys() == {0, 1, 2} and lengths[1] == 2:
            labels.add("almost_ordinary")
        if lengths.get(0) == 1 and lengths.get(2) == 1:
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
