"""Enumeration harnesses: exhaustive Weil polynomial generation, the
totally-real cubic constructor, and the targeted non-neat sextic finder.

The enumerator walks the free half of the coefficient box (the functional
equation forces the lower-degree half), converts each candidate to its
trace polynomial, and applies an exact real-rootedness-and-range test, so
only genuine Weil polynomials are ever materialized.  Everything is
deterministic; there is no randomness anywhere in the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, isqrt

from .classify import classify_auto
from .errors import (
    BSplitAtP,
    FunctionalEquationFails,
    PreconditionViolation,
    QNotSquare,
    ResidueConditionFails,
    RiemannHypothesisFails,
    WeilrankError,
)
from .exactcore import (
    IntPoly,
    is_irreducible,
    is_prime,
    legendre_symbol,
    squarefree_part,
    sturm_real_root_count,
)
from .newton import classify_newton, newton_polygon
from .subfields import ConjugateFactorization, QuadraticElement, p_splits
from .subfields import _qmul  # polynomial product over Q(sqrt(m))
from .weil import WeilPolynomial, validate

__all__ = [
    "SearchSpec",
    "enumerate_weil",
    "find_non_neat_sextics",
    "construct_totally_real_cubic",
    "CubicFieldReport",
]


def default_bound(g: int, q: int, i: int) -> int:
    """RH-implied bound for the ascending coefficient of t^i: C(2g,i) q^((2g-i)/2)."""
    if (2 * g - i) % 2 == 0:
        return comb(2 * g, i) * q ** ((2 * g - i) // 2)
    # floor of C * q^(k/2) for odd k, exactly
    c = comb(2 * g, i)
    k = 2 * g - i
    return isqrt(c * c * q**k)


@dataclass(frozen=True)
class SearchSpec:
    """Coefficient box and filters for the Weil polynomial enumeration."""

    g: int
    q: int
    bounds: dict = field(default_factory=dict)  # ascending index -> bound override
    irreducible_only: bool = False
    newton_label: str | None = None
    non_neat_only: bool = False
    limit: int | None = None

    def bound(self, i: int) -> int:
        if i in self.bounds:
            return self.bounds[i]
        return default_bound(self.g, self.q, i)


def _sign_nonneg_sqrt(a: int, b: int, q: int) -> bool:
    """Exact test of a + b*sqrt(q) >= 0."""
    if a >= 0 and b >= 0:
        return True
    if a < 0 and b < 0:
        return False
    if b >= 0:
        return a * a <= b * b * q
    return a * a >= b * b * q


def _trace_is_weil_g3(b2: int, b1: int, b0: int, q: int) -> bool:
    """All roots of x^3 + b2 x^2 + b1 x + b0 real and within [-2 sqrt q, 2 sqrt q]."""
    disc = (
        18 * b2 * b1 * b0
        - 4 * b2**3 * b0
        + b2 * b2 * b1 * b1
        - 4 * b1**3
        - 27 * b0 * b0
    )
    if disc < 0:
        return False
    # roots <= 2 sqrt(q):  h, h', h'' all >= 0 there
    if not _sign_nonneg_sqrt(4 * q * b2 + b0, 8 * q + 2 * b1, q):
        return False
    if not _sign_nonneg_sqrt(12 * q + b1, 4 * b2, q):
        return False
    if not _sign_nonneg_sqrt(2 * b2, 12, q):
        return False
    # roots >= -2 sqrt(q): alternating signs of derivatives there
    if not _sign_nonneg_sqrt(-(4 * q * b2 + b0), 8 * q + 2 * b1, q):
        return False
    if not _sign_nonneg_sqrt(12 * q + b1, -4 * b2, q):
        return False
    if not _sign_nonneg_sqrt(-2 * b2, 12, q):
        return False
    return True


def _trace_is_weil_g2(b1: int, b0: int, q: int) -> bool:
    """All roots of x^2 + b1 x + b0 real and within [-2 sqrt q, 2 sqrt q]."""
    if b1 * b1 - 4 * b0 < 0:
        return False
    if not _sign_nonneg_sqrt(4 * q + b0, 2 * b1, q):
        return False
    if not _sign_nonneg_sqrt(4 * q + b0, -2 * b1, q):
        return False
    # vertex inside the interval: |b1/2| <= 2 sqrt(q) is implied by the
    # two endpoint conditions plus realness only when b0 <= 4q; check it
    if not _sign_nonneg_sqrt(-b1, 4, q):
        return False
    if not _sign_nonneg_sqrt(b1, 4, q):
        return False
    return True


def _candidate_poly(g: int, q: int, free: tuple) -> IntPoly:
    """Assemble P from the free coefficients (a_(2g-1), ..., a_g)."""
    coeffs = [0] * (2 * g + 1)
    coeffs[2 * g] = 1
    for j, val in enumerate(free):
        coeffs[2 * g - 1 - j] = val
    for i in range(g):
        coeffs[i] = q ** (g - i) * coeffs[2 * g - i]
    return IntPoly(coeffs)


def _weil_at_leaf(g: int, q: int, free: tuple) -> WeilPolynomial | None:
    """The validated Weil polynomial of a box leaf, or None if RH fails.

    For g <= 3 an exact sign test on the trace polynomial decides, and the
    full validator re-checks each survivor defensively; for g >= 4 the
    validator itself decides.
    """
    if g == 1:
        (a1,) = free
        passes = a1 * a1 <= 4 * q
    elif g == 2:
        a3, a2 = free
        passes = _trace_is_weil_g2(a3, a2 - 2 * q, q)
    elif g == 3:
        a5, a4, a3 = free
        passes = _trace_is_weil_g3(a5, a4 - 3 * q, a3 - 2 * q * a5, q)
    else:
        try:
            return validate(_candidate_poly(g, q, free), q)
        except RiemannHypothesisFails:
            return None
    return validate(_candidate_poly(g, q, free), q) if passes else None


def enumerate_weil(spec: SearchSpec):
    """Yield every valid Weil polynomial in the box, lexicographically.

    The tuple (a_(2g-1), ..., a_g) of free ascending-index coefficients
    runs in lexicographic order, each coordinate from -bound to +bound.
    The exact real-rootedness test on the trace polynomial is equivalent
    to validation, which is re-run on every emitted polynomial as a
    defensive check.  At most `limit` polynomials are yielded.
    """
    g, q = spec.g, spec.q
    if spec.limit is not None and spec.limit < 0:
        raise PreconditionViolation(f"limit must be non-negative, got {spec.limit}")
    ranges = [range(-spec.bound(i), spec.bound(i) + 1) for i in range(2 * g - 1, g - 1, -1)]
    emitted = 0

    def rec(prefix):
        if len(prefix) == g:
            w = _weil_at_leaf(g, q, prefix)
            if w is not None:
                yield w
            return
        for val in ranges[len(prefix)]:
            yield from rec(prefix + (val,))

    if spec.limit == 0:
        return
    for w in rec(()):
        if spec.irreducible_only and not is_irreducible(w.poly):
            continue
        if spec.newton_label is not None:
            labels = classify_newton(newton_polygon(w), g).labels
            if spec.newton_label not in labels:
                continue
        if spec.non_neat_only:
            report = classify_auto(w)
            if report.neat:
                continue
        yield w
        emitted += 1
        if spec.limit is not None and emitted >= spec.limit:
            return


def _integral_elements_in_disk(m: int, radius_sq: int):
    """Integral elements x = (u + v sqrt(m))/den of Q(sqrt(m)), |x|^2 <= radius_sq.

    den = 2 with u, v of equal parity when m = 1 mod 4, else den = 1.
    Deterministic (u, v) order.
    """
    den = 2 if m % 4 == 1 else 1
    cap = radius_sq * den * den
    umax = isqrt(cap)
    out = []
    for u in range(-umax, umax + 1):
        rest = cap - u * u
        if rest < 0:
            continue
        vmax = isqrt(rest // (-m))
        for v in range(-vmax, vmax + 1):
            if den == 2 and (u - v) % 2:
                continue
            if u * u - m * v * v <= cap:
                out.append(QuadraticElement(Fraction(u, den), Fraction(v, den), m))
    return out


def find_non_neat_sextics(p: int, q: int, m: int, a_bound_sq=None, limit=None):
    """Search conjugate-cubic products G * conj(G) for non-neat threefolds.

    G = t^3 + A t^2 + B t + C with A integral of absolute value at most
    3 sqrt(q), C = +-q^(3/2), and B forced to conj(A) * C / q: eigenvalue
    closure under alpha -> q/alpha demands it, so free-B candidates can
    never validate.  Each surviving P is validated, checked irreducible
    and almost ordinary, classified over a sufficiently large field, and
    emitted with its factorization witness only when non-neat.
    """
    if not is_prime(p):
        raise PreconditionViolation(f"{p} is not prime")
    root_q = isqrt(q)
    if root_q * root_q != q:
        raise QNotSquare(f"q = {q} is not a perfect square")
    if m >= 0 or squarefree_part(m) != m:
        raise PreconditionViolation("m must be negative squarefree")
    if p_splits(m, p) == "split":
        raise BSplitAtP(f"p = {p} splits in Q(sqrt({m}))")
    if a_bound_sq is None:
        a_bound_sq = 9 * q
    one = QuadraticElement(Fraction(1), Fraction(0), m)
    count = 0
    for sign in (1, -1):
        big_c = QuadraticElement(Fraction(sign * root_q**3), Fraction(0), m)
        for a_elt in _integral_elements_in_disk(m, a_bound_sq):
            b_elt = a_elt.conjugate() * Fraction(sign * root_q)
            g_coeffs = [big_c, b_elt, a_elt, one]
            prod = _qmul(g_coeffs, [c.conjugate() for c in g_coeffs], m)
            if not all(c.is_rational for c in prod):
                raise WeilrankError("G * conj(G) has an irrational coefficient")
            if not all(c.a0.denominator == 1 for c in prod):
                continue
            poly = IntPoly([int(c.a0) for c in prod])
            try:
                w = validate(poly, q)
            except (FunctionalEquationFails, RiemannHypothesisFails):
                continue
            if not is_irreducible(poly):
                continue
            if "almost_ordinary" not in classify_newton(newton_polygon(w), 3).labels:
                continue
            report = classify_auto(w, force_oracle=True)
            if report.neat:
                continue
            witness = ConjugateFactorization(m=m, g=tuple(g_coeffs))
            if witness.expand() != poly:
                raise WeilrankError("witness does not re-expand to the sextic")
            yield w, witness
            count += 1
            if limit is not None and count >= limit:
                return


@dataclass(frozen=True)
class CubicFieldReport:
    """Verification record for the totally real cubic x(x^2 - l) + pl/(pl+1)^4."""

    p: int
    l: int
    cleared: IntPoly  # denominator-cleared integer polynomial
    eisenstein_at_l: bool
    real_root_count: int
    mod_p_shape: bool  # reduces to unit * x * (x^2 - l) with x^2 - l irreducible

    @property
    def all_checks_pass(self) -> bool:
        return self.eisenstein_at_l and self.real_root_count == 3 and self.mod_p_shape


def construct_totally_real_cubic(p: int, l: int) -> CubicFieldReport:
    """Build and verify the cubic with split-plus-inert behavior at p.

    Requires p odd prime, l prime different from p, and l a quadratic
    non-residue mod p; the constructed field is totally real, irreducible
    by the Eisenstein criterion at l, and factors mod p as a linear times
    an irreducible quadratic.
    """
    if not is_prime(p) or p == 2:
        raise PreconditionViolation(f"p = {p} must be an odd prime")
    if not is_prime(l) or l == p:
        raise PreconditionViolation(f"l = {l} must be a prime different from p")
    if legendre_symbol(l, p) != -1:
        raise ResidueConditionFails(f"{l} is a quadratic residue mod {p}")
    scale = (p * l + 1) ** 4
    cleared = IntPoly([p * l, -l * scale, 0, scale])
    # Eisenstein at l: l divides all but the leading coefficient, l^2 not the constant
    eis = (
        cleared.leading % l != 0
        and all(c % l == 0 for c in cleared.coeffs[:-1])
        and cleared.coeffs[0] % (l * l) != 0
    )
    reals = sturm_real_root_count(cleared)
    red = [c % p for c in cleared.coeffs]
    shape_poly = IntPoly([0, (-l) % p, 0, 1])  # x^3 - l x mod p
    unit = cleared.leading % p
    expected = IntPoly([c * unit % p for c in shape_poly.coeffs])
    mod_p_ok = IntPoly([c % p for c in red]) == expected and legendre_symbol(l, p) == -1
    return CubicFieldReport(
        p=p,
        l=l,
        cleared=cleared,
        eisenstein_at_l=eis,
        real_root_count=reals,
        mod_p_shape=mod_p_ok,
    )
