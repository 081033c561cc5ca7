"""Enumeration harnesses: exhaustive Weil polynomial generation, the
totally-real cubic constructor, and the targeted non-neat sextic finder.

The enumerator walks the trace polynomial h, with P(t) = t^g h(t + q/t),
one coefficient per level.  At level k an interval computed in integers
bounds the coefficient by the condition that the derivative D_k of h of
degree k keeps all its roots in [-2 sqrt(q), 2 sqrt(q)] (Kedlaya, "Search
techniques for root-unitary polynomials", 2008).  For k <= 3 the
interval is exact; from k = 4 on it keeps only the necessary endpoint
signs.  So for g <= 3 every leaf is a Weil polynomial by construction and
is not validated again, and for g >= 4 each leaf passes one exact range
test on h first.
Everything is deterministic; there is no randomness anywhere in the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb, factorial, isqrt

from .classify import classify_auto
from .errors import (
    BSplitAtP,
    NonIntegralPolygon,
    NotPrimePower,
    PreconditionViolation,
    QNotSquare,
    ResidueConditionFails,
    RiemannHypothesisFails,
)
from .exactcore import (
    IntPoly,
    is_prime,
    legendre_symbol,
    prime_power,
    squarefree_part,
    sturm_real_root_count,
)
from .newton import classify_newton, newton_polygon
from .subfields import _conjugate_cubic, p_splits
from .weil import _check_in_range, _from_trace, validate

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
    bounds: dict = field(default_factory=dict)  # index g..2g-1 -> bound override
    irreducible_only: bool = False
    newton_label: str | None = None
    non_neat_only: bool = False
    limit: int | None = None

    def bound(self, i: int) -> int:
        if i in self.bounds:
            return self.bounds[i]
        return default_bound(self.g, self.q, i)


def _floor_surd(s: int, t: int, d: int, den: int = 1) -> int:
    """floor((s + t sqrt(d)) / den) exactly, for integers s, t, d >= 0 and den > 0.

    The ceiling is -_floor_surd(-s, -t, d, den).
    """
    r = isqrt(t * t * d)  # floor(|t| sqrt(d))
    if t < 0:
        r = -r if r * r == t * t * d else -r - 1
    # floor((s + y) / den) = floor((s + floor(y)) / den) for integer s
    return (s + r) // den


def _level_interval(spec: SearchSpec, prefix: list[int]) -> tuple[int, int]:
    """The least and greatest b_(g-k) at level k = len(prefix) + 1 of the trace walk.

    prefix = [b_(g-1), ..., b_(g-k+1)] are the chosen top coefficients of
    the monic trace polynomial h, and D_(k-1) = h^(g-k+1) already has all
    its roots in I = [-2 sqrt(q), 2 sqrt(q)].  D_k = h^(g-k) has degree k,
    a positive leading coefficient, constant term (g-k)! b_(g-k), and
    derivative D_(k-1).  So its roots all lie in I exactly when
    D_k(2 sqrt q) >= 0, (-1)^k D_k(-2 sqrt q) >= 0, and D_k alternates in
    sign at the roots c_1 <= ... <= c_(k-1) of D_(k-1),
    (-1)^(k-j) D_k(c_j) >= 0: these signs put a root in each of the k
    pieces into which the c_j cut I, and roots of D_k in I interlace with
    the c_j.  Each condition bounds b_(g-k) by a number s + t sqrt(d),
    rounded exactly, so for k <= 3 the interval is exact.  For k >= 4 the
    c_j are roots of a polynomial of degree >= 3, and only the two endpoint
    signs are applied: necessary conditions, because by Gauss-Lucas the
    roots of D_k lie in I whenever those of h do.
    The interval is intersected with the box bound on
    a_(2g-k) = b_(g-k) + (terms in b_(g-k+1), ..., b_g).
    """
    g, q = spec.g, spec.q
    k = len(prefix) + 1
    b = [1, *prefix]  # b[i] = b_(g-i)
    # D_k = f b_(g-k) + sum over m = 1..k of e[m] x^m
    e = [0] + [b[k - m] * factorial(g - k + m) // factorial(m) for m in range(1, k + 1)]
    f = factorial(g - k)
    # the non-constant part of D_k at x = +-2 sqrt(q) is s +- t sqrt(q)
    s = sum(e[m] * 2**m * q ** (m // 2) for m in range(2, k + 1, 2))
    t = sum(e[m] * 2**m * q ** (m // 2) for m in range(1, k + 1, 2))
    shift = sum(comb(g - k + 2 * i, i) * q**i * b[k - 2 * i] for i in range(1, k // 2 + 1))
    bound = spec.bound(2 * g - k)
    lo = max(-bound - shift, -_floor_surd(s, t, q, f))
    hi = bound - shift
    if k % 2:
        hi = min(hi, _floor_surd(-s, t, q, f))
    else:
        lo = max(lo, -_floor_surd(s, -t, q, f))
    if k == 2:  # one critical point, -e1 / (2 e2), where D_2 <= 0
        hi = min(hi, e[1] * e[1] // (4 * e[2] * f))
    elif k == 3:  # critical points (u -+ sqrt(disc)) / w, roots of D_2 = e1 + 2 e2 x + 3 e3 x^2
        u, w = -2 * e[2], 6 * e[3]
        disc = 4 * e[2] * e[2] - 12 * e[1] * e[3]
        # the non-constant part of D_3 there is (s3 -+ t3 sqrt(disc)) / w^3
        s3 = e[3] * (u**3 + 3 * u * disc) + e[2] * w * (u * u + disc) + e[1] * w * w * u
        t3 = e[3] * (3 * u * u + disc) + 2 * e[2] * w * u + e[1] * w * w
        den = f * w**3
        lo = max(lo, -_floor_surd(s3, -t3, disc, den))  # D_3(c_1) >= 0
        hi = min(hi, _floor_surd(-s3, -t3, disc, den))  # D_3(c_2) <= 0
    return lo, hi


def _trace_walk(spec: SearchSpec):
    """Every Weil polynomial in the box, walked in trace coordinates.

    Only nodes that pass `_level_interval` are visited.  For g <= 3 every
    leaf is a Weil polynomial, built without revalidation; for g >= 4 a
    leaf is kept when its trace polynomial passes `_check_in_range`.
    """
    g, q = spec.g, spec.q
    pp = prime_power(q)
    if pp is None:
        raise NotPrimePower(f"q = {q} is not a prime power")

    def rec(prefix):
        lo, hi = _level_interval(spec, prefix)
        if len(prefix) + 1 < g:
            for y in range(lo, hi + 1):
                yield from rec([*prefix, y])
            return
        top = [*reversed(prefix), 1]
        if g <= 3:
            for y in range(lo, hi + 1):
                yield _from_trace(IntPoly([y, *top]), q, pp)
            return
        for y in range(lo, hi + 1):
            h = IntPoly([y, *top])
            try:
                _check_in_range(h, q)
            except RiemannHypothesisFails:
                continue
            yield _from_trace(h, q, pp)

    return rec([])


def enumerate_weil(spec: SearchSpec):
    """Yield every valid Weil polynomial in the box, lexicographically.

    The order is lexicographic in the free ascending-index coefficients
    (a_(2g-1), ..., a_g), each within its box bound.  The walk runs over
    the trace polynomial's coefficients (b_(g-1), ..., b_0), a
    unit-triangular change of coordinates that keeps this order.  For
    g <= 3 each level visits exactly the b that can still lead to a Weil
    polynomial; for g >= 4 the first three levels do, and each leaf is
    checked exactly.  The filters apply to each polynomial in turn; at
    most `limit` polynomials are yielded.
    """
    if spec.g < 1:
        raise PreconditionViolation(f"g must be at least 1, got {spec.g}")
    if spec.limit is not None and spec.limit < 0:
        raise PreconditionViolation(f"limit must be non-negative, got {spec.limit}")
    if not set(spec.bounds) <= set(range(spec.g, 2 * spec.g)):
        raise PreconditionViolation(f"bounds keys must be in {spec.g}..{2 * spec.g - 1}")
    if spec.limit == 0:
        return
    emitted = 0
    for w in _trace_walk(spec):
        if spec.irreducible_only and w.factors != ((w.poly, 1),):
            continue
        if spec.newton_label is not None:
            labels = classify_newton(newton_polygon(w), spec.g).labels
            if spec.newton_label not in labels:
                continue
        if spec.non_neat_only:
            try:
                if classify_auto(w).neat:
                    continue
            except NonIntegralPolygon:  # no abelian variety of dimension g
                continue
        yield w
        emitted += 1
        if spec.limit is not None and emitted >= spec.limit:
            return


def _integral_elements_in_disk(m: int, radius_sq: int):
    """Integral elements x = (u + v sqrt(m))/den of Q(sqrt(m)), |x|^2 <= radius_sq.

    den = 2 with u, v of equal parity when m = 1 mod 4, else den = 1.
    Yields the numerators (u, v) in a deterministic order.
    """
    den = 2 if m % 4 == 1 else 1
    cap = radius_sq * den * den
    umax = isqrt(cap)
    for u in range(-umax, umax + 1):
        vmax = isqrt((cap - u * u) // (-m))  # so that u^2 - m v^2 <= cap
        for v in range(-vmax, vmax + 1):
            if den == 1 or (u - v) % 2 == 0:
                yield u, v


def find_non_neat_sextics(p: int, q: int, m: int, limit=None):
    """Search conjugate-cubic products G * conj(G) for non-neat threefolds.

    G = t^3 + A t^2 + B t + C with A integral of absolute value at most
    3 sqrt(q), C = +-q^(3/2), and B forced to conj(A) * C / q: eigenvalue
    closure under alpha -> q/alpha demands it, so free-B candidates can
    never validate.  `_conjugate_cubic` builds G from 2A and 2C = 2c^3,
    and P = G conj(G) is integral because A is.  Each
    P is validated, checked irreducible and almost ordinary, classified over
    a sufficiently large field, and emitted with its factorization witness
    only when non-neat; at most `limit` are emitted.
    """
    if not is_prime(p):
        raise PreconditionViolation(f"{p} is not prime")
    root_q = isqrt(q)
    if root_q * root_q != q:
        raise QNotSquare(f"q = {q} is not a perfect square")
    pp = prime_power(q)
    if pp is None or pp[0] != p:
        raise PreconditionViolation(f"q = {q} is not a power of p = {p}")
    if m >= 0 or squarefree_part(m) != m:
        raise PreconditionViolation("m must be negative squarefree")
    if p_splits(m, p) == "split":
        raise BSplitAtP(f"p = {p} splits in Q(sqrt({m}))")
    if limit is not None and limit < 0:
        raise PreconditionViolation(f"limit must be non-negative, got {limit}")
    den = 2 if m % 4 == 1 else 1
    count = 0
    for c in (root_q, -root_q):  # C = c^3 and B = conj(A) c
        for u, v in _integral_elements_in_disk(m, 9 * q):
            if limit is not None and count >= limit:
                return
            cf = _conjugate_cubic(m, 2 * c**3, 0, 2 * u // den, 2 * v // den, q)
            try:
                w = validate(cf.expand(), q)
            except RiemannHypothesisFails:  # G conj(G) meets the functional equation
                continue
            if w.factors != ((w.poly, 1),):
                continue
            if "almost_ordinary" not in classify_newton(newton_polygon(w), 3).labels:
                continue
            report = classify_auto(w, force_oracle=True)
            if report.neat:
                continue
            yield w, cf
            count += 1


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
    shape_poly = IntPoly([0, (-l) % p, 0, 1])  # x^3 - l x mod p
    unit = cleared.leading % p
    expected = IntPoly([c * unit % p for c in shape_poly.coeffs])
    mod_p_ok = IntPoly([c % p for c in cleared.coeffs]) == expected
    return CubicFieldReport(
        p=p,
        l=l,
        cleared=cleared,
        eisenstein_at_l=eis,
        real_root_count=reals,
        mod_p_shape=mod_p_ok,
    )
