"""Imaginary quadratic subfields of CM fields via conjugate factorizations.

A quadratic subfield Q(sqrt(m)) of E = Q[t]/(pmin) is witnessed by a factorization
pmin = G * conj(G) over Q(sqrt(m)).  For a Weil factor the candidate m are read off
one integer, Res(h, x^2 - 4q) for the trace polynomial h (`_subfield_candidates`),
and each is settled by factoring pmin over Q(sqrt(m)) with Trager's norm method.

That factoring runs on polynomials over Z[sqrt(m)], each held as a pair
(U, V) of IntPoly meaning U + sqrt(m) V: shifts t -> t + s sqrt(m) by
repeated synthetic division, norms U^2 - m V^2 in Z[t], and gcds by
fraction-free pseudo-remainders.  A witness G is such a pair over a
positive integer denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from math import gcd, isqrt

from .errors import NotIrreducible, NotSextic, PreconditionViolation, WeilrankError
from .exactcore import (
    IntPoly,
    discriminant,
    factor_int,
    factor_over_integers,
    is_irreducible,
    is_perfect_square,
    is_prime,
    legendre_symbol,
    poly_gcd,
    prime_power,
    squarefree_part,
)
from .exactcore.poly import surd_parts
from .weil import WeilPolynomial, trace_polynomial, validate

__all__ = [
    "ConjugateFactorization",
    "quadratic_subfields",
    "conjugate_factorizations",
    "conjugate_split",
    "norm_one_witness",
    "norm_condition",
    "p_splits",
    "elliptic_cm_field",
    "cubic_resolvent_is_galois",
]


# -- polynomials over Z[sqrt(m)]: pairs (U, V) of IntPoly meaning U + sqrt(m) V --


def _lead(p):
    """The degree of the nonzero pair p and its leading coefficient, a pair of integers."""
    d = max(x.degree for x in p)
    return d, tuple(x.leading if x.degree == d else 0 for x in p)


def _shift(p, s, m):
    """p(t + s sqrt(m)), by repeated synthetic division (the Taylor shift)."""
    n = max(len(x.coeffs) for x in p)
    u, v = ([*x.coeffs] + [0] * (n - len(x.coeffs)) for x in p)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            u[j], v[j] = u[j] + s * m * v[j + 1], v[j] + s * u[j + 1]
    return IntPoly(u), IntPoly(v)


def _gcd(a, b, m):
    """A gcd of the pairs a and b over Q(sqrt(m)), up to a factor in Q(sqrt(m)).

    A fraction-free pseudo-remainder sequence: times the conjugate of its
    leading coefficient, the divisor has the integer norm N as leading
    coefficient, so the dividend times N leaves a remainder in Z[sqrt(m)][t].
    The integer content of each remainder is divided out.
    """
    while not (b[0].is_zero and b[1].is_zero):
        d, (x, y) = _lead(b)
        bu, bv = b[0] * x - b[1] * (m * y), b[1] * x - b[0] * y
        n = x * x - m * y * y
        u, v = a
        while max(u.degree, v.degree) >= d:
            k, (cu, cv) = _lead((u, v))
            u = u * n - (bu * cu + bv * (m * cv)).shift(k - d)
            v = v * n - (bv * cu + bu * cv).shift(k - d)
        c = gcd(u.content(), v.content()) or 1
        a, b = b, (IntPoly([e // c for e in u.coeffs]), IntPoly([e // c for e in v.coeffs]))
    return a


# -- Trager factorization over a quadratic field ----------------------------


def _trager_split(f: IntPoly, m: int):
    """The monic degree-(n/2) factor G over Q(sqrt(m)) with G*conj(G) = f.

    f must be monic, irreducible over Q, of even degree.  The shift
    f(t - s sqrt(m)) is a pair (U, V) for s = 0, 1, ..., until its norm
    U^2 - m V^2, computed in Z[t], is squarefree.  The norm then splits over
    Q exactly when f splits over Q(sqrt(m)), into the norms of the two
    shifted factors, and the gcd of (U, V) with one of them is that factor.
    Returns the witness G, checked by re-expansion, or None when f stays
    irreducible over Q(sqrt(m)).
    """
    n = f.degree
    zero = IntPoly()
    for s in range(0, 4 * n * n + 5):
        u, v = shifted = _shift((f, zero), -s, m)
        norm = u * u - v * v * m
        if poly_gcd(norm, norm.derivative()).degree == 0:
            break
    else:  # pragma: no cover - squarefree shift always exists
        raise PreconditionViolation("no squarefree norm shift found")
    factors = factor_over_integers(norm)
    if len(factors) != 2:
        return None
    # undo the shift (roots were moved by +s*sqrt(m))
    g = _shift(_gcd(shifted, (factors[0][0], zero), m), s, m)
    d, (x, y) = _lead(g)
    if d != n // 2:
        return None
    # times the conjugate of its leading coefficient, g has the leading coefficient
    # x^2 - m y^2 > 0; G is g over that, or its conjugate: the one whose first
    # nonzero sqrt(m)-part is negative
    u, v = g[0] * x - g[1] * (m * y), g[1] * x - g[0] * y
    if next((c for c in v.coeffs if c), 0) > 0:
        v = -v
    cf = ConjugateFactorization(m, u, v, x * x - m * y * y)
    if cf.expand() != f:
        raise WeilrankError("witness does not re-expand to pmin")
    return cf


@dataclass(frozen=True)
class ConjugateFactorization:
    """Witness that pmin = G * conj(G) over Q(sqrt(m)), m negative squarefree.

    G = (u + sqrt(m) v) / den for integer polynomials u and v.  The common
    factor of den and the contents of u and v is divided out on
    construction, so den > 0 and (u, v, den) is in lowest terms.
    """

    m: int
    u: IntPoly
    v: IntPoly
    den: int

    def __post_init__(self):
        if self.den <= 0:
            raise PreconditionViolation("den must be positive")
        c = gcd(self.u.content(), self.v.content(), self.den)
        if c > 1:
            object.__setattr__(self, "u", IntPoly([x // c for x in self.u.coeffs]))
            object.__setattr__(self, "v", IntPoly([x // c for x in self.v.coeffs]))
            object.__setattr__(self, "den", self.den // c)

    @property
    def degree(self):
        return self.u.degree

    @property
    def coefficients(self) -> tuple[tuple[Fraction, Fraction], ...]:
        """The coefficients of G, constant term first, as (rational part, sqrt(m)-part)."""
        cs = zip_longest(self.u.coeffs, self.v.coeffs, fillvalue=0)
        return tuple((Fraction(a, self.den), Fraction(b, self.den)) for a, b in cs)

    def expand(self) -> IntPoly:
        """G * conj(G) = (u^2 - m v^2) / den^2; must reproduce pmin exactly."""
        prod = self.u * self.u - self.v * self.v * self.m
        d2 = self.den * self.den
        if any(c % d2 for c in prod.coeffs):
            raise WeilrankError("G * conj(G) is not an integer polynomial")
        return IntPoly([c // d2 for c in prod.coeffs])


def _candidate_ms(disc: int):
    """Negative squarefree integers supported on the primes of disc."""
    primes = sorted(factor_int(disc))
    subsets = [1]
    for p in primes:
        subsets += [s * p for s in subsets]
    return sorted((-s for s in subsets), key=abs)


def _subfield_candidates(pmin: IntPoly, q: int, square_class=squarefree_part):
    """The m < 0, by |m|, that may have Q(sqrt(m)) inside E = Q[t]/(pmin).

    pmin is an irreducible Weil factor of degree 2n, pmin = t^n h(t + q/t), and
    E = E+(sqrt(d)) with E+ = Q(x), h(x) = 0, d = x^2 - 4q < 0 at every root of h.
    Q(sqrt(m)) lies in E exactly when m d is a square in E+, so m^n R is a square
    for R = N(d) = Res(h, x^2 - 4q) = h(2 sqrt(q)) h(-2 sqrt(q)).  n odd: R < 0,
    and m = sqfree(R) is the only candidate.  n = 2: a subfield needs R = r^2,
    r >= 0.  Then d1 d2 = r^2 at the roots x1, x2 of h, so E holds
    sqrt(d2) = -r / sqrt(d1) and (sqrt(d1) + sqrt(d2))^2 = T - 2r < 0, T = d1 + d2:
    E = Q(sqrt(m1), sqrt(disc h)) is biquadratic, with both m1 = sqfree(T - 2r) and
    m1 disc(h) as subfields (T + 2r is 0 when x1 = -x2).  n >= 4 even: R must be
    a square, and then every m on the primes of disc(pmin) is a candidate.  For n <= 2
    `square_class` names each field; `int` names it by an integer of its square class,
    so nothing is factored, and the order by |m| is then not kept.
    """
    h = trace_polynomial(pmin, q)
    s, t = surd_parts(h, 4 * q)
    big_r = s * s - 4 * q * t * t
    if h.degree % 2:
        return [square_class(big_r)]
    r = isqrt(big_r)
    if r * r != big_r:
        return []
    if h.degree > 2:
        return _candidate_ms(discriminant(pmin))
    b0, b1, _ = h.coeffs
    m1 = square_class(b1 * b1 - 2 * b0 - 8 * q - 2 * r)
    return sorted([m1, square_class(m1 * (b1 * b1 - 4 * b0))], key=abs)


def conjugate_factorizations(pmin: IntPoly):
    """All imaginary quadratic conjugate-factorizations of an irreducible Weil factor.

    q is read off pmin(0) = q^(deg(pmin) / 2), `validate` refuses a pmin that is not
    a Weil q-polynomial, and one Trager split per `_subfield_candidates` decides.
    """
    pp = prime_power(c0 := pmin.evaluate(0))
    w = validate(pmin, pp[0] ** (2 * pp[1] // max(pmin.degree, 1)) if pp else c0)
    if len(w.components) > 1 or w.components[0].e > 1:
        raise NotIrreducible("polynomial must be irreducible")
    splits = (_trager_split(pmin, m) for m in _subfield_candidates(pmin, w.q))
    return tuple(cf for cf in splits if cf is not None)


def quadratic_subfields(pmin: IntPoly):
    """Imaginary quadratic subfield witnesses of a sextic CM field.

    A sextic has one candidate m, the squarefree part of Res(h, x^2 - 4q)
    (`_subfield_candidates`), so at most one witness, which re-expands
    exactly to pmin.
    """
    if pmin.degree != 6:
        raise NotSextic(f"degree {pmin.degree}, expected 6")
    return conjugate_factorizations(pmin)


def conjugate_split(pmin: IntPoly, m: int):
    """Conjugate factorization of irreducible pmin over one given Q(sqrt(m))."""
    if m >= 0 or squarefree_part(m) != m:
        raise PreconditionViolation("m must be negative squarefree")
    if not is_irreducible(pmin):
        raise NotIrreducible("polynomial must be irreducible")
    return _trager_split(pmin, m)


def _conjugate_cubic(m: int, x: int, y: int, a: int, v: int, q: int) -> ConjugateFactorization:
    """G = t^3 + A t^2 + conj(A) C / q t + C for 2A = a + v sqrt(m), 2C = x + y sqrt(m):
    4q G = u + sqrt(m) w, where 4q conj(A) C / q = conj(2A) 2C."""
    u = IntPoly([2 * q * x, a * x - m * v * y, 2 * q * a, 4 * q])
    w = IntPoly([2 * q * y, a * y - v * x, 2 * q * v])
    return ConjugateFactorization(m, u, w, 4 * q)


def _sextic_witness(pmin: IntPoly, p: int, k: int, norm_one: bool):
    """(G, order of zeta) with pmin = G * conj(G) over an imaginary quadratic field
    for a Weil sextic pmin over F_q, q = p^k, and zeta = G(0)^2 / q^3 a root of unity:
    zeta = 1 when `norm_one` is set, zeta != 1 otherwise.  None when there is none.

    G = t^3 + A t^2 + B t + C over K = Q(sqrt(m)).  C in K forces sqrt(zeta) q^(3/2)
    in K, so 2C = x + y sqrt(m) is one of a few constants, up to the signs of x, y:
    for q = r^2, C = r^3 with m free, r^3 sqrt(-1) or r^3 (1 + sqrt(-3)) / 2; for k
    odd and s = p^((3k - 1)/2), s sqrt(-p), s (1 + sqrt(-1)) when p = 2, or
    s (3 + sqrt(-3)) / 2 when p = 3.  Each root a of G has conj(a) = q/a, so
    B = -C sum 1/a and conj(A) = -q sum 1/a give B = conj(A) C / q.  With
    2A = c5 + v sqrt(m), the t^4 coefficient c4 = A conj(A) + (conj(A) C + A conj(C)) / q
    reads m q v^2 + 2 m y v + q (4 c4 - c5^2) - 2 c5 x = 0, whose integer roots v
    are tried; for C = r^3 it fixes m v^2 alone, and m is its squarefree part.  The
    t^3 coefficient 4 q c3 = (4 q + c5^2 + m v^2) x - 2 m c5 v y is checked before
    re-expansion proves G (`_conjugate_cubic`).
    """
    q = p**k
    if k % 2 == 0:
        r3 = p ** (3 * k // 2)  # r^3 for q = r^2
        base = [(None, 2 * r3, 0, 1), (-1, 0, 2 * r3, 2), (-3, r3, r3, 3)]
    else:
        s = p ** ((3 * k - 1) // 2)
        base = [(-p, 0, 2 * s, 2)]
        base += [(-1, 2 * s, 2 * s, 4)] * (p == 2) + [(-3, 3 * s, s, 6)] * (p == 3)
    signed = [(m, a * x, b * y, n) for m, x, y, n in base for a in (1, -1) for b in (1, -1)]
    _, _, _, c3, c4, c5, _ = pmin.coeffs
    for m, x, y, order in dict.fromkeys(c for c in signed if (c[3] == 1) == norm_one):
        if m is None:  # y = 0: the identity fixes m v^2 alone
            m, rem = divmod(2 * c5 * x - q * (4 * c4 - c5 * c5), q)
            vs = [1] if m < 0 and not rem else []
        else:
            disc = m * m * y * y - m * q * (q * (4 * c4 - c5 * c5) - 2 * c5 * x)
            root = isqrt(max(disc, 0))
            vs = [n // (m * q) for n in (root - m * y, -root - m * y) if n % (m * q) == 0]
            vs = vs if root * root == disc else []
        for v in vs:
            if 4 * q * c3 != (4 * q + c5 * c5 + m * v * v) * x - 2 * m * c5 * v * y:
                continue
            if order == 1:  # m v^2 with v = 1 so far
                m, v = (f := squarefree_part(m)), isqrt(m // f)
            cf = _conjugate_cubic(m, x, y, c5, v, q)
            if cf.expand() == pmin:
                return cf, order
    return None


def norm_one_witness(pmin: IntPoly, q: int):
    """Witness G with G(0)^2 = q^3 for a Weil sextic, or None: `_sextic_witness`
    with zeta = 1, so None unless q is a square."""
    if pmin.degree != 6:
        raise NotSextic(f"degree {pmin.degree}, expected 6")
    pp = prime_power(q)
    found = pp and _sextic_witness(pmin, *pp, norm_one=True)
    return found[0] if found else None


def norm_condition(cf: ConjugateFactorization, q: int) -> bool:
    """Whether Norm_(E/B)(q^(-1) Fr^2) = 1, read off the witness.

    The norm equals q^(-h) G(0)^2 for h = deg G, so the condition is
    G(0)^2 = q^h as elements of Q(sqrt(m)).  With G(0) = (a + sqrt(m) b) / den,
    G(0)^2 = (a^2 + m b^2 + 2 a b sqrt(m)) / den^2: the condition is a b = 0
    and a^2 + m b^2 = q^h den^2.
    """
    a, b = cf.u.evaluate(0), cf.v.evaluate(0)
    return a * b == 0 and a * a + cf.m * b * b == q**cf.degree * cf.den**2


def p_splits(m: int, p: int) -> str:
    """Splitting of p in Q(sqrt(m)): 'split', 'inert', or 'ramified'."""
    if m in (0, 1) or squarefree_part(m) != m:
        raise PreconditionViolation("m must be squarefree and not 0 or 1")
    if not is_prime(p):
        raise PreconditionViolation(f"{p} is not prime")
    d = m if m % 4 == 1 else 4 * m
    if p == 2:
        if d % 2 == 0:
            return "ramified"
        return "split" if m % 8 == 1 else "inert"
    if d % p == 0:
        return "ramified"
    return "split" if legendre_symbol(d % p, p) == 1 else "inert"


def elliptic_cm_field(w: WeilPolynomial) -> int:
    """Squarefree part of a^2 - 4q for an ordinary elliptic curve t^2 - at + q."""
    if w.g != 1:
        raise PreconditionViolation("elliptic curve required")
    a = -w.poly.coeffs[1]
    if a % w.p == 0:
        raise PreconditionViolation("not ordinary: p divides the trace")
    return squarefree_part(a * a - 4 * w.q)


def cubic_resolvent_is_galois(pmin: IntPoly, q: int) -> bool:
    """Whether the totally real cubic subfield of the sextic CM field is Galois.

    The cubic is generated by alpha + q/alpha, i.e. by the trace polynomial;
    a cubic field is Galois over Q exactly when its discriminant is a
    perfect square.  Informational only; the non-neat configuration should
    always report False.
    """
    if pmin.degree != 6:
        raise NotSextic(f"degree {pmin.degree}, expected 6")
    h = trace_polynomial(pmin, q)
    return is_perfect_square(discriminant(h))
