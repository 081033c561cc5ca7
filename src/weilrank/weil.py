"""Weil q-polynomials: validation, eigenvalue structure, base change.

A Weil q-polynomial is a monic integer polynomial of degree 2g whose roots
all have absolute value q^(1/2).  Validation is fully exact and works on
the trace polynomial h, P(t) = t^g h(t + q/t): peeling h off P proves the
functional equation, and one Sturm chain of h, read exactly at -+2 sqrt(q),
proves its roots real and inside [-2 sqrt(q), 2 sqrt(q)] (Kedlaya 2008).
The validator is the root of trust for everything downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

from .errors import (
    FunctionalEquationFails,
    NotMonic,
    NotPrimePower,
    OddDegree,
    PreconditionViolation,
    RiemannHypothesisFails,
)
from .exactcore import (
    IntPoly,
    cyclotomic_part_orders,
    factor_over_integers,
    power_transform,
    prime_power,
    sturm_surd_counts,
)
from .exactcore.poly import squarefree_part as poly_squarefree_part
from .exactcore.transforms import _ratio_traces, _real_cyclotomic_part_orders
from .newton import NewtonPolygon, classify_newton, root_valuation_segments

__all__ = [
    "WeilPolynomial",
    "EigenvalueStructure",
    "validate",
    "trace_polynomial",
    "eigenvalue_structure",
    "base_change",
    "ratio_torsion_orders",
    "beta_polynomial",
    "beta_torsion_orders",
    "has_unresolved_square_roots",
]


@dataclass(frozen=True)
class WeilPolynomial:
    """A validated Weil q-polynomial.  Construct through `validate`,
    through `_from_trace` from a trace polynomial proved to be in range, or
    through `base_change` from another one.

    Derived data is computed once per instance, on first use: the trace
    polynomial h with P(t) = t^g h(t + q/t), the squarefree part of h, and
    `components`, one record per irreducible factor of P, read off the
    factorization of h.  `validate` peels h off P, takes its squarefree
    part from the Sturm chain of the range check and seeds both, so the
    oracle's root isolation and relation proofs never rebuild them.  Only
    the polynomial over the field that is classified gets factored: a base
    change works on P itself, not on its factors.
    """

    poly: IntPoly
    q: int
    p: int
    v: int
    g: int

    @cached_property
    def trace(self) -> IntPoly:
        """The trace polynomial h, of degree g: P(t) = t^g h(t + q/t)."""
        return trace_polynomial(self.poly, self.q)

    @cached_property
    def trace_squarefree(self) -> IntPoly:
        """Product of the distinct irreducible factors of the trace polynomial."""
        return poly_squarefree_part(self.trace)

    @cached_property
    def components(self) -> tuple[EigenvalueStructure, ...]:
        """One `EigenvalueStructure` per irreducible factor of P, ordered as
        `factor_over_integers` orders: by degree, then by coefficients.

        P is factored through its trace polynomial h, of half the degree.
        Each factor f of h, with multiplicity m, lifts to t^d f(t + q/t),
        d = deg f.  The roots 2s of h with s^2 = q lift to (t - s)^2, so
        x - 2s gives t - s, multiplicity 2m, with the one real eigenvalue
        s; for q not a square the factor x^2 - 4q gives (t^2 - q)^2, so
        t^2 - q, multiplicity 2m, with both.  Every other lift is
        irreducible, with multiplicity m and d pairs: it is monic of degree
        2d and has the root alpha, where r = alpha + q/alpha is a root of
        f.  The roots of f are real, so Q(r) is totally real, while alpha
        is not real because r^2 != 4q.  Hence alpha is not in Q(r), it is a
        root of t^2 - r t + q over Q(r), [Q(alpha):Q] = 2d, and the lift is
        the minimal polynomial of alpha.  The lifts of distinct factors of
        h have disjoint roots, so no two of them merge.
        """
        q = self.q
        out = []
        for f, m in factor_over_integers(self.trace):
            c = f.coeffs
            if f.degree == 1 and c[0] % 2 == 0 and (c[0] // 2) ** 2 == q:
                sign = "minus" if c[0] > 0 else "plus"
                shape = (IntPoly([c[0] // 2, 1]), 2 * m, 1, 0, sign)  # x - 2s -> t - s
            elif f == IntPoly([-4 * q, 0, 1]):
                shape = (IntPoly([-q, 0, 1]), 2 * m, 2, 0, "both")
            else:
                shape = (_expand_trace(f, q, f.degree), m, 2 * f.degree, f.degree, "none")
            out.append(EigenvalueStructure(*shape, p=self.p, v=self.v))
        out.sort(key=lambda c: (c.pmin.degree, c.pmin.coeffs))
        return tuple(out)

    @property
    def factors(self) -> tuple[tuple[IntPoly, int], ...]:
        """The irreducible factors of P with multiplicities, as `factor_over_integers`."""
        return tuple((c.pmin, c.e) for c in self.components)

    def __str__(self):
        return f"{self.poly} over F_{self.q}"


def trace_polynomial(poly: IntPoly, q: int) -> IntPoly:
    """The degree-g polynomial h with P(t) = t^g h(t + q/t), whose roots are
    the traces alpha + q/alpha; raise `FunctionalEquationFails(j)` if none.

    Peeled off P from the top: for k = g, ..., 0, b_k is coefficient g + k
    of what is left, and b_k t^(g-k) (t^2 + q)^k, of degree g + k, is
    subtracted.  What is subtracted satisfies the functional equation and
    the leftover lies below t^g, so its coefficient j is
    a_j - q^(g-j) a_(2g-j): it is zero, proving P = t^g h(t + q/t), exactly
    when the equation holds, and else its lowest nonzero j is where it fails.
    """
    n = poly.degree
    if n % 2:
        raise OddDegree("trace polynomial needs even degree")
    g = n // 2
    rem = list(poly.coeffs)
    b = [0] * (g + 1)
    for k in range(g, -1, -1):
        b[k] = c = rem[g + k]
        if c:
            for i in range(k + 1):  # (t^2 + q)^k = sum of C(k, i) q^(k-i) t^(2i)
                rem[g - k + 2 * i] -= c * comb(k, i) * q ** (k - i)
    for j, c in enumerate(rem):
        if c:
            raise FunctionalEquationFails(j)
    return IntPoly(b)


def _expand_trace(h: IntPoly, q: int, g: int) -> IntPoly:
    """t^g h(t + q/t) as an integer polynomial (degree 2g)."""
    out = IntPoly()
    base = IntPoly([q, 0, 1])  # t^2 + q
    for k, c in enumerate(h.coeffs):
        out = out + (c * base**k).shift(g - k)
    return out


def _from_trace(h: IntPoly, q: int, pp: tuple[int, int]) -> WeilPolynomial:
    """The Weil polynomial t^g h(t + q/t), built without `validate`.

    The caller must have proved that the monic h has all its roots real and
    inside [-2 sqrt(q), 2 sqrt(q)], and pass pp = prime_power(q).  Then
    every check of `validate` holds by construction: P is monic of degree
    2g because h is monic of degree g; t + q/t is fixed by t -> q/t, so P
    satisfies the functional equation; and each root r of h contributes
    the two roots of t^2 - r t + q, whose discriminant r^2 - 4q is not
    positive for real |r| <= 2 sqrt(q), so they are complex conjugates
    with product q, each of absolute value sqrt(q).
    """
    g = h.degree
    return WeilPolynomial(poly=_expand_trace(h, q, g), q=q, p=pp[0], v=pp[1], g=g)


def _check_in_range(h: IntPoly, q: int) -> IntPoly:
    """Raise `RiemannHypothesisFails` unless every root of h is real and
    inside [-2 sqrt(q), 2 sqrt(q)]; return the squarefree part it tested.

    One Sturm chain of h decides it exactly (`sturm_surd_counts`): the
    squarefree part hsf of h must have deg hsf real roots, all in the interval.
    """
    hsf, real, inside = sturm_surd_counts(h, 4 * q)
    if real < hsf.degree:
        detail = f"trace polynomial has {hsf.degree - real} non-real root pair(s)"
    elif inside < real:
        detail = f"{real - inside} root pair(s) exceed absolute value sqrt({q})"
    else:
        return hsf
    raise RiemannHypothesisFails(detail)


def validate(poly: IntPoly, q: int) -> WeilPolynomial:
    """Check that (poly, q) is a Weil q-polynomial; raise naming the failure.

    Checks, in order: monic; even degree >= 2; q a prime power; the
    functional equation t^(2g) P(q/t) = q^g P(t), proved with
    P = t^g h(t + q/t) by peeling h off P (`trace_polynomial`); and the
    exact absolute-value condition on h, by `_check_in_range`: every root
    r of h is real with r^2 <= 4q, so each root pair of t^2 - r t + q has
    absolute value sqrt(q).  The result keeps h and the squarefree part
    that check took as its `trace` and `trace_squarefree`.
    """
    if poly.is_zero or not poly.is_monic:
        raise NotMonic("polynomial must be monic")
    n = poly.degree
    if n < 2 or n % 2:
        raise OddDegree(f"degree must be even and >= 2, got {n}")
    pp = prime_power(q)
    if pp is None:
        raise NotPrimePower(f"q = {q} is not a prime power")
    h = trace_polynomial(poly, q)
    hsf = _check_in_range(h, q)
    w = WeilPolynomial(poly=poly, q=q, p=pp[0], v=pp[1], g=n // 2)
    vars(w).update(trace=h, trace_squarefree=hsf)  # seed the cached properties
    return w


@dataclass(frozen=True)
class EigenvalueStructure:
    """One irreducible factor of P, made by `WeilPolynomial.components`.

    pmin: the irreducible factor; e: its multiplicity in P; r_count: number
    of distinct roots it contributes; d: number of two-element orbits of
    the pairing alpha <-> q/alpha; sqrt_root: which of +-sqrt(q) occur among
    its roots ('none' / 'plus' / 'minus' / 'both'); q = p^v.  The p-adic
    data, `slopes` and what follows from them, is computed on first read.
    An ordinary pmin = t^2 + c t + q has CM field Q(sqrt(d)), d = c^2 - 4q < 0,
    and two such fields are equal exactly when d d' is a square.
    """

    pmin: IntPoly
    e: int
    r_count: int
    d: int
    sqrt_root: str
    p: int
    v: int

    @cached_property
    def slopes(self) -> tuple[tuple[Fraction, int], ...]:
        """(slope, count) pairs of the roots of pmin, normalized by ord(q) = 1."""
        return root_valuation_segments(self.pmin, self.p, self.v)

    @property
    def supersingular(self) -> bool:
        return all(s.denominator == 2 for s, _ in self.slopes)  # slopes lie in [0, 1]

    @cached_property
    def newton_primary(self) -> str:
        """Primary Newton label of pmin^e, of even degree for every component."""
        scaled = NewtonPolygon(segments=tuple((s, l * self.e) for s, l in self.slopes))
        return classify_newton(scaled, self.pmin.degree * self.e // 2).primary


def eigenvalue_structure(w: WeilPolynomial) -> tuple[EigenvalueStructure, ...]:
    """`w.components`, one record per irreducible factor of P.

    Two ordinary curves t^2 - a t + q and t^2 - b t + q share their CM field
    exactly when (a^2 - 4q)(b^2 - 4q) is a square, so no record needs the
    squarefree part of a^2 - 4q.
    """
    return w.components


def base_change(w: WeilPolynomial, n: int) -> WeilPolynomial:
    """The Weil polynomial over F_(q^n): roots raised to the n-th power.

    One power transform of P itself: it works on the root multiset, so
    multiplicities carry over and P is never factored.  The result is
    built without `validate`, because every check of `validate` holds by
    construction: the power transform of a monic integer polynomial is
    monic and integral, of the same degree 2g; the root multiset stays
    closed under alpha^n -> q^n / alpha^n, and the product of the roots is
    (q^g)^n = (q^n)^g, so P satisfies the functional equation over q^n;
    and |alpha^n| = q^(n/2).
    """
    if n <= 0:
        raise PreconditionViolation("extension degree must be positive")
    if n == 1:
        return w
    return WeilPolynomial(poly=power_transform(w.poly, n), q=w.q**n, p=w.p, v=w.v * n, g=w.g)


def ratio_torsion_orders(w: WeilPolynomial) -> frozenset[int]:
    """Orders of roots of unity among ratios of distinct eigenvalues.

    alpha / beta = alpha * conj(beta) / q, and conj(beta) = q / beta runs
    over the eigenvalues as beta does, so the ratios are rho = pi / q over
    the products pi = alpha_i alpha_j, i <= j.  The g trivial products
    alpha * (q / alpha) = q give rho = 1; the others pair up as
    {pi, q^2 / pi}, whose ratios rho and 1 / rho have one order, and
    V = pi + q^2 / pi = q (rho + 1/rho) runs over the roots of a monic
    integer polynomial T_V of degree g^2 (`_ratio_traces`).  rho has order
    n >= 2 exactly when rho + 1/rho is a root of Psi_n, the minimal
    polynomial of 2 cos(2 pi / n), that is when Psi_n(u) divides T_V(q u);
    a repeated root of P only adds ratios 1.  Empty exactly when the base
    field is "clean" for pairwise ratios.
    """
    return frozenset(_real_cyclotomic_part_orders(_ratio_traces(w.poly, w.q), w.q))


def beta_polynomial(w: WeilPolynomial) -> IntPoly:
    """Primitive integer polynomial whose roots are q^(-1) alpha^2.

    One root per distinct eigenvalue.  Its torsion is already ratio
    torsion (see `classify.sufficiency_degree`), so no verdict reads it.
    """
    squares = power_transform(poly_squarefree_part(w.poly), 2)
    return squares.scale_argument(w.q).primitive_part()


def beta_torsion_orders(w: WeilPolynomial) -> frozenset[int]:
    """Orders n > 1 of roots of unity among the q^(-1) alpha^2."""
    beta = beta_polynomial(w)
    return frozenset(n for n in cyclotomic_part_orders(beta) if n > 1)


def has_unresolved_square_roots(w: WeilPolynomial) -> bool:
    """True when both +sqrt(q) and -sqrt(q) occur as eigenvalues.

    Such polynomials validate but cannot be classified until a base change
    removes the -1 ratio (the field is not sufficiently large).
    """
    seen = {c.sqrt_root for c in w.components}
    return "both" in seen or {"plus", "minus"} <= seen
