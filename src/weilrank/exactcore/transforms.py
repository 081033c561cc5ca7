"""Exact root transforms and cyclotomic detection.

Each transform produces the integer polynomial whose roots are images of
the input roots (n-th powers, pairwise products, pairwise ratios, and the
symmetric square: products alpha_i alpha_j for i <= j), with multiplicity.
The power sums p_k of a monic integer polynomial are integers given by
Newton's identities, and the image roots have power sums that are simple
in those: p_(kn) for n-th powers, p_k(f) p_k(g) for products,
(p_k^2 + p_(2k)) / 2 for the symmetric square.  Newton's identities run
backwards then rebuild the monic target polynomial, all in Z.  Ratios
reduce to products: alpha / beta is alpha * (c / beta) / c for c = g(0),
and c / beta runs over the roots of a monic integer polynomial.
"""

from __future__ import annotations

from functools import cache
from itertools import count

from ..errors import PreconditionViolation
from .intfactor import factor_int, is_prime
from .poly import IntPoly

__all__ = [
    "power_transform",
    "product_transform",
    "symmetric_square",
    "ratio_transform",
    "cyclotomic_polynomial",
    "cyclotomic_order",
    "cyclotomic_part_orders",
]


def _power_sums(f: IntPoly, count: int) -> list[int]:
    """[p_1, ..., p_count]: power sums of the roots of monic f (Newton)."""
    c = f.coeffs
    d = f.degree
    p = [0] * (count + 1)
    for k in range(1, count + 1):
        s = k * c[d - k] if k <= d else 0
        for i in range(1, min(k - 1, d) + 1):
            s += c[d - i] * p[k - i]
        p[k] = -s
    return p[1:]


def _from_power_sums(sums: list[int]) -> IntPoly:
    """The monic polynomial of degree len(sums) with power sums p_1, p_2, ...

    Newton's identities give k c_(D-k) = -(p_k + c_(D-1) p_(k-1) + ...); the
    division by k is exact exactly when the roots are algebraic integers.
    """
    deg = len(sums)
    c = [0] * deg + [1]
    for k in range(1, deg + 1):
        s = 0
        for i in range(1, k + 1):
            s += c[deg - k + i] * sums[i - 1]
        quo, rem = divmod(-s, k)
        if rem:
            raise PreconditionViolation("transform left Z[t]")
        c[deg - k] = quo
    return IntPoly(c)


def power_transform(f: IntPoly, n: int) -> IntPoly:
    """Monic polynomial whose roots are the n-th powers of the roots of f.

    Its power sums are p_n, p_2n, ... of f; multiplicities carry over.
    """
    if not f.is_monic:
        raise PreconditionViolation("power transform needs a monic polynomial")
    if n <= 0:
        raise PreconditionViolation("power must be positive")
    if n == 1:
        return f
    sums = _power_sums(f, f.degree * n)
    return _from_power_sums(sums[n - 1 :: n])


def product_transform(f: IntPoly, g: IntPoly) -> IntPoly:
    """Monic polynomial with root multiset {alpha * beta} over root pairs."""
    if not (f.is_monic and g.is_monic):
        raise PreconditionViolation("product transform needs monic inputs")
    deg = f.degree * g.degree
    sums = zip(_power_sums(f, deg), _power_sums(g, deg))
    return _from_power_sums([a * b for a, b in sums])


def symmetric_square(f: IntPoly) -> IntPoly:
    """Monic polynomial with root multiset {alpha_i alpha_j : i <= j}, of
    degree n(n + 1)/2 for n = deg f; its power sums are (p_k^2 + p_(2k)) / 2."""
    if not f.is_monic:
        raise PreconditionViolation("symmetric square needs a monic polynomial")
    deg = f.degree * (f.degree + 1) // 2
    p = _power_sums(f, 2 * deg)
    return _from_power_sums([(p[k] * p[k] + p[2 * k + 1]) // 2 for k in range(deg)])


def ratio_transform(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive integer polynomial with root multiset {alpha / beta}.

    alpha runs over roots of f, beta over roots of g (g(0) != 0).  Ratios of
    algebraic integers need not be algebraic integers, so the result is the
    primitive integer polynomial proportional to prod (t - alpha/beta); its
    leading coefficient can exceed one.
    """
    if not (f.is_monic and g.is_monic):
        raise PreconditionViolation("ratio transform needs monic inputs")
    c = g.coeffs[0]
    if c == 0:
        raise PreconditionViolation("ratio transform needs g(0) != 0")
    # t^m g(c/t) / c = sum_j g_j c^(j-1) t^(m-j) is monic with roots c/beta
    m = g.degree
    inv = IntPoly([g.coeffs[m - i] * c ** (m - i - 1) for i in range(m)] + [1])
    return product_transform(f, inv).scale_argument(c).primitive_part()


# -- cyclotomic machinery --------------------------------------------------


def _phi_sieve(limit: int) -> list[int]:
    """[0, phi(1), ..., phi(limit)] from one sieve over the primes."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # untouched by a smaller prime, so p is prime
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


@cache
def cyclotomic_polynomial(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, computed by iterated exact division."""
    if n < 1:
        raise PreconditionViolation("cyclotomic index must be positive")
    poly = IntPoly([-1] + [0] * (n - 1) + [1])  # t^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = poly.exact_div(cyclotomic_polynomial(d))
    return poly


@cache
def _candidate_orders(d: int) -> tuple[int, ...]:
    """The n with phi(n) <= d; phi(n) >= sqrt(n/2) bounds them by 2 d^2."""
    phi = _phi_sieve(2 * d * d + 2)
    return tuple(n for n in range(1, len(phi)) if phi[n] <= d)


@cache
def _root_of_unity(n: int) -> tuple[int, int]:
    """(l, w): the largest prime l = 1 (mod n) below 2^30, and w of exact order n in F_l."""
    ell = ((1 << 30) - 2) // n * n + 1
    while not is_prime(ell):
        ell -= n
    primes = factor_int(n)
    for a in count(2):
        w = pow(a, (ell - 1) // n, ell)
        if all(pow(w, n // r, ell) != 1 for r in primes):
            return ell, w


def _may_vanish(f: IntPoly, n: int) -> bool:
    """f(w) = 0 mod l for the (l, w) of `_root_of_unity(n)`, by Horner's rule."""
    ell, w = _root_of_unity(n)
    acc = 0
    for c in reversed(f.coeffs):
        acc = (acc * w + c) % ell
    return acc == 0


def cyclotomic_order(f: IntPoly):
    """n when f is the n-th cyclotomic polynomial, else None; the candidates
    and their filter are those of `cyclotomic_part_orders`."""
    cands = _candidate_orders(f.degree)
    return next((n for n in cands if _may_vanish(f, n) and f == cyclotomic_polynomial(n)), None)


def cyclotomic_part_orders(f: IntPoly) -> set[int]:
    """All n with the n-th cyclotomic polynomial dividing f.

    Candidates are the n with phi(n) <= deg f.  A residue test filters
    them before the exact division confirms, and it never drops a divisor:
    w of exact order n in F_l is a root of no t^k - 1 with k a proper
    divisor of n, so of Phi_n, as l does not divide n and t^n - 1 is the
    product of the Phi_k for k | n; and Phi_n | f over Z (Phi_n monic, so
    f = Phi_n s with s in Z[t]) then forces f(w) = 0 mod l.
    """
    if f.is_zero:
        raise PreconditionViolation("zero polynomial")
    cands = _candidate_orders(f.degree)
    return {n for n in cands if _may_vanish(f, n) and cyclotomic_polynomial(n).divides(f)}
