"""Exact root transforms and cyclotomic detection.

Each transform produces the integer polynomial whose roots are images of
the input roots (n-th powers, pairwise products, pairwise ratios, and the
pair traces x + c/x of a root multiset closed under x -> c/x), with
multiplicity.  The power sums p_k of a monic integer polynomial are
integers given by Newton's identities, and the image roots have power sums
that are simple in those: p_(kn) for n-th powers, p_k(f) p_k(g) for
products, and a binomial sum over the p_k for the pair traces.  Newton's
identities run backwards then rebuild the monic target polynomial, all in
Z.  Ratios reduce to products: alpha / beta is alpha * (c / beta) / c for
c = g(0), and c / beta runs over the roots of a monic integer polynomial.

The pair traces carry the torsion tests.  A ratio rho = pi / q of a product
pi of two Frobenius eigenvalues is a root of unity of order n >= 2 exactly
when rho + 1/rho is a root of Psi_n, the minimal polynomial of 2 cos(2 pi / n),
so the ratio torsion of a Weil polynomial of degree 2g is read off a
polynomial of degree g^2 (`_ratio_traces`, `_real_cyclotomic_part_orders`).
"""

from __future__ import annotations

from functools import cache
from itertools import count
from math import comb

from ..errors import PreconditionViolation
from .intfactor import factor_int, is_prime
from .poly import IntPoly

__all__ = [
    "power_transform",
    "product_transform",
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


def _pair_traces(sums: list[int], c: int) -> IntPoly:
    """The monic polynomial whose roots are x + c/x, one per pair {x, c/x}.

    sums = [s_1, ..., s_N] are the power sums of a multiset of 2N roots that
    x -> c/x maps onto itself, matching its roots in N pairs.  Over the roots,
    x^j (c/x)^(k-j) sums to c^(k-j) s_(2j-k), and to c^j s_(k-2j) when 2j < k,
    as then x^(-m) sums to c^(-m) s_m; the terms j and k - j are equal, and
    s_0 = 2N.  So the k-th power sum of the values, half the sum over the
    roots of (x + c/x)^k, is the sum over j < k/2 of C(k, j) c^j s_(k-2j),
    plus C(k, k/2) c^(k/2) N for k even.
    """
    n = len(sums)
    cpow = [1]
    for _ in range(n // 2):
        cpow.append(cpow[-1] * c)
    out = []
    for k in range(1, n + 1):
        s = comb(k, k // 2) * cpow[k // 2] * n if k % 2 == 0 else 0
        for j in range((k + 1) // 2):
            s += comb(k, j) * cpow[j] * sums[k - 2 * j - 1]
        out.append(s)
    return _from_power_sums(out)


def _ratio_traces(f: IntPoly, q: int) -> IntPoly:
    """T_V, monic of degree g^2 for a Weil q-polynomial f of degree 2g.

    f = prod (t^2 - r t + q) pairs each root alpha with q / alpha.  Of the
    products pi = alpha_i alpha_j, i <= j, all but the g trivial products
    alpha (q / alpha) = q pair up as {pi, q^2 / pi}, and the roots of T_V are
    the values V = pi + q^2 / pi over those g^2 pairs.  The 2g^2 products have
    power sums sigma_m = (p_m^2 + p_2m) / 2 - g q^m from the power sums p_m of f.
    """
    g = f.degree // 2
    n = g * g
    p = [2 * g] + _power_sums(f, 2 * n)
    sigma = [(p[m] * p[m] + p[2 * m]) // 2 - g * q**m for m in range(1, n + 1)]
    return _pair_traces(sigma, q * q)


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


@cache
def _unit_trace(n: int) -> tuple[int, int]:
    """(l, w + 1/w mod l) for the (l, w) of `_root_of_unity(n)`."""
    ell, w = _root_of_unity(n)
    return ell, (w + pow(w, -1, ell)) % ell


def _vanishes_mod(f: IntPoly, x: int, ell: int) -> bool:
    """f(x) = 0 mod l, by Horner's rule."""
    acc = 0
    for c in reversed(f.coeffs):
        acc = (acc * x + c) % ell
    return acc == 0


def _may_vanish(f: IntPoly, n: int) -> bool:
    """f(w) = 0 mod l for the (l, w) of `_root_of_unity(n)`."""
    ell, w = _root_of_unity(n)
    return _vanishes_mod(f, w, ell)


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


@cache
def _real_cyclotomic(n: int) -> IntPoly:
    """Psi_n, the minimal polynomial of 2 cos(2 pi / n), for n >= 2.

    Psi_2 = u + 2.  For n >= 3 the roots of Phi_n pair up as {z, 1/z}, so
    Phi_n(t) = t^(phi(n)/2) Psi_n(t + 1/t) with Psi_n their pair traces.
    """
    if n == 2:
        return IntPoly([2, 1])
    phi = cyclotomic_polynomial(n)
    return _pair_traces(_power_sums(phi, phi.degree // 2), 1)


def _real_cyclotomic_part_orders(f: IntPoly, c: int) -> set[int]:
    """All n >= 2 with Psi_n(u) dividing f(c u), for monic f and nonzero c.

    A root u of f(c u) is rho + 1/rho for a rho of order n exactly when it is
    a root of Psi_n.  The candidates are the n with deg Psi_n = phi(n)/2 at
    most the number d of lowest coefficients of f that c divides: for monic f,
    Psi_n(u) | f(c u) makes the monic c^e Psi_n(x / c), e = phi(n)/2, which is
    x^e mod c, divide f(x) in Z[x], so x^e divides f mod c.  The residue
    filter is that of `cyclotomic_part_orders`, at u = w + 1/w:
    Psi_n(w + 1/w) = w^(-phi(n)/2) Phi_n(w) = 0 mod l, and for n = 2, w = -1
    gives the root -2 of Psi_2.  So Psi_n | f(c u) over Z forces
    f(c (w + 1/w)) = 0 mod l, and the exact division then confirms.
    """
    if not f.is_monic or c == 0:
        raise PreconditionViolation("needs a monic polynomial and a nonzero scale")
    d = next(i for i, a in enumerate(f.coeffs) if a % c or i == f.degree)
    scaled = None
    out = set()
    for n in _candidate_orders(2 * d)[1:]:
        ell, u = _unit_trace(n)
        if _vanishes_mod(f, c * u % ell, ell):
            if scaled is None:
                scaled = f.scale_argument(c)
            if _real_cyclotomic(n).divides(scaled):
                out.add(n)
    return out
