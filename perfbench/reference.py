"""Independent references that the benchmark checks the program against.

Nothing here imports weilrank.  Ranks come from sympy roots and mpmath
PSLQ, Newton slopes from p-adic valuations of the coefficients, and the
set of Weil polynomials for (g, q) from numpy roots of trace polynomials,
with an exact sympy root count wherever rounding could decide the answer.

Every mpmath computation runs under its own `workdps`: the program leaves
`mpmath.mp.prec` raised after an oracle call, so the global precision is
never read.  Coefficient lists are ascending (index i holds the t^i
coefficient), as in `IntPoly.coeffs`.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt

import mpmath
import numpy as np
import sympy

WORK_DPS = 60
MAX_RELATION_COEFF = 10**6
_X = sympy.Symbol("x")


def prime_power(q: int) -> tuple[int, int]:
    """(p, v) with q = p^v."""
    p = next(d for d in range(2, q + 1) if q % d == 0)
    v = 0
    while q % p == 0:
        q //= p
        v += 1
    if q != 1:
        raise ValueError("not a prime power")
    return p, v


def _valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def newton_slopes(coeffs, q: int) -> list[Fraction]:
    """Slopes of the Newton polygon at p, one per root, normalized by ord(q) = 1."""
    p, v = prime_power(q)
    points = [(i, _valuation(c, p)) for i, c in enumerate(coeffs) if c]
    hull: list[tuple[int, int]] = []
    for pt in points:  # lower convex hull, left to right
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    slopes = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slopes += [Fraction(y1 - y2, (x2 - x1) * v)] * (x2 - x1)
    return slopes


def eigenvalues(coeffs, dps: int = WORK_DPS) -> list:
    """The distinct roots as mpmath complex numbers, to `dps` + 10 digits."""
    poly = sympy.Poly(list(reversed(coeffs)), _X)
    roots = sympy.sqf_part(poly).nroots(n=dps + 10, maxsteps=500)
    with mpmath.workdps(dps + 10):
        out = []
        for r in roots:
            re, im = r.as_real_imag()
            out.append(
                mpmath.mpc(mpmath.mpf(sympy.Float(re)._mpf_), mpmath.mpf(sympy.Float(im)._mpf_))
            )
    return out


def rank_from_roots(roots, dps: int = WORK_DPS) -> int:
    """dim_Q span(2 pi, arg alpha_i) - 1: the rank of the eigenvalue angle group."""
    with mpmath.workdps(dps):
        tiny = mpmath.mpf(10) ** (-dps // 2)
        basis = [2 * mpmath.pi]
        for z in roots:
            if z.imag < -tiny:
                continue  # the conjugate's angle is the negative of this one
            theta = mpmath.arg(z)
            if abs(theta) < tiny:
                continue  # +sqrt(q): angle 0
            rel = mpmath.pslq(
                basis + [theta], maxcoeff=MAX_RELATION_COEFF, maxsteps=10**5
            )
            if rel is None:
                basis.append(theta)
        return len(basis) - 1


def reference_rank(coeffs) -> int:
    return rank_from_roots(eigenvalues(coeffs))


def beta_relation_holds(roots, centers, vector, dps: int = WORK_DPS) -> bool:
    """Numerically check prod (alpha_j^2 / q)^(v_j) = 1 at `dps` digits.

    `centers` are the program's approximations (re, im) of the alpha_j the
    vector refers to; each is matched to the nearest reference root, and
    the match must be unambiguous.
    """
    with mpmath.workdps(dps):
        total = mpmath.mpf(0)
        for (re, im), v in zip(centers, vector):
            c = mpmath.mpc(
                mpmath.mpf(re.numerator) / re.denominator,
                mpmath.mpf(im.numerator) / im.denominator,
            )
            dist = sorted((abs(z - c), k) for k, z in enumerate(roots))
            if dist[0][0] > mpmath.mpf(10) ** -20 or (
                len(dist) > 1 and dist[1][0] < mpmath.mpf(10) ** -5
            ):
                return False
            total += 2 * v * mpmath.arg(roots[dist[0][1]])
        two_pi = 2 * mpmath.pi
        residue = total - two_pi * mpmath.nint(total / two_pi)
        return abs(residue) < mpmath.mpf(10) ** (10 - dps)


# -- the set of Weil polynomials for (g, q) ----------------------------------


def _exactly_weil_trace(trace, q: int) -> bool:
    """Exact: all roots of the monic trace polynomial real, with r^2 <= 4q."""
    h = sympy.sqf_part(sympy.Poly([1, *trace], _X))
    if h.count_roots() != h.degree():
        return False
    # h(x) = E(x^2) + x O(x^2); E(y)^2 - y O(y)^2 has the roots r^2
    cs = list(reversed(h.all_coeffs()))
    even = sympy.Poly(list(reversed(cs[0::2])), _X)
    odd = sympy.Poly(list(reversed(cs[1::2])) or [0], _X)
    squares = sympy.sqf_part(even**2 - sympy.Poly(_X, _X) * odd**2)
    return squares.count_roots(0, 4 * q) == squares.degree()


def _weil_from_trace(trace, q: int) -> tuple[int, ...]:
    """Ascending coefficients of t^g h(t + q/t) = sum_j c_(g-j) t^(g-j) (t^2 + q)^j."""
    g = len(trace)
    c = [1, *trace]
    out = [0] * (2 * g + 1)
    for j in range(g + 1):
        for k in range(j + 1):  # (t^2 + q)^j = sum_k C(j,k) q^(j-k) t^(2k)
            out[g - j + 2 * k] += c[g - j] * comb(j, k) * q ** (j - k)
    return tuple(out)


def weil_set(g: int, q: int) -> list[tuple[int, ...]]:
    """Every Weil q-polynomial of degree 2g, in the enumeration's order.

    A monic P is Weil exactly when its trace polynomial h (P(t) =
    t^g h(t + q/t)) has all its roots real and in [-2 sqrt q, 2 sqrt q],
    so each coefficient c_k of h is at most C(g, k) (2 sqrt q)^k in size.
    numpy roots decide the points that are clearly in or out; the few
    with a (near-)multiple root or a root near the ends go to the exact
    count.  The result is sorted by (a_(2g-1), ..., a_g), ascending.
    """
    limits = [isqrt(comb(g, k) ** 2 * 4**k * q**k) for k in range(1, g + 1)]
    axes = [np.arange(-m, m + 1) for m in limits]
    grid = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)
    comp = np.zeros((len(grid), g, g))
    comp[:, 0, :] = -grid
    for i in range(1, g):
        comp[:, i, i - 1] = 1.0
    roots = np.linalg.eigvals(comp)
    edge = 2.0 * float(np.sqrt(q))
    im = np.abs(roots.imag).max(axis=1)
    re = np.abs(roots.real).max(axis=1)
    clear_in = (im <= 1e-9 * edge) & (re <= edge * (1 - 1e-6))
    clear_out = (im > 1e-3 * edge) | (re > edge * (1 + 1e-3))
    found = [tuple(int(x) for x in row) for row in grid[clear_in]]
    for row in grid[~clear_in & ~clear_out]:
        trace = [int(x) for x in row]
        if _exactly_weil_trace(trace, q):
            found.append(tuple(trace))
    polys = [_weil_from_trace(t, q) for t in found]
    return sorted(polys, key=lambda c: c[2 * g - 1 : g - 1 : -1])
