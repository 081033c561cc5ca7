"""Dense integer polynomials with exact arithmetic.

Coefficients are stored ascending (constant term first) with no trailing
zeros; the zero polynomial has an empty coefficient tuple and degree -1.
Everything here is pure integer / rational arithmetic: no floating point
enters any computation in this module.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from ..errors import PrecisionExhausted, PreconditionViolation, WeilrankError

__all__ = [
    "IntPoly",
    "poly_gcd",
    "squarefree_part",
    "squarefree_decomposition",
    "resultant",
    "discriminant",
    "sturm_real_root_count",
    "sturm_surd_counts",
    "surd_parts",
    "surd_signs",
    "real_root_brackets",
    "lagrange_interpolate",
    "fractions_to_intpoly",
]


def _strip(coeffs):
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class IntPoly:
    """Immutable dense polynomial over the integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", _strip([int(c) for c in coeffs]))

    def __setattr__(self, name, value):
        raise AttributeError("IntPoly is immutable")

    # -- basic structure -------------------------------------------------

    @property
    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def leading(self):
        if not self.coeffs:
            raise PreconditionViolation("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"IntPoly({list(self.coeffs)})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mon = "t" if i == 1 else f"t^{i}"
                if c == 1:
                    parts.append(mon)
                elif c == -1:
                    parts.append(f"-{mon}")
                else:
                    parts.append(f"{c}*{mon}")
        out = parts[-1]
        for p in reversed(parts[:-1]):
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self):
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise PreconditionViolation("negative polynomial power")
        result = IntPoly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k):
        """Multiply by t^k."""
        if self.is_zero:
            return self
        return IntPoly((0,) * k + self.coeffs)

    def derivative(self):
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x):
        """Horner evaluation; exact for int or Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def scale_argument(self, a):
        """f(a*t) for integer a."""
        return IntPoly([c * a**i for i, c in enumerate(self.coeffs)])

    # -- content and division --------------------------------------------

    def content(self):
        """Positive gcd of coefficients; 0 for the zero polynomial."""
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
            if g == 1:
                return 1
        return g

    def primitive_part(self):
        """Content removed, leading coefficient made positive."""
        if self.is_zero:
            return self
        g = self.content()
        if self.coeffs[-1] < 0:
            g = -g
        return IntPoly([c // g for c in self.coeffs])

    def divmod_exact(self, other):
        """Quotient and remainder when the division stays in Z[t].

        Requires the leading coefficient of `other` to divide exactly at
        every step (always true for monic divisors); raises otherwise.
        """
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lc = other.leading
        if len(rem) - 1 < d:
            return IntPoly(), self
        quot = [0] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i] == 0:
                continue
            q, r = divmod(rem[i], lc)
            if r != 0:
                raise PreconditionViolation("division leaves the integers")
            quot[i - d] = q
            for j, c in enumerate(other.coeffs):
                rem[i - d + j] -= q * c
        return IntPoly(quot), IntPoly(rem)

    def divides(self, other):
        """True if self divides other with a quotient in Z[t]."""
        if self.is_zero:
            return other.is_zero
        try:
            _, r = other.divmod_exact(self)
        except PreconditionViolation:
            return False
        return r.is_zero

    def exact_div(self, other):
        """self / other, requiring an exact integer quotient.

        The integer long division stops at the first step whose quotient
        coefficient is not an integer; the quotient over Q then has that
        same coefficient, so it is not integral either.
        """
        q, r = self.divmod_exact(other)
        if not r.is_zero:
            raise PreconditionViolation("inexact polynomial division")
        return q


def poly_gcd(f: IntPoly, g: IntPoly) -> IntPoly:
    """Primitive gcd over Z with positive leading coefficient.

    Primitive pseudo-remainder sequence; coefficient growth is tamed by
    taking primitive parts at every step, which is plenty at the degrees
    this package handles.
    """
    if f.is_zero:
        return g.primitive_part()
    if g.is_zero:
        return f.primitive_part()
    a, b = f.primitive_part(), g.primitive_part()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero:
        r = _pseudo_rem(a, b)
        a, b = b, r.primitive_part()
    return a.primitive_part()


def _pseudo_rem(f, g):
    """lc(g)^(deg f - deg g + 1) * f mod g, computed over Z."""
    rem = list(f.coeffs)
    d = g.degree
    lc = g.leading
    steps = len(rem) - 1 - d + 1
    if steps <= 0:
        return f
    for i in range(len(rem) - 1, d - 1, -1):
        c = rem[i]
        for j in range(len(rem)):
            rem[j] *= lc
        if c:
            for j, gc in enumerate(g.coeffs):
                rem[i - d + j] -= c * gc
        rem[i] = 0
    return IntPoly(rem[:d] if d else [])


def squarefree_part(f: IntPoly) -> IntPoly:
    """Product of the distinct irreducible factors, primitive, positive lc:
    the head of the Sturm chain, as `sturm_surd_counts` returns it."""
    return _sturm_chain(f)[0].primitive_part()


def squarefree_decomposition(f: IntPoly):
    """Yun decomposition: list of (squarefree factor, multiplicity).

    The product of factor^multiplicity equals f up to content and sign.
    Constant factors are dropped.
    """
    if f.is_zero:
        raise PreconditionViolation("zero polynomial")
    f = f.primitive_part()
    if f.degree == 0:
        return []
    out = []
    df = f.derivative()
    a = poly_gcd(f, df)
    b = f.exact_div(a)
    c = df.exact_div(a)
    d = c - b.derivative()
    i = 1
    while True:
        if b.degree == 0:
            break
        a = poly_gcd(b, d)
        if a.degree > 0:
            out.append((a, i))
        b = b.exact_div(a)
        d = d.exact_div(a) - b.derivative()
        i += 1
    return out


# -- resultants ----------------------------------------------------------


def resultant(f: IntPoly, g: IntPoly) -> int:
    """Resultant with the Sylvester-determinant sign convention.

    res(f, g) = lc(f)^deg(g) * prod g(alpha) over the roots alpha of f.
    """
    if f.is_zero or g.is_zero:
        raise PreconditionViolation("resultant of zero polynomial")
    r = _res_frac(f, g)
    if r.denominator != 1:
        raise WeilrankError("resultant of integer polynomials is not an integer")
    return int(r)


def _res_frac(f, g):
    a, b = f.degree, g.degree
    if a == 0:
        return Fraction(f.coeffs[0] ** b)
    if b == 0:
        return Fraction(g.coeffs[0] ** a)
    if a < b:
        return Fraction(-1) ** (a * b) * _res_frac(g, f)
    # res(f, g) = (-1)^(ab) lc(g)^(deg f - deg r) res(g, r) for r = f mod g,
    # with the pseudo-remainder scaling divided back out.
    r = _pseudo_rem(f, g)
    lcg = g.leading
    if r.is_zero:
        return Fraction(0)
    dr = r.degree
    scale = Fraction(lcg) ** (a - dr) / Fraction(lcg) ** ((a - b + 1) * b)
    return Fraction(-1) ** (a * b) * scale * _res_frac(g, r)


def discriminant(f: IntPoly) -> int:
    """disc(f) = (-1)^(n(n-1)/2) res(f, f') / lc(f)."""
    n = f.degree
    if n < 1:
        raise PreconditionViolation("discriminant needs degree >= 1")
    if n == 1:
        return 1
    r = resultant(f, f.derivative())
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    val, rem = divmod(sign * r, f.leading)
    if rem:
        raise WeilrankError("res(f, f') is not divisible by lc(f)")
    return val


# -- Sturm chains --------------------------------------------------------


def _primitive_keep_sign(p: IntPoly) -> IntPoly:
    """Divide out the (positive) content without touching the sign."""
    if p.is_zero:
        return p
    g = p.content()
    return IntPoly([c // g for c in p.coeffs])


def _sturm_chain(f: IntPoly):
    """Sturm sequence in Z[t] of the squarefree part of a nonzero f, up to sign.

    The one of f, entries scaled to Z[t] by positive rationals, ends in gcd(f, f')
    up to a constant; divided out of every entry, that leaves a Sturm sequence of
    f / gcd(f, f'), whose roots are the distinct roots of f.
    """
    if f.is_zero:
        raise PreconditionViolation("zero polynomial")
    chain = [_primitive_keep_sign(f)]
    d = f.derivative()
    if not d.is_zero:
        chain.append(_primitive_keep_sign(d))
        while chain[-1].degree > 0:
            a, b = chain[-2], chain[-1]
            r = _pseudo_rem(a, b)
            if r.is_zero:
                break
            # prem scales the true remainder by lc(b)^(delta+1); when that
            # factor is negative the sign must be flipped back before negating
            delta = a.degree - b.degree
            scale_negative = b.leading < 0 and (delta + 1) % 2 == 1
            nxt = r if scale_negative else -r
            chain.append(_primitive_keep_sign(nxt))
    if chain[-1].degree > 0:
        chain = [p.exact_div(chain[-1]) for p in chain]
    return chain


def _infinity_signs(chain):
    """The leading coefficients that give the chain's signs at -oo and at +oo."""
    return [-p.leading if p.degree % 2 else p.leading for p in chain], [p.leading for p in chain]


def _variations(values):
    """Sign changes along a sequence of numbers, zeros dropped."""
    signs = [(v > 0) - (v < 0) for v in values if v]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def surd_parts(f: IntPoly, d: int) -> tuple[int, int]:
    """The integers (s, t) with f(+-sqrt(d)) = s +- t sqrt(d): Horner's rule with x^2 = d."""
    s = t = 0
    for c in reversed(f.coeffs):
        s, t = t * d + c, s
    return s, t


def surd_signs(f: IntPoly, d: int) -> tuple[int, int]:
    """The signs (-1, 0 or 1) of f(-sqrt(d)) and f(sqrt(d)) for an integer d >= 0.

    With f(+-sqrt(d)) = s +- t sqrt(d) from `surd_parts`, unless d is a square,
    s + t sqrt(d) has the sign of s if s^2 > t^2 d, else of t.
    """
    s, t = surd_parts(f, d)
    r = isqrt(d)
    if r * r == d:
        lo, hi = s - t * r, s + t * r
    elif s * s > t * t * d:
        lo = hi = s
    else:
        lo, hi = -t, t
    return (lo > 0) - (lo < 0), (hi > 0) - (hi < 0)


def sturm_surd_counts(f: IntPoly, d: int) -> tuple[IntPoly, int, int]:
    """(fsf, real, inside): the squarefree part of f, and the counts of its
    real roots and of those in [-sqrt(d), sqrt(d)], for an integer d >= 0.

    One Sturm chain of fsf, read at -+oo and, by `surd_signs`, at -+sqrt(d);
    fsf(-sqrt(d)) = 0 adds one.
    """
    chain = _sturm_chain(f)
    minus, plus = _infinity_signs(chain)
    real = _variations(minus) - _variations(plus)
    ends = [surd_signs(p, d) for p in chain]
    inside = _variations(lo for lo, _ in ends) - _variations(hi for _, hi in ends)
    return chain[0].primitive_part(), real, inside + (ends[0][0] == 0)


def sturm_real_root_count(f: IntPoly, lo=None, hi=None) -> int:
    """Exact count of the distinct real roots of a nonzero f in (lo, hi].

    `lo`/`hi` may be ints, Fractions, or None for -/+ infinity.  The chain is
    that of the squarefree part, so a repeated root counts once, also at an
    endpoint.
    """
    chain = _sturm_chain(f)
    if lo is not None and hi is not None and Fraction(lo) >= Fraction(hi):
        return 0
    minus, plus = _infinity_signs(chain)
    # dropping zero entries evaluates the variation count just above the
    # point, so V(lo+) - V(hi+) counts roots in the half-open (lo, hi]
    below = minus if lo is None else [p.evaluate(Fraction(lo)) for p in chain]
    above = plus if hi is None else [p.evaluate(Fraction(hi)) for p in chain]
    return _variations(below) - _variations(above)


# -- real root isolation: a point is x / 2^k, integers x and k >= 0 -------


def _scaled_value(coeffs, x: int, k: int) -> int:
    """2^(deg*k) f(x / 2^k): the sign of f(x / 2^k), without Fraction's gcds."""
    v, e = coeffs[-1], 0
    for c in reversed(coeffs[:-1]):
        e += k
        v = v * x + (c << e)
    return v


def _round_div(x: int, d: int) -> int:
    """round(x / d), halves up, for d != 0: floor(x/d + 1/2)."""
    return (2 * x + d) // (2 * d)


def _root_bound_bits(f: IntPoly) -> int:
    """b with every root z of f in |z| < 2^b, beyond Fujiwara's root bound."""
    n, e = f.degree, abs(f.leading).bit_length() - 1  # 2^e <= |f_n|
    # each |f_j / f_n|^(1/(n - j)) < 2^(b - 1), so every |z| < 2^b
    return 1 + max([0] + [-((e - abs(c).bit_length()) // (n - j)) for j, c in enumerate(f.coeffs[:n])])


def real_root_brackets(f: IntPoly):
    """Isolating brackets (lo, hi, k) for the real roots of a squarefree f, ascending.

    (lo / 2^k, hi / 2^k) holds one root, and f is nonzero at both ends, so it changes
    sign across it.  Bisection from (-2^b, 2^b), beyond Fujiwara's root bound, counts
    roots with one Sturm chain; a midpoint that is a root moves right off it.
    """
    chain = _sturm_chain(f)
    if chain[0].degree < f.degree:
        raise PreconditionViolation(f"{f} is not squarefree")
    b = _root_bound_bits(f)

    def variations(x, k):
        return _variations([_scaled_value(p.coeffs, x, k) for p in chain])

    out, todo = [], [(-1 << b, 1 << b, 0, variations(-1 << b, 0), variations(1 << b, 0))]
    while todo:
        lo, hi, k, vlo, vhi = todo.pop()
        if vlo - vhi == 1:
            out.append((lo, hi, k))
        if vlo - vhi < 2:
            continue
        if (hi - lo) % 2:
            lo, hi, k = 2 * lo, 2 * hi, k + 1
        mid = (lo + hi) // 2
        while (at := [_scaled_value(p.coeffs, mid, k) for p in chain])[0] == 0:
            lo, hi, mid, k = 2 * lo, 2 * hi, 2 * mid + 1, k + 1
        v = _variations(at)
        todo += [(mid, hi, k, v, vhi), (lo, mid, k, vlo, v)]  # the left half is taken first
    return out


def _refine(f: IntPoly, df: IntPoly, lo: int, hi: int, k: int, goal: int, up: bool):
    """(x, k): f changes sign across (x -+ 1) / 2^k, with k = max(goal, k + 1).

    f changes sign across the bracket (lo, hi) / 2^k, and up says f(hi / 2^k) > 0; df is f'.
    Newton steps start at its midpoint, each at about twice the bits already right but never
    past goal.  The sign of f at each point narrows the bracket; a step leaving the closed
    bracket, or at f' = 0, becomes a bisection.  A correction that rounds to 0 on an end the
    sign just moved to x keeps x for a step at more bits, not a bisection of the rest.  Only
    the sign change at the end proves the result, so a wrong up costs convergence, not
    soundness.  A bisection halves the bracket, so the step cap grows with its width.
    """
    steps = 100 + (hi - lo).bit_length()
    lo, hi, x, k = 2 * lo, 2 * hi, lo + hi, k + 1  # x: the midpoint
    for _ in range(steps):
        if k >= goal and _scaled_value(f.coeffs, x - 1, k) * _scaled_value(f.coeffs, x + 1, k) < 0:
            return x, k
        v = _scaled_value(f.coeffs, x, k)
        if v:
            lo, hi = (lo, x) if (v > 0) == up else (x, hi)
        d = _scaled_value(df.coeffs, x, k)
        # f/f' = v / (d 2^k), so about k - log2|v/d| bits of x / 2^k are right
        s = max(0, min(goal, max(2 * (k - v.bit_length() + d.bit_length()), 64)) - k)
        lo, hi, x, k = lo << s, hi << s, x << s, k + s
        if not (d and lo <= (y := x - _round_div(v << s, d)) <= hi):  # bisect instead
            if hi - lo < 2 and k < goal:
                lo, hi, k = 2 * lo, 2 * hi, k + 1
            y = (lo + hi) // 2
        x = y
    raise PrecisionExhausted("Newton refinement did not converge")


# -- interpolation and rational square roots ------------------------------


def lagrange_interpolate(points):
    """Exact polynomial through (x, y) pairs; returns Fraction coefficients."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        # numerator polynomial prod_{j != i} (t - xj), built incrementally
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            denom *= xi - xj
            new = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] -= c * xj
                new[k + 1] += c
            basis = new
        w = Fraction(yi) / denom
        for k, c in enumerate(basis):
            coeffs[k] += w * c
    return coeffs


def fractions_to_intpoly(coeffs) -> IntPoly:
    """Clear denominators to the primitive integer polynomial, positive lc."""
    denom = 1
    for c in coeffs:
        denom = lcm(denom, Fraction(c).denominator)
    ints = [int(Fraction(c) * denom) for c in coeffs]
    return IntPoly(ints).primitive_part()
