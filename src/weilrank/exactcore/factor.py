"""Integer polynomial factorization.

Zassenhaus pipeline: squarefree decomposition, factorization modulo the
first small odd prime that keeps f squarefree (distinct-degree, then
equal-degree splitting), linear multifactor Hensel lifting to a
Mignotte-style coefficient bound, and brute-force subset recombination.
Degrees stay far below one hundred here, so exponential recombination with
the subset size capped at half the degree is acceptable.

A monic polynomial of degree 2 or 3, such as the trace polynomial of every
Weil polynomial of dimension g <= 3, skips the pipeline: it is reducible
exactly when it has an integer root.  A quadratic's discriminant decides
that; a cubic's integer root, if any, is found by bisection on the runs of
integers where it is monotone, and the quadratic left over goes the same way.
Non-monic input and degree >= 4 take the pipeline.

The output ordering is deterministic (degree, then coefficient tuple), so
factorizations are byte-stable across runs.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import isqrt, prod

from ..errors import PreconditionViolation
from .intfactor import is_prime
from .poly import IntPoly, _root_bound_bits, squarefree_decomposition

__all__ = ["factor_over_integers", "is_irreducible", "modular_factor_degrees"]


# -- arithmetic in F_p[x]; dense ascending coefficient lists --------------


def _pstrip(a):
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    return a[:n]


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] = (out[i + j] + ca * cb) % p
    return _pstrip(out)


def _pdivmod(a, b, p):
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    if len(a) - 1 < db:
        return [], _pstrip(a)
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv % p
        if c:
            q[i - db] = c
            for j, cb in enumerate(b):
                a[i - db + j] = (a[i - db + j] - c * cb) % p
    return _pstrip(q), _pstrip(a[:db])


def _pgcd(a, b, p):
    while b:
        _, a = _pdivmod(a, b, p)
        a, b = b, a
    if a:
        inv = pow(a[-1], p - 2, p)
        a = [c * inv % p for c in a]
    return a


def _pmonic(a, p):
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _ppowmod(base, e, mod, p):
    result = [1]
    base = _pdivmod(base, mod, p)[1]
    while e:
        if e & 1:
            result = _pdivmod(_pmul(result, base, p), mod, p)[1]
        base = _pdivmod(_pmul(base, base, p), mod, p)[1]
        e >>= 1
    return result


def _psub(a, b, p):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _pstrip(out)


def _equal_degree_split(f, d, p, rng):
    """Cantor-Zassenhaus splitting of f into irreducibles of degree d (p odd)."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = _pstrip([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        g = _pgcd(f, a, p)
        if 0 < len(g) - 1 < n:
            break
        b = _psub(_ppowmod(a, (p**d - 1) // 2, f, p), [1], p)
        g = _pgcd(f, b, p)
        if 0 < len(g) - 1 < n:
            break
    right = _pdivmod(f, g, p)[0]
    return _equal_degree_split(g, d, p, rng) + _equal_degree_split(right, d, p, rng)


def _distinct_degree(f, p):
    """Distinct-degree factorization of squarefree monic f over F_p.

    Yields (d, g) in increasing d, g the monic product of the irreducible
    factors of degree d.
    """
    rest = list(f)
    d = 1
    x = [0, 1]
    w = x
    while len(rest) - 1 >= 2 * d:
        w = _ppowmod(w, p, rest, p)
        g = _pgcd(_psub(w, x, p), rest, p)
        if len(g) > 1:
            yield d, g
            rest = _pdivmod(rest, g, p)[0]
            w = _pdivmod(w, rest, p)[1]
        d += 1
    if len(rest) > 1:
        yield len(rest) - 1, _pmonic(rest, p)


# -- Hensel lifting --------------------------------------------------------


def _lift_inverses(factors, p):
    """s_i with s_i * prod_{j!=i} f_j = 1 mod (p, f_i)."""
    out = []
    for i, fi in enumerate(factors):
        prod = [1]
        for j, fj in enumerate(factors):
            if j != i:
                prod = _pdivmod(_pmul(prod, fj, p), fi, p)[1]
        out.append(_pinvmod(prod, fi, p))
    return out


def _pinvmod(a, mod, p):
    """Inverse of a modulo mod over F_p via extended Euclid."""
    r0, r1 = list(mod), _pdivmod(a, mod, p)[1]
    s0, s1 = [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
    if len(r0) != 1:
        raise PreconditionViolation("not invertible")
    inv = pow(r0[0], p - 2, p)
    return _pstrip([c * inv % p for c in s0])


def _hensel_lift(f: IntPoly, factors_mod_p, p: int, target: int):
    """Lift the mod-p factorization of monic f to mod p^k >= target.

    Linear lifting: at each step the per-factor corrections are solved with
    Bezout inverses precomputed mod p.  Returns (lifted factor list, p^k).
    """
    inverses = _lift_inverses(factors_mod_p, p)
    lifted = [list(g) for g in factors_mod_p]
    pk = p
    while pk < target:
        lifted_product = prod(map(IntPoly, lifted), start=IntPoly([1]))
        err = [c // pk for c in (f - lifted_product).coeffs]
        err_p = _pstrip([c % p for c in err])
        new = []
        for g, s in zip(lifted, inverses):
            gp = _pstrip([c % p for c in g])
            delta = _pdivmod(_pmul(err_p, s, p), gp, p)[1]
            adj = list(g)
            for i, c in enumerate(delta):
                adj[i] = adj[i] + pk * c
            new.append(adj)
        lifted = new
        pk *= p
        lifted = [[c % pk for c in g] for g in lifted]
    return lifted, pk


def _squarefree_mod_p(f: IntPoly, p: int):
    """f mod p as a coefficient list when it keeps its degree and is
    squarefree mod p; otherwise None."""
    fp = _pstrip([c % p for c in f.coeffs])
    if len(fp) - 1 != f.degree:
        return None
    dfp = _pstrip([i * c % p for i, c in enumerate(fp)][1:])
    return fp if dfp and len(_pgcd(fp, dfp, p)) == 1 else None


# -- Zassenhaus recombination ----------------------------------------------


def _symmetric(c, pk):
    c %= pk
    return c - pk if c > pk // 2 else c


def _mignotte_target(f: IntPoly) -> int:
    norm2 = isqrt(sum(c * c for c in f.coeffs)) + 1
    return 2 * (2 ** f.degree) * norm2 * abs(f.leading) + 1


def _choose_prime(f: IntPoly):
    """(count, p, dd) at the first odd prime p keeping f squarefree mod p: dd
    is the distinct-degree factorization of f mod p, count its factor count."""
    for p in range(3, 10000, 2):
        if is_prime(p) and (fp := _squarefree_mod_p(f, p)) is not None:
            dd = list(_distinct_degree(_pmonic(fp, p), p))
            return sum((len(g) - 1) // d for d, g in dd), p, dd
    raise PreconditionViolation("no usable factorization prime found")


def _factor_squarefree_monic(f: IntPoly):
    """Irreducible monic factors of a squarefree monic integer polynomial."""
    if f.degree <= 1:
        return [f]
    count, p, dd = _choose_prime(f)
    if count == 1:
        return [f]
    rng = random.Random(0x5EED ^ f.degree)
    facs = [h for d, g in dd for h in _equal_degree_split(g, d, p, rng)]
    target = _mignotte_target(f)
    lifted, pk = _hensel_lift(f, facs, p, target)
    lifted = [IntPoly([_symmetric(c, pk) for c in g]) for g in lifted]

    result = []
    remaining = f
    idx = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(idx):
        accepted = False
        for combo in combinations(idx, size):
            cand = prod((lifted[i] for i in combo), start=IntPoly([1]))
            candidate = IntPoly([_symmetric(c, pk) for c in cand.coeffs])
            c0 = candidate.coeffs[0]
            r0 = remaining.coeffs[0]
            if c0 == 0:
                if r0 != 0:
                    continue
            elif r0 % c0 != 0:
                continue
            try:
                quot, rem = remaining.divmod_exact(candidate)
            except PreconditionViolation:
                continue
            if rem.is_zero and quot.degree + candidate.degree == remaining.degree:
                result.append(candidate)
                remaining = quot
                idx = [i for i in idx if i not in combo]
                accepted = True
                break
        if not accepted:
            size += 1
    if remaining.degree >= 1:
        result.append(remaining)
    return result


def _monic_associate(f: IntPoly):
    """(F, lc) with F monic integer and F(x) = lc^(n-1) f(x/lc)."""
    n = f.degree
    lc = f.leading
    coeffs = [c * lc ** (n - 1 - i) for i, c in enumerate(f.coeffs)]
    return IntPoly(coeffs), lc


def _factor_squarefree(f: IntPoly):
    """Irreducible primitive factors (positive lc) of squarefree primitive f."""
    if f.degree <= 1:
        return [f.primitive_part()]
    if f.is_monic:
        return _factor_squarefree_monic(f)
    F, lc = _monic_associate(f)
    out = []
    for G in _factor_squarefree_monic(F):
        out.append(G.scale_argument(lc).primitive_part())
    return out


def factor_over_integers(f: IntPoly):
    """Factor f into primitive irreducibles over Q with multiplicities.

    Returns [(factor, multiplicity), ...] where each factor is primitive
    with positive leading coefficient; the product of factor^multiplicity
    reproduces f up to sign and integer content.  Deterministic ordering:
    by degree, then lexicographically on the coefficient tuple.  A monic f
    of degree 2 or 3 is factored by its integer roots, without the
    Zassenhaus pipeline, with the same output.
    """
    if f.is_zero:
        raise PreconditionViolation("zero polynomial")
    if f.degree == 2 and f.is_monic:
        return _factor_monic_quadratic(f)
    if f.degree == 3 and f.is_monic:
        return _factor_monic_cubic(f)
    out = []
    for part, mult in squarefree_decomposition(f):
        for g in _factor_squarefree(part):
            out.append((g, mult))
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    merged = []
    for g, m in out:
        if merged and merged[-1][0] == g:
            merged[-1] = (g, merged[-1][1] + m)
        else:
            merged.append((g, m))
    return merged


def _factor_monic_quadratic(f: IntPoly):
    """x^2 + b x + c is irreducible unless D = b^2 - 4c is a square s^2; then
    its roots (-b -+ s) / 2 are integers, as b = s mod 2."""
    c, b, _ = f.coeffs
    s = isqrt(max(b * b - 4 * c, 0))
    if s * s != b * b - 4 * c:
        return [(f, 1)]
    if s == 0:
        return [(IntPoly([b // 2, 1]), 2)]
    return [(IntPoly([(b - s) // 2, 1]), 1), (IntPoly([(b + s) // 2, 1]), 1)]


def _factor_monic_cubic(f: IntPoly):
    """x^3 + b x^2 + a x + c is reducible exactly when it has a linear factor,
    that is a rational root, which is an integer r as f is monic.  Then
    f = (x - r)(x^2 + (b + r) x + a + r (b + r)), and the quadratic is
    factored by its discriminant; x - r may recur there."""
    r = _cubic_integer_root(f)
    if r is None:
        return [(f, 1)]
    _, a, b, _ = f.coeffs
    factors = {IntPoly([-r, 1]): 1}
    for g, m in _factor_monic_quadratic(IntPoly([a + r * (b + r), b + r, 1])):
        factors[g] = factors.get(g, 0) + m
    return sorted(factors.items(), key=lambda t: (t[0].degree, t[0].coeffs))


def _cubic_integer_root(f: IntPoly):
    """An integer root of the monic cubic f = x^3 + b x^2 + a x + c, or None.

    f' = 3x^2 + 2b x + a vanishes only at the critical points
    x1,2 = (-b -+ sqrt(D)) / 3, D = b^2 - 3a, which exist when D > 0.  The
    integers up to floor(x1), from ceil(x1) to floor(x2), and from ceil(x2)
    on are runs on which f is strictly monotone; when D <= 0 all integers
    are one run.  So each run holds at most one root, which bisection over
    its integers finds.  Every root z has |z| < bound (`_root_bound_bits`),
    so the outer runs stop at -+bound, and floor(y / 3) = floor(floor(y) / 3)
    puts the inner ends in integer square roots.
    """
    c, a, b, _ = f.coeffs

    def at(x):
        return ((x + b) * x + a) * x + c

    bound = 1 << _root_bound_bits(f)
    d = b * b - 3 * a
    if d > 0:
        s = isqrt(d)
        up = s + (s * s != d)  # ceil(sqrt(D))
        runs = [
            (-bound, (-b - up) // 3),
            (-((b + s) // 3), (s - b) // 3),
            (-((b - up) // 3), bound),
        ]
    else:
        runs = [(-bound, bound)]
    for lo, hi in runs:
        if lo > hi:
            continue
        flo, fhi = at(lo), at(hi)
        if flo == 0:
            return lo
        if fhi == 0:
            return hi
        if (flo > 0) == (fhi > 0):
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            fmid = at(mid)
            if fmid == 0:
                return mid
            if (fmid > 0) == (flo > 0):
                lo = mid
            else:
                hi = mid
    return None


def is_irreducible(f: IntPoly) -> bool:
    """True when f is irreducible over Q (degree >= 1)."""
    if f.degree < 1:
        return False
    fac = factor_over_integers(f)
    return len(fac) == 1 and fac[0][1] == 1 and fac[0][0].degree == f.degree


def modular_factor_degrees(f: IntPoly, p: int):
    """Degrees (with repetition) of the irreducible factors of f mod p.

    Requires f squarefree mod p with degree preserved; distinct-degree
    factorization alone determines the degree multiset, no splitting.
    """
    fp = _squarefree_mod_p(f, p)
    if fp is None:
        raise PreconditionViolation("not squarefree mod p with its degree kept")
    return sorted(
        d for d, g in _distinct_degree(_pmonic(fp, p), p) for _ in range((len(g) - 1) // d)
    )
