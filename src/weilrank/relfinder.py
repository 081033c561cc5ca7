"""Independent certified oracle for multiplicative eigenvalue relations.

Root isolation runs on plain integers.  `numpy.roots` gives double-precision
starts, which are only guesses.  One start per complex-conjugate pair, the
one in the upper half-plane, is refined by Newton steps on scaled integers
(a + bi) / 2^k, and its disk gets the radius deg * |P/P'| at the center,
which some root always lies within; the other member of the pair is the
exact mirror image, and the only real roots a Weil polynomial can have,
+-sqrt(q), are started from integer square roots and stay on the real line.
When the n disks of the n distinct roots are pairwise disjoint, each holds
exactly one root.  Soundness lies only in that radius bound and those
disjointness checks: a bad start can make certification fail with
PrecisionExhausted, never produce a wrong disk.

Relations: candidate relations among the q^(-1) alpha^2 come from their
arguments, and each is settled exactly.  A claimed identity
prod alpha_i^(e_i) = q^M is an equality between algebraic integers, so
either it holds or the difference has absolute value at least
C^(1 - [L:Q]) where C bounds every conjugate (all conjugates of the
eigenvalues have absolute value sqrt(q)) and L is the splitting field.
Evaluating the difference in integer ball arithmetic finer than that
separation turns the numeric guess into a rigorous dichotomy.

Soundness lives entirely in the exact verification; the numeric stage is
only a candidate generator.  It is exhaustive over the exponent box, so
the resulting lattice is complete up to the configured height.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import DegreeOverflow, PrecisionExhausted, PreconditionViolation
from .exactcore import IntPoly, is_perfect_square
from .newton import newton_polygon
from .weil import WeilPolynomial

__all__ = [
    "CertifiedRoot",
    "RelationCertificate",
    "RelationLattice",
    "OracleRank",
    "certified_roots",
    "verify_relation",
    "relation_lattice",
    "oracle_rank",
    "DEFAULT_EXPONENT_BOUND",
]

DEFAULT_EXPONENT_BOUND = 20
DEFAULT_PRECISION_CAP = 1 << 16
DEFAULT_DEGREE_CAP = 6**6 * 4
_BASE_PRECISION = 128
_ROOT_BITS = 64  # first radius goal of certified_roots, 2^-64
_ROOT_BITS_CAP = 1 << 13
_START_SCALE = 64  # a double start becomes (a + bi) / 2^64
_GUARD_BITS = 32  # Newton works at most this far below the radius goal


# -- scaled-integer complex arithmetic ---------------------------------------
#
# A center is (a + b*i) / 2^k with integer a, b, and a radius is m / 2^e
# with an integer m of about 50 bits, rounded up.  Plain integers avoid
# Fraction's gcd normalization, which dominates once denominators reach
# hundreds of bits.


def _eval_scaled(coeffs, a: int, b: int, k: int):
    """f((a + bi)/2^k) = (R + I*i)/2^(deg*k), all integer arithmetic."""
    r, i = coeffs[-1], 0
    e = 0
    for c in reversed(coeffs[:-1]):
        r, i = r * a - i * b, r * b + i * a
        e += k
        r += c << e
    return r, i, e


def _isqrt_up(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def _round_div(x: int, d: int) -> int:
    """round(x / d) for d > 0."""
    return (2 * x + d) // (2 * d)


def _ceil_scaled(m: int, e: int, k: int) -> int:
    """ceil(m / 2^e * 2^k)."""
    return m << (k - e) if k >= e else -((-m) >> (e - k))


def _refine_scaled(sf: IntPoly, dsf: IntPoly, a: int, b: int, k: int, bits: int):
    """Newton-iterate (a + bi)/2^k until its radius bound is at most 2^-bits.

    Returns (a, b, k, m, e): the center and the rigorous radius m / 2^e >=
    deg * |P/P'| there.  A step works at about twice the bits already
    right, and never beyond bits + _GUARD_BITS, so the cost follows the
    goal.  A start on the real line stays on it.
    """
    n = sf.degree
    for _ in range(100):
        pr, pi, _ = _eval_scaled(sf.coeffs, a, b, k)
        dr, di, _ = _eval_scaled(dsf.coeffs, a, b, k)
        dd = dr * dr + di * di
        if dd == 0:
            raise PrecisionExhausted("derivative vanishes at a center")
        # radius = n*sqrt(num/dd)/2^k <= isqrt_up(ceil(num*2^sh/dd))/2^(k + sh/2)
        num = (pr * pr + pi * pi) * n * n
        sh = 100 - num.bit_length() + dd.bit_length()
        sh += sh & 1
        s = -((-(num << sh)) // dd) if sh >= 0 else -((-num) // (dd << -sh))
        m, e = _isqrt_up(s), k + sh // 2
        if m == 0 or (e >= bits and m <= 1 << (e - bits)):
            return a, b, k, m, e
        right = e - m.bit_length()
        k2 = max(k, min(bits + _GUARD_BITS, max(2 * right + _GUARD_BITS, _START_SCALE)))
        # P/P' = (pr + pi*i)(dr - di*i) / (dd * 2^k): subtract in 2^-k2 units
        up = k2 - k
        a = (a << up) - _round_div((pr * dr + pi * di) << up, dd)
        b = (b << up) - _round_div((pi * dr - pr * di) << up, dd)
        k = k2
    raise PrecisionExhausted("Newton refinement did not reach target radius")


def _disk_at(a: int, b: int, k: int, m: int, e: int, scale: int):
    """The disk (a + bi)/2^k, radius m/2^e, as integers at 2^-scale, grown to hold it."""
    if scale >= k:
        return a << (scale - k), b << (scale - k), _ceil_scaled(m, e, scale)
    d = 1 << (k - scale)
    # each rounded coordinate moves by at most 1/2, the center by less than 1
    return _round_div(a, d), _round_div(b, d), _ceil_scaled(m, e, scale) + 1


def _meet(x, y) -> bool:
    """Do two integer disks (a, b, r) at one scale intersect?"""
    s = x[2] + y[2]
    return (x[0] - y[0]) ** 2 + (x[1] - y[1]) ** 2 <= s * s


def _quotient_disk(q: int, x, scale: int):
    """An integer disk at 2^-scale holding q / z for every z in the disk x."""
    a, b, r = x
    denom = a * a + b * b - r * r
    if denom <= 0:
        raise PrecisionExhausted("disk too large to invert")
    # q / D(c, r) = D(q conj(c), q r) / (|c|^2 - r^2); |c|^2 - r^2 = denom / 2^(2 scale)
    f = q << (2 * scale)
    return _round_div(f * a, denom), _round_div(-f * b, denom), -((-f * r) // denom) + 1


@dataclass(frozen=True)
class CertifiedRoot:
    """One isolating disk per distinct eigenvalue.

    The disk has center (a + bi) / 2^k and radius m / 2^e, all integers;
    `re`, `im` and `radius` give the same numbers as Fractions.  The radius
    is rigorous: for any z, some root lies within
    deg * |P(z)/P'(z)| of z, evaluated in exact integer arithmetic at the
    center; pairwise disjointness of all the disks then pins exactly one
    root per disk.  Only the upper member of a conjugate pair is refined
    (from a double-precision start, by integer Newton steps); its partner
    is the exact mirror image, and real roots (+-sqrt(q)) have im == 0.
    Ordering is by (re, im), so the two members of a pair sit next to each
    other with the negative imaginary part first.  `pair_index` points at
    the disk of q/alpha, `conjugate_index` at the complex conjugate;
    `index` is this disk's own position.
    """

    index: int
    a: int
    b: int
    k: int
    m: int
    e: int
    pair_index: int
    conjugate_index: int

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, 1 << self.k)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, 1 << self.k)

    @property
    def radius(self) -> Fraction:
        return Fraction(self.m, 1 << self.e)

    @property
    def is_self_paired(self) -> bool:
        """True for the fixed points of alpha -> q/alpha, i.e. +-sqrt(q)."""
        return self.pair_index == self.index


def certified_roots(w: WeilPolynomial):
    """Isolating disks for the distinct eigenvalues, with pairing.

    Starts come from `_double_starts` in double precision.  Each upper
    start is refined by integer Newton steps until its radius is at most
    2^-64; its conjugate is the mirror image.  The goal doubles, up to
    2^-8192, until the disks are pairwise disjoint and both the
    alpha -> q/alpha pairing and complex conjugation match each disk to
    exactly one disk.  A start that leads no disk to its own root cannot
    pass those checks, so it ends in PrecisionExhausted.
    """
    sf = w.squarefree
    starts = _starts(sf, w.q)
    bits = _ROOT_BITS
    while bits <= _ROOT_BITS_CAP:
        try:
            return _certify_at(w.q, sf, starts, bits)
        except PrecisionExhausted:
            bits *= 2
    raise PrecisionExhausted(f"could not certify roots of {w.poly} below 2^-{bits // 2}")


def _double_starts(sf: IntPoly, q: int, count: int):
    """`count` double-precision guesses at the roots of sf, highest first.

    sf is solved in the variable t / 2^s with 2^s near sqrt(q), the
    absolute value of every root, so its coefficients stay in range of a
    double.
    """
    import numpy as np  # only the oracle needs numpy; importing weilrank does not load it

    n = sf.degree
    s = (q.bit_length() - 1) // 2
    scaled = [c / (1 << (s * (n - i))) for i, c in enumerate(sf.coeffs)]
    guesses = sorted(np.roots(scaled[::-1]), key=lambda z: -z.imag)
    return [complex(z) * 2.0**s for z in guesses[:count]]


def _starts(sf: IntPoly, q: int):
    """Scaled-integer starts: the real roots +-sqrt(q), then one per conjugate pair.

    A root of absolute value sqrt(q) is real only at +-sqrt(q), so the real
    roots are known exactly and the rest come in conjugate pairs.
    """
    k = _START_SCALE
    if is_perfect_square(q):
        s = math.isqrt(q)
        real = [x << k for x in (-s, s) if sf.evaluate(x) == 0]
    elif sf.mod_monic(IntPoly([-q, 0, 1])).is_zero:
        r = math.isqrt(q << (2 * k))
        real = [-r, r]
    else:
        real = []
    out = [(x, 0) for x in real]
    for z in _double_starts(sf, q, (sf.degree - len(real)) // 2):
        try:
            out.append((round(z.real * 2.0**k), round(z.imag * 2.0**k)))
        except (OverflowError, ValueError):
            raise PrecisionExhausted("double-precision start is not finite") from None
    return out


def _certify_at(q: int, sf: IntPoly, starts, bits: int):
    dsf = sf.derivative()
    disks = []
    for a, b in starts:
        a, b, k, m, e = _refine_scaled(sf, dsf, a, b, _START_SCALE, bits)
        disks.append((a, b, k, m, e))
        if b:
            disks.append((a, -b, k, m, e))
    if len(disks) != sf.degree:
        raise PrecisionExhausted("starts do not cover the roots")
    # every test runs on integers at one common scale, radii rounded up
    scale = max(d[2] for d in disks)
    ordered = sorted((_disk_at(*d, scale), d) for d in disks)
    cells = [c for c, _ in ordered]
    n = len(cells)
    for i, j in combinations(range(n), 2):
        if _meet(cells[i], cells[j]):
            raise PrecisionExhausted("isolating disks overlap")
    pair = [0] * n
    conj = [0] * n
    for i, (re, im, rad) in enumerate(cells):
        inv = _quotient_disk(q, cells[i], scale)
        hits = [j for j in range(n) if _meet(inv, cells[j])]
        if len(hits) != 1:
            raise PrecisionExhausted("pairing ambiguous")
        pair[i] = hits[0]
        chits = [j for j in range(n) if _meet((re, -im, rad), cells[j])]
        if len(chits) != 1:
            raise PrecisionExhausted("conjugation ambiguous")
        conj[i] = chits[0]
    for i in range(n):
        if pair[pair[i]] != i or conj[conj[i]] != i:
            raise PrecisionExhausted("pairing not involutive")
    # k >= _START_SCALE and e >= bits (e > k when m == 0): the shifts in re, im, radius are >= 0
    return tuple(
        CertifiedRoot(i, *disk, pair_index=pair[i], conjugate_index=conj[i])
        for i, (_, disk) in enumerate(ordered)
    )


# -- exact relation verification --------------------------------------------


@dataclass(frozen=True)
class RelationCertificate:
    """Replayable outcome of one exact relation check.

    `holds` says whether prod alpha_i^(e_i) = q^M.  `separation_log2` is
    the proven log2 lower bound on |difference| when nonzero; the verdict
    compared the difference against it in ball arithmetic at
    `precision_bits` bits.
    """

    holds: bool
    exponents: tuple[int, ...]
    power_of_q: int
    separation_log2: int
    conjugate_degree_bound: int
    precision_bits: int


def _iball_mul(x, y, bits):
    """Product of integer balls (a, b, r) meaning ((a + bi) +- r) / 2^bits."""
    a1, b1, r1 = x
    a2, b2, r2 = y
    m1 = _isqrt_up(a1 * a1 + b1 * b1)
    m2 = _isqrt_up(a2 * a2 + b2 * b2)
    half = 1 << (bits - 1)
    a = (a1 * a2 - b1 * b2 + half) >> bits
    b = (a1 * b2 + b1 * a2 + half) >> bits
    # propagated radius plus one ulp per rounded component, all rounded up
    r = ((m1 * r2 + m2 * r1) >> bits) + ((r1 * r2) >> bits >> bits) + 4
    return a, b, r


def _iball_pow(x, n, bits):
    result = (1 << bits, 0, 0)
    base = x
    while n:
        if n & 1:
            result = _iball_mul(result, base, bits)
        base = _iball_mul(base, base, bits)
        n >>= 1
    return result


def _degree_bound(w: WeilPolynomial, roots) -> int:
    """Upper bound on [L:Q] for the splitting field of the roots.

    Adjoining a root also adjoins its pair partner q/alpha, so each pair
    costs a factor (remaining root count); intersecting with the product
    of per-irreducible-factor bounds tightens products considerably.
    """
    q = w.q
    pairs = sum(1 for r in roots if r.pair_index > r.index)
    bound = 1
    remaining = w.squarefree.degree
    for _ in range(pairs):
        bound *= max(remaining, 2)
        remaining -= 2
    if any(r.is_self_paired for r in roots) and not is_perfect_square(q):
        bound *= 2
    factored = 1
    for f, _ in w.factors:
        d = f.degree
        if f == IntPoly([-q, 0, 1]):
            factored *= 2
            continue
        fp = d // 2
        rem = d
        for _ in range(fp):
            factored *= max(rem, 2)
            rem -= 2
    return max(min(bound, factored), 1)


def _relation_balls(sf: IntPoly, roots, e, bits: int) -> dict:
    """Integer balls at 2^-bits around the roots whose exponent is nonzero.

    Only the upper member of a conjugate pair is refined; the lower one is
    its mirror image.  A refined disk holds some root, and it is this
    disk's root because it meets this isolating disk and no other.
    """
    dsf = sf.derivative()
    cells = [_disk_at(r.a, r.b, r.k, r.m, r.e, bits) for r in roots]
    refined = {}
    balls = {}
    for i in (i for i, x in enumerate(e) if x):
        j = i if roots[i].b >= 0 else roots[i].conjugate_index
        if j not in refined:
            r = roots[j]
            ball = _disk_at(*_refine_scaled(sf, dsf, r.a, r.b, r.k, bits), bits)
            if [l for l, c in enumerate(cells) if _meet(ball, c)] != [j]:
                raise PrecisionExhausted("refined disk left its isolating disk")
            refined[j] = ball
        a, b, rad = refined[j]
        balls[i] = (a, b, rad) if i == j else (a, -b, rad)
    return balls


def verify_relation(w: WeilPolynomial, e, m_power: int, roots=None) -> RelationCertificate:
    """Exactly decide whether prod alpha_i^(e_i) = q^(m_power).

    `e` is indexed like `certified_roots(w)`.  Negative exponents and a
    negative power of q are moved across the equality so both sides are
    algebraic integers; the difference, if nonzero, has norm at least one,
    which yields the separation bound from |conjugate| = sqrt(q) <=
    ceil(sqrt(q)).  The ball arithmetic doubles its precision up to
    DEFAULT_PRECISION_CAP bits, and a relation whose transform degree
    deg^(nonzero exponents) exceeds DEFAULT_DEGREE_CAP raises DegreeOverflow.
    """
    sf = w.squarefree
    if roots is None:
        roots = certified_roots(w)
    e = tuple(int(x) for x in e)
    if len(e) != len(roots):
        raise PreconditionViolation("exponent vector length mismatch")
    nonzero = sum(1 for x in e if x)
    if nonzero == 0:
        return RelationCertificate(
            holds=(m_power == 0),
            exponents=e,
            power_of_q=m_power,
            separation_log2=0,
            conjugate_degree_bound=1,
            precision_bits=0,
        )
    if sf.degree**nonzero > DEFAULT_DEGREE_CAP:
        raise DegreeOverflow(
            f"implied transform degree {sf.degree}**{nonzero} exceeds cap {DEFAULT_DEGREE_CAP}"
        )
    q = w.q
    pos = sum(x for x in e if x > 0)
    neg = sum(-x for x in e if x < 0)
    qa = max(-m_power, 0)
    qb = max(m_power, 0)
    su = _isqrt_up(q)
    conj_bound = su**pos * q**qa + su**neg * q**qb
    degree_bound = _degree_bound(w, roots)
    sep_log2 = -(degree_bound - 1) * conj_bound.bit_length() - 2
    bits = max(_BASE_PRECISION, -sep_log2 + 64)
    while bits <= DEFAULT_PRECISION_CAP:
        balls = _relation_balls(sf, roots, e, bits)
        side_a = (q**qa << bits, 0, 0)
        side_b = (q**qb << bits, 0, 0)
        for i, exp in enumerate(e):
            if exp > 0:
                side_a = _iball_mul(side_a, _iball_pow(balls[i], exp, bits), bits)
            elif exp < 0:
                side_b = _iball_mul(side_b, _iball_pow(balls[i], -exp, bits), bits)
        za = side_a[0] - side_b[0]
        zb = side_a[1] - side_b[1]
        zr = side_a[2] + side_b[2]
        mag = za * za + zb * zb
        upper_scaled = _isqrt_up(mag) + zr
        lower_scaled = math.isqrt(mag) - zr
        # separation 2^sep_log2 in the same 2^-bits scale
        holds = upper_scaled < 1 << (bits + sep_log2)
        if holds or lower_scaled > 0:
            return RelationCertificate(
                holds=holds,
                exponents=e,
                power_of_q=m_power,
                separation_log2=sep_log2,
                conjugate_degree_bound=degree_bound,
                precision_bits=bits,
            )
        bits *= 2
    raise PrecisionExhausted(f"relation check needs more than {DEFAULT_PRECISION_CAP} bits")


# -- relation lattice --------------------------------------------------------


@dataclass(frozen=True)
class RelationLattice:
    """Verified multiplicative relations among representatives of R'_X.

    `representatives` are root indices, one per two-element orbit of
    alpha -> q/alpha (self-paired roots give the unit of R'_X and carry no
    rank).  `basis` rows live in exponent space on those representatives:
    a row v means prod (q^(-1) alpha_i^2)^(v_i) = 1, certified.  The basis
    is saturated, primitive, and in Hermite normal form; the lattice holds
    every relation with sup-norm at most `exponent_bound`.  Membership,
    saturation and the normal form all come from `_echelon`, the one
    integer Hermite-normal-form routine.
    """

    representatives: tuple[int, ...]
    basis: tuple[tuple[int, ...], ...]
    certificates: tuple[RelationCertificate, ...]
    exponent_bound: int

    @property
    def rank(self) -> int:
        """Rank of the group generated by R'_X (free part)."""
        return len(self.representatives) - len(self.basis)


def _echelon(rows, cols):
    """Row Hermite normal form with its transform; all lattice algebra reads it.

    Returns (H, U).  H holds the nonzero rows of the row HNF of `rows`
    (positive pivots, entries above each pivot reduced into [0, pivot)),
    so len(H) is the rank and H is the same for any basis of one lattice.
    U is unimodular with U * rows = H followed by zero rows, so the rows of
    U after len(H) span the integer left kernel {x : x * rows = 0}.
    """
    m = len(rows)
    mat = [list(r) for r in rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)]

    def swap(i, j):
        mat[i], mat[j] = mat[j], mat[i]
        u[i], u[j] = u[j], u[i]

    def sub(i, j, t):  # row i -= t * row j
        mat[i] = [a - t * b for a, b in zip(mat[i], mat[j])]
        u[i] = [a - t * b for a, b in zip(u[i], u[j])]

    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, m) if mat[i][c]), None)
        if pivot is None:
            continue
        swap(r, pivot)
        for i in range(r + 1, m):
            while mat[i][c]:  # gcd steps clear column c below the pivot
                if abs(mat[i][c]) < abs(mat[r][c]):
                    swap(r, i)
                sub(i, r, mat[i][c] // mat[r][c])
        if mat[r][c] < 0:
            mat[r], u[r] = [-x for x in mat[r]], [-x for x in u[r]]
        for i in range(r):
            if t := mat[i][c] // mat[r][c]:
                sub(i, r, t)
        r += 1
    return mat[:r], u


def _saturate(rows, dim):
    """Saturation: the integer vectors in the rational span of `rows`.

    It is the kernel of the kernel; each pass takes {x : rows . x = 0} as
    the left kernel of the transpose.
    """
    for _ in range(2):
        h, u = _echelon([[row[j] for row in rows] for j in range(dim)], len(rows))
        rows = u[len(h):]
    return _echelon(rows, dim)[0]


def _lattice_contains(basis, vector) -> bool:
    """Membership in the row lattice of `basis`: adding it keeps the HNF."""
    h = _echelon(basis, len(vector))[0]
    return _echelon(h + [list(vector)], len(vector))[0] == h


def _theta_of_root(r: CertifiedRoot) -> float:
    # argument of beta = alpha^2/q is twice the argument of alpha
    return 2.0 * math.atan2(float(r.im), float(r.re))


def _candidate_vectors(thetas, bound, tol=1e-6):
    """All e with 0 < max|e_i| <= bound whose angle sum is ~0 mod 2pi.

    Exhaustive over the box so no true relation at this height is missed;
    false positives are eliminated by exact verification downstream.
    """
    import numpy as np

    d = len(thetas)
    theta = np.array(thetas, dtype=float)
    two_pi = 2.0 * math.pi
    rng = np.arange(-bound, bound + 1)
    out = []
    if d == 1:
        for v in rng:
            if v > 0 and abs(math.remainder(v * thetas[0], two_pi)) < tol:
                out.append((int(v),))
        return out
    grids = np.meshgrid(*([rng] * (d - 1)), indexing="ij")
    tail = np.stack([g.ravel() for g in grids], axis=1)
    tail_dot = tail @ theta[1:]
    for lead in range(0, bound + 1):
        total = lead * theta[0] + tail_dot
        res = np.abs(np.remainder(total + math.pi, two_pi) - math.pi)
        hits = np.nonzero(res < tol)[0]
        for h in hits:
            vec = (lead, *map(int, tail[h]))
            if not any(vec):
                continue
            first = next(x for x in vec if x)
            if first < 0:
                continue  # canonical sign: first nonzero positive
            out.append(vec)
    out.sort(key=lambda v: (max(abs(x) for x in v), sum(abs(x) for x in v), v))
    return out


def relation_lattice(
    w: WeilPolynomial, exponent_bound: int = DEFAULT_EXPONENT_BOUND
) -> RelationLattice:
    """Certified relation lattice among the beta = q^(-1) alpha^2.

    Candidates come from an exhaustive scan of exponent vectors against
    high-precision arguments of the beta; every candidate is settled by
    `verify_relation`.  The verified lattice is saturated (a root of unity
    in the eigenvalue group must be 1 over a sufficiently large field) and
    each saturated basis vector is verified, or keeps its certificate when
    it is a verified candidate, so the basis is certified.
    Saturation and the basis's Hermite normal form come from `_echelon`.
    """
    roots = certified_roots(w)
    reps = [r.index for r in roots if r.pair_index > r.index]
    d = len(reps)
    if d == 0:
        return RelationLattice(
            representatives=(), basis=(), certificates=(), exponent_bound=exponent_bound
        )
    thetas = [_theta_of_root(roots[i]) for i in reps]

    def verify(vec):
        full = [0] * len(roots)
        for j, i in enumerate(reps):
            full[i] = 2 * vec[j]
        return verify_relation(w, full, sum(vec), roots=roots)

    verified: list[list[int]] = []
    proved: dict[tuple[int, ...], RelationCertificate] = {}
    for cand in _candidate_vectors(thetas, exponent_bound):
        if _lattice_contains(verified, list(cand)):
            continue
        cert = verify(cand)
        if cert.holds:
            verified.append(list(cand))
            proved[tuple(cand)] = cert
    basis = _saturate(verified, d)
    certs = []
    for row in basis:
        # a basis row that is itself a verified candidate keeps its certificate
        cert = proved.get(tuple(row))
        if cert is None:
            cert = verify(row)
        if not cert.holds:
            raise PreconditionViolation(
                "saturated relation failed verification; field not sufficiently large?"
            )
        certs.append(cert)
    return RelationLattice(
        representatives=tuple(reps),
        basis=tuple(tuple(r) for r in basis),
        certificates=tuple(certs),
        exponent_bound=exponent_bound,
    )


@dataclass(frozen=True)
class OracleRank:
    """The oracle's rank and how far it is proven.

    `rank` is an exact upper bound: every relation in `lattice` is
    certified.  `confidence` is 'certified_exact' when a lower bound meets
    it, which happens at rank 0, and at rank 1 when some Newton slope is
    not 1/2; otherwise it is 'certified_relations_only'.
    """

    rank: int
    confidence: str
    lattice: RelationLattice


def oracle_rank(
    w: WeilPolynomial,
    exponent_bound: int = DEFAULT_EXPONENT_BOUND,
) -> OracleRank:
    """Rank of the eigenvalue-relation group, proven from certificates.

    The value is an exact upper bound (every counted relation is certified)
    and conjecturally exact up to the exponent bound.  The lower bound is
    the valuation argument of Dupuy-Kedlaya-Roe-Vincent: if some Newton
    slope is not 1/2, some eigenvalue alpha has v(alpha) != v(q)/2 at a
    prime above p, so beta = alpha^2/q has nonzero valuation there, is not
    a root of unity, and the rank is at least 1.  With every slope 1/2 the
    lower bound is 0.  The confidence is 'certified_exact' when the lower
    bound meets the rank.
    """
    lat = relation_lattice(w, exponent_bound=exponent_bound)
    exact = lat.rank == 0 or (
        lat.rank == 1 and set(newton_polygon(w).slopes) != {Fraction(1, 2)}
    )
    confidence = "certified_exact" if exact else "certified_relations_only"
    return OracleRank(rank=lat.rank, confidence=confidence, lattice=lat)
