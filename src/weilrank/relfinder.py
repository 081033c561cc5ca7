"""Independent certified oracle for multiplicative eigenvalue relations, on plain integers.

Roots.  A non-real eigenvalue alpha is fixed, up to conjugation, by its
trace r = alpha + q/alpha, a root of the degree-g trace polynomial h:
alpha = (r + i sqrt(4q - r^2)) / 2.  The real eigenvalues +-sqrt(q) stand
for the roots +-2 sqrt(q) of h, which are divided out.  Double-precision
roots of h, confirmed by exact sign changes, seed a bracket for each other
root, and Sturm bisection stands in when they are not confirmed; bracketed
Newton steps on integers x / 2^k narrow the brackets, and `_disks` makes each
a disk for alpha, for the isolation (`certified_roots`) and for every proof;
conj(alpha) = q/alpha is its mirror image.  The doubles only choose the
brackets: numeric first, then certified (Kobel, Rouillier and Sagraloff 2016).

Relations.  Candidates prod beta_i^(e_i) = 1 among the beta_i = q^(-1) alpha_i^2 are rows
of an LLL-reduced lattice (Lenstra, Lenstra and Lovasz 1982) at N = 2^44, built from their
arguments as doubles (`relation_lattice`); `verify_relation` settles each exactly.  Brun
steps on the angle column (`_euclid`) hand LLL a cheaper basis of the same lattice first;
the certificate holds for any basis, so it does not depend on them.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PrecisionExhausted, PreconditionViolation
from .exactcore import IntPoly, factor_over_integers, surd_signs
from .exactcore.poly import _refine, _root_bound_bits, _round_div, _scaled_value, real_root_brackets
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
_BASE_PRECISION = 128
_ROOT_BITS = 64  # first goal of certified_roots, and the largest radius it accepts, 2^-64
_ROOT_BITS_CAP = 1 << 13
_GUARD_BITS = 32  # Newton runs this far past a goal: Im alpha moves faster than r
_SEED_BITS = 40  # a bracket from a double root r reaches about |r| 2^-40 to each side
_SEED_STEPS = 200  # double Newton steps per root, at most
# eps = 2^-46 bounds the error of `_turns` in turns, mod 1.  In radians the disk
# center moves arg(alpha) by < 2^-64 (radius <= 2^-64, |alpha| >= sqrt 2), doubles
# by <= 2^-53 (a coordinate scaled below the normal range is under 2^-2000 of the other
# and moves it less); dividing by pi adds 2^-52 turns; atan2 may be 90 ulps of 2^-51 off.
_ANGLE_ERROR_BITS = 46
_LATTICE_BITS = 44  # N = 2^44, the largest N with N eps <= 1/4
_BOX_CAP = 1024  # box vectors `relation_lattice` proves one by one, at most


# -- the real line: traces of eigenvalue pairs -------------------------------


def _isqrt_up(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def _split(w: WeilPolynomial):
    """(h, signs): the traces of the non-real eigenvalue pairs, and the real eigenvalues.

    h is the squarefree part of the trace polynomial, read from `w`, with
    its roots +-2 sqrt(q), found by its exact signs there, divided out;
    alpha + q/alpha = +-2 sqrt(q) exactly when alpha = +-sqrt(q), so
    `signs` lists the signs of the real eigenvalues.
    """
    h = w.trace_squarefree
    d = 4 * w.q
    signs = [e for e, v in zip((-1, 1), surd_signs(h, d)) if v == 0]
    if len(signs) == 2:
        h = h.exact_div(IntPoly([-d, 0, 1]))
    elif signs:  # q is a square
        h = h.exact_div(IntPoly([-signs[0] * math.isqrt(d), 1]))
    return h, signs


def _pair_disk(q: int, x: int, k: int):
    """(a, b, m): the disk (a + bi) / 2^(k+2), radius m / 2^(k+2), holding
    alpha = (r + i sqrt(4q - r^2)) / 2 for every r in (x -+ 1) / 2^k.

    Re alpha = r/2 lies in (x -+ 1) / 2^(k+1).  Im alpha = sqrt(4q - r^2)/2
    falls as |r| grows, so it lies between its values at the two ends of
    the range of |r|, bounded by isqrt at 2^-(k+1).  The disk
    circumscribes that box; its center and radius are at 2^-(k+2).
    """
    top = 4 * q << (2 * k)
    near = max(abs(x) - 1, 0)
    far = abs(x) + 1
    lo = math.isqrt(max(top - far * far, 0))
    hi = _isqrt_up(top - near * near)
    return 2 * x, lo + hi, _isqrt_up(4 + (hi - lo) ** 2)


def _real_disk(q: int, sign: int, k: int):
    """(a, b, m) at 2^-k for the real eigenvalue sign * sqrt(q): exact, or an isqrt bracket."""
    s = math.isqrt(q << (2 * k))
    return sign * s, 0, int(s * s != q << (2 * k))


@dataclass(frozen=True)
class CertifiedRoot:
    """One isolating disk per distinct eigenvalue.

    The disk has center (a + bi) / 2^k and radius m / 2^k, all integers;
    `re`, `im` and `radius` give the same numbers as Fractions.  A non-real
    root's disk holds the box of alpha = (r + i sqrt(4q - r^2)) / 2 over a
    sign-change interval of the trace polynomial around its trace r; the
    lower member of the pair is the exact mirror image of the upper one.
    The real roots +-sqrt(q) have im == 0 and are exact or an integer
    square-root bracket.  The real projections [re - radius, re + radius]
    of the disks are pairwise disjoint.  Ordering is by (re, im): -sqrt(q)
    first, +sqrt(q) last, and the two members of a pair next to each other
    with the negative imaginary part first.  `conjugate_index` points at the
    complex conjugate, which is also q/alpha because |alpha|^2 = q;
    `index` is this disk's own position.
    """

    index: int
    a: int
    b: int
    k: int
    m: int
    conjugate_index: int

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, 1 << self.k)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, 1 << self.k)

    @property
    def radius(self) -> Fraction:
        return Fraction(self.m, 1 << self.k)


def certified_roots(w: WeilPolynomial):
    """Isolating disks for the distinct eigenvalues, with pairing.

    The brackets of the roots of the trace polynomial h come from its double-precision
    roots (`_seed_brackets`), or from `real_root_brackets` when those are not all
    confirmed.  The doubles decide only where each bracket lies and where Newton starts.
    `_disks` refines each bracket to 2^-(bits + 32): the disk of the upper eigenvalue of a
    pair.  bits doubles from 64 up to 8192 until every radius is at most 2^-64, no upper
    disk reaches the real axis, and the real projections of the disks are pairwise
    disjoint.  Each refined interval is an exact sign change of h, and `validate` proved
    that h has deg h real simple roots, so deg h such disjoint intervals hold each root
    once: the disks are sound however the brackets were found.
    """
    h, signs = _split(w)
    brackets = _seed_brackets(h)
    if brackets is None:
        brackets = real_root_brackets(h)
    bits = _ROOT_BITS
    while bits <= _ROOT_BITS_CAP:
        try:
            return _certify_at(w.q, h, signs, brackets, bits)
        except PrecisionExhausted:
            bits *= 2
    raise PrecisionExhausted(f"could not certify roots of {w.poly} below 2^-{bits // 2}")


def _certify_at(q: int, h: IntPoly, signs, brackets, bits: int):
    if len(brackets) != h.degree:
        raise PrecisionExhausted("brackets do not cover the roots")
    k, upper = _disks(q, h, [(j, *b) for j, b in enumerate(brackets)], bits)
    cells = [_real_disk(q, -1, k)] * (-1 in signs) + upper + [_real_disk(q, 1, k)] * (1 in signs)
    if any(m > 1 << (k - _ROOT_BITS) for _, _, m in cells):
        raise PrecisionExhausted("isolating disk wider than 2^-64")
    if any(b <= m for _, b, m in upper):
        raise PrecisionExhausted("isolating disk reaches the real axis")
    if any(x[0] + x[2] >= y[0] - y[2] for x, y in zip(cells, cells[1:])):
        raise PrecisionExhausted("real projections overlap")
    roots = []
    for a, b, m in cells:
        i = len(roots)
        members = [(-b, i + 1), (b, i)] if b else [(0, i)]  # a pair, lower member first
        roots += [CertifiedRoot(i + j, a, y, k, m, c) for j, (y, c) in enumerate(members)]
    return tuple(roots)


def _double_roots(h: IntPoly, b: int):
    """The roots of h as doubles, descending, for h with deg h real simple roots in (-2^b, 2^b).

    Newton steps from 2^b fall monotonically to the largest root; the search stops where a
    step no longer falls and stays above -2^b.  That root is divided out, and the next
    search starts from it.  OverflowError when h or 2^b is beyond double range,
    PrecisionExhausted when a search does not settle.
    """
    c = [float(x) for x in h.coeffs]
    top = x = math.ldexp(1.0, b)
    roots = []
    while len(c) > 1:
        for _ in range(_SEED_STEPS):
            v = dv = 0.0
            for a in reversed(c):  # Horner's rule for h and h' at once
                dv = dv * x + v
                v = v * x + a
            if not (dv and -top < (y := x - v / dv) < x):
                break
            x = y
        else:
            raise PrecisionExhausted("double Newton steps did not settle")
        roots.append(x)
        for j in range(len(c) - 2, 0, -1):  # c / (t - x), in place
            c[j] += x * c[j + 1]
        del c[0]
    return roots


def _seed_brackets(h: IntPoly):
    """Sign-change brackets (lo, hi, k) of the roots of h, ascending, from `_double_roots`; or None.

    A double r becomes (x -+ w) / 2^k with k >= 0: r -+ 2^(e - 40) for 2^(e-1) <= |r| < 2^e,
    but e is at least b - 8 for the root bound 2^b (`_root_bound_bits`), above the rounding
    of the divisions that found r; a root at 0 then still lies inside.  The brackets are kept
    only if h changes sign across each, by its exact values at the ends, and no two overlap:
    then the deg h of them hold one root each.  Otherwise, and when the doubles overflow or
    do not settle, None.
    """
    b = _root_bound_bits(h)
    try:
        roots = _double_roots(h, b)
    except (OverflowError, PrecisionExhausted):
        return None
    out = []
    for r in reversed(roots):
        e = max(math.frexp(r)[1], b - 8)
        k = max(0, _SEED_BITS - e)
        x, w = round(math.ldexp(r, k)), 1 << max(0, e - _SEED_BITS)
        lo, hi = x - w, x + w
        if _scaled_value(h.coeffs, lo, k) * _scaled_value(h.coeffs, hi, k) >= 0:
            return None
        if out and out[-1][1] << k > lo << out[-1][2]:
            return None
        out.append((lo, hi, k))
    return out


def _disks(q: int, h: IntPoly, brackets, bits: int):
    """(k, cells): the disks (a, b, m) at 2^-k of the upper eigenvalues, one per bracket, ascending.

    A bracket (j, lo, hi, kb) holds the j-th smallest root of h, counted from 0, which changes
    sign across (lo, hi) / 2^kb.  h has deg h simple real roots, deg h - 1 - j of them above
    the bracket, so h(hi / 2^kb) has the sign of lead(h) (-1)^(deg h - 1 - j).  `_refine`
    narrows each to one scale, bits + 32 or finer; an interval that reaches past its bracket
    (it may end on a bracket end) might hold another root, and is refused.
    """
    dh = h.derivative()
    goal = max([bits + _GUARD_BITS] + [kb + 1 for *_, kb in brackets])
    cells = []
    for j, lo, hi, kb in brackets:
        up = (h.leading > 0) == ((h.degree - 1 - j) % 2 == 0)
        x, k = _refine(h, dh, lo, hi, kb, goal, up)
        if x - 1 < lo << (k - kb) or x + 1 > hi << (k - kb):
            raise PrecisionExhausted("refined interval left its bracket")
        cells.append(_pair_disk(q, x, k))
    return goal + 2, sorted(cells)


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


def _degree_bound(q: int, h: IntPoly, signs) -> int:
    """Upper bound on [L:Q] for the splitting field L of the eigenvalues, from `_split`.

    L is the compositum of the splitting fields of the irreducible factors
    of P, so the product of per-factor bounds bounds it.  An irreducible
    factor of h of degree d is the trace polynomial of one of P of degree
    2d (`WeilPolynomial.components`), with 2d roots in d pairs; adjoining a
    root also adjoins its pair partner q/alpha, so it costs at most
    (2d)(2d - 2)...2.  The real eigenvalues cost 2 when both +-sqrt(q) are
    roots and q is not a square (t^2 - q), and 1 each otherwise (t -+ sqrt(q)).
    """
    bound = math.prod(math.prod(range(2 * f.degree, 1, -2)) for f, _ in factor_over_integers(h))
    return 2 * bound if len(signs) == 2 and math.isqrt(q) ** 2 != q else bound


def verify_relation(w: WeilPolynomial, e, m_power: int, roots=None) -> RelationCertificate:
    """Exactly decide whether prod alpha_i^(e_i) = q^(m_power).

    `e` is indexed like `certified_roots(w)`.  Negative exponents and a
    negative power of q are moved across the equality so both sides are
    algebraic integers; the difference, if nonzero, has norm at least one,
    which yields the separation bound from |conjugate| = sqrt(q) <=
    ceil(sqrt(q)) and `_degree_bound`.  Ball arithmetic on the disks of the
    roots with a nonzero exponent, refined by `_disks`, doubles its
    precision up to DEFAULT_PRECISION_CAP bits.
    """
    if roots is None:
        roots = certified_roots(w)
    e = tuple(int(x) for x in e)
    if len(e) != len(roots):
        raise PreconditionViolation("exponent vector length mismatch")
    if not any(e):
        return RelationCertificate(
            holds=(m_power == 0),
            exponents=e,
            power_of_q=m_power,
            separation_log2=0,
            conjugate_degree_bound=1,
            precision_bits=0,
        )
    q = w.q
    pos = sum(x for x in e if x > 0)
    neg = sum(-x for x in e if x < 0)
    qa = max(-m_power, 0)
    qb = max(m_power, 0)
    su = _isqrt_up(q)
    conj_bound = su**pos * q**qa + su**neg * q**qb
    h, signs = _split(w)
    degree_bound = _degree_bound(q, h, signs)
    sep_log2 = -(degree_bound - 1) * conj_bound.bit_length() - 2
    bits = max(_BASE_PRECISION, -sep_log2 + 64)
    # the upper members ascend with their traces, so the j-th has the j-th root of h as trace
    upper = [r for r in roots if r.b > 0]
    pairs = [(j, r) for j, r in enumerate(upper) if e[r.index] or e[r.conjugate_index]]
    while bits <= DEFAULT_PRECISION_CAP:
        # 2 re = a / 2^(k-1): the doubled real projection [a -+ m] / 2^(k-1) of an upper
        # disk holds one root of the trace polynomial, and none at its ends, so it is a bracket
        k, cells = _disks(q, h, [(j, r.a - r.m, r.a + r.m, r.k - 1) for j, r in pairs], bits)
        balls = {r.index: _real_disk(q, 1 if r.a > 0 else -1, bits) for r in roots if not r.b}
        d = 1 << (k - bits)
        for (_, r), (a, b, m) in zip(pairs, cells):
            # each rounded coordinate moves by at most 1/2, the center by less than 1
            a, b, m = _round_div(a, d), _round_div(b, d), -(-m // d) + 1
            balls[r.index], balls[r.conjugate_index] = (a, b, m), (a, -b, m)
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
    is saturated, primitive, and in Hermite normal form (`_echelon`).  It holds every relation
    of sup-norm <= `exponent_bound`, by the LLL certificate of `relation_lattice`.
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
    """Row Hermite normal form with its transform; saturation reads it.

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
    if not rows:
        return []
    for _ in range(2):
        h, u = _echelon([[row[j] for row in rows] for j in range(dim)], len(rows))
        rows = u[len(h):]
    return _echelon(rows, dim)[0]


def _lll(rows):
    """LLL reduction, delta = 99/100, of linearly independent integer rows.

    Returns the reduced rows and the Gram determinants dets of their prefixes:
    Gram-Schmidt vector i (from 0) has squared length dets[i + 1] / dets[i].
    Integral LLL (Cohen, A Course in Computational Algebraic Number Theory,
    2.6.7): lam[i][j] = dets[j + 1] mu_ij is exact.
    """
    b = [list(r) for r in rows]
    n = len(b)
    dets, lam = [1] + [0] * n, [[0] * n for _ in b]
    for k in range(n):
        bk, lk = b[k], lam[k]
        for j in range(k + 1):
            u, lj = sum(x * y for x, y in zip(bk, b[j])), lam[j]
            for i in range(j):
                u = (dets[i + 1] * u - lk[i] * lj[i]) // dets[i]
            lk[j] = u
        dets[k + 1] = lk[k]
    k = 1
    while k < n:
        bk, lk = b[k], lam[k]
        for l in range(k - 1, -1, -1):  # size reduction: b_k -= round(mu_kl) b_l when |mu_kl| > 1/2
            d = dets[l + 1]
            if 2 * abs(lk[l]) > d:
                t, ll = _round_div(lk[l], d), lam[l]
                bk = [x - t * y for x, y in zip(bk, b[l])]
                for i in range(l):
                    lk[i] -= t * ll[i]
                lk[l] -= t * d
            if l == k - 1:  # d = dets[k]
                mu = lk[l]
                if 100 * dets[k + 1] * dets[k - 1] < 99 * d * d - 100 * mu * mu:
                    break  # the Lovasz condition fails
        else:
            b[k] = bk
            k += 1
            continue
        # swap rows k - 1 and k
        b[k - 1], b[k], lm, dk1 = bk, b[k - 1], lam[k - 1], dets[k + 1]
        for j in range(k - 1):
            lm[j], lk[j] = lk[j], lm[j]
        new = (dets[k - 1] * dk1 + mu * mu) // d
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = (dk1 * li[k - 1] - mu * t) // d
            li[k - 1] = (new * t + mu * li[k]) // dk1
        dets[k] = new
        k = max(1, k - 1)
    return b, dets


def _euclid(rows):
    """The rows sorted by |last entry|, after Brun steps that shrink the last column.

    While the largest |last entry| c is above 2^(b/n + 4), for n rows and b the bits of the
    largest at the start, and the next largest, y, is not 0, the top row loses round(c / y)
    times the next one and is sorted back in.  Each step is unimodular, so the rows span the
    same lattice, and |c| falls to at most |y| / 2 <= |c| / 2, so the loop ends.
    """
    rows = sorted(rows, key=lambda r: abs(r[-1]))
    cap = 1 << (abs(rows[-1][-1]).bit_length() // len(rows) + 4)
    while abs(c := rows[-1][-1]) > cap and (y := rows[-2][-1]):
        t = _round_div(c, y)
        top = [x - t * z for x, z in zip(rows.pop(), rows[-1])]
        bisect.insort(rows, top, key=lambda r: abs(r[-1]))
    return rows


def _turns(r: CertifiedRoot) -> float:
    """arg(beta) / 2pi for beta = alpha^2 / q, that is arg(alpha) / pi, as a double.

    atan2 is scale-free, so a and b share one divisor 2^s, s >= k, that puts both below
    2^1000: each int / int rounds once, and neither overflows at any q.
    """
    s = 1 << max(r.k, max(abs(r.a), abs(r.b)).bit_length() - 1000)
    return math.atan2(r.b / s, r.a / s) / math.pi


def _short_rows(turns, bound: int, k: int):
    """[(e, viable)] for rows 1..j of `relation_lattice`'s reduced lattice at N = 2^k: e is the
    row's first d entries, first nonzero one positive; viable: the row (e, c) is at most R long
    and |c| <= sum |e_i| (1/2 + N eps), as for any relation.  `_euclid` shrinks the angle
    column before `_lll`, which then takes about a third of the iterations; both keep the
    lattice, and the cutoff j holds for any LLL-reduced basis of it."""
    d, eps = len(turns), _ANGLE_ERROR_BITS
    rows = [[int(i == j) for j in range(d)] + [round(math.ldexp(t, k))]
            for i, t in enumerate(turns)]
    rows, dets = _lll(_euclid(rows + [[0] * d + [1 << k]]))
    # in integers times 2^eps: 1/2 + N eps = (2^(eps - 1) + N) / 2^eps
    slack = (1 << eps - 1) + (1 << k)
    r2 = (d * bound**2 << 2 * eps) + (d * bound * slack) ** 2
    j = max((i for i in range(1, d + 2) if dets[i] << 2 * eps <= r2 * dets[i - 1]), default=0)
    return [
        (tuple(x if next(y for y in row if y) > 0 else -x for x in row[:d]),
         sum(x * x for x in row) << 2 * eps <= r2
         and abs(row[d]) << eps <= sum(abs(x) for x in row[:d]) * slack)
        for row in rows[:j]
    ]


def _box_points(hnf, bound: int):
    """Vectors of sup-norm <= bound, first nonzero entry positive, in the row lattice with
    HNF `hnf`: among rows i.., row i alone sets its pivot column, which bounds its coefficient.
    Depth first, coefficients ascending row by row, so a caller may stop at any count.  The
    columns before the next pivot are final once row i is added, so a partial vector with one
    of them beyond the bound, or with a negative first nonzero one, is dropped with every
    vector below it."""
    ends = [next(c for c, x in enumerate(row) if x) for row in hnf] + [len(hnf[0])]

    def walk(v, i):
        if i == len(hnf):
            if any(v):
                yield tuple(v)
            return
        p, row = ends[i], hnf[i]
        for m in range(-((bound + v[p]) // row[p]), (bound - v[p]) // row[p] + 1):
            u = [x + m * y for x, y in zip(v, row)]
            head = u[:ends[i + 1]]
            if max(map(abs, head)) <= bound and next((x for x in head if x), 1) > 0:
                yield from walk(u, i + 1)

    return walk([0] * len(hnf[0]), 0)


def relation_lattice(
    w: WeilPolynomial, exponent_bound: int = DEFAULT_EXPONENT_BOUND
) -> RelationLattice:
    """Certified relation lattice among the beta = q^(-1) alpha^2.

    `_turns` gives tau_i = arg(beta_i) / 2pi within eps = 2^-46, mod 1.
    With N = 2^44, the largest N with N eps <= 1/4, and t_i = round(N tau_i), the
    rows (u_i, t_i), u_i the unit vectors, and (0, ..., 0, N) span a lattice.  A relation
    e has e . tau = -m, m an integer, so (e, e . t + m N) is in it with last entry
    at most sum |e_i| (1/2 + N eps), and length at most
    R = sqrt(d H^2 + (d H (1/2 + N eps))^2) if every |e_i| <= H = exponent_bound.
    Brun steps (`_euclid`) and then LLL reduce a basis of that lattice; the steps are
    unimodular, so LLL sees the same lattice, and nothing below depends on which basis
    it started from.  Let j be the last LLL-reduced row whose Gram-Schmidt vector is at most R
    long: a vector with a nonzero coordinate on a row i > j is longer, so
    every relation with sup-norm <= H is an integer combination of rows
    1..j, and the box is complete once `verify_relation` proves them.  A row
    that fails, or that no relation can be (`_short_rows`), is a
    near-relation the angles cannot resolve, and then each of the at most
    1024 vectors of sup-norm <= H in the span of rows 1..j is proved or
    refuted; the walk stops at the 1025th and raises PrecisionExhausted.
    The proven relations are saturated (a root of unity in the eigenvalue
    group is 1 over a sufficiently large field) to a Hermite normal form,
    and each basis vector is verified or keeps its proof, which depends on
    that vector alone, not on the basis that proposed it.  An exponent bound
    below 1 is refused.
    """
    if exponent_bound < 1:
        raise PreconditionViolation(f"exponent bound must be at least 1, got {exponent_bound}")
    roots = certified_roots(w)
    reps = [r.index for r in roots if r.conjugate_index > r.index]
    d = len(reps)

    def verify(vec):
        full = [0] * len(roots)
        for j, i in enumerate(reps):
            full[i] = 2 * vec[j]
        return verify_relation(w, full, sum(vec), roots=roots)

    turns = [_turns(roots[i]) for i in reps]
    tried: dict[tuple[int, ...], RelationCertificate] = {}  # the proof of each row tried

    def proven(e, viable):  # a refuted or unviable row fails
        if e not in tried and viable:
            tried[e] = verify(e)
        return e in tried and tried[e].holds

    rows = _short_rows(turns, exponent_bound, _LATTICE_BITS)
    if not all(proven(e, viable) for e, viable in rows):
        # a near-relation closer than the angles resolve: prove each box vector of the span
        box = _box_points(_echelon([list(e) for e, _ in rows], d)[0], exponent_bound)
        points = list(itertools.islice(box, _BOX_CAP + 1))
        if len(points) > _BOX_CAP:
            raise PrecisionExhausted(f"more than {_BOX_CAP} box vectors to prove for {w.poly}")
        for e in points:
            proven(e, True)
    basis = _saturate([e for e, cert in tried.items() if cert.holds], d)
    certs = []
    for row in basis:  # a basis row that is itself a proven row keeps its certificate
        certs.append(tried.get(tuple(row)) or verify(row))
        if not certs[-1].holds:
            raise PreconditionViolation(
                "saturated relation failed verification; field not sufficiently large?"
            )
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
