"""Independent certified oracle for multiplicative eigenvalue relations, on plain integers.

Roots.  A non-real eigenvalue alpha is fixed, up to conjugation, by its
trace r = alpha + q/alpha, a root of the degree-g trace polynomial h:
alpha = (r + i sqrt(4q - r^2)) / 2.  The real eigenvalues +-sqrt(q) stand
for the roots +-2 sqrt(q) of h, which are divided out.  For deg h <= 3 the
brackets of the other roots come in closed form, from isqrt and the critical
points of h (`_trace_brackets`), and Sturm bisection finds them at higher
degree; bracketed Newton steps on integers x / 2^k narrow the brackets, and
`_disks` makes each a disk for alpha, for the isolation (`certified_roots`)
and for every proof; conj(alpha) = q/alpha is its mirror image.  Every
bracket is an exact sign change of h, and no float enters the oracle.

Relations.  A relation is an integer vector v with prod beta_j^(v_j) = 1, where the
beta_j = q^(-1) alpha_j^2 belong to the representatives: the member of negative imaginary
part of each non-real pair.  The other member has beta = 1/beta_j, and +-sqrt(q) has
beta = 1, so no other root adds a relation.  Candidate vectors are rows of an LLL-reduced
lattice (Lenstra, Lenstra and Lovasz 1982) at N = 2^k, built from the integer angles
round(N arg(beta_j) / 2pi) of the disks (`_turn`); `verify_relation` proves or refutes each
v exactly, and its certificate names v; k doubles from 44 until every candidate is proven
(`relation_lattice`).  Brun steps on the angle column (`_euclid`) hand LLL a cheaper basis
of the same lattice first; the certificate holds for any basis, so it does not need them.
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import PrecisionExhausted, PreconditionViolation
from .exactcore import IntPoly, factor_over_integers, surd_signs
from .exactcore.poly import _refine, _round_div, _scaled_value, real_root_brackets
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
_LATTICE_BITS = 44  # the first N = 2^k of `relation_lattice`


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

    The brackets of the roots of the trace polynomial h come in closed form when deg h <= 3
    (`_trace_brackets`), and from the Sturm isolator `real_root_brackets` above that; they
    decide only where Newton starts.  `_disks` refines each bracket to 2^-(bits + 32): the
    disk of the upper eigenvalue of a pair.  bits doubles from 64 up to 8192 until every
    radius is at most 2^-64, no upper disk reaches the real axis, and the real projections
    of the disks are pairwise disjoint.  Each refined interval is an exact sign change of h,
    and `validate` proved that h has deg h real simple roots, so deg h such disjoint
    intervals hold each root once: the disks are sound however the brackets were found.
    """
    h, signs = _split(w)
    brackets = _trace_brackets(h) if h.degree <= 3 else real_root_brackets(h)
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


def _trace_brackets(h: IntPoly):
    """Sign-change brackets (lo, hi, k) of the roots of h, ascending, in closed form.

    h is monic, squarefree and real-rooted (`_split`) of degree <= 3.  Degree 1: the integer
    root -h(0).  Degree 2: 2r = -b -+ sqrt(D), D = b^2 - 4c >= 1, lies within 1 of
    -b -+ isqrt(D), and h is nonzero at those ends.  Degree 3, h = x^3 + b x^2 + a x + c: the
    critical points c1,2 = (-b -+ sqrt(d)) / 3, d = b^2 - 3a, part the roots.  Rounded toward
    the middle root at 2^-k, to e1 = ceil(c1 2^k) / 2^k and e2 = floor(c2 2^k) / 2^k, they
    keep e1 < e2 from k = 4 on, as c2 - c1 >= 2/3, so h(e1) > 0 > h(e2) brackets the middle
    root.  The roots are simple, so h(c1) > 0 > h(c2) strictly, and the doubling of k ends
    once e1 and e2 are near enough to c1 and c2; it stops at 2^-8192 on any other input.  By
    Samuelson's inequality the roots lie strictly within (2/3) sqrt(d) of their mean -b/3,
    which gives the outer ends.
    """
    c = h.coeffs
    if h.degree < 2:
        return [(-c[0] - 1, -c[0] + 1, 0)] if c[1:] else []
    b = c[-2]
    if h.degree == 2:
        s = math.isqrt(b * b - 4 * c[0])
        return [(-b - s - 1, -b - s + 1, 1), (-b + s - 1, -b + s + 1, 1)]
    d, k = b * b - 3 * c[1], 4
    while k <= _ROOT_BITS_CAP:
        s, t = math.isqrt(d << 2 * k), b << k  # floor(2^k sqrt(d)), 2^k b
        x1, x2 = -((t + s) // 3), (s - t) // 3
        if _scaled_value(c, x1, k) > 0 > _scaled_value(c, x2, k):
            return [((-t - 2 * s - 2) // 3, x1, k), (x1, x2, k), (x2, -((t - 2 * s - 2) // 3), k)]
        k *= 2
    raise PrecisionExhausted(f"critical values of {h} not separated at 2^-{k // 2}")


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


def _rep_disks(q: int, h: IntPoly, reps, bits: int):  # 2 re(disk) brackets the j-th root of h
    return _disks(q, h, [(j, r.a - r.m, r.a + r.m, r.k - 1) for j, r in reps], bits)


# -- exact relation verification --------------------------------------------


@dataclass(frozen=True)
class RelationCertificate:
    """Replayable outcome of one exact relation check.

    `holds` says whether prod beta_j^(v_j) = 1 for v = `exponents`, on the
    representatives of `RelationLattice`.  `separation_log2` is the proven
    log2 lower bound on |difference| when nonzero; the verdict compared the
    difference against it in ball arithmetic at `precision_bits` bits.
    """

    holds: bool
    exponents: tuple[int, ...]
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


def verify_relation(w: WeilPolynomial, v, roots=None) -> RelationCertificate:
    """Exactly decide whether prod beta_j^(v_j) = 1 for beta_j = q^(-1) alpha_j^2.

    `v` is indexed like `RelationLattice.representatives`: the members of
    negative imaginary part of the non-real pairs of `certified_roots(w)`.
    The relation is decided as prod alpha_j^(2 v_j) = q^(sum v), with negative
    exponents and a negative power of q moved across the equality so both
    sides are algebraic integers; the difference, if nonzero, has norm at
    least one, which yields the separation bound from |conjugate| = sqrt(q)
    <= ceil(sqrt(q)) and `_degree_bound`.  Ball arithmetic on the disks of
    the representatives with a nonzero exponent, refined by `_disks`,
    doubles its precision up to DEFAULT_PRECISION_CAP bits.  It proves the
    relation only from the precision the separation bound asks for; when
    that is above 2048 bits, passes at 128, 256, 512 and 1024 bits try to
    refute it first, for a fraction of the cost of one full pass.
    """
    if roots is None:
        roots = certified_roots(w)
    v = tuple(int(x) for x in v)
    reps = [r for r in roots if r.b < 0]
    if len(v) != len(reps):
        raise PreconditionViolation("exponent vector length mismatch")
    if not any(v):
        return RelationCertificate(
            holds=True, exponents=v, separation_log2=0, conjugate_degree_bound=1, precision_bits=0)
    q, n = w.q, sum(v)
    su = _isqrt_up(q)
    conj_bound = su ** sum(2 * x for x in v if x > 0) * q ** max(-n, 0)
    conj_bound += su ** sum(-2 * x for x in v if x < 0) * q ** max(n, 0)
    h, signs = _split(w)
    degree_bound = _degree_bound(q, h, signs)
    sep_log2 = -(degree_bound - 1) * conj_bound.bit_length() - 2
    full = max(_BASE_PRECISION, -sep_log2 + 64)
    bits = _BASE_PRECISION if 16 * _BASE_PRECISION < full <= DEFAULT_PRECISION_CAP else full
    # the representatives ascend with their traces, so the j-th has the j-th root of h as trace
    pairs = [(j, r, x) for j, (r, x) in enumerate(zip(reps, v)) if x]
    while bits <= DEFAULT_PRECISION_CAP:
        k, cells = _rep_disks(q, h, [(j, r) for j, r, _ in pairs], bits)
        d = 1 << (k - bits)
        side_a = (q ** max(-n, 0) << bits, 0, 0)
        side_b = (q ** max(n, 0) << bits, 0, 0)
        for (_, _, x), (a, b, m) in zip(pairs, cells):
            # the mirror image of the upper disk; each rounded coordinate moves by at most
            # 1/2, the center by less than 1
            ball = (_round_div(a, d), -_round_div(b, d), -(-m // d) + 1)
            ball = _iball_pow(ball, 2 * abs(x), bits)
            if x > 0:
                side_a = _iball_mul(side_a, ball, bits)
            else:
                side_b = _iball_mul(side_b, ball, bits)
        za, zb, zr = side_a[0] - side_b[0], side_a[1] - side_b[1], side_a[2] + side_b[2]
        mag = za * za + zb * zb
        # |difference| against the separation 2^sep_log2, both in the 2^-bits scale
        holds = bits >= full and _isqrt_up(mag) + zr < 1 << (bits + sep_log2)
        if holds or math.isqrt(mag) > zr:
            return RelationCertificate(holds, v, sep_log2, degree_bound, bits)
        bits = 2 * bits if bits >= full or 2 * bits < 16 * _BASE_PRECISION else full
    raise PrecisionExhausted(f"relation check needs more than {DEFAULT_PRECISION_CAP} bits")


# -- relation lattice --------------------------------------------------------


@dataclass(frozen=True)
class RelationLattice:
    """Verified multiplicative relations among the beta = q^(-1) alpha^2.

    `representatives` are the indices in `certified_roots` of the members of
    negative imaginary part of the non-real pairs, one per two-element orbit
    of alpha -> q/alpha (beta = 1 at +-sqrt(q), which carries no rank).  A
    row v of `basis` means prod beta_j^(v_j) = 1 over those representatives,
    and `certificates[i]` proves `basis[i]`.  The basis is saturated,
    primitive, and in Hermite normal form (`_echelon`).  It holds every relation
    of sup-norm <= `exponent_bound`, by the LLL cutoff of `relation_lattice`'s last N.
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


def _atan(x: int, y: int, p: int, h: int, cs) -> int:
    """2^p arg(x + yi) for 0 <= y <= x, within 6 2^h (`_turn`): h halvings, then Taylor's series."""
    s = x.bit_length() - p - 2
    x, y = (x >> s, y >> s) if s > 0 else (x << -s, y << -s)
    for _ in range(h):  # x + yi -> x + |x + yi| + yi halves the argument
        x += math.isqrt(x * x + y * y)
    u = (y << p) // x
    u2, acc = u * u >> p, 0
    for c in cs:  # Horner's rule for atan(u / 2^p) = sum (-1)^n (u / 2^p)^(2n+1) / (2n+1)
        acc = c - (u2 * acc >> p)
    return (u * acc >> p) << h


@functools.cache
def _atan_terms(k: int):
    """(p, h, cs, Q) for `_turn` at 2^k: bits, halvings, Horner's 2^p // (2n+1) and 2^p pi/4."""
    h = max(2, math.isqrt(k) // 2)
    p = k + h + 8
    cs = [(1 << p) // (2 * n + 1) for n in range(p // h // 2, -1, -1)]
    return p, h, cs, _atan(1, 1, p, h, cs)


def _turn(a: int, b: int, k: int) -> int:
    """round(2^k arg(a + bi) / pi) for b != 0, within 1/8 before the rounding; no floats.

    In `_atan` the floor to p + 2 bits turns arg(x + yi) by < 1.2 2^-p, and each isqrt of the
    h halvings by < 2^-(p+1) (|x + yi| >= 2^(p+2) then), < 2^(h-p) once doubled back h times.
    Then tan phi < 2^-h, so the series cut at (2n + 1) h > p errs by < 2^-p, and the Horner
    steps by < 3.5 2^-p: |`_atan` - 2^p phi| < E = 6 2^h.  The octant and pi/2 -, pi - give
    2^p arg(|a| + |b|i) within 5E, and 4Q is 2^p pi within 4E, above 3 2^p: the quotient
    errs by <= 9E 2^k / 4Q < 18 2^(h+k-p) < 1/8.  Any alpha in the disk (a + bi -+ m) / 2^K
    with m 2^(k+2) <= max(|a|, |b|) has |arg alpha - arg(a + bi)| <= arcsin(m / |a + bi|)
    <= (pi / 2) 2^-(k+2), another 1/8: so the result is within 3/4 of 2^k arg(alpha) / pi.
    """
    p, h, cs, q = _atan_terms(k)
    x, y = abs(a), abs(b)
    t = _atan(x, y, p, h, cs) if y <= x else 2 * q - _atan(y, x, p, h, cs)
    t = (2 * ((4 * q - t if a < 0 else t) << k) + 4 * q) // (8 * q)
    return t if b > 0 else -t


def _short_rows(turns, bound: int, k: int):
    """[(e, viable)] for rows 1..j of `relation_lattice`'s lattice at N = 2^k, eps = 2^-(k+2): e is
    the row's first d entries, first nonzero one positive; viable: (e, c) is at most R long and
    |c| <= sum |e_i| (1/2 + N eps), as for any relation.  `_euclid` before `_lll` saves it about
    two thirds of its iterations; both keep the lattice, and the cutoff j holds for any basis."""
    d, eps = len(turns), k + 2
    rows = [[int(i == j) for j in range(d)] + [t] for i, t in enumerate(turns)]
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


def relation_lattice(w: WeilPolynomial,
                     exponent_bound: int = DEFAULT_EXPONENT_BOUND) -> RelationLattice:
    """Certified relation lattice among the beta = q^(-1) alpha^2.

    `_turn` gives t_i within 1/2 + N eps of N tau_i, tau_i = arg(beta_i) / 2pi mod 1, for
    N = 2^k and eps = 2^-(k+2).  The rows (u_i, t_i), u_i the unit vectors, and (0, ..., N)
    span a lattice.  A relation e has e . tau = -m, m an integer, so (e, e . t + m N) is in
    it with last entry at most sum |e_i| (1/2 + N eps), and length at most
    R = sqrt(d H^2 + (d H (1/2 + N eps))^2) if every |e_i| <= H = exponent_bound.  Brun
    steps (`_euclid`, unimodular) and then LLL reduce a basis of it.  Let j be the last
    reduced row whose Gram-Schmidt vector is at most R long: a vector with a nonzero
    coordinate on a row i > j is longer, so every relation with sup-norm <= H is an integer
    combination of rows 1..j, and the box is complete once `verify_relation` proves them.
    A row that is refuted, unviable (`_short_rows`) or past the precision cap is a
    near-relation N does not resolve: k doubles from 44 up to DEFAULT_PRECISION_CAP, with
    the disks refined (`_rep_disks`) once too coarse for `_turn`.  A vector of the box that
    is no relation has e . tau off the integers, so a large enough N makes it longer than
    R, and the rows that stay short are exact relations.  The proven relations are saturated
    (over a sufficiently large field no root of unity but 1 is in the group) to a Hermite
    normal form; each basis vector keeps its proof or is verified.
    """
    if exponent_bound < 1:
        raise PreconditionViolation(f"exponent bound must be at least 1, got {exponent_bound}")
    roots = certified_roots(w)
    reps = [r for r in roots if r.b < 0]
    disks = [(r.a, r.b, r.m) for r in reps]
    tried: dict[tuple[int, ...], RelationCertificate] = {}  # the proof of each row tried
    k, scale = _LATTICE_BITS, 0
    while k <= DEFAULT_PRECISION_CAP:
        while any(m << (k + 2) > max(abs(a), abs(b)) for a, b, m in disks):  # too coarse
            scale, cells = _rep_disks(w.q, _split(w)[0], enumerate(reps), max(k, scale))
            disks = [(a, -b, m) for a, b, m in cells]
        rows = _short_rows([_turn(a, b, k) for a, b, _ in disks], exponent_bound, k)
        for e in [e for e, viable in rows if viable and e not in tried]:
            with contextlib.suppress(PrecisionExhausted):  # not refuted: a larger N may drop it
                tried[e] = verify_relation(w, e, roots=roots)
        if all(e in tried and tried[e].holds for e, _ in rows):
            break
        k *= 2
    else:
        raise PrecisionExhausted(f"relation lattice of {w.poly} needs N above 2^{k // 2}")
    basis = _saturate([e for e, cert in tried.items() if cert.holds], len(reps))
    certs = [tried.get(tuple(row)) or verify_relation(w, row, roots=roots) for row in basis]
    if not all(c.holds for c in certs):  # a basis row that is a proven row keeps its proof
        raise PreconditionViolation(
            "saturated relation failed verification; field not sufficiently large?")
    return RelationLattice(tuple(r.index for r in reps), tuple(map(tuple, basis)),
                           tuple(certs), exponent_bound)


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
