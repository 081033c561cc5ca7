"""Independent certified oracle for multiplicative eigenvalue relations.

Root isolation runs on the real line, on plain integers.  A non-real
eigenvalue alpha is fixed, up to complex conjugation, by its trace
r = alpha + q/alpha: alpha = (r + i sqrt(4q - r^2)) / 2, where r is a root
of the degree-g trace polynomial h.  The only real eigenvalues, +-sqrt(q),
stand for the roots +-2 sqrt(q) of h; those are divided out and the
eigenvalues placed exactly, or in an integer square-root bracket.
`numpy.roots` gives double-precision starts for the other roots of h,
which are only guesses.  Each is refined by Newton steps on scaled integers
x / 2^k until h changes sign across (x -+ 1) / 2^k, so by the intermediate
value theorem a root lies in that interval.  The disk of alpha
circumscribes the box the interval gives for its real and imaginary parts,
and conj(alpha) = q/alpha is the exact mirror image.  `validate` proved
that the squarefree h has deg h real simple roots, so deg h sign-change
intervals with pairwise disjoint real projections hold each root exactly
once.  Soundness lies only in those sign changes and that one sorted
disjointness check: a bad start can make certification fail with
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
the resulting lattice is complete up to the configured height.  The scan
sorts the residues of the exponent tails once and finds the hits of each
leading exponent by binary search; candidates already in the lattice of
verified relations, kept in Hermite normal form, are skipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegreeOverflow, PrecisionExhausted, PreconditionViolation
from .exactcore import IntPoly, surd_signs
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
_ROOT_BITS = 64  # first goal of certified_roots, and the largest radius it accepts, 2^-64
_ROOT_BITS_CAP = 1 << 13
_START_SCALE = 64  # a double start becomes x / 2^64
_GUARD_BITS = 32  # Newton runs this far past a goal: Im alpha moves faster than r


# -- the real line: traces of eigenvalue pairs -------------------------------
#
# A point is x / 2^k with integers x and k, and a disk is (a + b*i) / 2^k
# with radius m / 2^k.  Plain integers avoid Fraction's gcd normalization,
# which dominates once denominators reach hundreds of bits.


def _scaled_value(coeffs, x: int, k: int) -> int:
    """2^(deg*k) f(x / 2^k), in integer arithmetic."""
    v, e = coeffs[-1], 0
    for c in reversed(coeffs[:-1]):
        e += k
        v = v * x + (c << e)
    return v


def _isqrt_up(n: int) -> int:
    r = math.isqrt(n)
    return r if r * r == n else r + 1


def _round_div(x: int, d: int) -> int:
    """round(x / d), halves up, for d != 0: floor(x/d + 1/2)."""
    return (2 * x + d) // (2 * d)


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


def _double_starts(h: IntPoly):
    """Double-precision guesses at the roots of h, all of which are real.

    h is solved in the variable x / 2^s with 2^s near the size of its
    roots, so its coefficients stay in range of a double.
    """
    import numpy as np  # only the oracle needs numpy; importing weilrank does not load it

    n = h.degree
    s = max(abs(c).bit_length() // (n - i) for i, c in enumerate(h.coeffs[:-1]))
    scaled = [c / (1 << (s * (n - i))) for i, c in enumerate(h.coeffs)]
    return [float(z.real) * 2.0**s for z in np.roots(scaled[::-1])]


def _refine(h: IntPoly, dh: IntPoly, x: int, k: int, goal: int):
    """Newton steps on x / 2^k until h changes sign across (x -+ 1) / 2^k with k >= goal.

    A step works at about twice the bits already right, and never beyond
    goal, so the cost follows the goal.
    """
    for _ in range(100):
        if k >= goal and _scaled_value(h.coeffs, x - 1, k) * _scaled_value(h.coeffs, x + 1, k) < 0:
            return x, k
        v = _scaled_value(h.coeffs, x, k)
        d = _scaled_value(dh.coeffs, x, k)
        if d == 0:
            raise PrecisionExhausted("derivative vanishes at a start")
        # h/h' = v / (d 2^k), so about k - log2|v/d| bits of x / 2^k are right
        right = k - v.bit_length() + d.bit_length()
        k2 = max(k, min(goal, max(2 * right, _START_SCALE)))
        x = (x << (k2 - k)) - _round_div(v << (k2 - k), d)
        k = k2
    raise PrecisionExhausted("Newton refinement did not converge")


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

    Starts for the traces r come from `_double_starts` in double precision.
    Each is refined by integer Newton steps until the trace polynomial
    changes sign across an interval of width 2^(1 - goal - 32) around it,
    and gives the disk of the upper eigenvalue of its pair.  The goal
    doubles from 64 up to 8192 until there is one start per root, every
    radius is at most 2^-64, no upper disk reaches the real axis, and the
    real projections of the disks are pairwise disjoint.  A start that
    leads no interval to its own root cannot pass those checks, so it ends
    in PrecisionExhausted.
    """
    h, signs = _split(w)
    try:
        starts = [round(x * 2.0**_START_SCALE) for x in (_double_starts(h) if h.degree else [])]
    except (OverflowError, ValueError):
        raise PrecisionExhausted("double-precision start is not finite") from None
    bits = _ROOT_BITS
    while bits <= _ROOT_BITS_CAP:
        try:
            return _certify_at(w.q, h, signs, starts, bits)
        except PrecisionExhausted:
            bits *= 2
    raise PrecisionExhausted(f"could not certify roots of {w.poly} below 2^-{bits // 2}")


def _certify_at(q: int, h: IntPoly, signs, starts, bits: int):
    if len(starts) != h.degree:
        raise PrecisionExhausted("starts do not cover the roots")
    dh = h.derivative()
    goal = bits + _GUARD_BITS
    k = goal + 2  # _refine ends at 2^-goal, and _pair_disk works 2 bits finer
    upper = sorted(_pair_disk(q, *_refine(h, dh, x, _START_SCALE, goal)) for x in starts)
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


def _degree_bound(w: WeilPolynomial) -> int:
    """Upper bound on [L:Q] for the splitting field of the roots.

    L is the compositum of the splitting fields of the irreducible factors
    of P, so the product of per-factor bounds bounds it.  Adjoining a root
    also adjoins its pair partner q/alpha, so a factor with 2d roots in d
    pairs costs at most (2d)(2d - 2)...2; t^2 - q costs 2, and t -+ sqrt(q)
    costs 1.
    """
    return math.prod(
        2 if f == IntPoly([-w.q, 0, 1]) else math.prod(range(f.degree, 1, -2))
        for f, _ in w.factors
    )


def _relation_balls(q: int, h: IntPoly, roots, e, bits: int) -> dict:
    """Integer balls (a, b, m) at 2^-bits around the roots whose exponent is nonzero.

    A real root's ball is exact or an isqrt bracket.  For a pair, the trace
    r is refined from 2 re of the upper disk.  The doubled real projection
    of that disk holds exactly one root of the trace polynomial, so a
    refined sign-change interval inside it holds the same root, and the
    upper disk it gives, rescaled to 2^-bits, is the ball.  The lower member
    of the pair is its mirror image.
    """
    dh = h.derivative()
    balls = {}
    for i in (i for i, x in enumerate(e) if x):
        r = roots[i]
        if r.b == 0:
            balls[i] = _real_disk(q, 1 if r.a > 0 else -1, bits)
            continue
        j = max(i, r.conjugate_index)  # the upper member
        if j not in balls:
            u = roots[j]
            # 2 re = a / 2^(k-1), with doubled real projection [a -+ m] / 2^(k-1)
            x, k = _refine(h, dh, u.a, u.k - 1, bits + _GUARD_BITS)
            up = k - u.k + 1
            if x - 1 < (u.a - u.m) << up or x + 1 > (u.a + u.m) << up:
                raise PrecisionExhausted("refined interval left its isolating disk")
            a, b, m = _pair_disk(q, x, k)
            d = 1 << (k + 2 - bits)
            # each rounded coordinate moves by at most 1/2, the center by less than 1
            balls[j] = (_round_div(a, d), _round_div(b, d), -(-m // d) + 1)
        a, b, m = balls[j]
        balls[i] = (a, b, m) if i == j else (a, -b, m)
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
    if len(roots) ** nonzero > DEFAULT_DEGREE_CAP:
        raise DegreeOverflow(
            f"implied transform degree {len(roots)}**{nonzero} exceeds cap {DEFAULT_DEGREE_CAP}"
        )
    q = w.q
    pos = sum(x for x in e if x > 0)
    neg = sum(-x for x in e if x < 0)
    qa = max(-m_power, 0)
    qb = max(m_power, 0)
    su = _isqrt_up(q)
    conj_bound = su**pos * q**qa + su**neg * q**qb
    h = _split(w)[0]
    degree_bound = _degree_bound(w)
    sep_log2 = -(degree_bound - 1) * conj_bound.bit_length() - 2
    bits = max(_BASE_PRECISION, -sep_log2 + 64)
    while bits <= DEFAULT_PRECISION_CAP:
        balls = _relation_balls(q, h, roots, e, bits)
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


def _lattice_contains(hnf, vector) -> bool:
    """Membership in the row lattice with Hermite normal form `hnf`: adding it keeps the HNF."""
    hnf = [list(r) for r in hnf]
    return _echelon(hnf + [list(vector)], len(vector))[0] == hnf


def _theta_of_root(r: CertifiedRoot) -> float:
    # argument of beta = alpha^2/q is twice the argument of alpha
    return 2.0 * math.atan2(float(r.im), float(r.re))


_GRIDS: dict = {}  # (d, bound) -> exponent tails; see _tail_grid
_GRID_CACHE_SIZE = 4
_GRID_CACHE_ROWS = 1 << 16


def _tail_grid(d: int, bound: int):
    """The exponent tails [-bound, bound]^(d-1) as rows, in lexicographic order.

    A few grids of at most _GRID_CACHE_ROWS rows are kept, read-only, the
    oldest dropped first; a larger grid is built per call, so a large
    bound does not pin its memory.
    """
    grid = _GRIDS.get((d, bound))
    if grid is None:
        import numpy as np

        rng = np.arange(-bound, bound + 1)
        grid = np.stack([g.ravel() for g in np.meshgrid(*([rng] * (d - 1)), indexing="ij")], axis=1)
        if len(grid) <= _GRID_CACHE_ROWS:
            grid.flags.writeable = False
            if len(_GRIDS) >= _GRID_CACHE_SIZE:
                del _GRIDS[next(iter(_GRIDS))]
            _GRIDS[(d, bound)] = grid
    return grid


def _candidate_vectors(thetas, bound, tol=1e-6):
    """All e with 0 < max|e_i| <= bound whose angle sum is ~0 mod 2pi.

    Exhaustive over the box so no true relation at this height is missed;
    false positives are eliminated by exact verification downstream.  The
    first nonzero entry of each e is positive, and the list is sorted by
    (max |e_i|, sum |e_i|, e).

    e = (L, tail), and a hit is a tail whose residue tail . theta[1:] mod 2pi
    lies within tol of -L theta[0] mod 2pi.  The residues are reduced and
    sorted once, with copies shifted by -+2pi for the wrap-around, and each
    lead L takes the window of width -+2 tol around its target by binary
    search.  Every vector in the window is re-tested with the predicate
    |remainder(L theta[0] + tail . theta[1:] + pi, 2pi) - pi| < tol in the
    same floating-point operations as a test of the whole grid, so the list
    is exactly the one such a test gives.  Nothing outside the window can
    pass that test: the predicate and the window differ only by rounding,
    a few units in the last place of numbers at most 2pi (d bound + 1) in
    size, which is far below the spare tol.
    """
    import numpy as np

    d = len(thetas)
    two_pi = 2.0 * math.pi
    if d == 1:
        return [
            (v,) for v in range(1, bound + 1) if abs(math.remainder(v * thetas[0], two_pi)) < tol
        ]
    theta = np.array(thetas, dtype=float)
    tail = _tail_grid(d, bound)
    tail_dot = tail @ theta[1:]
    residues = np.remainder(tail_dot, two_pi)
    order = np.argsort(residues)
    ranked = residues[order]
    ranked = np.concatenate([ranked - two_pi, ranked, ranked + two_pi])
    targets = np.remainder(-np.arange(bound + 1) * theta[0], two_pi)
    lo = np.searchsorted(ranked, targets - 2 * tol, side="left")
    hi = np.searchsorted(ranked, targets + 2 * tol, side="right")
    # all windows end to end: the k-th entry is lo[L] + k - (entries before L's window)
    counts = hi - lo
    leads = np.repeat(np.arange(bound + 1), counts)
    at = np.arange(len(leads)) + np.repeat(lo - np.cumsum(counts) + counts, counts)
    window = order[at % len(order)]
    total = leads * theta[0] + tail_dot[window]
    hit = np.abs(np.remainder(total + math.pi, two_pi) - math.pi) < tol
    rows = np.column_stack([leads[hit], tail[window[hit]]]).tolist()
    # canonical sign: first nonzero entry positive
    out = [tuple(v) for v in rows if next((x for x in v if x), 0) > 0]
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
    An exponent bound below 1 scans no candidates, so it is refused.
    """
    if exponent_bound < 1:
        raise PreconditionViolation(f"exponent bound must be at least 1, got {exponent_bound}")
    roots = certified_roots(w)
    reps = [r.index for r in roots if r.conjugate_index > r.index]
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

    verified: list[list[int]] = []  # Hermite normal form of the verified relations
    proved: dict[tuple[int, ...], RelationCertificate] = {}
    for cand in _candidate_vectors(thetas, exponent_bound):
        if _lattice_contains(verified, cand):
            continue
        cert = verify(cand)
        if cert.holds:
            verified = _echelon(verified + [list(cand)], d)[0]
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
