"""Imaginary quadratic subfields, conjugate factorizations, norm condition,
Trager's splitting against a reference on lists of elements of Q(sqrt(m)),
the one-integer subfield rule against the splitting-pattern sieve it replaced,
and the closed-form norm-one witness against the solver it replaced."""

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

import pytest

import weilrank.subfields as subfields_module
from weilrank.errors import (
    FunctionalEquationFails,
    NotIrreducible,
    NotSextic,
    PreconditionViolation,
    RiemannHypothesisFails,
)
from weilrank.exactcore import (
    IntPoly,
    discriminant,
    factor_over_integers,
    is_perfect_square,
    is_prime,
    legendre_symbol,
    poly_gcd,
    prime_power,
    squarefree_part,
)
from weilrank.exactcore.factor import modular_factor_degrees
from weilrank.search import SearchSpec, enumerate_weil, find_non_neat_sextics
from weilrank.subfields import (
    ConjugateFactorization,
    conjugate_factorizations,
    conjugate_split,
    cubic_resolvent_is_galois,
    elliptic_cm_field,
    norm_condition,
    norm_one_witness,
    p_splits,
    quadratic_subfields,
)
from weilrank.subfields import _candidate_ms, _subfield_candidates, _trager_split
from weilrank.weil import validate


def P(*coeffs):
    return IntPoly(coeffs)


# a sextic with a Q(i)-factorization: (t^3 + 3t - 27)^2 + t^4, built from
# G = t^3 + i t^2 + 3t - 27 (the product with its conjugate); not a Weil polynomial
ROUND_TRIP = P(-27, 3, 0, 1) * P(-27, 3, 0, 1) + P(0, 0, 0, 0, 1)

# the first non-neat sextic the search finds over F_9
NON_NEAT = P(729, -324, 72, -18, 8, -4, 1)

# the first it finds over F_9 with m = -3, where G has half-integer coefficients
HALF_INTEGER = P(729, -405, -18, 51, -2, -5, 1)


class TestConjugateFactorizations:
    def test_round_trip_recovers_field(self):
        cf = conjugate_split(ROUND_TRIP, -1)
        assert cf.m == -1
        assert cf.expand() == ROUND_TRIP
        # G recovered up to conjugation: constant term is -27, rational
        assert cf.coefficients[0] == (-27, 0)

    def test_non_neat_instance(self):
        cfs = quadratic_subfields(NON_NEAT)
        assert [cf.m for cf in cfs] == [-1]
        assert norm_condition(cfs[0], 9)

    def test_generic_ordinary_sextic_has_none(self):
        # ordinary irreducible sextic over F_5 built from x^3 - 4x - 1
        base = IntPoly([5, 0, 1])
        out = IntPoly()
        for k, c in enumerate([-1, -4, 0, 1]):
            out = out + (c * base**k).shift(3 - k)
        cfs = quadratic_subfields(out)
        assert cfs == ()

    def test_preconditions(self):
        with pytest.raises(NotSextic):
            quadratic_subfields(P(5, -1, 1))
        with pytest.raises(NotIrreducible):
            quadratic_subfields(P(5, -1, 1) ** 3)

    def test_quartic_and_quadratic_degrees(self):
        # quadratic: t^2 - t + 5 lives in Q(sqrt(-19))
        cfs = conjugate_factorizations(P(5, -1, 1))
        assert [cf.m for cf in cfs] == [-19]
        assert cfs[0].expand() == P(5, -1, 1)
        # a biquadratic quartic field over F_2 holds both Q(i) and Q(sqrt(-7))
        quartic = P(4, 0, -3, 0, 1)
        cfs4 = conjugate_factorizations(quartic)
        assert [cf.m for cf in cfs4] == [-1, -7]
        assert all(cf.expand() == quartic for cf in cfs4)

    def test_refuses_non_weil(self):
        # q is read off pmin(0): 729 = 9^3 for ROUND_TRIP, and 9 = 3^2 for
        # t^4 + 7t^2 + 9 = (t^2 + i t + 3)(t^2 - i t + 3), whose traces are +-i
        with pytest.raises(FunctionalEquationFails):
            conjugate_factorizations(ROUND_TRIP)
        with pytest.raises(RiemannHypothesisFails):
            conjugate_factorizations(P(9, 0, 7, 0, 1))
        for f in (P(4), P(4, 1), P(36, 0, 1), IntPoly()):
            with pytest.raises(PreconditionViolation):
                conjugate_factorizations(f)

    def test_conjugate_split_single_field(self):
        assert conjugate_split(NON_NEAT, -1) is not None
        assert conjugate_split(NON_NEAT, -2) is None

    @pytest.mark.parametrize("m", [-4, 0, 1, 2])
    def test_conjugate_split_rejects_bad_m(self, m):
        with pytest.raises(PreconditionViolation, match="negative squarefree"):
            conjugate_split(NON_NEAT, m)

    def test_conjugate_split_rejects_reducible(self):
        # (t^2 + 1)^2 has no squarefree norm shift, and t^4 + 9t^2 + 25 =
        # (t^2 - t + 5)(t^2 + t + 5) is G conj(G) for G = t^2 + (9 - sqrt(-19))/2
        with pytest.raises(NotIrreducible):
            conjugate_split(P(1, 0, 1) ** 2, -1)
        with pytest.raises(NotIrreducible):
            conjugate_split(P(5, -1, 1) * P(5, 1, 1), -19)


class TestNormOneWitness:
    def test_agrees_with_general_search(self):
        w = norm_one_witness(NON_NEAT, 9)
        assert w is not None and w.m == -1
        assert w.expand() == NON_NEAT
        assert norm_condition(w, 9)

    def test_none_for_ordinary(self):
        base = IntPoly([9, 0, 1])
        out = IntPoly()
        for k, c in enumerate([-1, -7, 1, 1]):
            out = out + (c * base**k).shift(3 - k)
        # the sextic validates and has no imaginary quadratic subfield
        validate(out, 9)
        assert conjugate_factorizations(out) == ()
        assert norm_one_witness(out, 9) is None

    def test_non_square_q_short_circuits(self):
        # G(0) = +-5^(3/2) is not in an imaginary quadratic field, so no constant is tried
        base = IntPoly([5, 0, 1])
        out = IntPoly()
        for k, c in enumerate([-1, -4, 0, 1]):
            out = out + (c * base**k).shift(3 - k)
        assert norm_one_witness(out, 5) is None


class TestNormCondition:
    def test_forced_constant(self):
        cf = conjugate_split(ROUND_TRIP, -1)
        # G(0) = -27 and q = 9: 729 = 9^3
        assert norm_condition(cf, 9)
        assert not norm_condition(cf, 8)  # 729 != 512

    def test_non_square_q_false(self):
        cf = conjugate_factorizations(P(5, -1, 1))[0]
        # G(0)^2 = q for the quadratic case; alpha conj(alpha) = 5 means true
        c = _qe(cf.m, *cf.coefficients[0])
        assert norm_condition(cf, 5) == ((c * c).is_rational and (c * c).a0 == 5)


class TestSplitting:
    def test_examples(self):
        assert p_splits(-1, 5) == "split"
        assert p_splits(-1, 3) == "inert"
        assert p_splits(-1, 2) == "ramified"
        assert p_splits(-7, 2) == "split"
        assert p_splits(-3, 2) == "inert"
        assert p_splits(-19, 19) == "ramified"
        assert p_splits(-19, 5) == "split"  # 1 - 4*5 = -19

    def test_rejects_bad_m(self):
        with pytest.raises(PreconditionViolation):
            p_splits(-4, 3)
        with pytest.raises(PreconditionViolation):
            p_splits(-1, 4)


class TestEllipticCmField:
    def test_examples(self):
        assert elliptic_cm_field(validate(P(5, -1, 1), 5)) == -19
        assert elliptic_cm_field(validate(P(5, -2, 1), 5)) == -1
        with pytest.raises(PreconditionViolation):
            elliptic_cm_field(validate(P(9, -3, 1), 9))

    def test_requires_elliptic(self):
        w = validate(P(5, -1, 1) * P(5, -2, 1), 5)
        with pytest.raises(PreconditionViolation):
            elliptic_cm_field(w)


class TestResolvent:
    def test_non_neat_has_non_galois_cubic(self):
        assert not cubic_resolvent_is_galois(NON_NEAT, 9)


# -- reference: Trager's method on lists of elements of Q(sqrt(m)) ------------
# The element arithmetic and the list arithmetic over Q(sqrt(m)) that the
# Z[sqrt(m)] pairs of `subfields` replaced, kept as an independent reference
# for the factorizations.


@dataclass(frozen=True)
class _QE:
    """a0 + a1 sqrt(m) with rational parts a0 and a1."""

    m: int
    a0: Fraction
    a1: Fraction

    def __add__(self, other):
        return _QE(self.m, self.a0 + other.a0, self.a1 + other.a1)

    def __sub__(self, other):
        return _QE(self.m, self.a0 - other.a0, self.a1 - other.a1)

    def __mul__(self, other):
        a0 = self.a0 * other.a0 + self.a1 * other.a1 * self.m
        return _QE(self.m, a0, self.a0 * other.a1 + self.a1 * other.a0)

    def conjugate(self):
        return _QE(self.m, self.a0, -self.a1)

    def inverse(self):
        n = self.a0 * self.a0 - self.a1 * self.a1 * self.m
        return _QE(self.m, self.a0 / n, -self.a1 / n)

    @property
    def is_zero(self):
        return self.a0 == 0 and self.a1 == 0

    @property
    def is_rational(self):
        return self.a1 == 0


def _qe(m, a0=0, a1=0):
    return _QE(m, Fraction(a0), Fraction(a1))


def _qstrip(cs):
    n = len(cs)
    while n and cs[n - 1].is_zero:
        n -= 1
    return list(cs[:n])


def _qmul(a, b, m):
    if not a or not b:
        return []
    out = [_qe(m)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if not ca.is_zero:
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
    return _qstrip(out)


def _qdivmod(a, b, m):
    a = list(a)
    db = len(b) - 1
    inv = b[-1].inverse()
    if len(a) - 1 < db:
        return [], _qstrip(a)
    q = [_qe(m)] * (len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] * inv
        q[i - db] = c
        if not c.is_zero:
            for j, cb in enumerate(b):
                a[i - db + j] = a[i - db + j] - c * cb
    return _qstrip(q), _qstrip(a[:db])


def _qgcd(a, b, m):
    a, b = _qstrip(a), _qstrip(b)
    while b:
        _, a = _qdivmod(a, b, m)
        a, b = b, a
    if a:
        inv = a[-1].inverse()
        a = [c * inv for c in a]
    return a


def _q_from_int(f, m):
    return [_qe(m, c) for c in f.coeffs]


def _q_conj(a):
    return [c.conjugate() for c in a]


def _q_compose_shift(f, s, m):
    """f(t - s*sqrt(m)) over Q(sqrt(m)), by Horner."""
    lin = [_qe(m, 0, -s), _qe(m, 1)]
    out = []
    for c in reversed(f):
        out = _qmul(out, lin, m)
        if not out:
            out = [c]
        else:
            out[0] = out[0] + c
    return _qstrip(out)


def _reference_split(f, m):
    """The coefficients of the monic G over Q(sqrt(m)) with G*conj(G) = f, or None."""
    n = f.degree
    fq = _q_from_int(f, m)
    for s in range(0, 4 * n * n + 5):
        shifted = _q_compose_shift(fq, s, m)
        norm_q = _qmul(shifted, _q_conj(shifted), m)
        assert all(c.is_rational for c in norm_q)
        norm = IntPoly([int(c.a0) for c in norm_q])
        if poly_gcd(norm, norm.derivative()).degree == 0:
            break
    factors = factor_over_integers(norm)
    if len(factors) == 1:
        return None
    parts = [_qgcd(shifted, _q_from_int(fac, m), m) for fac, _ in factors]
    parts = [g for g in parts if len(g) > 1]
    if len(parts) != 2 or any(len(g) - 1 != n // 2 for g in parts):
        return None
    back = [_q_compose_shift(g, -s, m) for g in parts]
    g = min(back, key=lambda g: [(c.a0, c.a1) for c in g])
    prod = _qmul(g, _q_conj(g), m)
    assert all(c.is_rational for c in prod) and IntPoly([int(c.a0) for c in prod]) == f
    return tuple((c.a0, c.a1) for c in g)


# -- reference: the splitting-pattern sieve ----------------------------------
# The screen `conjugate_factorizations` ran before the one-integer rule: every
# negative squarefree m on the primes of disc(f), less those ruled out because
# Q(sqrt(m)) is inert at an auxiliary prime where f has an odd-degree factor.


def _degree_patterns(f: IntPoly, disc: int):
    """(prime, has-odd-degree-factor) pairs at 20 auxiliary primes; disc = disc(f)."""
    out = []
    r = 101
    while len(out) < 20 and r < 20000:
        if is_prime(r) and disc % r != 0 and f.leading % r != 0:
            degs = modular_factor_degrees(f, r)
            out.append((r, any(d % 2 for d in degs)))
        r += 2
    return out


def _sieve_ok(m: int, patterns) -> bool:
    """Rule out m when some prime with an odd-degree factor is inert."""
    d = m if m % 4 == 1 else 4 * m
    for r, has_odd in patterns:
        if not has_odd:
            continue
        if d % r != 0 and legendre_symbol(d % r, r) == -1:
            return False
    return True


def _sieved(f: IntPoly):
    disc = discriminant(f)
    patterns = _degree_patterns(f, disc)
    return [m for m in _candidate_ms(disc) if _sieve_ok(m, patterns)]


@pytest.fixture(scope="module")
def reference_corpus():
    """A seeded sample of irreducible Weil polynomials from g = 2, 3 boxes.

    Each polynomial f comes with its q, the m that `conjugate_factorizations`
    tries, the sieved candidates, and the reference split of f over each of
    those m and over -1, -2, -3 and -7, which it need not try.
    """
    boxes = [(2, 4, None), (2, 9, None), (2, 25, 300), (3, 4, 300), (3, 9, 200)]
    pool = [
        (w.poly, q)
        for g, q, limit in boxes
        for w in enumerate_weil(SearchSpec(g, q, irreducible_only=True, limit=limit))
    ]
    cases = random.Random(14).sample(pool, 50)
    # the F_25 quartic, the F_9 sextic over Q(i), and an F_9 sextic over
    # Q(sqrt(-3)), whose witness has half-integer coefficients
    cases += [(P(625, -100, 35, -4, 1), 25), (NON_NEAT, 9), (HALF_INTEGER, 9)]
    out = []
    for f, q in cases:
        sieved = _sieved(f)
        ms = sorted({*sieved, -1, -2, -3, -7}, key=abs)
        out.append((f, q, sieved, {m: _reference_split(f, m) for m in ms}))
    return out


def _coefficients(cf):
    return None if cf is None else cf.coefficients


class TestAgainstListReference:
    def test_corpus_covers_the_named_cases(self, reference_corpus):
        pairs = {(f, m) for f, _, _, ref in reference_corpus for m in ref}
        assert (P(625, -100, 35, -4, 1), -1) in pairs and (NON_NEAT, -1) in pairs
        assert (HALF_INTEGER, -3) in pairs
        assert 200 <= len(pairs) <= 400

    def test_conjugate_split_and_factorizations(self, reference_corpus):
        splits = 0
        for f, _, sieved, ref in reference_corpus:
            assert {m: _coefficients(conjugate_split(f, m)) for m in ref} == ref
            found = conjugate_factorizations(f)
            want = [(m, ref[m]) for m in sieved if ref[m] is not None]
            assert [(cf.m, cf.coefficients) for cf in found] == want
            if f.degree == 6:
                assert quadratic_subfields(f) == found
            splits += sum(g is not None for g in ref.values())
        assert splits >= 10

    def test_witnesses_in_lowest_terms(self, reference_corpus):
        for f, q, _, ref in reference_corpus:
            cfs = [conjugate_split(f, m) for m in ref]
            if f.degree == 6:
                cfs.append(norm_one_witness(f, q))
            for cf in (cf for cf in cfs if cf is not None):
                assert cf.den > 0 and gcd(cf.u.content(), cf.v.content(), cf.den) == 1
                assert cf.expand() == f

    def test_norm_condition_matches_reference(self, reference_corpus):
        # G(0)^2 = q^h, h = deg G, in the reference's element arithmetic
        held = 0
        for f, q, _, ref in reference_corpus:
            for m, g in ref.items():
                if g is not None:
                    c = _qe(m, *g[0])
                    want = (c * c).is_rational and (c * c).a0 == q ** (len(g) - 1)
                    assert norm_condition(conjugate_split(f, m), q) == want
                    held += want
        assert held >= 2

    def test_half_integer_witness(self):
        # the conjugate of the witness `find_non_neat_sextics` emits: the
        # smaller coefficient tuple of the two
        cf = conjugate_split(HALF_INTEGER, -3)
        assert [(str(a), str(b)) for a, b in cf.coefficients] == [
            ("27", "0"), ("-15/2", "-9/2"), ("-5/2", "3/2"), ("1", "0")
        ]


class TestCandidateRule:
    """`_subfield_candidates` against the sieve it replaced, and the cases
    where the resultant alone decides."""

    def test_same_witnesses_as_the_sieve(self, monkeypatch):
        # every non-real component of the g = 1 (q <= 49), g = 2 (q <= 9) and
        # g = 3 (q = 2, 3) boxes; the splits are shared, so each (f, m) is
        # factored once, and the rule must pick the same m in the same order
        splits = {}

        def split(f, m):
            if (f, m) not in splits:
                splits[f, m] = _trager_split(f, m)
            return splits[f, m]

        monkeypatch.setattr(subfields_module, "_trager_split", split)
        qs = [q for q in range(2, 50) if prime_power(q)]
        boxes = [(1, q) for q in qs] + [(2, q) for q in qs if q <= 9] + [(3, 2), (3, 3)]
        comps = {
            c.pmin: q
            for g, q in boxes
            for w in enumerate_weil(SearchSpec(g, q))
            for c in w.components
            if c.sqrt_root == "none"
        }
        degrees = {}
        for f, q in comps.items():
            want = [(m, cf.coefficients) for m in _sieved(f) if (cf := split(f, m)) is not None]
            got = conjugate_factorizations(f)
            assert [(cf.m, cf.coefficients) for cf in got] == want, f
            if f.degree <= 4:  # the candidates are exactly the subfields
                assert _subfield_candidates(f, q) == [m for m, _ in want], f
            degrees[f.degree] = degrees.get(f.degree, 0) + 1
        assert degrees == {2: 395, 4: 738, 6: 428}

    def test_non_square_resultant_needs_no_split(self, monkeypatch):
        def refuse(f, m):
            raise AssertionError(f"factored {f} over Q(sqrt({m}))")

        monkeypatch.setattr(subfields_module, "_trager_split", refuse)
        # Res(h, x^2 - 4q) is 17 for the octic over F_2; the quartic over F_5
        # has h = x^2 - x - 4 and Res = (16 - 2 sqrt 20)(16 + 2 sqrt 20) = 236
        for f, q in [(P(16, -24, 12, -4, 3, -2, 3, -3, 1), 2), (P(25, -5, 6, -1, 1), 5)]:
            assert _subfield_candidates(f, q) == []
            assert conjugate_factorizations(f) == ()

    def test_square_resultant_octic(self):
        # h = x^4 - 6x^2 + 2 over F_2: Res(h, x^2 - 8) = 18^2
        octic = P(16, 0, 8, 0, 2, 0, 2, 0, 1)
        cfs = conjugate_factorizations(octic)
        assert [cf.m for cf in cfs] == [-1, -7]
        assert all(cf.expand() == octic for cf in cfs)


# -- reference: the three-equation solver that the closed form replaced -------


def _norm_one_reference(pmin: IntPoly, q: int):
    """G = t^3 + A t^2 + B t + C with C = +-r^3, r = sqrt(q), and free B.

    With den = 2 r^3, den G = U + sqrt(m) V: the t^5 and t coefficients of
    pmin give U, and V = a t^2 + b t satisfies a^2 m = x, a b m = y and
    b^2 m = z for integers x, y, z, so m is the squarefree kernel of x (or z).
    """
    if not is_perfect_square(q):
        return None
    r3 = isqrt(q) ** 3
    c0, c1, c2, c3, c4, c5, _ = pmin.coeffs
    if c0 != q**3:
        return None
    den = 2 * r3
    for big_c in (r3, -r3):
        u1, u2 = c1 * r3 // big_c, c5 * r3  # den times the rational parts of B and A
        x = u2 * u2 + 2 * den * u1 - den * den * c4
        y = den * den * big_c + u2 * u1 - den * den * c3 // 2
        z = 2 * u2 * big_c * den + u1 * u1 - den * den * c2
        if x * z != y * y or x == z == 0:
            continue
        lead = x if x != 0 else z
        m = squarefree_part(lead)
        if m >= 0:
            continue
        root = isqrt(lead // m)
        a, b = (root, y // (m * root)) if x != 0 else (0, root)
        u = IntPoly([big_c * den, u1, u2, den])
        cf = ConjugateFactorization(m, u, IntPoly([0, b, a]), den)
        if cf.expand() == pmin:
            return cf
    return None


@pytest.fixture(scope="module")
def threefold_witnesses():
    """(w, norm_one_witness) over every polynomial of the g = 3 boxes, q = 4 and 9."""
    return [
        (w, norm_one_witness(w.poly, q))
        for q in (4, 9)
        for w in enumerate_weil(SearchSpec(3, q))
    ]


class TestNormOneClosedForm:
    def test_equals_the_three_equation_solver(self, threefold_witnesses):
        for w, cf in threefold_witnesses:
            assert cf == _norm_one_reference(w.poly, w.q), w.poly
        assert sum(cf is not None for _, cf in threefold_witnesses) == 572

    def test_witness_field_is_the_one_candidate(self, threefold_witnesses):
        # m = sqfree(Res(h, x^2 - 4q)) for every witness of an irreducible sextic
        held = 0
        for w, cf in threefold_witnesses:
            if cf is not None and w.factors == ((w.poly, 1),):
                assert _subfield_candidates(w.poly, w.q) == [cf.m], w.poly
                held += 1
        assert held == 358

    def test_search_builds_the_same_witness(self):
        found = list(find_non_neat_sextics(2, 4, -1))
        assert found
        for w, cf in found:
            want = norm_one_witness(w.poly, 4)
            assert cf in (want, ConjugateFactorization(want.m, want.u, -want.v, want.den))
