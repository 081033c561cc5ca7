"""Exact-arithmetic substrate: polynomials, factorization, resultants, Sturm."""

import cmath
import random
import time
from fractions import Fraction
from itertools import islice, product
from math import comb, isqrt, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilrank.errors import PreconditionViolation
from weilrank.exactcore import (
    IntPoly,
    cyclotomic_order,
    cyclotomic_part_orders,
    cyclotomic_polynomial,
    discriminant,
    factor_int,
    fractions_to_intpoly,
    factor_over_integers,
    is_irreducible,
    is_perfect_square,
    is_prime,
    lagrange_interpolate,
    poly_gcd,
    power_transform,
    prime_power,
    product_transform,
    ratio_transform,
    resultant,
    squarefree_decomposition,
    squarefree_part,
    sturm_real_root_count,
    sturm_surd_counts,
    surd_signs,
)
from weilrank.exactcore import factor as factor_module
from weilrank.exactcore import intfactor as intfactor_module
from weilrank.exactcore.poly import real_root_brackets
from weilrank.exactcore.poly import squarefree_part as poly_sf
from weilrank.exactcore.transforms import (
    _from_power_sums,
    _phi_sieve,
    _power_sums as _int_power_sums,
    _ratio_traces,
    _real_cyclotomic,
)
from weilrank.search import SearchSpec, enumerate_weil
from weilrank.weil import base_change, ratio_torsion_orders, validate

from test_classify import SUFFICIENCY_BOXES

# g = 1 for q <= 64, g = 2 for q <= 25, g = 3 for q <= 5: 12,967 polynomials
TORSION_BOXES = [
    (g, q) for g, top in ((1, 64), (2, 25), (3, 5)) for q in range(2, top + 1) if prime_power(q)
]


def P(*coeffs):
    return IntPoly(coeffs)


def sylvester_resultant(f: IntPoly, g: IntPoly) -> int:
    """Resultant as a fraction-free (Bareiss) Sylvester determinant.

    Independent of the remainder-sequence path of `resultant`, so it is
    the reference that `resultant` and the root transforms are checked against.
    """
    m, n = f.degree, g.degree
    if m < 0 or n < 0:
        raise PreconditionViolation("resultant of zero polynomial")
    size = m + n
    if size == 0:
        return 1
    fc = list(reversed(f.coeffs))
    gc = list(reversed(g.coeffs))
    rows = []
    for i in range(n):
        rows.append([0] * i + fc + [0] * (n - 1 - i))
    for i in range(m):
        rows.append([0] * i + gc + [0] * (m - 1 - i))
    # Bareiss elimination with exact divisions.
    prev = 1
    sign = 1
    for k in range(size - 1):
        if rows[k][k] == 0:
            pivot = next((r for r in range(k + 1, size) if rows[r][k] != 0), None)
            if pivot is None:
                return 0
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                rows[i][j] = (rows[i][j] * rows[k][k] - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = rows[k][k]
    return sign * rows[size - 1][size - 1]


def _squarefree_part_reference(f: IntPoly) -> IntPoly:
    """f / gcd(f, f'), primitive, positive lc: the gcd definition, apart from Sturm chains."""
    if f.is_zero:
        raise PreconditionViolation("zero polynomial")
    if f.degree == 0:
        return IntPoly([1])
    g = poly_gcd(f, f.derivative())
    return f.primitive_part().exact_div(g)


small_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=5).map(IntPoly)
nonzero_polys = small_polys.filter(lambda f: not f.is_zero)
monic_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=4).map(
    lambda c: IntPoly(c + [1])
)


class TestIntPoly:
    def test_canonical_form(self):
        assert IntPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert IntPoly([]).degree == -1
        assert IntPoly([0, 0]).is_zero

    def test_arithmetic(self):
        f = P(1, 2)  # 1 + 2t
        g = P(-1, 1)  # t - 1
        assert f * g == P(-1, -1, 2)
        assert f + g == P(0, 3)
        assert (f - f).is_zero
        assert f**3 == f * f * f

    def test_exact_division(self):
        f = P(-1, 0, 1)
        assert f.exact_div(P(-1, 1)) == P(1, 1)
        with pytest.raises(PreconditionViolation):
            P(1, 1, 1).exact_div(P(-1, 1))

    def test_non_integral_quotient(self):
        # t / (2t) = 1/2: the remainder is zero, but the quotient leaves Z[t]
        assert not P(0, 2).divides(P(0, 1))
        with pytest.raises(PreconditionViolation):
            P(0, 1).exact_div(P(0, 2))
        assert P(0, 2).divides(P(0, 4))
        assert P(0, 4).exact_div(P(0, 2)) == P(2)
        # (2t + 2)(t + 1/2): the first quotient coefficient is integral, the next is not
        assert not P(2, 2).divides(P(1, 3, 2))
        with pytest.raises(PreconditionViolation):
            P(1, 3, 2).exact_div(P(2, 2))
        assert P(2, 2).divides(P(2, 4, 2))

    def test_evaluate(self):
        assert P(5, -1, 1).evaluate(2) == 7
        assert P(5, -1, 1).evaluate(Fraction(1, 2)) == Fraction(19, 4)

    def test_gcd(self):
        f = P(-1, 1) * P(1, 1) * P(2, 1)
        g = P(-1, 1) * P(3, 1)
        assert poly_gcd(f, g) == P(-1, 1)
        assert poly_gcd(f, P(7)).degree == 0

    def test_squarefree_decomposition(self):
        f = P(-1, 1) ** 3 * P(1, 0, 1)
        dec = squarefree_decomposition(f)
        assert (P(1, 0, 1), 1) in dec
        assert (P(-1, 1), 3) in dec
        prod = IntPoly([1])
        for g, m in dec:
            prod = prod * g**m
        assert prod == f


class TestSquarefreePart:
    """`squarefree_part`, the head of the Sturm chain, against the gcd definition."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.integers(-3, 3).map(lambda r: P(-r, 1)),
                    # x^2 - d: roots on the end points -+sqrt(d) of a range check
                    st.sampled_from([2, 3, 4, 8, 12, 20]).map(lambda d: P(-d, 0, 1)),
                    st.lists(st.integers(-4, 4), min_size=3, max_size=4).map(IntPoly),
                ),
                st.integers(1, 3),
            ),
            min_size=1,
            max_size=4,
        ),
        st.integers(-6, 6).filter(bool),
    )
    def test_repeated_factors_and_end_points(self, factors, c):
        f = prod((g**e for g, e in factors), start=P(c))
        if f.is_zero:
            return
        assert poly_sf(f) == _squarefree_part_reference(f)

    def test_zero_refused(self):
        with pytest.raises(PreconditionViolation, match="zero polynomial"):
            poly_sf(IntPoly())

    @pytest.mark.parametrize("g, q", [(g, q) for g in (1, 2, 3) for q in (2, 3, 4)])
    def test_trace_polynomials_and_their_base_changes(self, g, q):
        # validate seeds the squarefree part of h from its range check; the one of an
        # enumerated polynomial or of a base change is computed on first read
        for w in enumerate_weil(SearchSpec(g=g, q=q)):
            for v in (validate(w.poly, q), w, base_change(w, 2)):
                assert v.trace_squarefree == _squarefree_part_reference(v.trace)


class TestFactor:
    def test_cyclotomic_splitting(self):
        # t^4 - 1 -> (t-1)(t+1)(t^2+1)
        assert factor_over_integers(P(-1, 0, 0, 0, 1)) == [
            (P(-1, 1), 1),
            (P(1, 1), 1),
            (P(1, 0, 1), 1),
        ]

    def test_perfect_power(self):
        assert factor_over_integers(P(5, -1, 1) ** 3) == [(P(5, -1, 1), 3)]

    def test_ordering_deterministic(self):
        f = P(1, 0, 1) * P(-2, 1) * P(3, 1)
        fac = factor_over_integers(f)
        assert fac == sorted(fac, key=lambda t: (t[0].degree, t[0].coeffs))

    def test_non_monic(self):
        f = P(3, 5) * P(-1, 2) * P(1, 1)
        fac = factor_over_integers(f)
        prod = IntPoly([1])
        for g, m in fac:
            prod = prod * g**m
        assert prod == f.primitive_part()

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.integers(-5, 5), min_size=2, max_size=4), min_size=1, max_size=3))
    def test_reexpansion_random_products(self, parts):
        polys = [IntPoly(c) for c in parts]
        polys = [f for f in polys if f.degree >= 1]
        if not polys:
            return
        f = IntPoly([1])
        for g in polys:
            f = f * g
        fac = factor_over_integers(f)
        prod = IntPoly([1])
        for g, m in fac:
            prod = prod * g**m
        assert prod == f.primitive_part() or prod == -f.primitive_part()
        for g, _ in fac:
            assert g.leading > 0
            assert g.content() == 1

    def test_against_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        cases = [
            P(729, -324, 72, -18, 8, -4, 1),
            P(6, 5, 1) * P(-2, 0, 1),
            P(1, 1, 1, 1, 1, 1, 1),  # Phi_7
            P(2, 3) * P(2, 3) * P(-1, 1),
        ]
        for f in cases:
            expr = sum(c * x**i for i, c in enumerate(f.coeffs))
            _, sy_factors = sympy.factor_list(expr)
            sy = sorted(
                (sympy.Poly(b, x).degree(), e) for b, e in sy_factors if sympy.Poly(b, x).degree() > 0
            )
            mine = sorted((g.degree, m) for g, m in factor_over_integers(f))
            assert mine == sy

    @pytest.mark.parametrize("g, q", [(g, q) for g in (1, 2) for q in (2, 3, 4, 5, 7, 8, 9)])
    def test_weil_boxes_factor_into_irreducibles(self, g, q):
        for w in enumerate_weil(SearchSpec(g=g, q=q)):
            fac = factor_over_integers(w.poly)
            assert prod((f**m for f, m in fac), start=P(1)) == w.poly
            assert all(_weil_divisor(f, q) is None for f, _ in fac)

    def test_splits_at_one_prime(self, monkeypatch):
        split_primes, primes_per_call = [], []
        real_split = factor_module._equal_degree_split
        real_factor = factor_module._factor_squarefree_monic

        def counting_split(f, d, p, rng):
            split_primes.append(p)
            return real_split(f, d, p, rng)

        def recording_factor(f):
            split_primes.clear()
            out = real_factor(f)
            primes_per_call.append(set(split_primes))
            return out

        monkeypatch.setattr(factor_module, "_equal_degree_split", counting_split)
        monkeypatch.setattr(factor_module, "_factor_squarefree_monic", recording_factor)
        cases = [P(-1, *[0] * 11, 1), P(1, 1, 1, 1, 1, 1, 1) * P(5, -1, 1) * P(1, 0, 1)]
        cases += [w.poly for w in enumerate_weil(SearchSpec(g=2, q=9))]
        for f in cases:
            factor_over_integers(f)
        assert all(len(primes) <= 1 for primes in primes_per_call)
        assert sum(len(primes) for primes in primes_per_call) > 10

    @pytest.mark.parametrize(
        "f",
        [
            P(1, 1, 1),  # D < 0
            P(5, 0, 1),
            P(9, 6, 1),  # D = 0
            P(49, -14, 1),
            P(-10, 3, 1),  # D = 49
            P(0, 3, 1),
            P(-1, 0, 1),
            P(-2, 0, 1),  # D = 8
            P(1, 3, 1),
            P(-(2**72), 0, 1),  # D = 2^74, square: (x - 2^36)(x + 2^36)
            P(-(2**71), 0, 1),  # D = 2^73
            P(2**71, 1, 1),  # D < 0
            P(2**72, -(2**37), 1),  # (x - 2^36)^2
            P(-(2**72) + 2**36, 1, 1),  # (x - 2^36 + 1)(x + 2^36)
            P((2**36 - 3) * (2**35 + 7), 2**36 + 2**35 + 4, 1),  # (x + 2^36 - 3)(x + 2^35 + 7)
            P(2 * 2**71 - 5, -(2**36) + 3, 1),  # trace-quadratic sizes at q = 2^71
        ],
    )
    def test_monic_quadratic_matches_zassenhaus(self, f):
        assert factor_over_integers(f) == _zassenhaus_factors(f)

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.integers(-300, 300), st.integers(-300, 300)),
            st.tuples(st.integers(-(2**74), 2**74), st.integers(-(2**74), 2**74)),
        ),
        st.booleans(),
    )
    def test_monic_quadratics_against_zassenhaus(self, pair, split):
        # split draws the two roots (D a square, or 0 when they meet); else b and c
        a, b = pair
        f = P(-a, 1) * P(-b, 1) if split else P(b, a, 1)
        assert factor_over_integers(f) == _zassenhaus_factors(f)

    @pytest.mark.parametrize("g, q", [(g, q) for g in (2, 3) for q in (2, 3, 4, 5)])
    def test_trace_polynomials_match_zassenhaus(self, g, q):
        # every trace polynomial of the box, and of its base change to F_(q^2)
        for w in enumerate_weil(SearchSpec(g=g, q=q)):
            for h in (w.trace, base_change(w, 2).trace):
                assert factor_over_integers(h) == _zassenhaus_factors(h), h

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([4, 9, 25, 2**62, 3**80]), st.data())
    def test_cubics_from_integer_roots_match_zassenhaus(self, q, data):
        # three roots in [-2 sqrt(q), 2 sqrt(q)], where a trace cubic has them; q is a
        # square, so the ends are integers, and they, 0 and repeated roots are drawn often
        s = 2 * isqrt(q)
        root = st.one_of(st.sampled_from([0, s, -s]), st.integers(-s, s), st.integers(-30, 30))
        a = data.draw(root)
        b = data.draw(st.one_of(st.just(a), root))
        c = data.draw(st.one_of(st.sampled_from([a, b]), root))
        f = P(-a, 1) * P(-b, 1) * P(-c, 1)
        assert factor_over_integers(f) == _zassenhaus_factors(f)

    @pytest.mark.parametrize("q", [2, 3, 5, 8, 2**61, 2**89, 2**127])
    def test_root_times_x2_minus_4q_matches_zassenhaus(self, q):
        # x^2 - 4q, irreducible for q not a square, carries the real eigenvalues +-sqrt(q)
        s = isqrt(4 * q)
        for r in (0, 1, -1, s, -s, s - 1, 1 - s):
            f = P(-r, 1) * P(-4 * q, 0, 1)
            assert factor_over_integers(f) == _zassenhaus_factors(f)

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.integers(-300, 300), st.integers(-300, 300), st.integers(-300, 300)),
            st.tuples(
                st.integers(-(2**66), 2**66),
                st.integers(-(2**66), 2**66),
                st.integers(-(2**130), 2**130),
            ),
        )
    )
    def test_root_times_quadratic_matches_zassenhaus(self, rbc):
        # the quadratic x^2 + b x + c is mostly irreducible, sometimes (x - r) again
        r, b, c = rbc
        f = P(-r, 1) * P(c, b, 1)
        assert factor_over_integers(f) == _zassenhaus_factors(f)

    @pytest.mark.parametrize("e", [61, 89, 127])
    def test_random_large_q_cubics_match_zassenhaus(self, e):
        # coefficients at the sizes of a trace cubic over F_(2^e), |b| <= 3s, |a| <= 3s^2,
        # |c| <= s^3 for s = 2 sqrt(q): random ones, integer roots, and a root times a quadratic
        q = 2**e
        s = isqrt(4 * q)
        rng = random.Random(e)
        for i in range(200):
            r = [rng.randint(-s, s) for _ in range(3)]
            if i % 3 == 0:
                c, a, b = (rng.randint(-n, n) for n in (s**3, 3 * s * s, 3 * s))
                f = P(c, a, b, 1)
            elif i % 3 == 1:
                f = P(-r[0], 1) * P(-r[1], 1) * P(-r[2], 1)
            else:
                f = P(-r[0], 1) * P(rng.randint(0, s * s), r[1], 1)
            assert factor_over_integers(f) == _zassenhaus_factors(f)

    def test_is_irreducible(self):
        assert is_irreducible(P(5, -1, 1))
        assert not is_irreducible(P(-1, 0, 0, 0, 1))
        assert not is_irreducible(P(7))


def _zassenhaus_factors(f):
    """`factor_over_integers` without its closed forms for monic quadratics and
    cubics: the squarefree decomposition, each part through `_factor_squarefree`."""
    parts = squarefree_decomposition(f)
    out = [(g, m) for part, m in parts for g in factor_module._factor_squarefree(part)]
    out.sort(key=lambda t: (t[0].degree, t[0].coeffs))
    merged = []
    for g, m in out:
        if merged and merged[-1][0] == g:
            merged[-1] = (g, merged[-1][1] + m)
        else:
            merged.append((g, m))
    return merged


def _weil_divisor(f, q):
    """A monic integer divisor of f of degree 1 .. deg f // 2, or None.

    Every root of f has absolute value sqrt(q), so every monic divisor of
    degree k has |t^(k-j) coefficient| <= C(k, j) q^(j/2) and constant term
    +-q^(k/2); the search runs over all of those.
    """
    for k in range(1, f.degree // 2 + 1):
        if not is_perfect_square(q**k):
            continue
        ranges = [range(-b, b + 1) for b in (isqrt(comb(k, j) ** 2 * q**j) for j in range(1, k))]
        for const in (isqrt(q**k), -isqrt(q**k)):
            for middle in product(*ranges):
                g = IntPoly([const, *reversed(middle), 1])
                if g.divides(f):
                    return g
    return None


class TestResultant:
    def test_linear_case(self):
        assert resultant(P(-2, 1), P(-3, 1)) == -1

    def test_discriminant_quadratic(self):
        # disc(t^2 + bt + c) = b^2 - 4c
        for b, c in [(3, 1), (-2, 7), (0, -5)]:
            assert discriminant(P(c, b, 1)) == b * b - 4 * c

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(st.integers(-8, 8), min_size=2, max_size=5),
        st.lists(st.integers(-8, 8), min_size=2, max_size=5),
    )
    def test_matches_sylvester_determinant(self, a, b):
        f, g = IntPoly(a), IntPoly(b)
        if f.is_zero or g.is_zero:
            return
        assert resultant(f, g) == sylvester_resultant(f, g)

    def test_zero_iff_common_factor(self):
        f = P(-1, 1) * P(1, 0, 1)
        g = P(-1, 1) * P(5, 1)
        assert resultant(f, g) == 0
        assert resultant(P(1, 0, 1), P(5, 1)) != 0

    def test_rejects_zero(self):
        with pytest.raises(PreconditionViolation):
            resultant(IntPoly([]), P(1, 1))


class TestSturm:
    def test_basic_counts(self):
        assert sturm_real_root_count(P(-2, 0, 1)) == 2
        assert sturm_real_root_count(P(1, 0, 1)) == 0

    def test_half_open_interval(self):
        f = P(0, -1, 0, 1)  # t^3 - t: roots -1, 0, 1
        assert sturm_real_root_count(f, 0, 1) == 1
        assert sturm_real_root_count(f, -1, 1) == 2  # (-1, 1] drops -1
        assert sturm_real_root_count(f, None, 0) == 2  # -1 and 0
        assert sturm_real_root_count(f, Fraction(1, 2), None) == 1

    def test_interval_endpoint_membership(self):
        f = P(-1, 1)  # root 1
        assert sturm_real_root_count(f, 0, 1) == 1
        assert sturm_real_root_count(f, 1, 2) == 0

    def test_cleared_cubic_totally_real(self):
        # the (p, l) = (5, 3) construction: 65536 x^3 - 196608 x + 15
        f = IntPoly([15, -196608, 0, 65536])
        assert sturm_real_root_count(f) == 3

    def test_nonsquarefree_endpoint_counts_once(self):
        f = P(-1, 1) ** 2  # the chain is that of t - 1, so an endpoint root is no exception
        assert sturm_real_root_count(f, 0, 1) == 1
        assert sturm_real_root_count(f, 1, 2) == 0
        assert sturm_real_root_count(f, 0, 2) == 1
        g = f * P(-2, 1)  # gcd(g, g') = t - 1 vanishes at the endpoint t = 1
        assert [sturm_real_root_count(g, lo, hi) for lo, hi in [(0, 1), (1, 2), (1, 3)]] == [1, 1, 1]
        with pytest.raises(PreconditionViolation):
            sturm_real_root_count(IntPoly())

    def test_brackets_refuse_repeated_roots(self):
        with pytest.raises(PreconditionViolation, match="not squarefree"):
            real_root_brackets(P(-1, 1) ** 2 * P(2, 1))
        assert len(real_root_brackets(P(-1, 1) * P(2, 1))) == 2

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.integers(-2, 2).map(lambda r: P(-r, 1)),
                    st.lists(st.integers(-4, 4), min_size=3, max_size=3).map(IntPoly),
                ),
                st.integers(1, 3),
            ),
            min_size=1,
            max_size=3,
        ),
        st.one_of(st.none(), st.integers(-2, 2)),
        st.one_of(st.none(), st.integers(-2, 2)),
    )
    def test_repeated_roots_against_sympy(self, factors, lo, hi):
        # integer endpoints often land on the integer roots of the linear factors
        sympy = pytest.importorskip("sympy")
        f = prod((g**e for g, e in factors), start=P(1))
        if f.is_zero:
            return
        count = sturm_real_root_count(f, lo, hi)
        assert count == sturm_real_root_count(_squarefree_part_reference(f), lo, hi)
        x = sympy.Symbol("x")
        roots = set(sympy.real_roots(sympy.Poly(list(reversed(f.coeffs)), x)))
        assert count == sum(1 for r in roots if (lo is None or r > lo) and (hi is None or r <= hi))

    @settings(max_examples=200, deadline=None)
    @given(small_polys, st.integers(0, 40))
    def test_surd_signs_against_sympy(self, f, d):
        sympy = pytest.importorskip("sympy")
        root = sympy.sqrt(d)
        want = tuple(
            int(sympy.sign(sympy.expand(sum(c * x**i for i, c in enumerate(f.coeffs)))))
            for x in (-root, root)
        )
        assert surd_signs(f, d) == want

    def test_surd_signs_examples(self):
        assert surd_signs(P(-20, 0, 1), 20) == (0, 0)  # x^2 - 20 at -+sqrt(20)
        assert surd_signs(P(-4, 1), 16) == (-1, 0)
        assert surd_signs(P(0, 1) ** 3 - P(0, 20), 21) == (-1, 1)  # x(x^2 - 20)
        assert surd_signs(IntPoly(), 5) == (0, 0)

    @pytest.mark.parametrize(
        "f, d, counts",
        [
            (P(-20, 0, 1), 20, (2, 2)),  # both roots on the end points
            (P(-20, 0, 1) ** 2 * P(0, 1) ** 3, 20, (3, 3)),  # repeated, also on an end point
            (P(-21, 0, 1), 20, (2, 0)),
            (P(-4, 1) ** 2 * P(5, 1), 16, (2, 1)),  # x = 4 on the end point, -5 outside
            (P(4, 1) ** 3, 16, (1, 1)),  # the repeated root is the lower end point
            (P(1, 0, 1) * P(-1, 1), 4, (1, 1)),
            (P(7), 4, (0, 0)),
        ],
    )
    def test_surd_counts(self, f, d, counts):
        fsf, real, inside = sturm_surd_counts(f, d)
        assert fsf == _squarefree_part_reference(f)
        assert (real, inside) == counts
        with pytest.raises(PreconditionViolation):
            sturm_surd_counts(IntPoly(), d)


class TestTransforms:
    def test_power_examples(self):
        assert power_transform(P(5, -1, 1), 2) == P(25, 9, 1)
        assert power_transform(P(5, 0, 1), 2) == P(25, 10, 1)
        f = P(7, -3, 1)
        assert power_transform(f, 1) == f

    def test_power_via_power_sums(self):
        # independent oracle: Newton power sums of f give those of f^(n)
        f = P(3, -2, -1, 1)
        n = 3
        out = power_transform(f, n)
        assert _power_sums(out, 6) == [_power_sums(f, 3 * 6)[n * k - 1] for k in range(1, 7)]

    def test_power_composition(self):
        f = P(5, -1, 1)
        assert power_transform(power_transform(f, 2), 3) == power_transform(f, 6)

    def test_product_examples(self):
        assert product_transform(P(-2, 1), P(-3, 1)) == P(-6, 1)
        f = P(5, -1, 1)
        prod = product_transform(f, f)
        # alpha * conj(alpha) = 5 must be among the roots
        q, r = prod.divmod_exact(P(-5, 1))
        assert r.is_zero

    def test_ratio_examples(self):
        assert ratio_transform(P(5, 0, 1), P(5, 0, 1)) == P(1, 0, -2, 0, 1)
        # ratio alpha/conj(alpha) for t^2 - t + 5: minimal poly 5t^2 + 9t + 5,
        # not monic, so the transform output is primitive rather than monic
        r = ratio_transform(P(5, -1, 1), P(5, -1, 1))
        rest = r.exact_div(P(-1, 1) ** 2)  # strip the alpha/alpha diagonal
        assert rest == P(5, 9, 5)

    def test_ratio_rejects_root_at_zero(self):
        with pytest.raises(PreconditionViolation):
            ratio_transform(P(1, 1), P(0, 1))

    def test_power_rejects_bad_input(self):
        with pytest.raises(PreconditionViolation):
            power_transform(P(5, -1, 1), 0)
        with pytest.raises(PreconditionViolation):
            power_transform(P(1, 2), 2)

    def test_ratio_with_non_unit_constant(self):
        # the single ratio 2/3 has minimal polynomial 3t - 2
        assert ratio_transform(P(-2, 1), P(-3, 1)) == P(-2, 3)
        assert ratio_transform(P(-2, 1), P(3, 1)) == P(2, 3)
        assert ratio_transform(P(5, 0, 1), P(-3, 1)) == _ref_ratio(P(5, 0, 1), P(-3, 1))

    def test_power_sums_must_stay_integral(self):
        assert _from_power_sums([1]) == P(-1, 1)
        assert _from_power_sums([0, -10]) == P(5, 0, 1)
        # p_1 = 1, p_2 = 0 would need e_2 = 1/2
        with pytest.raises(PreconditionViolation, match="left Z"):
            _from_power_sums([1, 0])

    @settings(max_examples=80, deadline=None)
    @given(monic_polys, monic_polys, st.integers(1, 4))
    def test_against_resultant_interpolation(self, f, g, n):
        assert power_transform(f, n) == _ref_power(f, n)
        assert product_transform(f, g) == _ref_product(f, g)
        assert _symmetric_square(f) ** 2 == product_transform(f, f) * power_transform(f, 2)
        if g.coeffs[0] != 0:
            assert ratio_transform(f, g) == _ref_ratio(f, g)

    def test_ratio_torsion_orders_g2_q3(self):
        seen = set()
        for w in enumerate_weil(SearchSpec(g=2, q=3)):
            sf = poly_sf(w.poly)
            expected = frozenset()
            if sf.degree > 1:
                ratios = _ref_ratio(sf, sf).exact_div(P(-1, 1) ** sf.degree)
                expected = frozenset(n for n in _trial_part_orders(ratios) if n > 1)
            assert ratio_torsion_orders(w) == expected == _torsion_by_products(w)
            seen |= expected
        assert seen  # some of them do have torsion

    @pytest.mark.parametrize("g, q", TORSION_BOXES)
    def test_ratio_torsion_orders_match_products(self, g, q):
        for w in enumerate_weil(SearchSpec(g=g, q=q)):
            assert ratio_torsion_orders(w) == _torsion_by_products(w)

    def test_symmetric_square_examples(self):
        # roots 2, 3 give 4, 6, 9; the repeated root of (t - 1)^2 gives 1 three times
        assert _symmetric_square(P(6, -5, 1)) == P(-4, 1) * P(-6, 1) * P(-9, 1)
        assert _symmetric_square(P(1, -2, 1)) == P(-1, 1) ** 3
        assert _symmetric_square(P(5, 0, 1)).degree == 3
        with pytest.raises(PreconditionViolation, match="monic"):
            _symmetric_square(P(1, 2))


def _symmetric_square(f):
    """Monic polynomial with root multiset {alpha_i alpha_j : i <= j}, of
    degree n(n + 1)/2 for n = deg f; its power sums are (p_k^2 + p_(2k)) / 2."""
    if not f.is_monic:
        raise PreconditionViolation("symmetric square needs a monic polynomial")
    deg = f.degree * (f.degree + 1) // 2
    p = _int_power_sums(f, 2 * deg)
    return _from_power_sums([(p[k] * p[k] + p[2 * k + 1]) // 2 for k in range(deg)])


def _torsion_by_symmetric_square(w):
    """Ratio torsion orders as the cyclotomic factors of the symmetric square
    of P, argument scaled by q: the products alpha_i alpha_j / q, i <= j."""
    ratios = _symmetric_square(w.poly).scale_argument(w.q).primitive_part()
    return frozenset(n for n in cyclotomic_part_orders(ratios) if n > 1)


def _torsion_by_products(w):
    """Ratio torsion orders as the product transform of the squarefree part
    of P with itself, argument scaled by q, with the (t - 1)^r of the
    trivial ratios divided out: the ratio polynomial of degree r^2 - r."""
    sf = poly_sf(w.poly)
    if sf.degree <= 1:
        return frozenset()
    ratios = product_transform(sf, sf).scale_argument(w.q).primitive_part()
    ratios = ratios.exact_div(P(-1, 1) ** sf.degree)
    return frozenset(n for n in cyclotomic_part_orders(ratios) if n > 1)


# g <= 3 and q <= 5, each polynomial also over F_(q^2) and F_(q^3)
SMALL_WEIL_BOXES = [(g, q) for g in (1, 2, 3) for q in (2, 3, 4, 5)]


@st.composite
def _curve_products(draw):
    """Two or three elliptic curves t^2 - a t + q over F_(2^e), e <= 127, as one Weil
    polynomial.  Traces are small, anywhere in range, or those of torsion ratios (0, sqrt(q),
    sqrt(2q)), and the last curve may be the quadratic twist of the first."""
    e = draw(st.integers(1, 127))
    q = 2**e
    top = isqrt(4 * q)
    special = [0] + [isqrt(m * q) for m in (1, 2) if isqrt(m * q) ** 2 == m * q]
    trace = st.one_of(
        st.integers(-min(9, top), min(9, top)),
        st.integers(-top, top),
        st.sampled_from(special).flatmap(lambda a: st.sampled_from([a, -a])),
    )
    traces = draw(st.lists(trace, min_size=2, max_size=3))
    if draw(st.booleans()):
        traces[-1] = -traces[0]
    return validate(prod((P(q, -a, 1) for a in traces), start=P(1)), q)


class TestRatioTraces:
    """`ratio_torsion_orders` reads the degree-g^2 polynomial T_V of the values
    pi + q^2/pi; the reference is the symmetric square of P, of degree g(2g + 1)."""

    @pytest.mark.parametrize("g, q", SMALL_WEIL_BOXES)
    def test_boxes_and_base_changes_match_symmetric_square(self, g, q):
        for w in enumerate_weil(SearchSpec(g=g, q=q)):
            for n in (1, 2, 3):
                wn = base_change(w, n)
                assert ratio_torsion_orders(wn) == _torsion_by_symmetric_square(wn), (w.poly, n)

    def test_first_g4_members_match_symmetric_square(self):
        for w in islice(enumerate_weil(SearchSpec(g=4, q=2)), 400):
            assert ratio_torsion_orders(w) == _torsion_by_symmetric_square(w), w.poly

    @settings(max_examples=60, deadline=None)
    @given(_curve_products())
    def test_curve_products_match_symmetric_square(self, w):
        assert ratio_torsion_orders(w) == _torsion_by_symmetric_square(w)

    def test_twist_and_supersingular_orders(self):
        # E and its quadratic twist: the ratio alpha / (-alpha) = -1
        q = 2**89
        w = validate(P(q, -3, 1) * P(q, 3, 1), q)
        assert ratio_torsion_orders(w) == {2}
        # t^2 + 2: alpha = i sqrt(2), and alpha / conj(alpha) = -1; t^2 + 2t + 2: order 4
        assert ratio_torsion_orders(validate(P(2, 0, 1), 2)) == {2}
        assert ratio_torsion_orders(validate(P(2, 2, 1), 2)) == {4}

    def test_trace_form_roots(self):
        # (t - 2)(t - 3) as a formal q = 6 pairing: products 4, 9 and the trivial 6;
        # 4 pairs with 36/4 = 9, so T_V has the one root 4 + 9 = 13
        assert _ratio_traces(P(6, -5, 1), 6) == P(-13, 1)
        # two curves over F_5: each of the g^2 = 4 values pi + 25/pi is a root
        alphas = [(a + s * cmath.sqrt(a * a - 20)) / 2 for a in (1, -2) for s in (1, -1)]
        traces = _ratio_traces(P(5, -1, 1) * P(5, 2, 1), 5)
        assert traces.degree == 4 and traces.is_monic
        pairs = [(0, 0), (2, 2), (0, 2), (0, 3)]  # alpha^2 for each curve, and the cross products
        for i, j in pairs:
            pi = alphas[i] * alphas[j]
            assert abs(traces.evaluate(pi + 25 / pi)) < 1e-6

    def test_real_cyclotomic(self):
        phi = _phi_sieve(200)
        assert _real_cyclotomic(2) == P(2, 1)
        for n in range(3, 201):
            psi = _real_cyclotomic(n)
            m = phi[n] // 2
            assert psi.degree == m
            # t^m Psi_n(t + 1/t) = sum_k psi_k (t^2 + 1)^k t^(m - k)
            lifted = sum(
                ((c * P(1, 0, 1) ** k).shift(m - k) for k, c in enumerate(psi.coeffs)), P()
            )
            assert lifted == cyclotomic_polynomial(n), n


# Reference transforms: resultants at integer points (Sylvester
# determinants), interpolated exactly.  Independent of the power sums.


def _interpolate(deg, value_at):
    return lagrange_interpolate([(k, value_at(k)) for k in range(1, deg + 2)])


def _monic_from(coeffs):
    assert all(c.denominator == 1 for c in coeffs)
    return IntPoly([int(c) for c in coeffs])


def _ref_power(f, n):
    # Res_x(f(x), k - x^n) = prod (k - alpha^n)
    xn = IntPoly([0] * n + [1])
    return _monic_from(_interpolate(f.degree, lambda k: sylvester_resultant(f, P(k) - xn)))


def _ref_product(f, g):
    # Res_x(f(x), x^m g(k/x)) = prod (k - alpha beta)
    m = g.degree

    def value(k):
        return sylvester_resultant(f, IntPoly([g.coeffs[m - i] * k ** (m - i) for i in range(m + 1)]))

    return _monic_from(_interpolate(f.degree * m, value))


def _ref_ratio(f, g):
    # Res_y(g(y), f(k y)) = ((-1)^m g(0))^d prod (k - alpha/beta)
    norm = ((-1) ** g.degree * g.coeffs[0]) ** f.degree

    def value(k):
        return Fraction(sylvester_resultant(g, f.scale_argument(k)), norm)

    return fractions_to_intpoly(_interpolate(f.degree * g.degree, value))


def _power_sums(f, count):
    """Newton's identities: power sums of the roots of monic f."""
    n = f.degree
    e = [Fraction((-1) ** k * c) for k, c in enumerate(reversed(f.coeffs))]
    p = []
    for k in range(1, count + 1):
        s = Fraction(0)
        for i in range(1, min(k, n) + 1):
            s += (-1) ** (i - 1) * e[i] * (p[k - i - 1] if k - i >= 1 else Fraction(k))
        p.append(s)
    return p


def _trial_part_orders(f):
    """Every n with phi(n) <= deg f whose cyclotomic polynomial divides f,
    each by exact division: no modular filter, no cached table."""
    d = f.degree
    phi = _phi_sieve(2 * d * d + 2)
    return {n for n in range(1, len(phi)) if phi[n] <= d and cyclotomic_polynomial(n).divides(f)}


# (n, phi(n)) with phi(n) <= 30
SMALL_ORDERS = [(n, k) for n, k in enumerate(_phi_sieve(2 * 30 * 30 + 2)) if 1 <= k <= 30]
# non-cyclotomic Weil factors: an elliptic curve over F_5, a simple surface over F_3
NON_CYCLOTOMIC = [P(5, -1, 1), P(9, -3, 1, -1, 1)]


class TestCyclotomic:
    def test_orders(self):
        assert cyclotomic_order(P(1, 1, 1)) == 3
        assert cyclotomic_order(P(1, 0, -1, 0, 1)) == 12
        assert cyclotomic_order(P(5, -1, 1)) is None
        assert cyclotomic_order(P(-1, 1)) == 1
        assert cyclotomic_order(P(1, 1)) == 2

    def test_order_of_each_small_cyclotomic(self):
        for n, _ in SMALL_ORDERS:
            cyc = cyclotomic_polynomial(n)
            assert cyclotomic_order(cyc) == n
            assert cyclotomic_order(cyc + P(3)) is None  # constant term 2 or 4
            assert cyclotomic_order(cyc * P(-1, 1)) is None

    @pytest.mark.parametrize("count", [2, 3])
    def test_part_orders_of_products_match_trial_division(self, count):
        rng = random.Random(count)
        for _ in range(40):
            picks = rng.sample(SMALL_ORDERS, count)
            f = rng.choice(NON_CYCLOTOMIC)
            for n, _ in picks:
                f = f * cyclotomic_polynomial(n)
            expected = _trial_part_orders(f)
            assert {n for n, _ in picks} <= expected
            assert cyclotomic_part_orders(f) == expected

    @pytest.mark.parametrize("g, q", SUFFICIENCY_BOXES)
    def test_ratio_part_orders_match_trial_division(self, g, q):
        for w in enumerate_weil(SearchSpec(g=g, q=q)):
            sf = poly_sf(w.poly)
            if sf.degree <= 1:
                continue
            ratios = product_transform(sf, sf).scale_argument(q).primitive_part()
            ratios = ratios.exact_div(P(-1, 1) ** sf.degree)
            assert cyclotomic_part_orders(ratios) == _trial_part_orders(ratios)
            # and on the symmetric square of the ratio torsion reference
            sym = _symmetric_square(w.poly).scale_argument(q).primitive_part()
            assert cyclotomic_part_orders(sym) == _trial_part_orders(sym)

    def test_polynomials(self):
        assert cyclotomic_polynomial(1) == P(-1, 1)
        assert cyclotomic_polynomial(12) == P(1, 0, -1, 0, 1)
        phi = _phi_sieve(29)
        for n in range(1, 30):
            assert cyclotomic_polynomial(n).degree == phi[n]

    def test_part_orders(self):
        f = P(-1, 1) * P(1, 1) * P(1, 0, 1) * P(-3, 0, 1)
        assert cyclotomic_part_orders(f) == {1, 2, 4}
        assert cyclotomic_part_orders(P(-3, 0, 1)) == set()

    def test_part_orders_reach_the_phi_bound(self):
        for n in range(1, 61):
            assert cyclotomic_part_orders(cyclotomic_polynomial(n)) == {n}
        # t^12 - 1: every divisor of 12 has its cyclotomic factor
        assert cyclotomic_part_orders(P(-1, *[0] * 11, 1)) == {1, 2, 3, 4, 6, 12}


class TestIntegerHelpers:
    def test_prime_power(self):
        assert prime_power(8) == (2, 3)
        assert prime_power(9) == (3, 2)
        assert prime_power(6561) == (3, 8)
        assert prime_power(6) is None
        assert prime_power(1) is None

    def test_prime_power_equals_factoring(self):
        def by_factoring(q):
            if q < 2:
                return None
            fac = factor_int(q)
            return next(iter(fac.items())) if len(fac) == 1 else None

        for q in range(-3, 10**4):
            assert prime_power(q) == by_factoring(q), q

    def test_prime_power_factors_nothing(self, monkeypatch):
        # Pollard rho needs about sqrt(p) steps for p^3 with a 64-bit prime p
        def refuse(n):
            raise AssertionError(f"factor_int({n}) called")

        monkeypatch.setattr(intfactor_module, "factor_int", refuse)
        p = 2**64 - 59
        start = time.perf_counter()
        assert prime_power(p**3) == (p, 3)
        assert validate(P(p**3, -1, 1), p**3).p == p
        assert prime_power(2**127) == (2, 127) and prime_power(p * (p + 2)) is None
        assert time.perf_counter() - start < 1

    def test_squarefree_part(self):
        assert squarefree_part(-16) == -1
        assert squarefree_part(-19) == -19
        assert squarefree_part(18) == 2

    def test_factor_int(self):
        assert factor_int(2**10 * 3**4 * 41) == {2: 10, 3: 4, 41: 1}
        big = 10**20 + 39  # semiprime-ish stress
        fac = factor_int(big)
        prod = 1
        for p, e in fac.items():
            assert is_prime(p)
            prod *= p**e
        assert prod == big

    def test_is_prime_small(self):
        primes = {p for p in range(2, 200) if is_prime(p)}
        assert primes == {
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
            67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
            139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
        }
