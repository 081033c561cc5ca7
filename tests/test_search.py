"""Weil polynomial enumeration: the pruned trace walk against a full-box
reference, the exact surd rounding, the limit, the dimension check, and
g = 4 boxes against direct validation; the non-neat search's limit and
characteristic checks."""

from fractions import Fraction
from itertools import product
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

import weilrank.search
from weilrank.errors import (
    BSplitAtP,
    PreconditionViolation,
    QNotSquare,
    ResidueConditionFails,
    RiemannHypothesisFails,
)
from weilrank.exactcore import IntPoly, is_irreducible, prime_power
from weilrank.search import (
    SearchSpec,
    _floor_surd,
    construct_totally_real_cubic,
    enumerate_weil,
    find_non_neat_sextics,
)
from weilrank.classify import classify_auto
from weilrank.newton import newton_polygon
from weilrank.weil import validate


def _is_integral(polygon):
    """Reference: slope * length is an integer on every segment."""
    return all((s * l).denominator == 1 for s, l in polygon.segments)


def _sign_nonneg_sqrt(a: int, b: int, q: int) -> bool:
    """Exact test of a + b*sqrt(q) >= 0."""
    if a >= 0 and b >= 0:
        return True
    if a < 0 and b < 0:
        return False
    if b >= 0:
        return a * a <= b * b * q
    return a * a >= b * b * q


def _trace_is_weil_g3(b2: int, b1: int, b0: int, q: int) -> bool:
    """All roots of x^3 + b2 x^2 + b1 x + b0 real and within [-2 sqrt q, 2 sqrt q]."""
    disc = (
        18 * b2 * b1 * b0
        - 4 * b2**3 * b0
        + b2 * b2 * b1 * b1
        - 4 * b1**3
        - 27 * b0 * b0
    )
    if disc < 0:
        return False
    # roots <= 2 sqrt(q):  h, h', h'' all >= 0 there
    if not _sign_nonneg_sqrt(4 * q * b2 + b0, 8 * q + 2 * b1, q):
        return False
    if not _sign_nonneg_sqrt(12 * q + b1, 4 * b2, q):
        return False
    if not _sign_nonneg_sqrt(2 * b2, 12, q):
        return False
    # roots >= -2 sqrt(q): alternating signs of derivatives there
    if not _sign_nonneg_sqrt(-(4 * q * b2 + b0), 8 * q + 2 * b1, q):
        return False
    if not _sign_nonneg_sqrt(12 * q + b1, -4 * b2, q):
        return False
    return _sign_nonneg_sqrt(-2 * b2, 12, q)


def _trace_is_weil_g2(b1: int, b0: int, q: int) -> bool:
    """All roots of x^2 + b1 x + b0 real and within [-2 sqrt q, 2 sqrt q]."""
    if b1 * b1 - 4 * b0 < 0:
        return False
    if not _sign_nonneg_sqrt(4 * q + b0, 2 * b1, q):
        return False
    if not _sign_nonneg_sqrt(4 * q + b0, -2 * b1, q):
        return False
    # the vertex -b1/2 lies inside the interval
    return _sign_nonneg_sqrt(-b1, 4, q) and _sign_nonneg_sqrt(b1, 4, q)


def _full_box(spec: SearchSpec):
    """Every box leaf in lexicographic order, kept by the sign tests above."""
    g, q = spec.g, spec.q
    ranges = [range(-spec.bound(i), spec.bound(i) + 1) for i in range(2 * g - 1, g - 1, -1)]
    for free in product(*ranges):
        if g == 1:
            passes = free[0] ** 2 <= 4 * q
        elif g == 2:
            a3, a2 = free
            passes = _trace_is_weil_g2(a3, a2 - 2 * q, q)
        else:
            a5, a4, a3 = free
            passes = _trace_is_weil_g3(a5, a4 - 3 * q, a3 - 2 * q * a5, q)
        if passes:
            coeffs = [0] * (2 * g + 1)
            for j, a in enumerate((1, *free)):
                coeffs[2 * g - j] = a
                coeffs[j] = q ** (g - j) * a
            yield IntPoly(coeffs)


def _prime_powers(lo, hi):
    return [q for q in range(lo, hi + 1) if prime_power(q) is not None]


FULL_BOXES = (
    [(1, q) for q in _prime_powers(2, 64)]
    + [(2, q) for q in (2, 3, 4, 5, 7, 8, 9)]
    + [(3, q) for q in (2, 3)]
)


class TestTraceWalk:
    @pytest.mark.parametrize("g, q", FULL_BOXES)
    def test_equals_full_box(self, g, q):
        spec = SearchSpec(g=g, q=q)
        got = list(enumerate_weil(spec))
        assert [w.poly for w in got] == list(_full_box(spec))
        assert got and all(validate(w.poly, q) == w for w in got)

    @pytest.mark.parametrize(
        "g, q, bounds",
        [
            (2, 5, {3: 2}),
            (2, 5, {2: 4}),
            (2, 7, {3: 5, 2: 1}),
            (3, 3, {5: 1, 3: 7}),
            (3, 4, {4: 2}),
            (3, 2, {5: 0, 4: 9, 3: 1}),
        ],
    )
    def test_asymmetric_bounds(self, g, q, bounds):
        spec = SearchSpec(g=g, q=q, bounds=bounds)
        got = [w.poly for w in enumerate_weil(spec)]
        assert got and got == list(_full_box(spec))
        assert len(got) < len(list(enumerate_weil(SearchSpec(g=g, q=q))))

    @pytest.mark.parametrize(
        "g, q, bounds",
        [(2, 3, {3: -1}), (2, 9, {2: -1}), (3, 2, {4: -1}), (3, 3, {3: -1})],
    )
    def test_empty_bounds(self, g, q, bounds):
        assert list(enumerate_weil(SearchSpec(g=g, q=q, bounds=bounds))) == []

    def test_leaves_are_not_revalidated(self, monkeypatch):
        def refuse(poly, q):
            raise AssertionError("validate called")

        monkeypatch.setattr(weilrank.search, "validate", refuse)
        assert len(list(enumerate_weil(SearchSpec(g=3, q=2)))) == 215


def _surd_at_least(s: Fraction, t: Fraction, d: int, x: Fraction) -> bool:
    """s + t sqrt(d) >= x, decided on rationals."""
    rest = x - s  # need t sqrt(d) >= rest
    if t >= 0:
        return rest <= 0 or t * t * d >= rest * rest
    return rest <= 0 and t * t * d <= rest * rest


class TestFloorSurd:
    @given(
        st.integers(-(10**12), 10**12),
        st.integers(-(10**6), 10**6),
        st.integers(0, 10**6),
        st.integers(1, 10**4),
    )
    def test_against_fractions(self, s, t, d, den):
        f = _floor_surd(s, t, d, den)
        fs, ft = Fraction(s, den), Fraction(t, den)
        assert _surd_at_least(fs, ft, d, Fraction(f))
        assert not _surd_at_least(fs, ft, d, Fraction(f + 1))

    def test_perfect_squares_are_exact(self):
        assert _floor_surd(0, 3, 16) == 12 and _floor_surd(0, -3, 16) == -12
        assert _floor_surd(1, -1, 2) == -1 and _floor_surd(-1, 1, 2) == 0
        assert _floor_surd(-7, 0, 5, 2) == -4
        assert _floor_surd(0, 1, isqrt(10**40) ** 2 + 1) == isqrt(10**40)


class TestLimit:
    def test_zero_yields_nothing(self):
        assert list(enumerate_weil(SearchSpec(g=2, q=3, limit=0))) == []

    def test_one_yields_the_first(self):
        first = next(enumerate_weil(SearchSpec(g=2, q=3)))
        assert list(enumerate_weil(SearchSpec(g=2, q=3, limit=1))) == [first]

    def test_negative_rejected(self):
        with pytest.raises(PreconditionViolation):
            list(enumerate_weil(SearchSpec(g=2, q=3, limit=-5)))


class TestIrreducibleFilter:
    @pytest.mark.parametrize("g, q", [(2, 9), (3, 4)])
    def test_agrees_with_zassenhaus_on_p(self, g, q):
        # the filter reads WeilPolynomial.factors, which factors the trace polynomial
        every = [w.poly for w in enumerate_weil(SearchSpec(g=g, q=q))]
        kept = [w.poly for w in enumerate_weil(SearchSpec(g=g, q=q, irreducible_only=True))]
        assert kept == [f for f in every if is_irreducible(f)]
        assert 0 < len(kept) < len(every)


class TestNonNeatSearch:
    def test_limit_zero_yields_nothing(self):
        assert list(find_non_neat_sextics(3, 9, -1, limit=0)) == []

    def test_limit_counts_emitted_sextics(self):
        found = list(find_non_neat_sextics(3, 9, -1, limit=2))
        assert len(found) == 2 and found[0][0].poly == IntPoly([729, -324, 72, -18, 8, -4, 1])

    @pytest.mark.parametrize("limit", [-1, -2])
    def test_negative_limit_rejected(self, limit):
        with pytest.raises(PreconditionViolation, match="limit"):
            next(find_non_neat_sextics(3, 9, -1, limit=limit))

    @pytest.mark.parametrize("m", [-4, 0, 1, 2])
    def test_m_must_be_negative_squarefree(self, m):
        with pytest.raises(PreconditionViolation, match="negative squarefree"):
            next(find_non_neat_sextics(3, 9, m))

    @pytest.mark.parametrize("p, q, m", [(5, 9, -2), (2, 9, -1), (3, 25, -1), (2, 1, -1)])
    def test_p_must_be_the_characteristic(self, p, q, m):
        with pytest.raises(PreconditionViolation, match="not a power of p"):
            next(find_non_neat_sextics(p, q, m))


class TestRefusals:
    def test_q_must_be_a_square(self):
        with pytest.raises(QNotSquare, match="q = 8 is not a perfect square"):
            next(find_non_neat_sextics(2, 8, -1))

    def test_p_must_not_split(self):
        with pytest.raises(BSplitAtP, match=r"p = 3 splits in Q\(sqrt\(-2\)\)"):
            next(find_non_neat_sextics(3, 9, -2))

    def test_l_must_be_a_non_residue(self):
        with pytest.raises(ResidueConditionFails, match="11 is a quadratic residue mod 5"):
            construct_totally_real_cubic(5, 11)


class TestNonNeatFilter:
    def test_skips_non_integral_polygons(self):
        # the g = 3, q = 4 box has 240 polygons that classify refuses
        found = list(enumerate_weil(SearchSpec(g=3, q=4, non_neat_only=True)))
        assert found and all(_is_integral(newton_polygon(w)) for w in found)
        assert all(not classify_auto(w).neat for w in found)

    def test_sextics_non_neat_over_an_extension(self):
        # six sextics over F_2 carry zeta = G(0)^2 / 8 != 1, so they are non-neat
        # over F_4 or F_16, though neat-looking over F_2
        found = [w.poly.coeffs for w in enumerate_weil(SearchSpec(g=3, q=2, non_neat_only=True))]
        assert sorted(found) == [
            (8, -8, 2, 0, 1, -2, 1),
            (8, -8, 6, -6, 3, -2, 1),
            (8, 0, -2, -2, -1, 0, 1),
            (8, 0, -2, 2, -1, 0, 1),
            (8, 8, 2, 0, 1, 2, 1),
            (8, 8, 6, 6, 3, 2, 1),
        ]


class TestDimension:
    @pytest.mark.parametrize("g", [0, -1])
    def test_rejected_before_walking(self, g):
        with pytest.raises(PreconditionViolation):
            next(enumerate_weil(SearchSpec(g=g, q=3)))


class TestBoundsKeys:
    @pytest.mark.parametrize(
        "g, bounds",
        [(1, {7: 0}), (1, {0: 3}), (1, {2: 1}), (2, {1: 5}), (2, {4: 1, 3: 2}), (3, {6: 0})],
    )
    def test_outside_the_free_coefficients_rejected(self, g, bounds):
        # only a_g..a_(2g-1) are free; a bound on any other index bounds nothing
        with pytest.raises(PreconditionViolation, match="bounds keys"):
            next(enumerate_weil(SearchSpec(g=g, q=3, bounds=bounds)))


def _validated_fourfold_box(bounds):
    """Every g = 4, q = 2 polynomial with |a_i| <= bounds[i], by `validate`."""
    ranges = [range(-bounds[i], bounds[i] + 1) for i in (7, 6, 5, 4)]
    out = []
    for a7, a6, a5, a4 in product(*ranges):
        coeffs = [16, 8 * a7, 4 * a6, 2 * a5, a4, a5, a6, a7, 1]
        try:
            out.append(validate(IntPoly(coeffs), 2).poly)
        except RiemannHypothesisFails:
            pass
    return out


class TestFourfoldBox:
    def test_box_matches_direct_validation(self):
        # g = 4, q = 2, free coefficients a7..a4 each in [-1, 1]
        spec = SearchSpec(g=4, q=2, bounds={7: 1, 6: 1, 5: 1, 4: 1})
        got = [w.poly for w in enumerate_weil(spec)]
        expected = []
        for a7, a6, a5, a4 in product(range(-1, 2), repeat=4):
            coeffs = [16, 8 * a7, 4 * a6, 2 * a5, a4, a5, a6, a7, 1]
            try:
                expected.append(validate(IntPoly(coeffs), 2).poly)
            except RiemannHypothesisFails:
                pass
        assert got == expected
        assert len(got) == 65
        assert IntPoly([16, 0, 0, 0, 0, 0, 0, 0, 1]) in got  # t^8 + 16

    @pytest.mark.parametrize(
        "bounds, count",
        [({7: 2, 6: 3, 5: 2, 4: 4}, 469), ({7: 0, 6: 3, 5: 4, 4: 6}, 243)],
    )
    def test_wider_boxes_match_direct_validation(self, bounds, count):
        got = list(enumerate_weil(SearchSpec(g=4, q=2, bounds=bounds)))
        assert [w.poly for w in got] == _validated_fourfold_box(bounds)
        assert len(got) == count
        assert all(validate(w.poly, 2) == w for w in got)
