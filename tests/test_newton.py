"""Newton polygons and slope classification."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilrank.errors import PreconditionViolation, WeilrankError
from weilrank.exactcore import IntPoly
from weilrank.newton import (
    NEWTON_LABELS,
    NewtonPolygon,
    NewtonType,
    classify_newton,
    newton_polygon,
    root_valuation_segments,
    slope_divisibility_check,
)
from weilrank.search import SearchSpec, enumerate_weil
from weilrank.weil import WeilPolynomial, base_change, validate


def _is_integral(polygon):
    """Reference: slope * length is an integer on every segment."""
    return all((s * l).denominator == 1 for s, l in polygon.segments)


def P(*coeffs):
    return IntPoly(coeffs)


def seg(*pairs):
    return tuple((Fraction(a, b), l) for (a, b), l in pairs)


class TestPolygon:
    def test_ordinary_elliptic(self):
        np_ = newton_polygon(validate(P(5, -1, 1), 5))
        assert np_.segments == seg(((0, 1), 1), ((1, 1), 1))

    def test_supersingular_elliptic(self):
        np_ = newton_polygon(validate(P(5, 0, 1), 5))
        assert np_.segments == seg(((1, 2), 2),)

    def test_prime_power_normalization(self):
        # q = 4 = 2^2: ord normalized so ord(4) = 1
        np_ = newton_polygon(validate(P(4, -4, 1), 4))
        assert np_.segments == seg(((1, 2), 2),)
        np2 = newton_polygon(validate(P(4, -1, 1), 4))
        assert np2.segments == seg(((0, 1), 1), ((1, 1), 1))

    def test_almost_ordinary_sextic(self):
        w = validate(P(729, -324, 72, -18, 8, -4, 1), 9)
        np_ = newton_polygon(w)
        assert np_.segments == seg(((0, 1), 2), ((1, 2), 2), ((1, 1), 2))

    def test_zero_coefficient_omitted(self):
        # t^2 + 5 has a zero linear coefficient; the hull skips that point
        np_ = newton_polygon(validate(P(5, 0, 1), 5))
        assert np_.total_length == 2

    def test_invariants_on_mixed_product(self):
        w = validate(P(9, 3, 1) * P(9, -1, 1) * P(9, 1, 1), 9)
        np_ = newton_polygon(w)
        assert np_.total_length == 6
        for s, l in np_.segments:
            assert np_.length(1 - s) == l
            assert (s * l).denominator == 1

    def test_validation_error_paths(self):
        with pytest.raises(PreconditionViolation):
            NewtonPolygon(segments=((Fraction(2), 1),))
        with pytest.raises(PreconditionViolation):
            NewtonPolygon(segments=((Fraction(1, 2), 0),))
        with pytest.raises(PreconditionViolation):
            NewtonPolygon(segments=((Fraction(1, 2), 2), (Fraction(0), 2)))
        with pytest.raises(PreconditionViolation, match="strictly increasing"):
            NewtonPolygon(segments=((Fraction(1, 2), 1), (Fraction(2, 4), 1)))


class TestClassify:
    def test_overlapping_labels_g1(self):
        np_ = newton_polygon(validate(P(5, -1, 1), 5))
        t = classify_newton(np_, 1)
        assert t.labels == {"ordinary", "k3_type"}
        assert t.primary == "ordinary"

    def test_supersingular(self):
        np_ = newton_polygon(validate(P(5, 0, 1), 5))
        assert classify_newton(np_, 1).primary == "supersingular"

    def test_almost_ordinary(self):
        np_ = NewtonPolygon(
            segments=((Fraction(0), 2), (Fraction(1, 2), 2), (Fraction(1), 2))
        )
        assert classify_newton(np_, 3).primary == "almost_ordinary"

    def test_k3_type(self):
        np_ = NewtonPolygon(
            segments=((Fraction(0), 1), (Fraction(1, 2), 4), (Fraction(1), 1))
        )
        t = classify_newton(np_, 3)
        assert t.labels == {"k3_type"}

    def test_other(self):
        np_ = NewtonPolygon(
            segments=((Fraction(1, 3), 3), (Fraction(2, 3), 3))
        )
        assert classify_newton(np_, 3).primary == "other"


class TestInvariantsAndDivisibility:
    def test_slope_divisibility(self):
        ss = NewtonPolygon(segments=((Fraction(1, 2), 2),))
        assert slope_divisibility_check(ss, 2)
        ao = NewtonPolygon(
            segments=((Fraction(0), 2), (Fraction(1, 2), 2), (Fraction(1), 2))
        )
        assert slope_divisibility_check(ao, 2)
        assert not slope_divisibility_check(ao, 4)

    def test_polygon_stable_under_base_change(self):
        for coeffs, q in [((5, -1, 1), 5), ((9, 3, 1), 9), ((4, -4, 1), 4)]:
            w = validate(P(*coeffs), q)
            np0 = newton_polygon(w)
            for n in (2, 3):
                assert newton_polygon(base_change(w, n)).segments == np0.segments

    def test_ordinary_iff_unit_trace_g1(self):
        for q, p in [(5, 5), (9, 3), (8, 2)]:
            for a in range(-7, 8):
                try:
                    w = validate(P(q, a, 1), q)
                except Exception:
                    continue
                labels = classify_newton(newton_polygon(w), 1).labels
                assert ("ordinary" in labels) == (a % p != 0)

    def test_slope_denominator_bound(self):
        # slopes 1/3, 2/3 hit the denominator-equals-g extreme: two slopes only
        w = validate(P(512, 0, 0, 8, 0, 0, 1), 8)
        np_ = newton_polygon(w)
        assert np_.segments == seg(((1, 3), 3), ((2, 3), 3))
        assert _is_integral(np_)
        for s, _ in np_.segments:
            if s not in (Fraction(1, 2),):
                assert s.denominator <= 3

    def test_formal_ghost_polygon(self):
        # t^2 + 2t + 8 over F_8 passes the root-modulus test but its polygon
        # {1/3, 2/3} with unit lengths cannot belong to an abelian variety
        w = validate(P(8, 2, 1), 8)
        np_ = newton_polygon(w)
        assert np_.segments == seg(((1, 3), 1), ((2, 3), 1))
        assert not _is_integral(np_)
        assert classify_newton(np_, 1).primary == "other"


def _fraction_segments(poly, p, v):
    """Root valuations from the lower hull of the points (i, ord_p(a_i)/v),
    built on `Fraction`s, with the lengths of equal slopes added up."""
    pts = []
    for i, c in enumerate(poly.coeffs):
        if c:
            k = 0
            while c % p == 0:
                c //= p
                k += 1
            pts.append((i, Fraction(k, v)))
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    counts = {}
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = -Fraction(y2 - y1, x2 - x1)
        counts[slope] = counts.get(slope, 0) + (x2 - x1)
    return tuple(sorted(counts.items()))


# a coefficient: zero, or a unit-ish integer times a power of p
_terms = st.lists(
    st.one_of(st.just(None), st.tuples(st.integers(-40, 40).filter(bool), st.integers(0, 14))),
    min_size=1,
    max_size=10,
)


class TestIntegerHull:
    @settings(max_examples=300, deadline=None)
    @given(_terms, st.sampled_from([2, 3, 5, 7]), st.integers(1, 4))
    def test_matches_fraction_hull(self, terms, p, v):
        poly = IntPoly([0 if t is None else t[0] * p ** t[1] for t in terms])
        assert root_valuation_segments(poly, p, v) == _fraction_segments(poly, p, v)

    def test_collinear_points_make_one_segment(self):
        # 8 + 4t + 2t^2 + t^3 at p = 2: four collinear points, three roots of valuation 1
        assert root_valuation_segments(P(8, 4, 2, 1), 2, 1) == seg(((1, 1), 3))
        assert root_valuation_segments(P(8, 4, 2, 1), 2, 3) == seg(((1, 3), 3))
        assert root_valuation_segments(P(1, 2, 4, 8), 2, 1) == seg(((-1, 1), 3))
        assert root_valuation_segments(P(7), 7, 1) == ()


def _fraction_newton_type(segments, g):
    """Slope-pattern labels from sets of `Fraction` slopes, as `classify_newton` states them."""
    slopes = {s for s, _ in segments}
    length = dict(segments)
    zero, half, one = Fraction(0), Fraction(1, 2), Fraction(1)
    labels = set()
    if slopes == {zero, one}:
        labels.add("ordinary")
    if slopes == {half}:
        labels.add("supersingular")
    if slopes == {zero, half, one} and length[half] == 2:
        labels.add("almost_ordinary")
    if slopes <= {zero, half, one} and length.get(zero) == 1 and length.get(one) == 1:
        labels.add("k3_type")
    labels = labels or {"other"}
    return NewtonType(frozenset(labels), next(l for l in NEWTON_LABELS if l in labels))


class TestAgainstFractionReference:
    @pytest.mark.parametrize("g, q", [(g, q) for g in (1, 2, 3) for q in (2, 3, 4, 5)])
    def test_boxes_and_base_changes(self, g, q):
        for w in enumerate_weil(SearchSpec(g=g, q=q)):
            for n in (1, 2, 3):
                wn = base_change(w, n)
                np_ = newton_polygon(wn)
                assert np_.segments == _fraction_segments(wn.poly, wn.p, wn.v)
                assert classify_newton(np_, g) == _fraction_newton_type(np_.segments, g)

    def test_hand_built_polygons(self):
        cases = [
            seg(((0, 1), 2), ((1, 2), 2), ((1, 1), 2)),
            seg(((0, 1), 1), ((1, 2), 4), ((1, 1), 1)),
            seg(((1, 3), 3), ((2, 3), 3)),
            seg(((0, 1), 1), ((1, 3), 3), ((2, 3), 3), ((1, 1), 1)),
            seg(((1, 2), 2),),
            seg(((0, 1), 3), ((1, 1), 3)),
            seg(((0, 1), 1), ((1, 1), 2)),
            seg(((0, 1), 1), ((1, 2), 3)),
        ]
        for segments in cases:
            np_ = NewtonPolygon(segments=segments)
            assert classify_newton(np_, 3) == _fraction_newton_type(segments, 3)


def _unchecked(coeffs, q, p, v, g):
    """A WeilPolynomial built without `validate`, so its polygon can break the rules."""
    return WeilPolynomial(poly=IntPoly(coeffs), q=q, p=p, v=v, g=g)


class TestPolygonChecks:
    def test_length_is_not_2g(self):
        with pytest.raises(WeilrankError, match="length is not 2g"):
            newton_polygon(_unchecked((5, -1, 1), 5, 5, 1, 2))
        with pytest.raises(WeilrankError, match="length is not 2g"):
            newton_polygon(_unchecked((25, -10, 11, -2, 1), 5, 5, 1, 1))
        # a zero constant term drops the point at 0: length 1 for degree 2
        with pytest.raises(WeilrankError, match="length is not 2g"):
            newton_polygon(_unchecked((0, 1, 1), 5, 5, 1, 1))

    def test_slope_symmetry(self):
        # t^2 + 25 over F_5: slope 1 of length 2, and no slope 0
        with pytest.raises(WeilrankError, match="slope symmetry violated"):
            newton_polygon(_unchecked((25, 0, 1), 5, 5, 1, 1))
        # slopes 0, 1/3 and 1 of lengths 1, 3 and 2 over F_8: the ends differ in length
        with pytest.raises(WeilrankError, match="slope symmetry violated"):
            newton_polygon(_unchecked((2**9, 2**8, 2**7, 2**6, 2**5, 1, 1), 8, 2, 3, 3))

    def test_odd_half_slope_length(self):
        # the other slopes pair up, so an odd length at slope 1/2 leaves an odd total or a
        # lone slope: (t - 1)(t - 5) over F_25 has slopes 0 and 1/2 of length one
        with pytest.raises(WeilrankError, match="slope symmetry violated"):
            newton_polygon(_unchecked((5, -6, 1), 25, 5, 2, 1))
        # t + 5 over F_25: one root of slope 1/2
        with pytest.raises(WeilrankError, match="length is not 2g"):
            newton_polygon(_unchecked((5, 1), 25, 5, 2, 1))

    def test_slopes_outside_the_unit_interval(self):
        # 1 + 2t + 4t^2 at p = 2: root valuations -1, as the constructor refuses
        with pytest.raises(PreconditionViolation, match="lie in"):
            newton_polygon(_unchecked((1, 2, 4), 2, 2, 1, 1))
