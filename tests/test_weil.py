"""Weil polynomial validation, eigenvalue structure, base change."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilrank.errors import (
    FunctionalEquationFails,
    NotMonic,
    NotPrimePower,
    OddDegree,
    RiemannHypothesisFails,
    WeilrankError,
)
import weilrank.weil
from weilrank.exactcore import (
    IntPoly,
    factor_over_integers,
    poly_squarefree_part,
    power_transform,
    prime_power,
    sturm_real_root_count,
)
from weilrank.search import SearchSpec, enumerate_weil
from weilrank.weil import (
    _check_in_range,
    _expand_trace,
    base_change,
    beta_torsion_orders,
    eigenvalue_structure,
    has_unresolved_square_roots,
    ratio_torsion_orders,
    trace_polynomial,
    validate,
)


def P(*coeffs):
    return IntPoly(coeffs)


class TestValidate:
    def test_ordinary_elliptic(self):
        w = validate(P(5, -1, 1), 5)
        assert (w.g, w.p, w.v) == (1, 5, 1)
        assert trace_polynomial(w.poly, 5) == P(-1, 1)

    def test_rh_failure(self):
        # roots (5 +- sqrt(5))/2 are real with absolute value != sqrt(5)
        with pytest.raises(RiemannHypothesisFails):
            validate(P(5, -5, 1), 5)

    def test_reexpansion_is_a_real_check(self, monkeypatch):
        # the re-expansion of the trace polynomial must raise, not assert,
        # so that python -O keeps it
        monkeypatch.setattr(weilrank.weil, "_expand_trace", lambda h, q, g: P(1))
        with pytest.raises(WeilrankError, match="re-expand"):
            validate(P(5, -1, 1), 5)

    def test_functional_equation_failure(self):
        with pytest.raises(FunctionalEquationFails) as exc:
            validate(P(5, -1, 1), 7)
        assert exc.value.index == 0

    def test_supersingular_boundary(self):
        w = validate(P(4, -4, 1), 4)  # (t - 2)^2, trace at the 2 sqrt(q) boundary
        assert w.g == 1
        w2 = validate(P(5, 0, 1), 5)
        assert w2.g == 1

    def test_shape_errors(self):
        with pytest.raises(NotMonic):
            validate(P(5, -1, 2), 5)
        with pytest.raises(NotMonic):
            validate(IntPoly([]), 5)
        with pytest.raises(OddDegree):
            validate(P(0, 1, 1, 1), 5)
        with pytest.raises(NotPrimePower):
            validate(P(6, -1, 1), 6)

    def test_exhaustive_quadratic_box(self):
        # over q = 5 exactly the traces with a^2 <= 20 validate
        good = []
        for a in range(-6, 7):
            try:
                validate(P(5, a, 1), 5)
                good.append(a)
            except RiemannHypothesisFails:
                pass
        assert good == [a for a in range(-6, 7) if a * a <= 20]


def _range_failure_reference(h: IntPoly, q: int):
    """None when every root r of h is real with r^2 <= 4q, else the message.

    The range check goes through H(y) = prod over the roots r of h of
    (y - (4q - r^2)) = (-1)^g u(4q - y), where u has the roots r^2: RH
    needs H to have no negative root.  H is composed by Horner's rule.
    """
    hsf = poly_squarefree_part(h)
    real_count = sturm_real_root_count(hsf)
    if real_count != hsf.degree:
        return f"trace polynomial has {hsf.degree - real_count} non-real root pair(s)"
    u = power_transform(hsf, 2)
    lin = IntPoly([4 * q, -1])
    comp = IntPoly()
    for c in reversed(u.coeffs):
        comp = comp * lin + IntPoly([c])
    big_h = comp if hsf.degree % 2 == 0 else -comp
    hh = poly_squarefree_part(big_h)
    neg = sturm_real_root_count(hh, None, Fraction(0))
    if hh.evaluate(0) == 0:
        neg -= 1
    if neg != 0:
        return f"{neg} root pair(s) exceed absolute value sqrt({q})"
    return None


def _range_failure(h: IntPoly, q: int):
    try:
        _check_in_range(h, q)
    except RiemannHypothesisFails as exc:
        return str(exc)
    return None


@st.composite
def _trace_polynomials(draw):
    """(h, q): monic h of degree 1..5, built from linear and quadratic
    factors whose roots lie near [-2 sqrt(q), 2 sqrt(q)], about a third of
    them inside."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49]))
    reach = 2 * isqrt(4 * q) + 2
    h = IntPoly([1])
    degree = draw(st.integers(1, 5))
    while h.degree < degree:
        if degree - h.degree >= 2 and draw(st.booleans()):
            b = draw(st.integers(-reach, reach))
            c = draw(st.integers(-4 * q - 2, 4 * q + 2))
            h = h * IntPoly([c, b, 1])
        else:
            h = h * IntPoly([-draw(st.integers(-reach, reach)), 1])
    return h, q


class TestRangeCheck:
    @settings(max_examples=400, deadline=None)
    @given(_trace_polynomials())
    def test_against_horner_reference(self, case):
        h, q = case
        assert _range_failure(h, q) == _range_failure_reference(h, q)

    @pytest.mark.parametrize(
        "h, q, inside",
        [
            # q a square: the end points +-2 sqrt(q) are integers
            (P(-4, 1), 4, True),
            (P(4, 1), 4, True),
            (P(-16, 0, 1), 4, True),
            (P(-4, 1) ** 2 * P(4, 1), 4, True),
            (P(-5, 1), 4, False),
            (P(-17, 0, 1), 4, False),
            (P(-6, 1), 9, True),
            (P(7, 1) * P(-6, 1), 9, False),
            # q not a square: the end points are irrational
            (P(-20, 0, 1), 5, True),
            (P(-20, 0, 1) ** 2 * P(0, 1), 5, True),
            (P(-21, 0, 1), 5, False),
            (P(-8, 0, 1), 2, True),
            (P(-4, 1), 5, True),
            (P(-5, 1), 5, False),
            # non-real roots
            (P(1, 0, 1), 5, False),
        ],
    )
    def test_end_points(self, h, q, inside):
        got = _range_failure(h, q)
        assert (got is None) == inside
        assert got == _range_failure_reference(h, q)
        if inside:
            assert validate(_expand_trace(h, q, h.degree), q).g == h.degree
        else:
            with pytest.raises(RiemannHypothesisFails):
                validate(_expand_trace(h, q, h.degree), q)


class TestEigenvalueStructure:
    def test_supersingular_square(self):
        w = validate(P(4, -4, 1), 4)
        es = eigenvalue_structure(w)
        assert es.simple
        c = es.components[0]
        assert (c.pmin, c.e, c.d, c.sqrt_root) == (P(-2, 1), 2, 0, "plus")
        assert es.end_rank == 4

    def test_ordinary(self):
        es = eigenvalue_structure(validate(P(5, -1, 1), 5))
        c = es.components[0]
        assert (c.pmin, c.e, c.d, c.r_count, c.sqrt_root) == (P(5, -1, 1), 1, 1, 2, "none")

    def test_non_simple(self):
        w = validate(P(5, 0, 1) * P(5, -1, 1), 5)
        es = eigenvalue_structure(w)
        assert not es.simple
        assert len(es.components) == 2
        assert es.end_rank == 4

    def test_irrational_both_roots(self):
        w = validate(P(-5, 0, 1) ** 2, 5)
        es = eigenvalue_structure(w)
        c = es.components[0]
        assert c.sqrt_root == "both"
        assert c.d == 0
        assert has_unresolved_square_roots(w)

    def test_rational_both_roots(self):
        w = validate((P(-2, 1) * P(2, 1)) ** 2, 4)
        assert has_unresolved_square_roots(w)
        assert eigenvalue_structure(w).sqrt_root == "both"


class TestBaseChange:
    def test_examples(self):
        w = validate(P(5, 0, 1), 5)
        w2 = base_change(w, 2)
        assert w2.poly == P(25, 10, 1)  # (t + 5)^2
        assert w2.q == 25
        w3 = validate(P(5, -1, 1), 5)
        assert base_change(w3, 2).poly == P(25, 9, 1)
        assert base_change(w3, 1) is w3

    def test_composition(self):
        w = validate(P(5, -1, 1), 5)
        assert base_change(base_change(w, 2), 3).poly == base_change(w, 6).poly

    def test_always_validates(self):
        # multiplicities preserved: degree and functional equation survive
        w = validate(P(9, 3, 1) * P(9, -1, 1), 9)
        for n in (2, 3, 5):
            wn = base_change(w, n)
            assert wn.q == 9**n
            assert wn.poly.degree == 4

    def test_validate_accepts_every_small_box(self):
        # base_change builds its result without validate; validate must agree
        count = 0
        for g in (1, 2):
            for q in (2, 3, 4, 5):
                for w in enumerate_weil(SearchSpec(g=g, q=q)):
                    for n in (2, 3, 4):
                        wn = base_change(w, n)
                        assert validate(wn.poly, wn.q) == wn
                        count += 1
        assert count == 3 * 358

    def test_root_count_preserved(self):
        w = validate(P(5, -1, 1) ** 2, 5)
        wn = base_change(w, 3)
        es = eigenvalue_structure(wn)
        assert es.components[0].e == 2


FACTOR_BOXES = (
    [(1, q) for q in range(2, 50) if prime_power(q)]
    + [(2, q) for q in range(2, 10) if prime_power(q)]
    + [(3, q) for q in (2, 3, 4)]
)


class TestFactorsThroughTrace:
    @pytest.mark.parametrize("g, q", FACTOR_BOXES)
    def test_box_and_its_base_change(self, g, q):
        for w in enumerate_weil(SearchSpec(g=g, q=q)):
            assert w.factors == tuple(factor_over_integers(w.poly))
            w2 = base_change(w, 2)
            assert w2.factors == tuple(factor_over_integers(w2.poly))

    @pytest.mark.parametrize(
        "poly, q, factors",
        [
            # roots +-2 sqrt(q) of h, q a square: x - 2s lifts to (t - s)^2
            (P(4, -4, 1), 4, [(P(-2, 1), 2)]),
            ((P(-2, 1) * P(2, 1)) ** 2, 4, [(P(-2, 1), 2), (P(2, 1), 2)]),
            (P(3, 1) ** 2 * P(9, -1, 1), 9, [(P(3, 1), 2), (P(9, -1, 1), 1)]),
            # q not a square: x^2 - 4q lifts to (t^2 - q)^2
            (P(-5, 0, 1) ** 2, 5, [(P(-5, 0, 1), 2)]),
            (P(-5, 0, 1) ** 2 * P(5, -1, 1) ** 2, 5, [(P(-5, 0, 1), 2), (P(5, -1, 1), 2)]),
            (P(-2, 0, 1) ** 2 * P(4, 2, 3, 1, 1), 2, [(P(-2, 0, 1), 2), (P(4, 2, 3, 1, 1), 1)]),
        ],
    )
    def test_square_roots_of_q(self, poly, q, factors):
        w = validate(poly, q)
        assert w.factors == tuple(factors) == tuple(factor_over_integers(poly))

    def test_factors_the_trace_polynomial(self, monkeypatch):
        factored = []
        real = weilrank.weil.factor_over_integers

        def counting(f):
            factored.append(f)
            return real(f)

        monkeypatch.setattr(weilrank.weil, "factor_over_integers", counting)
        w = validate(P(-5, 0, 1) ** 2 * P(5, -1, 1), 5)
        assert w.factors == ((P(-5, 0, 1), 2), (P(5, -1, 1), 1))
        # h = (x - 1)(x^2 - 20), of half the degree of P
        assert factored == [trace_polynomial(w.poly, 5)] == [P(-1, 1) * P(-20, 0, 1)]

    def test_validate_seeds_the_trace(self):
        w = validate(P(-5, 0, 1) ** 2 * P(5, -1, 1), 5)
        h = trace_polynomial(w.poly, 5)
        assert vars(w)["trace"] == h
        assert vars(w)["trace_squarefree"] == poly_squarefree_part(h)
        w2 = base_change(w, 2)
        assert "trace" not in vars(w2)
        assert w2.trace == trace_polynomial(w2.poly, 25)
        assert w2.trace_squarefree == poly_squarefree_part(w2.trace)


class TestTorsion:
    def test_ratio_orders(self):
        assert set(ratio_torsion_orders(validate(P(5, 0, 1), 5))) == {2}
        assert set(ratio_torsion_orders(validate(P(5, -1, 1), 5))) == set()
        assert set(ratio_torsion_orders(validate(P(4, -4, 1), 4))) == set()

    def test_beta_orders(self):
        assert set(beta_torsion_orders(validate(P(5, 0, 1), 5))) == {2}
        assert set(beta_torsion_orders(validate(P(5, -1, 1), 5))) == set()

    def test_ratio_non_cyclotomic_unit_circle(self):
        # alpha/conj(alpha) for t^2 - t + 5 lies on the unit circle but its
        # minimal polynomial 5t^2 + 9t + 5 is not cyclotomic
        w = validate(P(5, -1, 1), 5)
        assert ratio_torsion_orders(w) == frozenset()

    def test_supersingular_pair_needs_quadratic_extension(self):
        w = validate(P(-5, 0, 1) ** 2, 5)
        assert has_unresolved_square_roots(w)
        assert set(ratio_torsion_orders(w)) == {2}
        wn = base_change(w, 2)
        assert ratio_torsion_orders(wn) == frozenset()
        assert not has_unresolved_square_roots(wn)  # (t-5)^4: plus only
