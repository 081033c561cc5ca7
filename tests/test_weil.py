"""Weil polynomial validation, eigenvalue structure, base change."""

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt
from pathlib import Path

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
    is_perfect_square,
    prime_power,
    squarefree_part,
    sturm_real_root_count,
)
from weilrank.newton import NewtonPolygon, classify_newton, root_valuation_segments
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

from test_classify import _cm_disc


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
        # the peel's zero leftover is what proves P = t^g h(t + q/t), and it
        # raises, not asserts, so that python -O keeps it.  Moving only the
        # constant term leaves every coefficient that the peel reads as it
        # was; the leftover alone sees the change
        poly = P(5, -1, 1) * P(5, -2, 1)
        assert trace_polynomial(poly, 5) == P(-1, 1) * P(-2, 1)
        with pytest.raises(FunctionalEquationFails) as exc:
            trace_polynomial(P(26, *poly.coeffs[1:]), 5)
        assert exc.value.index == 0
        # a peel that subtracts a wrong constant term of (t^2 + q)^2 is caught the same way
        monkeypatch.setattr(weilrank.weil, "comb", lambda k, i: comb(k, i) + ((k, i) == (2, 0)))
        with pytest.raises(FunctionalEquationFails) as exc:
            validate(poly, 5)
        assert exc.value.index == 0

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

    sympy takes the squarefree part of h and isolates its real roots; each
    root r counts once, as one eigenvalue pair, when r^2 - 4q is positive,
    decided exactly when it is zero and at 50 digits otherwise.
    """
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    hsf = sympy.sqf_part(sympy.Poly(list(reversed(h.coeffs)), x))
    roots = sympy.real_roots(hsf)
    if len(roots) != hsf.degree():
        return f"trace polynomial has {hsf.degree() - len(roots)} non-real root pair(s)"
    outside = 0
    for r in roots:
        excess = sympy.expand(r**2 - 4 * q)
        if excess != 0:
            value = excess.evalf(50)
            if abs(value) < 1e-30:
                raise ValueError(f"cannot compare {r}^2 with {4 * q}")
            if value > 0:
                outside += 1
    if outside:
        return f"{outside} root pair(s) exceed absolute value sqrt({q})"
    return None


def _two_chain_in_range(h: IntPoly, q: int) -> bool:
    """The range check that one Sturm chain replaced, kept as a reference:
    the squarefree part hsf of h has deg hsf real roots, and the squares of
    those roots, the roots of power_transform(hsf, 2), have none in (4q, oo)."""
    hsf = poly_squarefree_part(h)
    if sturm_real_root_count(hsf) != hsf.degree:
        return False
    squares = poly_squarefree_part(power_transform(hsf, 2))
    return sturm_real_root_count(squares, 4 * q, None) == 0


def _trace_by_recurrence(poly: IntPoly, q: int) -> IntPoly:
    """h with P(t) = t^g h(t + q/t) through the basis D_k(x) = t^k + (q/t)^k,
    D_0 = 2, D_1 = x, D_k = x D_(k-1) - q D_(k-2): the construction the peel
    replaced, kept as a reference."""
    g = poly.degree // 2
    a = poly.coeffs
    d_prev, d_cur = IntPoly([2]), IntPoly([0, 1])
    h = IntPoly([a[g]])
    for k in range(1, g + 1):
        h = h + a[g + k] * d_cur
        d_prev, d_cur = d_cur, IntPoly([0, 1]) * d_cur - q * d_prev
    return h


def _first_functional_equation_failure(poly: IntPoly, q: int):
    """The least j with a_j != q^(g-j) a_(2g-j), or None: the index that the
    coefficient-wise check, which the peel replaced, raised."""
    a = poly.coeffs
    g = poly.degree // 2
    return next((j for j in range(g) if a[j] != q ** (g - j) * a[2 * g - j]), None)


def _moved(poly: IntPoly, upto: int):
    """poly with one of its coefficients below t^upto moved by -2, -1, 1 or 2."""
    for i in range(upto):
        for step in (-2, -1, 1, 2):
            c = list(poly.coeffs)
            c[i] += step
            yield IntPoly(c)


# the boxes the range check and the peel are compared on: g <= 3 with
# q in {2, 3, 4, 9}, and g <= 2 with q = 25
RANGE_BOXES = [(g, q) for g in (1, 2, 3) for q in (2, 3, 4, 9)] + [(1, 25), (2, 25)]


@lru_cache(maxsize=None)
def _box(g: int, q: int):
    """The Weil polynomials of a box, enumerated once for every test that reads them."""
    return tuple(enumerate_weil(SearchSpec(g=g, q=q)))


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
    def test_against_sympy_reference(self, case):
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

    @pytest.mark.parametrize(
        "h, q, outside",
        [
            (P(-17, 0, 1), 4, 2),
            (P(-21, 0, 1), 5, 2),  # t^4 - 11t^2 + 25: traces +-sqrt(21)
            (P(-21, 0, 1) ** 2 * P(-1, 1), 5, 2),
            (P(-5, 1) * P(4, 1), 4, 1),
            (P(-9, 1), 5, 1),  # t^2 - 9t + 5
        ],
    )
    def test_counts_roots_outside(self, h, q, outside):
        # each distinct root outside the interval is one eigenvalue pair off
        # the circle, also when two of them have the same square
        message = f"{outside} root pair(s) exceed absolute value sqrt({q})"
        assert _range_failure(h, q) == message == _range_failure_reference(h, q)

    @pytest.mark.parametrize("g, q", RANGE_BOXES)
    def test_matches_two_chain_check(self, g, q):
        # every trace polynomial of the box, and each with one coefficient
        # moved; one Sturm chain accepts exactly what the two chains accepted
        traces = [w.trace for w in _box(g, q)]
        if (g, q) == (3, 9):
            traces = traces[::8]  # 17,121 in all; an eighth keeps the test quick
        cases = set(traces)
        for h in traces:
            cases.update(_moved(h, g))
        rejected = 0
        for h in cases:
            accepted = _range_failure(h, q) is None
            assert accepted == _two_chain_in_range(h, q), (h, q)
            rejected += not accepted
        assert 0 < rejected < len(cases) - len(traces) + 1

    @pytest.mark.parametrize("q", [2, 3, 5, 4, 9, 25])
    def test_repeated_and_end_point_roots(self, q):
        # products of up to three factors, repeats allowed, among the end
        # points x -+ 2 sqrt(q) or x^2 - 4q, roots just inside and just
        # outside, and a pair of non-real roots
        s = isqrt(4 * q)
        factors = [P(-4 * q, 0, 1), P(-4 * q - 1, 0, 1), P(-4 * q + 1, 0, 1), P(1, 0, 1)]
        factors += [P(-c, 1) for c in {s + 1, -s - 1, s - 1, 1 - s, 0}]
        if s * s == 4 * q:
            factors += [P(-s, 1), P(s, 1)]
        cases = [IntPoly([1])]
        for _ in range(3):
            cases = [f * g for f in cases for g in factors]
        outcomes = set()
        for h in cases:
            got = _range_failure(h, q)
            assert (got is None) == _two_chain_in_range(h, q), (h, q)
            outcomes.add(got is None)
        assert outcomes == {True, False}


class TestTracePolynomial:
    @pytest.mark.parametrize("g, q", RANGE_BOXES)
    def test_peel_matches_recurrence(self, g, q):
        for w in _box(g, q):
            h = trace_polynomial(w.poly, q)
            assert h == _trace_by_recurrence(w.poly, q)
            assert _expand_trace(h, q, g) == w.poly

    @pytest.mark.parametrize("g, q", [(g, q) for g, q in RANGE_BOXES if (g, q) != (3, 9)])
    def test_functional_equation_index(self, g, q):
        # one coefficient below the top moved: the peel raises at the index
        # the coefficient-wise check gave, and otherwise (a_g moved) its h
        # is the recurrence's
        for w in _box(g, q):
            for poly in _moved(w.poly, 2 * g):
                j = _first_functional_equation_failure(poly, q)
                if j is None:
                    assert trace_polynomial(poly, q) == _trace_by_recurrence(poly, q)
                    continue
                with pytest.raises(FunctionalEquationFails) as exc:
                    trace_polynomial(poly, q)
                assert exc.value.index == j

    def test_validate_uses_neither_transform_nor_reexpansion(self, monkeypatch):
        polys = [(w.poly, q) for g, q in RANGE_BOXES if g <= 2 for w in _box(g, q)]

        def forbidden(*args):
            raise AssertionError("validate called a transform or re-expanded h")

        monkeypatch.setattr(weilrank.weil, "power_transform", forbidden)
        monkeypatch.setattr(weilrank.weil, "_expand_trace", forbidden)
        outcomes = set()
        for poly, q in polys:
            assert validate(poly, q).poly == poly
            for moved in _moved(poly, 2 * (poly.degree // 2)):
                try:
                    validate(moved, q)
                    outcomes.add("valid")
                except (FunctionalEquationFails, RiemannHypothesisFails) as exc:
                    outcomes.add(type(exc).__name__)
        assert outcomes == {"valid", "FunctionalEquationFails", "RiemannHypothesisFails"}


def _end_rank(components) -> int:
    """rank of End(X): multiplicity^2 summed over the distinct roots."""
    return sum(c.r_count * c.e * c.e for c in components)


class TestEigenvalueStructure:
    def test_supersingular_square(self):
        w = validate(P(4, -4, 1), 4)
        assert len(w.components) == 1  # simple
        c = w.components[0]
        assert (c.pmin, c.e, c.d, c.sqrt_root) == (P(-2, 1), 2, 0, "plus")
        assert _end_rank(w.components) == 4
        assert eigenvalue_structure(w) is w.components

    def test_ordinary(self):
        (c,) = validate(P(5, -1, 1), 5).components
        assert (c.pmin, c.e, c.d, c.r_count, c.sqrt_root) == (P(5, -1, 1), 1, 1, 2, "none")

    def test_non_simple(self):
        w = validate(P(5, 0, 1) * P(5, -1, 1), 5)
        assert len(w.components) == 2
        assert _end_rank(w.components) == 4

    def test_irrational_both_roots(self):
        w = validate(P(-5, 0, 1) ** 2, 5)
        c = w.components[0]
        assert c.sqrt_root == "both"
        assert c.d == 0
        assert has_unresolved_square_roots(w)

    def test_rational_both_roots(self):
        w = validate((P(-2, 1) * P(2, 1)) ** 2, 4)
        assert has_unresolved_square_roots(w)
        assert {c.sqrt_root for c in w.components} == {"plus", "minus"}


# -- references: each component's facts worked out apart from the factor loop --


@dataclass(frozen=True)
class _Structure:
    pmin: IntPoly
    e: int
    r_count: int
    d: int
    sqrt_root: str


def _factor_structure_reference(pmin: IntPoly, e: int, q: int) -> _Structure:
    """Pairing structure of one factor of P, recognizing +-sqrt(q) from pmin itself."""
    fixed = 0
    sqrt_root = "none"
    if pmin.degree == 1:
        s = -pmin.coeffs[0]
        if s * s == q:
            fixed = 1
            sqrt_root = "plus" if s > 0 else "minus"
    elif pmin == IntPoly([-q, 0, 1]):
        # irreducible t^2 - q: both square roots, irrational
        fixed = 2
        sqrt_root = "both"
    r = pmin.degree
    if (r - fixed) % 2:
        raise WeilrankError(f"the roots of {pmin} other than +-sqrt(q) do not pair up")
    return _Structure(pmin=pmin, e=e, r_count=r, d=(r - fixed) // 2, sqrt_root=sqrt_root)


def _component_report_reference(c: _Structure, p: int, v: int):
    """(newton_primary, supersingular, cm_disc) of one component, from its own hull."""
    pmin, e = c.pmin, c.e
    segments = root_valuation_segments(pmin, p, v)
    scaled = NewtonPolygon(segments=tuple((s, l * e) for s, l in segments))
    dim2 = pmin.degree * e
    ntype = classify_newton(scaled, dim2 // 2) if dim2 % 2 == 0 else None
    cm_disc = None
    if pmin.degree == 2 and c.sqrt_root == "none":
        cm_disc = squarefree_part(pmin.coeffs[1] ** 2 - 4 * pmin.coeffs[0])
    supersingular = all(s == Fraction(1, 2) for s, _ in segments)
    return ntype.primary if ntype else "odd", supersingular, cm_disc


def _has_unresolved_square_roots_reference(w) -> bool:
    """Both +-sqrt(q) are roots of P, by evaluation or by division by t^2 - q."""
    if is_perfect_square(w.q):
        s = isqrt(w.q)
        return w.poly.evaluate(s) == 0 and w.poly.evaluate(-s) == 0
    _, rem = w.poly.divmod_exact(IntPoly([-w.q, 0, 1]))
    return rem.is_zero


def _sqrt_root_of_whole_reference(structures) -> str:
    seen = {c.sqrt_root for c in structures} - {"none"}
    if not seen:
        return "none"
    if seen == {"plus"}:
        return "plus"
    if seen == {"minus"}:
        return "minus"
    return "both"


COMPONENT_BOXES = [(g, q) for g in (1, 2) for q in range(2, 10) if prime_power(q)] + [
    (3, q) for q in (2, 3, 4)
]
PERFBENCH_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs"


def _bench_inputs():
    for name in ("census", "certify"):
        data = json.loads((PERFBENCH_INPUTS / f"{name}.json").read_text())
        for entry in data["fixed"] + data["pool"]:
            yield validate(IntPoly(entry["coeffs"]), entry["q"])


def _assert_components_match_references(w):
    refs = [_factor_structure_reference(f, e, w.q) for f, e in factor_over_integers(w.poly)]
    comps = w.components
    assert [(c.pmin, c.e, c.r_count, c.d, c.sqrt_root) for c in comps] == [
        (r.pmin, r.e, r.r_count, r.d, r.sqrt_root) for r in refs
    ]
    for c, r in zip(comps, refs):
        assert (c.p, c.v) == (w.p, w.v)
        assert (c.newton_primary, c.supersingular, _cm_disc(c)) == _component_report_reference(
            r, w.p, w.v
        )
    assert _end_rank(comps) == _end_rank(refs)
    assert has_unresolved_square_roots(w) == _has_unresolved_square_roots_reference(w)
    assert has_unresolved_square_roots(w) == (_sqrt_root_of_whole_reference(refs) == "both")


class TestComponentsMatchReferences:
    """The factor loop's one record per component agrees with each fact worked out apart."""

    @pytest.mark.parametrize("g, q", COMPONENT_BOXES)
    def test_box(self, g, q):
        for w in _box(g, q):
            _assert_components_match_references(w)

    def test_census_and_certify_inputs(self):
        count = 0
        for w in _bench_inputs():
            _assert_components_match_references(w)
            count += 1
        assert count == 279 + 289

    def test_references_see_every_square_root_shape(self):
        # plus, minus and both occur in the boxes, so the comparisons above are not vacuous
        seen = {c.sqrt_root for g, q in COMPONENT_BOXES for w in _box(g, q) for c in w.components}
        assert seen == {"none", "plus", "minus", "both"}


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
        assert wn.components[0].e == 2


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
