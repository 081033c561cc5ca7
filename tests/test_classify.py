"""Classification engine: sufficiency, neatness, rank, diagnostics."""

import time
from itertools import combinations_with_replacement, product
from math import lcm, prod

import pytest

import weilrank.classify
import weilrank.exactcore.factor
import weilrank.exactcore.intfactor
import weilrank.subfields
import weilrank.weil

from weilrank.classify import (
    _combined_rank,
    classify,
    classify_auto,
    fourfold_diagnostic,
    sufficiency_degree,
    theorem_diagnostics,
)
from weilrank.errors import (
    DimensionTooLarge,
    NonIntegralPolygon,
    NotSufficientlyLarge,
    OracleDisagreement,
    PreconditionViolation,
)
from weilrank.exactcore import (
    IntPoly,
    cyclotomic_part_orders,
    factor_over_integers,
    power_transform,
    prime_power,
    squarefree_part,
)
from weilrank.exactcore.transforms import _from_power_sums, _power_sums
from weilrank.newton import newton_polygon
from weilrank.relfinder import OracleRank, oracle_rank
from weilrank.search import SearchSpec, enumerate_weil
from weilrank.subfields import _sextic_witness, _trager_split, norm_condition
from weilrank.weil import (
    base_change,
    beta_torsion_orders,
    ratio_torsion_orders,
    trace_polynomial,
    validate,
)


def _is_integral(polygon):
    """Reference: slope * length is an integer on every segment."""
    return all((s * l).denominator == 1 for s, l in polygon.segments)


def P(*coeffs):
    return IntPoly(coeffs)


NON_NEAT = P(729, -324, 72, -18, 8, -4, 1)
# (t^2 - a t + 2^127)(t^2 - 3t + 2^127): Pollard rho on a^2 - 2^129 runs past 60 s
F2_127_PRODUCT = validate(P(2**127, -1178032213966879813, 1) * P(2**127, -3, 1), 2**127)


def _cm_disc(c):
    """Squarefree discriminant of the CM field of a quadratic component, else None."""
    if c.pmin.degree != 2 or c.sqrt_root != "none":
        return None
    return squarefree_part(c.pmin.coeffs[1] ** 2 - 4 * c.pmin.coeffs[0])


def sextic_from_trace(hc, q):
    base = IntPoly([q, 0, 1])
    out = IntPoly()
    for k, c in enumerate(hc):
        out = out + (c * base**k).shift(3 - k)
    return out


class TestSufficiency:
    def test_examples(self):
        assert sufficiency_degree(validate(P(5, 0, 1), 5)) == 2
        assert sufficiency_degree(validate(P(5, -1, 1), 5)) == 1
        assert sufficiency_degree(validate(P(4, -4, 1), 4)) == 1

    def test_lcm_of_orders(self):
        # t^2 + 3t + 3 over F_3: beta is a primitive 6th root of unity
        w = validate(P(3, 3, 1), 3)
        n = sufficiency_degree(w)
        wn = base_change(w, n)
        from weilrank.weil import beta_torsion_orders, ratio_torsion_orders

        assert not ratio_torsion_orders(wn)
        assert not beta_torsion_orders(wn)

    def test_both_square_roots_case(self):
        w = validate(P(-5, 0, 1) ** 2, 5)
        assert sufficiency_degree(w) == 2


SUFFICIENCY_BOXES = (
    [(1, q) for q in range(2, 50) if prime_power(q) is not None]
    + [(2, q) for q in (2, 3, 4, 5, 7, 8, 9)]
    + [(3, 2), (3, 3)]
)


def _zeta_order(w):
    """The order of zeta != 1 of a sextic witness for g = 3, else 1."""
    found = _sextic_witness(w.poly, w.p, w.v, norm_one=False) if w.g == 3 else None
    return found[1] if found else 1


class TestSufficiencyInvariants:
    """Over every Weil polynomial of the boxes (2,396 in all)."""

    @pytest.mark.parametrize("g, q", SUFFICIENCY_BOXES)
    def test_one_base_change_clears_ratio_torsion(self, g, q):
        for w in enumerate_weil(SearchSpec(g=g, q=q)):
            ratio = ratio_torsion_orders(w)
            # beta torsion is ratio torsion, so it adds no order
            assert beta_torsion_orders(w) <= ratio
            n = sufficiency_degree(w)
            assert n == lcm(*ratio, _zeta_order(w))
            wn = base_change(w, n)
            assert not ratio_torsion_orders(wn) and _zeta_order(wn) == 1


def _triple_torsion_orders(w):
    """Reference for zeta: the orders n > 1 of the roots of unity among the
    (a_i a_j a_k)^2 / q^3, i < j < k, over the 20 triples of roots a of a sextic.
    The n-th power sum of the (a_i a_j a_k)^2 is e3 of the a^(2n), that is
    (s^3 - 3 s s' + 2 s'') / 6 for the power sums s, s', s'' of a^(2n), a^(4n)
    and a^(6n), and Newton's identities give the polynomial of degree 20."""
    s = [6, *_power_sums(w.poly, 120)]
    e3 = [(s[2 * n] ** 3 - 3 * s[2 * n] * s[4 * n] + 2 * s[6 * n]) // 6 for n in range(1, 21)]
    triples = _from_power_sums(e3).scale_argument(w.q**3).primitive_part()
    return {n for n in cyclotomic_part_orders(triples) if n > 1}


class TestZetaAgainstTripleProducts:
    """lcm(ratio orders, zeta order) equals lcm(ratio orders, triple orders): the
    one witness per P sees every torsion of a product of three eigenvalues that
    pairwise ratios miss."""

    def _check(self, ws):
        for w in ws:
            ratio = ratio_torsion_orders(w)
            assert lcm(*ratio, _zeta_order(w)) == lcm(*ratio, *_triple_torsion_orders(w)), w

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_g3_boxes(self, q):
        self._check(enumerate_weil(SearchSpec(g=3, q=q)))

    def test_quartic_times_curve_at_25(self):
        quartics = list(enumerate_weil(SearchSpec(g=2, q=25, irreducible_only=True)))
        curves = list(enumerate_weil(SearchSpec(g=1, q=25)))
        self._check(validate(a.poly * b.poly, 25) for a, b in product(quartics, curves))


class TestBaseChangeWithoutFactoring:
    def test_never_factors(self, monkeypatch):
        def refuse(f):
            raise AssertionError(f"factored {f}")

        monkeypatch.setattr(weilrank.weil, "factor_over_integers", refuse)
        cases = [(P(5, 0, 1) * P(5, -1, 1), 5), (NON_NEAT, 9), (P(-5, 0, 1) ** 2, 5)]
        for poly, q in cases + [(P(3, 3, 1) ** 3, 3), (P(2, 0, 1) * P(2, 1, 1) ** 2, 2)]:
            w = validate(poly, q)
            for n in (2, 3, 4, 6):
                assert base_change(w, n).q == q**n

    @pytest.mark.parametrize("g, q", SUFFICIENCY_BOXES)
    def test_equals_factorwise_power_transform(self, g, q):
        # one transform of P carries the multiplicities of its factors
        for w in enumerate_weil(SearchSpec(g=g, q=q)):
            factors = factor_over_integers(w.poly)
            for n in (2, 3, 4, 6):
                expected = prod((power_transform(f, n) ** m for f, m in factors), start=P(1))
                assert base_change(w, n).poly == expected


class TestTorsionOnce:
    def _count_ratio_calls(self, monkeypatch):
        calls = []
        real = weilrank.classify.ratio_torsion_orders

        def counting(w):
            calls.append(w.q)
            return real(w)

        monkeypatch.setattr(weilrank.classify, "ratio_torsion_orders", counting)
        return calls

    def test_torsion_free_field_checked_once(self, monkeypatch):
        calls = self._count_ratio_calls(monkeypatch)
        rep = classify_auto(validate(P(5, -1, 1), 5))
        assert rep.sufficiency_degree == 1 and rep.rank == 1
        assert calls == [5]

    def test_extended_field_checked_once(self, monkeypatch):
        calls = self._count_ratio_calls(monkeypatch)
        rep = classify_auto(validate(P(5, 0, 1), 5))
        assert rep.extension_from == (5, 2)
        assert calls == [5]

    def test_classify_keeps_its_check(self):
        with pytest.raises(NotSufficientlyLarge):
            classify(validate(P(5, 0, 1), 5))

    def test_auto_dimension_cap(self, monkeypatch):
        calls = self._count_ratio_calls(monkeypatch)
        with pytest.raises(DimensionTooLarge):
            classify_auto(validate(P(5, -1, 1) ** 4, 5))
        assert calls == []


class TestSufficientFieldOnce:
    def test_base_change_built_once(self, monkeypatch):
        calls = []
        real = weilrank.classify.base_change

        def counting(w, n):
            calls.append((w.q, n))
            return real(w, n)

        monkeypatch.setattr(weilrank.classify, "base_change", counting)
        # t^2 + 5 over F_5 has a -1 ratio
        rep = classify_auto(validate(P(5, 0, 1) * P(5, -1, 1), 5))
        assert rep.extension_from == (5, 2) and rep.rank == 1
        assert calls == [(5, 2)]
        assert sufficiency_degree(validate(P(5, 0, 1), 5)) == 2
        assert calls == [(5, 2)]

    def test_each_polynomial_factored_once(self, monkeypatch):
        factored, squarefree, slopes = [], [], []
        real_factor = weilrank.weil.factor_over_integers
        real_sf = weilrank.weil.poly_squarefree_part
        real_segments = weilrank.weil.root_valuation_segments

        def counting_factor(f):
            factored.append(f)
            return real_factor(f)

        def counting_sf(f):
            squarefree.append(f)
            return real_sf(f)

        def counting_segments(f, p, v):
            slopes.append(f)
            return real_segments(f, p, v)

        monkeypatch.setattr(weilrank.weil, "factor_over_integers", counting_factor)
        monkeypatch.setattr(weilrank.weil, "poly_squarefree_part", counting_sf)
        monkeypatch.setattr(weilrank.weil, "root_valuation_segments", counting_segments)
        # reading the factors alone computes no component slopes
        assert validate(NON_NEAT, 9).factors == ((NON_NEAT, 1),)
        assert slopes == []
        factored.clear()
        w = validate(P(5, 0, 1) * P(5, -1, 1), 5)
        rep = classify_auto(w, force_oracle=True)
        assert rep.oracle is not None
        # only the base change is factored, once, though the classifier and
        # the oracle both use it; the base change itself never factors w, and
        # P is factored through its trace polynomial, of half the degree
        assert factored == [trace_polynomial(rep.poly, rep.q)]
        # no squarefree part of P is taken: the torsion check reads the
        # symmetric square of P, and the oracle isolates roots on the
        # trace polynomial
        assert squarefree.count(w.poly) == 0
        assert squarefree.count(rep.poly) == 0
        # each component's slopes are computed once, on first read
        labels = [(c.supersingular, c.newton_primary, _cm_disc(c)) for c in rep.components]
        assert labels == [(True, "supersingular", None), (False, "ordinary", -19)]
        assert slopes == [c.pmin for c in rep.components]


NON_INTEGRAL_F4 = P(64, -48, 0, 10, 0, -3, 1)  # polygon {(0,1), (1/4,2), (3/4,2), (1,1)}


class TestNonIntegralPolygon:
    """No abelian variety of dimension g has a polygon with a non-integral segment."""

    def test_example_refused_in_both_entry_points(self):
        w = validate(NON_INTEGRAL_F4, 4)
        assert sufficiency_degree(w) == 1
        for run in (classify, classify_auto):
            with pytest.raises(NonIntegralPolygon, match="slope 1/4 has length 2"):
                run(w)

    @pytest.mark.parametrize("g, count", [(2, 10), (3, 240)])
    def test_every_non_integral_member_of_the_q4_box(self, g, count):
        refused = 0
        for w in enumerate_weil(SearchSpec(g=g, q=4)):
            if _is_integral(newton_polygon(w)):
                continue
            slope = next(s for s, l in newton_polygon(w).segments if (s * l).denominator != 1)
            with pytest.raises(NonIntegralPolygon, match=f"slope {slope} "):
                classify_auto(w)
            if sufficiency_degree(w) == 1:
                with pytest.raises(NonIntegralPolygon, match=f"slope {slope} "):
                    classify(w)
            refused += 1
        assert refused == count


class TestClassifySimple:
    def test_ordinary_elliptic_neat_rank_one(self):
        rep = classify(validate(P(5, -1, 1), 5))
        assert rep.neat and rep.rank == 1 and rep.gamma_rank == 2
        assert rep.newton.primary == "ordinary"
        assert rep.simple

    def test_supersingular_rank_zero(self):
        rep = classify(validate(P(4, -4, 1), 4))
        assert rep.neat and rep.rank == 0
        assert rep.newton.primary == "supersingular"

    def test_non_neat_sextic(self):
        rep = classify(validate(NON_NEAT, 9), force_oracle=True)
        assert not rep.neat
        assert rep.rank == 2
        assert rep.condition_i and rep.condition_ii and rep.condition_iii
        assert rep.witness is not None and rep.witness.m == -1
        assert rep.oracle.rank == 2

    def test_ordinary_sextic_neat_rank_three(self):
        w = validate(sextic_from_trace([-1, -4, 0, 1], 5), 5)
        rep = classify(w, force_oracle=True)
        assert rep.neat and rep.rank == 3
        assert rep.condition_i and not rep.condition_iii
        assert rep.oracle.rank == 3

    def test_insufficient_field_rejected(self):
        with pytest.raises(NotSufficientlyLarge) as exc:
            classify(validate(P(5, 0, 1), 5))
        assert exc.value.degree_needed == 2

    def test_dimension_cap(self):
        w = validate(P(5, -1, 1) ** 4, 5)
        with pytest.raises(DimensionTooLarge):
            classify(w)

    def test_auto_extension_records_field(self):
        rep = classify_auto(validate(P(5, 0, 1), 5))
        assert rep.extension_from == (5, 2)
        assert rep.q == 25
        assert rep.rank == 0 and rep.neat

    def test_simple_repeated_factor(self):
        # (t^2 - t + 5)^3: simple threefold with e = 3, rank 1
        rep = classify(validate(P(5, -1, 1) ** 3, 5))
        assert rep.simple and rep.neat and rep.rank == 1


class TestClassifyProducts:
    def test_two_distinct_elliptics(self):
        w = validate(P(5, -1, 1) * P(5, -2, 1), 5)
        rep = classify(w, force_oracle=True)
        assert rep.neat and rep.rank == 2
        assert rep.oracle is not None and rep.oracle.rank == 2

    def test_same_cm_field_collapses(self):
        # t^2 - t + 5 and t^2 + t + 5 share Q(sqrt(-19)) but differ by the
        # sign twist, which is torsion over F_5; go up once first
        w = base_change(validate(P(5, -1, 1) * P(5, 1, 1), 5), 2)
        rep = classify(w, force_oracle=True)
        assert rep.rank == 1 and rep.oracle.rank == rep.rank

    def test_supersingular_factor_adds_nothing(self):
        w = base_change(validate(P(5, 0, 1) * P(5, -1, 1), 5), 2)
        rep = classify(w, force_oracle=True)
        assert rep.rank == 1 and rep.neat and rep.oracle.rank == rep.rank

    @pytest.mark.parametrize(
        "q, traces",
        [(5, (1, 2, 3)), (7, (1, 2, 3)), (7, (2, 3, 5)), (9, (1, 2, 4)), (9, (2, 4, 5))],
        ids=["F5", "F7-a", "F7-b", "F9-a", "F9-b"],
    )
    def test_three_distinct_cm_fields(self, q, traces, monkeypatch):
        # three ordinary elliptic curves t^2 - a t + q with pairwise distinct
        # CM fields: rank 3 by theorem, and the oracle agrees
        w = validate(P(q, -traces[0], 1) * P(q, -traces[1], 1) * P(q, -traces[2], 1), q)
        rep = classify(w, force_oracle=True)
        assert len({_cm_disc(c) for c in rep.components}) == 3
        assert rep.neat and rep.rank == 3
        assert rep.oracle is not None and rep.oracle.rank == 3
        wrong = OracleRank(rank=2, confidence=rep.oracle.confidence, lattice=rep.oracle.lattice)
        monkeypatch.setattr(weilrank.classify, "oracle_rank", lambda *a, **k: wrong)
        with pytest.raises(OracleDisagreement):
            classify(w, force_oracle=True)

    def test_g3_products_always_neat(self):
        w = validate(P(5, -1, 1) * P(5, -2, 1) * P(5, -4, 1), 5)
        rep = classify_auto(w)
        assert rep.neat

    def test_elliptic_times_quartic(self):
        # quartic CM surface x ordinary elliptic over F_5
        quartic = P(25, -5, 6, -1, 1)  # t^4 - t^3 + 6t^2 - 5t + 25
        w = validate(quartic * P(5, -1, 1), 5)
        rep = classify_auto(w, force_oracle=True)
        assert rep.neat
        assert rep.oracle is not None and rep.rank == rep.oracle.rank


def _ordinary_curve_products():
    """Every product of two or three ordinary elliptic curves over F_q, q <= 9: the
    members of the g = 2 and g = 3 boxes whose factors are all ordinary curves."""
    for q in filter(prime_power, range(2, 10)):
        p = prime_power(q)[0]
        curves = [w.poly for w in enumerate_weil(SearchSpec(g=1, q=q)) if w.poly.coeffs[1] % p]
        for n in (2, 3):
            for factors in combinations_with_replacement(curves, n):
                yield validate(prod(factors, start=P(1)), q)


class TestProductsFactorNoInteger:
    """The product rule compares CM fields by square class, so classifying a
    product of ordinary curves factors no integer once it is validated."""

    def test_classify_auto_never_calls_factor_int(self, monkeypatch):
        products = [*_ordinary_curve_products(), F2_127_PRODUCT]
        assert len(products) == 732

        def refuse(n):
            raise AssertionError(f"factor_int({n}) called")

        monkeypatch.setattr(weilrank.exactcore.intfactor, "factor_int", refuse)
        reports = [classify_auto(w) for w in products]
        monkeypatch.undo()
        for w, rep in zip(products, reports):
            assert rep.rank == oracle_rank(base_change(w, rep.sufficiency_degree)).rank, w


    def test_quartic_times_curve_lifted_to_f9_61(self, monkeypatch):
        # (t^2 - 2t + 9)(t^4 - 2t^3 - 3t^2 - 18t + 81) over F_(9^61): the quartic's R is a
        # square, and its subfields, named by T - 2r and (T - 2r) disc(h), meet the curve's
        # CM field by square class, where their squarefree parts took a 197-bit factor_int
        w = base_change(validate(P(729, -324, 90, -30, 10, -4, 1), 9), 61)

        def refuse(n):
            raise AssertionError(f"factored {n}")

        monkeypatch.setattr(weilrank.subfields, "squarefree_part", refuse)
        monkeypatch.setattr(weilrank.exactcore.intfactor, "factor_int", refuse)
        start = time.perf_counter()
        assert classify_auto(w).rank == 2
        assert time.perf_counter() - start < 1


class TestTracePolynomialsSkipZassenhaus:
    """For g <= 3 the trace polynomial is monic of degree <= 3 and factors by its
    integer roots, so no verdict and no oracle run reaches the Zassenhaus pipeline."""

    def test_boxes_and_three_curves_over_f2_127(self, monkeypatch):
        def refuse(f):
            raise AssertionError(f"Zassenhaus ran on {f}")

        monkeypatch.setattr(weilrank.exactcore.factor, "_choose_prime", refuse)
        members, checked = 0, 0
        for g in (1, 2, 3):
            for q in (2, 3, 4):
                for w in enumerate_weil(SearchSpec(g=g, q=q)):
                    w = validate(w.poly, q)
                    assert w.components
                    members += 1
                    try:
                        rep = classify_auto(w)
                    except NonIntegralPolygon:  # no abelian variety has these eigenvalues
                        continue
                    assert oracle_rank(base_change(w, rep.sufficiency_degree)).rank == rep.rank, w
                    checked += 1
        assert (members, checked) == (2753, 2503)
        # (t^2 - t + q)(t^2 - 3t + q)(t^2 - 5t + q): the trace cubic (x - 1)(x - 3)(x - 5)
        q = 2**127
        w = validate(P(q, -1, 1) * P(q, -3, 1) * P(q, -5, 1), q)
        assert len(w.components) == 3
        rep = classify_auto(w)
        assert (rep.sufficiency_degree, rep.rank) == (1, 3)
        assert oracle_rank(w).rank == 3


def _quartic_elliptic_products(q):
    """(w, wn, cf): each product of a simple quartic and an elliptic curve over
    F_q that is one quartic and one ordinary curve over F_(q^n), n the
    sufficiency degree of w; wn is w over F_(q^n), and cf the split of the
    quartic over the curve's CM field there, or None.  The reference for the
    collapse rule: the curve's field lies in the quartic's when cf exists."""
    quartics = list(enumerate_weil(SearchSpec(g=2, q=q, irreducible_only=True)))
    curves = list(enumerate_weil(SearchSpec(g=1, q=q)))
    splits = {}
    for a, b in product(quartics, curves):
        w = validate(a.poly * b.poly, q)
        wn = base_change(w, sufficiency_degree(w))
        active = [c for c in wn.components if not c.supersingular]
        quartic = [c.pmin for c in active if c.pmin.degree == 4 and c.e == 1]
        fields = [_cm_disc(c) for c in active if c.pmin.degree == 2]
        if len(quartic) == len(fields) == 1:
            key = (quartic[0], fields[0])
            if key not in splits:
                splits[key] = _trager_split(*key)
            yield w, wn, splits[key]


class TestCollapseRule:
    """A quartic x elliptic product collapses to rank 2 exactly when the
    curve's CM field lies in the quartic's: the relative norm is never 1."""

    PRODUCTS = {2: 16, 3: 72, 4: 136, 5: 416, 7: 1080, 8: 1120, 9: 1360}

    @pytest.mark.parametrize("q, count", [(2, 0), (3, 0), (4, 0), (5, 0), (7, 0), (8, 8), (9, 16)])
    def test_norm_never_one(self, q, count, monkeypatch):
        products = list(_quartic_elliptic_products(q))
        assert len(products) == self.PRODUCTS[q]

        def refuse(f, m):
            raise AssertionError(f"factored {f} over Q(sqrt({m}))")

        # the product rule, which factors nothing, against the reference split
        monkeypatch.setattr(weilrank.subfields, "_trager_split", refuse)
        for _, wn, cf in products:
            assert (_combined_rank(wn.components, wn) == 2) == (cf is not None), wn
        monkeypatch.undo()
        found = [x for x in products if x[2] is not None]
        assert len(found) == count
        assert not any(norm_condition(cf, wn.q) for _, wn, cf in found)
        for w, _, _ in found:
            if q == 8:  # each quartic has slopes 1/3 and 2/3 of length one
                with pytest.raises(NonIntegralPolygon):
                    classify_auto(w)
            else:
                rep = classify_auto(w, force_oracle=True)
                assert rep.rank == 2 and rep.oracle.rank == 2


class TestOracleAgreement:
    """`classify_auto` against the oracle on every member of the g <= 3 boxes:
    the oracle check raises nothing, so the classifier and the oracle agree."""

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_every_member_of_the_boxes(self, q):
        for g in (1, 2, 3):
            for w in enumerate_weil(SearchSpec(g=g, q=q)):
                try:
                    classify_auto(w, force_oracle=True)
                except NonIntegralPolygon:
                    pass


# g = 3 members of the F_7 and F_8 boxes on which `_refine` once refused a Newton step that
# rounded to 0 on the bracket end a sign had just moved there, and then ran out of steps
BRACKET_END_SEXTICS = [
    (7, (343, -98, -42, 32, -6, -2, 1)),
    (7, (343, -49, -21, 34, -3, -1, 1)),
    (7, (343, 49, -21, -34, -3, 1, 1)),
    (7, (343, 98, -42, -32, -6, 2, 1)),
    (8, (512, -128, -48, 43, -6, -2, 1)),
    (8, (512, 128, -48, -43, -6, 2, 1)),
]


class TestNewtonStepOnBracketEnd:
    """Beyond the q <= 5 boxes of `TestOracleAgreement`: the oracle refines these roots,
    refuses the field, which has torsion, and agrees with the theorem after the extension."""

    @pytest.mark.parametrize("q, coeffs", BRACKET_END_SEXTICS)
    def test_oracle_refuses_the_field_and_agrees_after_it(self, q, coeffs):
        w = validate(P(*coeffs), q)
        assert sufficiency_degree(w) == 3
        with pytest.raises(PreconditionViolation, match="saturated relation"):
            oracle_rank(w)
        rep = classify_auto(w, force_oracle=True)
        assert rep.rank == rep.oracle.rank == 2


# the sextics over F_2 on which eigenvalue torsion beyond pairwise ratios once went
# unseen, with the order of their zeta, and the product over F_25 that has zeta = -1
ZETA_SEXTICS = {
    (8, -8, 2, 0, 1, -2, 1): 2,
    (8, 8, 2, 0, 1, 2, 1): 2,
    (8, -8, 6, -6, 3, -2, 1): 4,
    (8, 8, 6, 6, 3, 2, 1): 4,
    (8, 0, -2, -2, -1, 0, 1): 4,
    (8, 0, -2, 2, -1, 0, 1): 4,
}
F25_PRODUCT = validate(P(625, -100, 35, -4, 1) * P(25, -8, 1), 25)


class TestTripleProductTorsion:
    """zeta = G(0)^2 / q^3 of a witness P = G conj(G) sets the field, and the
    rank there is 2, as the oracle confirms."""

    @pytest.mark.parametrize("coeffs", sorted(ZETA_SEXTICS))
    def test_sextics_over_f2(self, coeffs):
        w = validate(P(*coeffs), 2)
        assert not ratio_torsion_orders(w)
        assert sufficiency_degree(w) == ZETA_SEXTICS[coeffs]
        rep = classify_auto(w, force_oracle=True)
        assert not rep.neat and rep.rank == 2 and rep.oracle.rank == 2
        assert rep.witness is not None and rep.witness.expand() == rep.poly

    def test_product_over_f25(self):
        assert not ratio_torsion_orders(F25_PRODUCT)
        assert sufficiency_degree(F25_PRODUCT) == 2
        rep = classify_auto(F25_PRODUCT, force_oracle=True)
        assert rep.q == 625 and rep.neat and rep.rank == 2 and rep.oracle.rank == 2


def _refuse_oracle(*args, **kwargs):
    raise AssertionError("oracle_rank called")


class TestTheoremOnly:
    """Without `force_oracle` no verdict calls the oracle."""

    def test_classify_and_classify_auto(self, monkeypatch):
        monkeypatch.setattr(weilrank.classify, "oracle_rank", _refuse_oracle)
        three_curves = validate(P(5, -1, 1) * P(5, -2, 1) * P(5, -3, 1), 5)
        zeta_sextic = validate(P(*sorted(ZETA_SEXTICS)[0]), 2)
        simple = [validate(NON_NEAT, 9), validate(P(5, -1, 1), 5), zeta_sextic]
        for w in simple + [F25_PRODUCT, F2_127_PRODUCT, three_curves]:
            assert classify_auto(w).oracle is None
            if sufficiency_degree(w) == 1:
                assert classify(w).oracle is None

    @pytest.mark.parametrize("e", [89, 127])
    @pytest.mark.parametrize("traces", [(-1, 3, 5), (1, 3, 5)])
    def test_three_curves_at_large_q(self, e, traces, monkeypatch):
        # the theorem alone: the oracle is never called
        monkeypatch.setattr(weilrank.classify, "oracle_rank", _refuse_oracle)
        q = 2**e
        w = validate(prod((P(q, -r, 1) for r in traces), start=P(1)), q)
        rep = classify_auto(w)
        assert rep.sufficiency_degree == 1 and rep.neat and rep.rank == 3


class TestRankInvariance:
    def test_rank_stable_under_base_change(self):
        for poly, q in [(P(5, -1, 1), 5), (NON_NEAT, 9), (P(4, -4, 1), 4)]:
            w = validate(poly, q)
            r0 = classify(w).rank
            for n in (2, 3):
                assert classify(base_change(w, n)).rank == r0

    def test_verdict_stable_under_extension(self):
        w = validate(NON_NEAT, 9)
        base = classify(w)
        for n in (2, 3):
            rep = classify(base_change(w, n))
            assert rep.neat == base.neat and rep.rank == base.rank


class TestDiagnostics:
    def test_inert_subfield_on_non_neat(self):
        diag = theorem_diagnostics(validate(NON_NEAT, 9))
        assert diag.contradictions == ()
        assert len(diag.inert_subfield) == 1
        chk = diag.inert_subfield[0]
        assert chk["p_splitting"] == "inert"
        assert chk["norm_is_one"] and chk["rank"] == 2 < chk["pair_count"]

    def test_slope_parity_on_ordinary_sextic(self):
        w = validate(sextic_from_trace([-1, -4, 0, 1], 5), 5)
        diag = theorem_diagnostics(w)
        assert diag.slope_parity is not None
        assert diag.slope_parity["consistent"]
        assert diag.contradictions == ()

    def test_product_collapse_reporting(self):
        # an absolutely simple, almost-ordinary surface over F_25 whose CM
        # field Q(i, sqrt(-19)) contains Q(i), with p = 5 split in Q(i) and a
        # non-torsion relative norm, times an ordinary elliptic curve with CM
        # by Q(i): the elliptic factor adds no rank
        quartic = P(625, -100, 35, -4, 1)
        w = validate(quartic * P(25, -6, 1), 25)
        rep = classify_auto(w, force_oracle=True)
        assert rep.oracle.rank == rep.rank
        # the premise holds over the field classify_auto chose
        quartics = [c for c in rep.components if c.pmin.degree == 4]
        quadratics = [c for c in rep.components if c.pmin.degree == 2]
        assert len(rep.components) == 2
        assert len(quartics) == 1 and quartics[0].e == 1
        assert len(quadratics) == 1 and _cm_disc(quadratics[0]) == -1
        assert rep.rank == 2  # collapsed from 2 + 1
        diag = theorem_diagnostics(base_change(w, rep.extension_from[1]))
        assert diag.product_collapse is not None
        assert diag.product_collapse["collapsed_by_one"]
        shared = diag.product_collapse["shared_field"]
        assert shared is not None and shared["m"] == -1
        assert shared["p_splits"] == "split"
        assert diag.contradictions == ()


class TestFourfold:
    def test_requires_g4(self):
        with pytest.raises(PreconditionViolation):
            fourfold_diagnostic(validate(P(5, -1, 1), 5))

    def test_reducible_plumbing(self):
        w = validate(P(5, -1, 1) ** 2 * P(5, -2, 1) ** 2, 5)
        diag = fourfold_diagnostic(w)
        assert len(diag.decomposition) == 2
        assert diag.oracle.rank == 2
        assert not diag.rank_is_three

    def test_non_neat_threefold_times_elliptic(self):
        w3 = base_change(validate(NON_NEAT, 9), 2)  # non-neat threefold over F_81
        w = validate(w3.poly * P(81, -5, 1), 81)
        diag = fourfold_diagnostic(w)
        assert diag.oracle.rank == 3
        assert diag.rank_is_three
        assert diag.non_neat_threefold_component
        assert diag.quadratic_subfield_in_component
