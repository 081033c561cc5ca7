"""Imaginary quadratic subfields, conjugate factorizations, norm condition."""

from fractions import Fraction

import pytest

from weilrank.errors import NotIrreducible, NotSextic, PreconditionViolation
from weilrank.exactcore import IntPoly
from weilrank.subfields import (
    ConjugateFactorization,
    QuadraticElement,
    conjugate_factorizations,
    conjugate_split,
    cubic_resolvent_is_galois,
    elliptic_cm_field,
    norm_condition,
    norm_one_witness,
    p_splits,
    quadratic_subfields,
)
from weilrank.weil import validate


def P(*coeffs):
    return IntPoly(coeffs)


def QE(a0, a1, m):
    return QuadraticElement(Fraction(a0), Fraction(a1), m)


# a sextic with a Q(i)-factorization: (t^3 + 3t - 27)^2 + t^4, built from
# G = t^3 + i t^2 + 3t - 27 (the product with its conjugate)
ROUND_TRIP = P(-27, 3, 0, 1) * P(-27, 3, 0, 1) + P(0, 0, 0, 0, 1)

# the first non-neat sextic the search finds over F_9
NON_NEAT = P(729, -324, 72, -18, 8, -4, 1)


class TestQuadraticElement:
    def test_arithmetic_closed(self):
        a = QE(1, 2, -1)
        b = QE(3, -1, -1)
        assert a + b == QE(4, 1, -1)
        assert a * b == QE(1 * 3 + 2 * (-1) * (-1), 1 * (-1) + 2 * 3, -1)
        assert a.conjugate() == QE(1, -2, -1)
        assert (a * a.inverse()) == QE(1, 0, -1)
        assert a.norm() == Fraction(5)

    def test_rejects_bad_m(self):
        with pytest.raises(PreconditionViolation):
            QE(1, 1, 4)
        with pytest.raises(PreconditionViolation):
            QE(1, 1, 1)


class TestConjugateFactorizations:
    def test_round_trip_recovers_field(self):
        cfs = quadratic_subfields(ROUND_TRIP)
        assert [cf.m for cf in cfs] == [-1]
        cf = cfs[0]
        assert cf.expand() == ROUND_TRIP
        # G recovered up to conjugation: constant term is -27, rational
        assert cf.constant_term.a0 == -27
        assert cf.constant_term.a1 == 0

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
        # quartic from (t^2 + i t + 3)(t^2 - i t + 3) = t^4 + 7t^2 + 9
        quartic = P(9, 0, 7, 0, 1)
        cfs4 = conjugate_factorizations(quartic)
        assert -1 in [cf.m for cf in cfs4]

    def test_conjugate_split_single_field(self):
        assert conjugate_split(NON_NEAT, -1) is not None
        assert conjugate_split(NON_NEAT, -2) is None


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
        base = IntPoly([5, 0, 1])
        out = IntPoly()
        for k, c in enumerate([-1, -4, 0, 1]):
            out = out + (c * base**k).shift(3 - k)
        assert norm_one_witness(out, 5) is None


class TestNormCondition:
    def test_forced_constant(self):
        cf = quadratic_subfields(ROUND_TRIP)[0]
        # G(0) = -27 and q = 9: 729 = 9^3
        assert norm_condition(cf, 9)
        assert not norm_condition(cf, 8)  # 729 != 512

    def test_non_square_q_false(self):
        cf = conjugate_factorizations(P(5, -1, 1))[0]
        # G(0)^2 = q for the quadratic case; alpha conj(alpha) = 5 means true
        assert norm_condition(cf, 5) == (
            (cf.constant_term * cf.constant_term).a0 == 5
        )


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
