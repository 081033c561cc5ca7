"""Weil polynomial enumeration: the limit and the g >= 4 fallback."""

from itertools import product

import pytest

from weilrank.errors import PreconditionViolation, RiemannHypothesisFails
from weilrank.exactcore import IntPoly
from weilrank.search import SearchSpec, enumerate_weil
from weilrank.weil import validate


class TestLimit:
    def test_zero_yields_nothing(self):
        assert list(enumerate_weil(SearchSpec(g=2, q=3, limit=0))) == []

    def test_one_yields_the_first(self):
        first = next(enumerate_weil(SearchSpec(g=2, q=3)))
        assert list(enumerate_weil(SearchSpec(g=2, q=3, limit=1))) == [first]

    def test_negative_rejected(self):
        with pytest.raises(PreconditionViolation):
            list(enumerate_weil(SearchSpec(g=2, q=3, limit=-5)))


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
