"""Certified roots, exact relation verification, relation lattices."""

import functools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weilrank.relfinder
import weilrank.weil
from weilrank.classify import classify_auto, sufficiency_degree
from weilrank.errors import NonIntegralPolygon, PrecisionExhausted, PreconditionViolation
from weilrank.exactcore import IntPoly, poly_squarefree_part, prime_power, sturm_real_root_count
from weilrank.exactcore.poly import _refine, real_root_brackets
from weilrank.relfinder import (
    _LATTICE_BITS,
    RelationCertificate,
    _degree_bound,
    _echelon,
    _euclid,
    _lll,
    _saturate,
    _short_rows,
    _split,
    _turn,
    certified_roots,
    oracle_rank,
    relation_lattice,
    verify_relation,
)
from weilrank.search import SearchSpec, enumerate_weil
from weilrank.weil import base_change, trace_polynomial, validate


def P(*coeffs):
    return IntPoly(coeffs)


NON_NEAT = P(729, -324, 72, -18, 8, -4, 1)


def _sextic_from_trace(hc, q):
    base = IntPoly([q, 0, 1])
    out = IntPoly()
    g = len(hc) - 1
    for k, c in enumerate(hc):
        out = out + (c * base**k).shift(g - k)
    return out


def _lattice_contains(hnf, vector) -> bool:
    """Membership in the row lattice with Hermite normal form `hnf`: adding it keeps the HNF."""
    hnf = [list(r) for r in hnf]
    return _echelon(hnf + [list(vector)], len(vector))[0] == hnf


def _fraction_rank(rows):
    """Rank by Gaussian elimination over Q: the reference for `_echelon`."""
    mat = [list(map(Fraction, r)) for r in rows if any(r)]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c] / mat[rank][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def _fraction_det(rows):
    mat = [list(map(Fraction, r)) for r in rows]
    det = Fraction(1)
    for c in range(len(mat)):
        pivot = next((i for i in range(c, len(mat)) if mat[i][c]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            det = -det
        det *= mat[c][c]
        for i in range(c + 1, len(mat)):
            f = mat[i][c] / mat[c][c]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return det


square_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-50, 50), min_size=n, max_size=n), min_size=n, max_size=n
    )
)


def _dot(u, v):
    return sum((Fraction(x) * y for x, y in zip(u, v)), Fraction(0))


def _gram_schmidt(rows):
    """The Gram-Schmidt vectors of `rows`, in Fractions."""
    out = []
    for r in rows:
        v = [Fraction(x) for x in r]
        for u in out:
            mu = _dot(r, u) / _dot(u, u)
            v = [a - mu * b for a, b in zip(v, u)]
        out.append(v)
    return out


small_matrices = st.integers(0, 4).flatmap(
    lambda cols: st.tuples(
        st.lists(st.lists(st.integers(-6, 6), min_size=cols, max_size=cols), max_size=5),
        st.just(cols),
    )
)


class TestCertifiedRoots:
    def test_quadratic_pair(self):
        w = validate(P(5, -1, 1), 5)
        roots = certified_roots(w)
        assert len(roots) == 2
        # roots approximately 0.5 +- 2.179i, paired and conjugate to each other
        for r in roots:
            assert abs(float(r.re) - 0.5) < 1e-9
            assert abs(abs(float(r.im)) - 2.179449471770337) < 1e-6
        assert roots[0].conjugate_index == 1 and roots[1].conjugate_index == 0

    def test_self_paired_real_root(self):
        w = base_change(validate(P(5, 0, 1), 5), 2)  # (t + 5)^2 over q = 25
        roots = certified_roots(w)
        assert len(roots) == 1
        r = roots[0]
        assert r.conjugate_index == r.index == 0
        assert float(r.re) == pytest.approx(-5.0)

    def test_disks_disjoint_and_rigorous(self):
        w = validate(NON_NEAT, 9)
        roots = certified_roots(w)
        assert len(roots) == 6
        pairs = sorted(r.conjugate_index for r in roots)
        assert pairs == [0, 1, 2, 3, 4, 5]
        for r in roots:
            # evaluate: |P(center)| <= deg * radius * |P'(center)| check is
            # already built in; here confirm the disk really contains a root
            # by the residual being tiny
            val = w.poly.evaluate(complex(float(r.re), float(r.im)))
            assert abs(val) < 1e-6 * 9**3

    def test_wide_brackets_at_large_q(self):
        # (t^2 - 3t + q)(t^2 + 6t + q)(t^2 + Tt + q), q = 2^400: the doubles do not separate
        # the traces 3 and -6, so the Sturm isolator's brackets are as wide as (0, 2^202), and
        # `_refine` needs more than its 100 base steps to bisect them down
        q = 2**400
        t = 2377548695819754352371374969413709760429566039489744177866102
        w = validate(P(q, -3, 1) * P(q, 6, 1) * P(q, t, 1), q)
        roots = certified_roots(w)
        assert len(roots) == 6
        assert sorted(r.conjugate_index for r in roots) == list(range(6))


    @pytest.mark.parametrize("poly, q", [(NON_NEAT, 9), (P(-5, 0, 1) ** 2 * P(5, -1, 1), 5)])
    def test_each_upper_disk_holds_one_trace(self, poly, q):
        # checked apart from the sign changes: a Sturm count finds exactly one root of
        # the trace polynomial, r = alpha + q/alpha = 2 Re alpha, per doubled real projection
        w = validate(poly, q)
        h = poly_squarefree_part(trace_polynomial(w.poly, q))
        for r in (r for r in certified_roots(w) if r.im > 0):
            assert sturm_real_root_count(h, 2 * (r.re - r.radius), 2 * (r.re + r.radius)) == 1


# inputs with conjugate pairs only, with +-sqrt(q) irrational, and with an integer root
START_CASES = [
    (NON_NEAT, 9),
    (_sextic_from_trace([-1, -4, 0, 1], 5), 5),
    (P(-5, 0, 1) ** 2 * P(5, -1, 1), 5),
    (P(-5, 1) ** 2 * P(25, -1, 1), 25),
]


def _same_disks(got, want):
    """Same length, pairing and conjugation, and each disk holds the same root."""
    assert len(got) == len(want)
    for g, r in zip(got, want):
        assert (g.index, g.conjugate_index) == (r.index, r.conjugate_index)
        reach = g.radius + r.radius
        assert abs(g.re - r.re) <= reach and abs(g.im - r.im) <= reach


def _bisected(h, bracket, steps):
    """`bracket` narrowed by up to `steps` bisections, keeping the half h changes sign across."""
    lo, hi, k = bracket
    for _ in range(steps):
        side = h.evaluate(Fraction(lo, 2**k)) * h.evaluate(Fraction(lo + hi, 2 ** (k + 1)))
        if side == 0:  # the midpoint is the root
            break
        lo, hi, k = 2 * lo, 2 * hi, k + 1
        lo, hi = (lo, (lo + hi) // 2) if side < 0 else ((lo + hi) // 2, hi)
    return lo, hi, k


# every Weil polynomial with g = 1, q <= 25; g = 2, q <= 5; g = 3, q = 2
SMALL_BOXES = [(1, q) for q in range(2, 26)] + [(2, q) for q in range(2, 6)] + [(3, 2)]
CERTIFY_INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs" / "certify.json"


def _certify_inputs():
    data = json.loads(CERTIFY_INPUTS.read_text())
    return [(IntPoly(e["coeffs"]), e["q"]) for e in data["fixed"] + data["pool"]]


def _refuse(*args):
    raise AssertionError("the Sturm isolator ran")


class TestRootStarts:
    """Soundness rests on the sign changes and the disjointness check, not on the brackets."""

    @pytest.mark.parametrize("poly, q", START_CASES)
    @pytest.mark.parametrize("perturb", ["asymmetric_noise", "reversed", "moved_doubles"])
    def test_order_independent_of_starts(self, monkeypatch, poly, q, perturb):
        # the seeded brackets in reverse order, or each narrowed by a different number of
        # extra bisection steps, or seeded from doubles moved off their roots (by up to
        # 2^-42 of each, inside its bracket), give the same disks
        w = validate(poly, q)
        roots = certified_roots(w)
        oracle = oracle_rank(w)
        seeds = weilrank.relfinder._seed_brackets
        doubles = weilrank.relfinder._double_roots
        assert seeds(_split(w)[0]) is not None  # the starts moved are the seeded ones

        def moved(h):
            out = seeds(h)
            if perturb == "reversed":
                return out[::-1]
            return [_bisected(h, b, 3 * j + 1) for j, b in enumerate(out)]

        if perturb == "moved_doubles":
            monkeypatch.setattr(
                weilrank.relfinder,
                "_double_roots",
                lambda h, b: [r * (1 + (j + 1) * 2.0**-44) for j, r in enumerate(doubles(h, b))],
            )
        else:
            monkeypatch.setattr(weilrank.relfinder, "_seed_brackets", moved)
        monkeypatch.setattr(weilrank.relfinder, "real_root_brackets", _refuse)
        w = validate(poly, q)  # a fresh instance: nothing cached
        _same_disks(certified_roots(w), roots)
        again = oracle_rank(w)
        assert again.rank == oracle.rank
        assert again.lattice.representatives == oracle.lattice.representatives
        assert again.lattice.basis == oracle.lattice.basis
        assert [c.holds for c in again.lattice.certificates] == [
            c.holds for c in oracle.lattice.certificates
        ]

    def test_conjugates_are_exact_mirrors(self):
        for poly, q in START_CASES:
            roots = certified_roots(validate(poly, q))
            for r in roots:
                c = roots[r.conjugate_index]
                assert (c.re, c.im, c.radius) == (r.re, -r.im, r.radius)
                # a root of absolute value sqrt(q) is real only at +-sqrt(q)
                assert (r.im == 0) == (r.conjugate_index == r.index)
            # canonical order: by real part, a pair's negative imaginary part first
            assert [(r.re, r.im) for r in roots] == sorted((r.re, r.im) for r in roots)

    @pytest.mark.parametrize("poly, q", [(NON_NEAT, 9), (_sextic_from_trace([-1, -4, 0, 1], 5), 5)])
    def test_two_starts_on_one_root_never_certify(self, monkeypatch, poly, q):
        # a duplicated bracket leaves a root uncovered: the disks overlap at every precision
        seeds = weilrank.relfinder._seed_brackets
        assert seeds(_split(validate(poly, q))[0]) is not None
        monkeypatch.setattr(
            weilrank.relfinder, "_seed_brackets", lambda h: [seeds(h)[0]] * h.degree
        )
        with pytest.raises(PrecisionExhausted):
            certified_roots(validate(poly, q))

    @pytest.mark.parametrize("poly, q", [(NON_NEAT, 9), (_sextic_from_trace([-1, -4, 0, 1], 5), 5)])
    @pytest.mark.parametrize("wrong", ["duplicated", "off_the_root"])
    def test_unconfirmed_doubles_fall_back(self, monkeypatch, poly, q, wrong):
        # two doubles on one root give overlapping brackets, and a double 2^-30 of itself
        # off its root a bracket without a sign change; the seeds refuse both, and the
        # Sturm isolator takes over and finds the same disks
        roots = certified_roots(validate(poly, q))
        doubles = weilrank.relfinder._double_roots

        def moved(h, b):
            out = doubles(h, b)
            if wrong == "duplicated":
                return [out[0]] * h.degree
            return [r * (1 + 2.0**-30) for r in out]

        monkeypatch.setattr(weilrank.relfinder, "_double_roots", moved)
        w = validate(poly, q)
        h = _split(w)[0]
        assert weilrank.relfinder._seed_brackets(h) is None
        _same_disks(certified_roots(w), roots)

    def test_roots_at_dyadic_points(self):
        # a certify input whose trace polynomial is (x - 1)(x - 2)(x - 3): every
        # root is a bisection point, so each midpoint that is a root moves off it
        w = validate(P(125, -150, 130, -66, 26, -6, 1), 5)
        h = _split(w)[0]
        assert h == P(-6, 11, -6, 1)
        brackets = real_root_brackets(h)
        for (lo, hi, k), root in zip(brackets, (1, 2, 3)):
            assert Fraction(lo, 2**k) < root < Fraction(hi, 2**k)
            assert h.evaluate(Fraction(lo, 2**k)) * h.evaluate(Fraction(hi, 2**k)) < 0
        assert len(brackets) == 3
        assert [float(r.re) for r in certified_roots(w)] == [0.5, 0.5, 1.0, 1.0, 1.5, 1.5]
        # the seeded brackets hold the same roots, by their own exact sign changes
        seeded = weilrank.relfinder._seed_brackets(h)
        for (lo, hi, k), root in zip(seeded, (1, 2, 3)):
            assert Fraction(lo, 2**k) < root < Fraction(hi, 2**k)
            assert h.evaluate(Fraction(lo, 2**k)) * h.evaluate(Fraction(hi, 2**k)) < 0
        assert len(seeded) == 3

    def test_start_outside_the_newton_basin(self):
        # h = x^3 - x and the bracket (1/8, 65/64) around the root 1: its
        # midpoint 73/128 lies left of the critical point 1/sqrt(3), where a
        # Newton step lands near -15 and unguarded steps would end at -1
        h = P(0, -1, 0, 1)
        dh = h.derivative()
        start = Fraction(73, 128)
        assert start - h.evaluate(start) / dh.evaluate(start) < -15
        x, k = _refine(h, dh, 8, 65, 6, 100, True)
        assert k == 100 and x == 2**100
        x, k = _refine(h, dh, -65, -8, 6, 100, True)  # its mirror image
        assert k == 100 and x == -(2**100)

    def test_trace_near_the_end_of_its_range(self):
        # h = x^2 - (4q - 1): the traces sit 1 / (4 sqrt(q)) inside +-2 sqrt(q),
        # so Im alpha = 1/2 against |alpha| = sqrt(q) = 2^35.5
        q = 2**71
        w = validate(P(q * q, 0, 1 - 2 * q, 0, 1), q)
        roots = certified_roots(w)
        assert len(roots) == 4
        for r in roots:
            assert abs(r.im) - r.radius <= Fraction(1, 2) <= abs(r.im) + r.radius
            assert 0 < r.radius <= Fraction(1, 2**64)
        # the traces are -+r, so the second pair is -conj(alpha), -alpha: beta_1 beta_2 = 1
        assert verify_relation(w, (1, 1), roots=roots).holds
        assert not verify_relation(w, (1, 0), roots=roots).holds

    def test_roots_never_factor(self, monkeypatch):
        def refuse(f):
            raise AssertionError(f"factored {f}")

        monkeypatch.setattr(weilrank.weil, "factor_over_integers", refuse)
        for poly, q in START_CASES:
            certified_roots(validate(poly, q))

    def test_small_boxes_all_certify(self):
        count = 0
        for g, q in SMALL_BOXES:
            if prime_power(q) is None:
                continue
            for w in enumerate_weil(SearchSpec(g=g, q=q)):
                roots = certified_roots(w)
                assert len(roots) == poly_squarefree_part(w.poly).degree
                for a, b in zip(roots, roots[1:]):
                    assert (a.re - b.re) ** 2 + (a.im - b.im) ** 2 > (a.radius + b.radius) ** 2
                # each bracket of the isolator holds one root by a Sturm count
                # and a sign change, and together they hold every root
                h = _split(w)[0]
                brackets = real_root_brackets(h)
                assert len(brackets) == h.degree
                for lo, hi, k in brackets:
                    ends = Fraction(lo, 2**k), Fraction(hi, 2**k)
                    assert sturm_real_root_count(h, *ends) == 1
                    assert h.evaluate(ends[0]) * h.evaluate(ends[1]) < 0
                count += 1
        assert count == 727

    def test_seeded_disks_match_the_sturm_path(self, monkeypatch):
        # on the same boxes every input takes the seeded path, and its disks hold the
        # same roots, paired and ordered alike, as those from the Sturm isolator's brackets
        for g, q in SMALL_BOXES:
            if prime_power(q) is None:
                continue
            for w in enumerate_weil(SearchSpec(g=g, q=q)):
                assert weilrank.relfinder._seed_brackets(_split(w)[0]) is not None, w
                seeded = certified_roots(w)
                with monkeypatch.context() as m:
                    m.setattr(weilrank.relfinder, "_seed_brackets", lambda h: None)
                    _same_disks(seeded, certified_roots(w))


class TestSeedFallback:
    """The Sturm isolator is the one fallback of the seeds, and the oracle's output does not
    depend on which of the two found the brackets."""

    def test_common_inputs_skip_the_sturm_isolator(self, monkeypatch):
        monkeypatch.setattr(weilrank.relfinder, "real_root_brackets", _refuse)
        for poly, q in START_CASES + _certify_inputs():
            oracle_rank(validate(poly, q))

    def test_failed_seeds_keep_the_oracle_output(self, monkeypatch):
        inputs = START_CASES + _certify_inputs()
        want = [repr(oracle_rank(validate(poly, q))) for poly, q in inputs]
        calls = []
        real = weilrank.relfinder.real_root_brackets

        def overflow(h, b):
            raise OverflowError("patched")

        def counted(h):
            calls.append(h)
            return real(h)

        monkeypatch.setattr(weilrank.relfinder, "_double_roots", overflow)
        monkeypatch.setattr(weilrank.relfinder, "real_root_brackets", counted)
        assert [repr(oracle_rank(validate(poly, q))) for poly, q in inputs] == want
        assert len(calls) == len(inputs)

    def test_curve_beyond_double_range(self, monkeypatch):
        # t^2 - 3^695 t + 2^2202: the trace is beyond double range, so the seeds fall back
        q, t = 2**2202, 3**695
        w = validate(P(q, -t, 1), q)
        assert weilrank.relfinder._seed_brackets(_split(w)[0]) is None
        calls = []
        real = weilrank.relfinder.real_root_brackets
        monkeypatch.setattr(
            weilrank.relfinder, "real_root_brackets", lambda h: calls.append(h) or real(h)
        )
        o = oracle_rank(w)
        assert (o.rank, o.confidence, o.lattice.basis) == (1, "certified_exact", ())
        assert len(calls) == 1
        (r,) = [r for r in certified_roots(w) if r.b > 0]
        # arg(alpha) = acos(t / (2 sqrt q)), here close to 0.2017 pi
        with mpmath.workdps(150):
            turns = mpmath.acos(mpmath.mpf(t) / mpmath.mpf(2) ** 1102) / mpmath.pi
            for k in (44, 300):
                assert abs(_turn(r.a, r.b, k) - turns * 2**k) <= 0.75


class TestVerifyRelation:
    # certificates of the Fraction/mpmath implementation this one replaced, which proved
    # beta^e = 1 as prod alpha_j^(2 e_j) = q^m, m = sum e, over the representatives
    @pytest.mark.parametrize(
        "poly, q, e, m, holds, sep, bits",
        [
            (NON_NEAT, 9, (1, 1, -1), 1, True, -378, 442),
            (NON_NEAT, 9, (1, 1, 1), 3, False, -519, 583),
            (NON_NEAT, 9, (1, -1, 0), 0, False, -237, 301),
            (P(64, -32, 4, 4, 1, -2, 1), 4, (1, 1, -1), 1, True, -284, 348),
            (P(64, -32, 4, 4, 1, -2, 1), 4, (1, 1, 1), 3, False, -378, 442),
        ],
    )
    def test_certificates_unchanged(self, poly, q, e, m, holds, sep, bits):
        assert sum(e) == m
        assert verify_relation(validate(poly, q), e) == RelationCertificate(
            holds=holds,
            exponents=e,
            separation_log2=sep,
            conjugate_degree_bound=48,
            precision_bits=bits,
        )

    def test_refuted_relation(self):
        w = validate(P(5, -1, 1), 5)
        cert = verify_relation(w, (1,))
        assert not cert.holds

    def test_non_neat_norm_relation(self):
        # some orientation of the three pairs has beta_1^(+-1) beta_2^(+-1) beta_3^(+-1) = 1
        w = validate(NON_NEAT, 9)
        roots = certified_roots(w)
        found = False
        for signs in [(1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)]:
            cert = verify_relation(w, signs, roots=roots)
            if cert.holds:
                found = True
                break
        assert found

    def test_zero_vector(self):
        w = validate(P(5, -1, 1), 5)
        assert verify_relation(w, (0,)).holds

    def test_replayable(self):
        w = validate(P(5, -1, 1), 5)
        a = verify_relation(w, (1,))
        b = verify_relation(w, (1,))
        assert a == b

    def test_four_pairs_over_eight_roots(self):
        # squarefree degree 8 and every pair in the relation, alpha^(2, 2, 2, 2) = q^4: the
        # separation bound from the splitting field decides it within the precision cap
        w = validate(_sextic_from_trace([5, 0, -5, 0, 1], 2), 2)
        assert poly_squarefree_part(w.poly).degree == 8
        cert = verify_relation(w, (1, 1, 1, 1))
        assert (cert.holds, cert.precision_bits) == (True, 3513)

    def test_large_q_with_one_pair_left_out(self):
        # (t^4 - (2q - 1) t^2 + q^2)(t^2 - 3t + q) over F_(2^71): only the disks of the
        # pairs in the relation are refined; the certificates the alpha-vector routine gave
        # for alpha^(2, 0, 2) = q^2 and alpha^(2, 0, -2) = 1
        q = 2**71
        w = validate(P(q * q, 0, 1 - 2 * q, 0, 1) * P(q, -3, 1), q)
        assert verify_relation(w, (1, 0, 1)) == RelationCertificate(
            holds=True,
            exponents=(1, 0, 1),
            separation_log2=-2162,
            conjugate_degree_bound=16,
            precision_bits=4452,
        )
        assert verify_relation(w, (1, 0, -1)) == RelationCertificate(
            holds=False,
            exponents=(1, 0, -1),
            separation_log2=-1097,
            conjugate_degree_bound=16,
            precision_bits=1161,
        )


def _factorwise_degree_bound(w):
    """The bound read off the irreducible factors of P, as `_degree_bound` was:
    2 for t^2 - q, and (2d)(2d - 2)...2 for a factor of degree 2d."""
    return math.prod(
        2 if f == IntPoly([-w.q, 0, 1]) else math.prod(range(f.degree, 1, -2))
        for f, _ in w.factors
    )


class TestDegreeBound:
    @pytest.mark.parametrize("g, q", [(g, q) for g in (1, 2, 3) for q in (2, 3, 4)])
    def test_equals_factorwise_bound(self, g, q):
        # on the box and on its base change to F_(q^2), where more eigenvalues turn real
        for w in enumerate_weil(SearchSpec(g=g, q=q)):
            for v in (w, base_change(w, 2)):
                assert _degree_bound(v.q, *_split(v)) == _factorwise_degree_bound(v), v


def _lll_reference(rows):
    """The reference for `_lll`: the same integral LLL with a size-reduction helper and the
    Lovasz test between reducing by row k - 1 and by the rows before it."""
    b = [list(r) for r in rows]
    n = len(b)
    dets, lam = [1] + [0] * n, [[0] * n for _ in b]
    for k in range(n):
        for j in range(k + 1):
            u = sum(x * y for x, y in zip(b[k], b[j]))
            for i in range(j):
                u = (dets[i + 1] * u - lam[k][i] * lam[j][i]) // dets[i]
            lam[k][j] = u
        dets[k + 1] = lam[k][k]

    def reduce(k, l):  # b_k -= round(mu_kl) b_l, when |mu_kl| > 1/2
        if 2 * abs(lam[k][l]) > dets[l + 1]:
            t = (2 * lam[k][l] + dets[l + 1]) // (2 * dets[l + 1])
            b[k] = [x - t * y for x, y in zip(b[k], b[l])]
            for i in range(l):
                lam[k][i] -= t * lam[l][i]
            lam[k][l] -= t * dets[l + 1]

    k = 1
    while k < n:
        reduce(k, k - 1)
        mu = lam[k][k - 1]
        if 100 * dets[k + 1] * dets[k - 1] >= 99 * dets[k] ** 2 - 100 * mu * mu:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
            continue
        b[k - 1], b[k] = b[k], b[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        new = (dets[k - 1] * dets[k + 1] + mu * mu) // dets[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (dets[k + 1] * lam[i][k - 1] - mu * t) // dets[k]
            lam[i][k - 1] = (new * t + mu * lam[i][k]) // dets[k + 1]
        dets[k] = new
        k = max(1, k - 1)
    return b, dets


class TestLatticeAlgebra:
    def test_row_hnf(self):
        # the HNF is unique: entries above a pivot lie in [0, pivot)
        assert _echelon([[2, 4], [1, 1]], 2)[0] == [[1, 1], [0, 2]]
        assert _echelon([[0, 0]], 2)[0] == []

    @settings(max_examples=300, deadline=None)
    @given(small_matrices)
    def test_echelon_properties(self, matrix):
        rows, cols = matrix
        h, u = _echelon(rows, cols)
        m, r = len(rows), len(h)
        # H is in Hermite normal form
        pivots = [next(j for j, x in enumerate(row) if x) for row in h]
        assert all(a < b for a, b in zip(pivots, pivots[1:]))
        for k, c in enumerate(pivots):
            assert h[k][c] > 0
            assert all(0 <= h[i][c] < h[k][c] for i in range(k))
        # U * M = H followed by zero rows, and U is unimodular
        um = [[sum(ui[k] * rows[k][j] for k in range(m)) for j in range(cols)] for ui in u]
        assert um == h + [[0] * cols] * (m - r)
        assert abs(_fraction_det(u)) == 1
        # the rows after rank(H) lie in the left kernel
        for kernel_row in u[r:]:
            assert all(sum(x * row[j] for x, row in zip(kernel_row, rows)) == 0 for j in range(cols))
        assert r == _fraction_rank(rows)

    @settings(max_examples=200, deadline=None)
    @given(square_matrices)
    def test_lll_properties(self, rows):
        if _fraction_det(rows) == 0:
            return
        reduced, dets = _lll(rows)
        n = len(rows)
        assert _echelon(reduced, n)[0] == _echelon(rows, n)[0]  # the same lattice
        gs = _gram_schmidt(reduced)
        for i in range(n):
            # dets gives the Gram-Schmidt lengths
            assert Fraction(dets[i + 1], dets[i]) == _dot(gs[i], gs[i])
            mu = [_dot(reduced[i], u) / _dot(u, u) for u in gs[:i]]
            assert all(abs(m) <= Fraction(1, 2) for m in mu)  # size-reduced
            if i:  # the Lovasz condition, delta = 99/100
                bound = (Fraction(99, 100) - mu[-1] ** 2) * _dot(gs[i - 1], gs[i - 1])
                assert _dot(gs[i], gs[i]) >= bound

    @settings(max_examples=200, deadline=None)
    @given(square_matrices)
    def test_lll_equals_reference(self, rows):
        if _fraction_det(rows) != 0:
            assert _lll(rows) == _lll_reference(rows)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=4))
    def test_lll_equals_reference_on_angle_lattices(self, turns):
        # the shape `_short_rows` reduces: unit rows beside round(2^44 tau_i), and 2^44
        d = len(turns)
        rows = [[int(i == j) for j in range(d)] + [round(math.ldexp(t, _LATTICE_BITS))]
                for i, t in enumerate(turns)]
        rows.append([0] * d + [1 << _LATTICE_BITS])
        assert _lll(rows) == _lll_reference(rows)

    def test_lll_equals_reference_on_certify_lattices(self, monkeypatch):
        # on the rows `_lll` sees after the Brun steps, and on the rows as built
        seen, raw = [], []
        monkeypatch.setattr(
            weilrank.relfinder, "_lll", lambda rows: seen.append(rows) or _lll(rows)
        )
        monkeypatch.setattr(
            weilrank.relfinder, "_euclid", lambda rows: raw.append(rows) or _euclid(rows)
        )
        inputs = _certify_inputs()
        for poly, q in inputs:
            relation_lattice(validate(poly, q))
        assert len(seen) == len(raw) == len(inputs)
        for rows in seen + raw:
            assert _lll(rows) == _lll_reference(rows)

    def test_saturate(self):
        # lattice spanned by (2, 2): saturation is (1, 1)
        assert _saturate([[2, 2]], 2) == [[1, 1]]
        # full-rank lattice saturates to Z^2
        sat = _saturate([[2, 0], [0, 3]], 2)
        assert sat == [[1, 0], [0, 1]]
        assert _saturate([], 3) == []

    def test_contains(self):
        basis = [[1, 1, -1]]
        assert _lattice_contains(basis, [2, 2, -2])
        assert not _lattice_contains(basis, [1, 0, 0])
        assert _lattice_contains([], [0, 0, 0])


def _scaled(turns, k):
    """round(2^k tau_i) for turns tau_i given as floats."""
    return [round(math.ldexp(t, k)) for t in turns]


def _angle_lattice(ts, k):
    """The rows `_short_rows` reduces: unit rows beside the integer angles t_i at 2^k, and
    (0, ..., 0, 2^k)."""
    d = len(ts)
    return [[int(i == j) for j in range(d)] + [t] for i, t in enumerate(ts)] + [[0] * d + [1 << k]]


def _short_rows_without_euclid(turns, bound, k):
    """`_short_rows` with no Brun steps: `_lll` on the angle lattice as built."""
    d, eps = len(turns), k + 2
    rows, dets = _lll(_angle_lattice(turns, k))
    slack = (1 << eps - 1) + (1 << k)
    r2 = (d * bound**2 << 2 * eps) + (d * bound * slack) ** 2
    j = max((i for i in range(1, d + 2) if dets[i] << 2 * eps <= r2 * dets[i - 1]), default=0)
    return [
        (tuple(x if next(y for y in row if y) > 0 else -x for x in row[:d]),
         sum(x * x for x in row) << 2 * eps <= r2
         and abs(row[d]) << eps <= sum(abs(x) for x in row[:d]) * slack)
        for row in rows[:j]
    ]


def _representative_turns(w):
    """The `_turn` integers of the representatives at N = 2^44, as `relation_lattice` reads them."""
    return [_turn(r.a, r.b, _LATTICE_BITS) for r in certified_roots(w) if r.b < 0]


@functools.cache
def _certify_turns():
    """The angles of every certify input and of every polynomial of the small boxes."""
    ws = [validate(poly, q) for poly, q in _certify_inputs()]
    ws += [w for g, q in SMALL_BOXES if prime_power(q) for w in enumerate_weil(SearchSpec(g=g, q=q))]
    return [_representative_turns(w) for w in ws]


def _hnf(rows, cols):
    return _echelon([list(r) for r in rows], cols)[0]


class TestBrunSteps:
    """`_euclid` shrinks the angle column by unimodular steps before `_lll`."""

    @staticmethod
    def _check(rows):
        out = _euclid(rows)
        n = len(rows)
        assert _hnf(out, n) == _hnf(rows, n)  # the same lattice
        # sorted by |last entry|; the largest is at most 2^(b/n + 4), or the next is 0
        lasts = [abs(r[-1]) for r in out]
        assert lasts == sorted(lasts)
        cap = 1 << (max(abs(r[-1]) for r in rows).bit_length() // n + 4)
        assert lasts[-1] <= cap or lasts[-2] == 0
        return out

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.floats(-1, 1), min_size=1, max_size=4),
        st.sampled_from([20, 28, _LATTICE_BITS]),
    )
    def test_keeps_angle_lattices(self, turns, k):
        self._check(_angle_lattice(_scaled(turns, k), k))

    def test_keeps_certify_lattices(self):
        for turns in _certify_turns():
            self._check(_angle_lattice(turns, _LATTICE_BITS))

    @pytest.mark.parametrize(
        "turns, lasts",
        [
            ([0.0, 0.0, 0.0], [0, 0, 0, 1]),  # no step: the next largest is 0
            ([0.25, 0.25, 0.25], [0, 0, 0, 1 / 4]),  # equal turns cancel
            ([0.375], [0, 1 / 8]),  # d = 1: Euclid on 3/8 and 1
            ([0.5], [0, 1 / 2]),  # t = N/2: round(N / t) = 2 clears N
            ([0.5, 0.5], [0, 0, 1 / 2]),
        ],
    )
    def test_degenerate_last_columns(self, turns, lasts):
        for k in (20, 28, _LATTICE_BITS):
            out = self._check(_angle_lattice(_scaled(turns, k), k))
            assert [abs(r[-1]) for r in out] == [x * 2**k for x in lasts]

    def test_short_rows_keep_their_span(self):
        # the rows may differ from LLL's on the lattice as built, but they span the same
        # candidates, with the same viability, on the certify inputs and the small boxes
        cases = _certify_turns()
        assert len(cases) == 289 + 727
        for turns in cases:
            got = _short_rows(turns, 20, _LATTICE_BITS)
            want = _short_rows_without_euclid(turns, 20, _LATTICE_BITS)
            d = len(turns)
            assert _hnf([e for e, _ in got], d) == _hnf([e for e, _ in want], d)
            assert sorted(v for _, v in got) == sorted(v for _, v in want)


def _mp_turn(a, b, k):
    """2^k arg(a + bi) / pi at 120 digits."""
    with mpmath.workdps(120):
        return mpmath.mpf(2) ** k * mpmath.atan2(b, a) / mpmath.pi


class TestTurn:
    """`_turn` is round(2^k arg(a + bi) / pi) on integers, off by at most 1/8 before rounding."""

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(-(2**400), 2**400),
        st.integers(-(2**400), 2**400).filter(bool),
        st.sampled_from([20, 44, 88, 300]),
    )
    def test_equals_mpmath(self, a, b, k):
        assert abs(_turn(a, b, k) - _mp_turn(a, b, k)) <= 0.625

    @pytest.mark.parametrize("k", [20, 44, 88, 300])
    @pytest.mark.parametrize("a, b", [(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 1), (0, -1),
                                      (-(2**200), 1), (-(2**200), -1), (2**200, 1), (3, 2**90)])
    def test_octants_and_axes(self, a, b, k):
        # the octant reductions, pi/2 and pi, and arguments next to 0 and +-pi
        assert abs(_turn(a, b, k) - _mp_turn(a, b, k)) <= 0.625

    def test_certify_representatives(self):
        # each disk is fine enough at 2^44, so the integer is within 3/4 of the root's angle
        for poly, q in _certify_inputs():
            for r in certified_roots(validate(poly, q)):
                if r.b < 0:
                    assert r.m << 46 <= max(abs(r.a), abs(r.b))
                    assert abs(_turn(r.a, r.b, 44) - _mp_turn(r.a, r.b, 44)) <= 0.625


class TestPrecisionLoop:
    """Near-relations finer than N = 2^44 raise N until the short rows are relations."""

    @pytest.mark.parametrize(
        "traces", [(1, 2, 3), (0, 1, -1), (-1, 2, 5), (-1, 3, 5), (1, 3, 5)]
    )
    def test_three_curves_over_f2_89(self, traces):
        # three curves t^2 - r t + 2^89: every beta lies within 2^-42 of -1, closer than
        # N = 2^44 resolves, so the oracle answers at a larger N
        q = 2**89
        w = validate(math.prod((P(q, -r, 1) for r in traces), start=P(1)), q)
        if 0 in traces:  # t^2 + q has beta = -1: torsion, which F_(q^2) removes
            assert sufficiency_degree(w) == 2
            with pytest.raises(PreconditionViolation):
                oracle_rank(w)
            return
        assert oracle_rank(w).rank == 3
        if 2 in traces:  # no abelian variety has these eigenvalues, so no theorem applies
            with pytest.raises(NonIntegralPolygon):
                classify_auto(w)
        else:
            assert classify_auto(w).rank == 3

    @pytest.mark.parametrize(
        "poly, q, bound, rank, basis",
        [
            (P(8, -8, 0, 3, 0, -2, 1), 2, 2000, 3, ()),
            (NON_NEAT, 9, 1_000_000, 2, ((1, 1, -1),)),
        ],
    )
    def test_wide_boxes_raise_the_precision(self, poly, q, bound, rank, basis):
        # at N = 2^44 a short row of these boxes needs a proof past the precision cap; it
        # counts as failed, not refuted, and a larger N leaves only the relations
        w = validate(poly, q)
        o = oracle_rank(w, exponent_bound=bound)
        assert (o.rank, o.lattice.basis) == (rank, basis)
        with pytest.raises(PrecisionExhausted):
            for e, viable in _short_rows(_representative_turns(w), bound, _LATTICE_BITS):
                if viable:
                    verify_relation(w, e)


def _per_lead_scan(thetas, bound, tol=1e-6):
    """The reference for `_candidate_vectors`: the residue of every vector
    in the box, one lead at a time, in the predicate it must reproduce."""
    d = len(thetas)
    theta = np.array(thetas, dtype=float)
    two_pi = 2.0 * math.pi
    rng = np.arange(-bound, bound + 1)
    out = []
    if d == 1:
        for v in rng:
            if v > 0 and abs(math.remainder(v * thetas[0], two_pi)) < tol:
                out.append((int(v),))
        return out
    grids = np.meshgrid(*([rng] * (d - 1)), indexing="ij")
    tail = np.stack([g.ravel() for g in grids], axis=1)
    tail_dot = tail @ theta[1:]
    for lead in range(0, bound + 1):
        total = lead * theta[0] + tail_dot
        res = np.abs(np.remainder(total + math.pi, two_pi) - math.pi)
        for h in np.nonzero(res < tol)[0]:
            vec = (lead, *map(int, tail[h]))
            if any(vec) and next(x for x in vec if x) > 0:
                out.append(vec)
    out.sort(key=lambda v: (max(abs(x) for x in v), sum(abs(x) for x in v), v))
    return out


def _scan_thetas(kind, d, seed):
    """Angles for one scan case: seeded random, near 0, near +-pi, or a near-relation."""
    rnd = random.Random(f"{kind} {d} {seed}")
    tol = 1e-6
    if kind == "random":
        return [rnd.uniform(-math.pi, math.pi) for _ in range(d)]
    if kind == "near_zero":
        # sums of a few small angles fall on both sides of 0, and so of 2pi
        return [rnd.uniform(-3, 3) * tol for _ in range(d)]
    if kind == "near_pi":
        return [rnd.choice([-1, 1]) * (math.pi - rnd.uniform(0, 3) * tol) for _ in range(d)]
    # 3 theta_1 + 5 theta_2 + 2 theta_3 is seed/4 tol from 0 mod 2pi: inside
    # the tolerance, near its edge, or just outside it
    t1, t2 = (rnd.uniform(-math.pi, math.pi) for _ in range(2))
    t3 = math.remainder(-(3 * t1 + 5 * t2) / 2 + seed / 8 * tol, 2 * math.pi)
    return [t1, t2, t3] + [rnd.uniform(-math.pi, math.pi) for _ in range(d - 3)]


SCAN_CASES = [
    (kind, d, bound, seed)
    for d in (1, 2, 3, 4)
    for bound in (1, 2, 5, 20)
    for kind in ("random", "near_zero", "near_pi", "near_relation")
    for seed in (range(1, 6) if kind == "near_relation" else range(2))
    if not (kind == "near_relation" and d < 3)
    # the near-0 angles put a few percent of the 41^4 box within tol
    if not (kind == "near_zero" and d == 4 and bound == 20)
]


def _thetas(roots):
    """arg(beta) = 2 arg(alpha) of each representative in radians, as the reference scans them."""
    return [2.0 * math.atan2(float(r.im), float(r.re)) for r in roots if r.conjugate_index > r.index]


class TestCandidateScan:
    """The reduced lattice's rows reach every hit of the exhaustive per-lead scan."""

    @pytest.mark.parametrize("kind, d, bound, seed", SCAN_CASES)
    def test_matches_per_lead_scan(self, kind, d, bound, seed):
        # at N = 2^20 and eps = 2^-22 turns, the certificate of `relation_lattice`
        # covers every e whose angle sum is within 2pi eps > 1e-6 of 0 mod 2pi,
        # so each hit of the scan is an integer combination of the rows 1..j
        thetas = _scan_thetas(kind, d, seed)
        rows = _short_rows(_scaled([t / (2 * math.pi) for t in thetas], 20), bound, 20)
        span = _echelon([list(e) for e, _ in rows], d)[0]
        for e in _per_lead_scan(thetas, bound):
            assert _lattice_contains(span, e)

    def test_cases_reach_the_window_edges(self):
        # the cases hit both ends of the tolerance and both sides of 0 mod 2pi
        near_edge = straddles = 0
        for kind, d, bound, seed in SCAN_CASES:
            thetas = _scan_thetas(kind, d, seed)
            for v in _per_lead_scan(thetas, bound):
                tail = sum(e * t for e, t in zip(v[1:], thetas[1:]))
                if abs(math.remainder(tail + v[0] * thetas[0], 2 * math.pi)) > 0.5e-6:
                    near_edge += 1
                # residue and target on opposite sides of 0 mod 2pi
                if abs(tail % (2 * math.pi) - (-v[0] * thetas[0]) % (2 * math.pi)) > math.pi:
                    straddles += 1
        assert near_edge and straddles

    def test_non_neat_sextic(self):
        w = validate(NON_NEAT, 9)
        roots = certified_roots(w)
        for k in (28, _LATTICE_BITS):
            turns = [_turn(r.a, r.b, k) for r in roots if r.b < 0]
            assert _short_rows(turns, 20, k) == [((1, 1, -1), True)]
        assert _per_lead_scan(_thetas(roots), 20)[0] == (1, 1, -1)

    def test_lattice_is_the_saturated_scan(self):
        # on the g = 2, q <= 5 and g = 3, q = 2 boxes and NON_NEAT, relation_lattice
        # is the saturation of the scan's candidates that verify, or both refuse
        boxes = [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2)]
        ws = [w for g, q in boxes for w in enumerate_weil(SearchSpec(g=g, q=q))]
        refused = 0
        for w in ws + [validate(NON_NEAT, 9)]:
            roots = certified_roots(w)
            reps = [r.index for r in roots if r.conjugate_index > r.index]

            def holds(e):
                return verify_relation(w, e, roots=roots).holds

            verified = []
            for e in _per_lead_scan(_thetas(roots), 20) if reps else []:
                if not _lattice_contains(verified, e) and holds(e):
                    verified = _echelon(verified + [list(e)], len(reps))[0]
            basis = _saturate(verified, len(reps))
            if all(holds(row) for row in basis):
                lat = relation_lattice(w)
                assert lat.representatives == tuple(reps)
                assert lat.basis == tuple(map(tuple, basis))
            else:
                refused += 1
                with pytest.raises(PreconditionViolation):
                    relation_lattice(w)
        assert (len(ws), refused) == (543, 241)


class TestRelationLattice:
    def test_ordinary_elliptic(self):
        w = validate(P(5, -1, 1), 5)
        lat = relation_lattice(w)
        assert lat.representatives == (0,)
        assert lat.basis == ()
        assert lat.rank == 1

    def test_supersingular(self):
        w = validate(P(4, -4, 1), 4)
        lat = relation_lattice(w)
        assert lat.representatives == ()
        assert lat.rank == 0

    def test_non_neat_sextic(self):
        w = validate(NON_NEAT, 9)
        lat = relation_lattice(w)
        assert len(lat.representatives) == 3
        assert len(lat.basis) == 1
        assert all(abs(x) == 1 for x in lat.basis[0])
        assert lat.rank == 2
        assert lat.certificates[0].holds

    @pytest.mark.parametrize(
        "poly, q",
        [
            (NON_NEAT, 9),
            (P(729, -486, 252, -102, 28, -6, 1), 9),
            (P(64, -32, 4, 4, 1, -2, 1), 4),
            (P(64, -48, -12, 22, -3, -3, 1), 4),
        ],
    )
    def test_basis_reuses_candidate_certificates(self, monkeypatch, poly, q):
        real = weilrank.relfinder.verify_relation
        calls = []

        def counted(w, e, **kwargs):
            calls.append(tuple(e))
            return real(w, e, **kwargs)

        monkeypatch.setattr(weilrank.relfinder, "verify_relation", counted)
        w = validate(poly, q)
        o = oracle_rank(w)
        assert o.rank == 2 and len(o.lattice.basis) == 1
        # the basis row is the verified candidate, proved once, not twice
        assert len(calls) == 1
        # and its certificate is the one a fresh proof gives
        roots = certified_roots(w)
        for cert in o.lattice.certificates:
            assert cert == real(w, cert.exponents, roots=roots)

    def test_tiny_arguments_need_few_proofs(self, monkeypatch):
        # t^4 - (2q - 1) t^2 + q^2 with q = 2^71: every beta is within 2^-35 of
        # 1, so a fixed tolerance on the angles sent 821 vectors to proof
        real = weilrank.relfinder.verify_relation
        calls = []

        def counted(w, e, **kwargs):
            calls.append(tuple(e))
            return real(w, e, **kwargs)

        monkeypatch.setattr(weilrank.relfinder, "verify_relation", counted)
        q = 2**71
        o = oracle_rank(validate(P(q * q, 0, 1 - 2 * q, 0, 1), q))
        assert (o.rank, o.lattice.basis) == (1, ((1, 1),))
        assert len(calls) <= 2

    def test_near_torsion_beyond_the_angles(self, monkeypatch):
        # t^2 - t + q with q = 2^101: beta is within 2^-50 of -1, closer than
        # N = 2^44 resolves, so the row (2) is refuted there; at N = 2^88 no row
        # is short, and no other vector is proved
        real = weilrank.relfinder.verify_relation
        calls = []

        def counted(w, e, **kwargs):
            calls.append(tuple(e))
            return real(w, e, **kwargs)

        monkeypatch.setattr(weilrank.relfinder, "verify_relation", counted)
        q = 2**101
        o = oracle_rank(validate(P(q, -1, 1), q))
        assert (o.rank, o.lattice.basis, o.confidence) == (1, (), "certified_exact")
        assert calls == [(2,)]

    def test_long_near_relation_stays_unproved(self, monkeypatch):
        # at N = 2^40 this sextic over F_2 has the reduced row (794, 270, -840, 42):
        # a tiny last entry, but far longer than R, and a proof of it would pass
        # the precision cap.  Rows are candidates by their Gram-Schmidt lengths,
        # so it is none, and no proof runs at any scale
        w = validate(P(8, -8, 0, 3, 0, -2, 1), 2)
        reps = [r for r in certified_roots(w) if r.b < 0]
        units = [[int(i == j) for j in range(3)] for i in range(3)]
        rows = [u + [_turn(r.a, r.b, 40)] for u, r in zip(units, reps)]
        assert [794, 270, -840, 42] in _lll(rows + [[0, 0, 0, 2**40]])[0]
        assert all(_short_rows([_turn(r.a, r.b, k) for r in reps], 20, k) == []
                   for k in (28, 40, 44))
        real = weilrank.relfinder.verify_relation
        certs = []

        def counted(w, e, **kwargs):
            certs.append(real(w, e, **kwargs))
            return certs[-1]

        monkeypatch.setattr(weilrank.relfinder, "verify_relation", counted)
        o = oracle_rank(w)
        assert (o.rank, o.lattice.basis) == (3, ())
        assert certs == []

    def test_certificates_prove_their_basis_rows(self):
        # a certificate names the beta-vector it proves: its basis row
        for poly, q in _certify_inputs():
            lat = relation_lattice(validate(poly, q))
            assert [c.exponents for c in lat.certificates] == list(lat.basis)
            assert all(c.holds for c in lat.certificates)

    def test_exponents_on_the_representatives_only(self):
        w = validate(NON_NEAT, 9)
        with pytest.raises(PreconditionViolation, match="length"):
            verify_relation(w, (2, 0, 2, 0, -2, 0))

    @pytest.mark.parametrize("bound", [0, -3])
    def test_bound_below_one_is_refused(self, bound):
        # it would scan no candidates and report the pair count as the rank
        with pytest.raises(PreconditionViolation):
            relation_lattice(validate(NON_NEAT, 9), exponent_bound=bound)

    def test_trivial_lattice_containment(self):
        # vectors with e'(beta) = e'(1/beta) reduce to 0 on representatives,
        # so the zero vector must always be a member
        w = validate(P(5, -1, 1), 5)
        lat = relation_lattice(w)
        assert _lattice_contains(list(lat.basis), [0])


class TestOracleRank:
    def test_reference_values(self):
        assert oracle_rank(validate(P(5, -1, 1), 5)).rank == 1
        assert oracle_rank(validate(P(4, -4, 1), 4)).rank == 0
        assert oracle_rank(validate(NON_NEAT, 9)).rank == 2

    def test_generic_sextic_rank_three(self):
        w = validate(_sextic_from_trace([-1, -4, 0, 1], 5), 5)
        assert oracle_rank(w).rank == 3

    def test_confidence_labels(self):
        r0 = oracle_rank(validate(P(4, -4, 1), 4))
        assert r0.confidence == "certified_exact"
        r1 = oracle_rank(validate(P(5, -1, 1), 5))
        assert r1.confidence == "certified_exact"  # ordinary: slopes 0 and 1

    def test_rank_one_off_slope_half_is_exact(self):
        # (t - 2)^2 (t^2 - t + 4) over F_4: slopes 0, 1/2, 1, outside the old matching regime
        o = oracle_rank(validate(P(4, -4, 1) * P(4, -1, 1), 4))
        assert (o.rank, o.confidence) == (1, "certified_exact")

    @pytest.mark.parametrize("poly, q", [(P(4, -4, 1), 4), (P(4, -4, 1) * P(4, 4, 1), 4), (P(9, 6, 1), 9)])
    def test_supersingular_rank_zero_is_exact(self, poly, q):
        o = oracle_rank(validate(poly, q))
        assert (o.rank, o.confidence) == (0, "certified_exact")

    def test_non_neat_stays_relations_only(self):
        # rank 2 is more than the valuation bound 1 proves
        o = oracle_rank(validate(NON_NEAT, 9))
        assert (o.rank, o.confidence) == (2, "certified_relations_only")

    def test_leaves_mpmath_precision_alone(self):
        with mpmath.workprec(61):
            oracle_rank(validate(NON_NEAT, 9))
            assert mpmath.mp.prec == 61

    def test_trace_polynomial_built_once(self, monkeypatch):
        # validate builds h, and its squarefree part from the Sturm chain of
        # the range check; root isolation, every relation proof and the
        # degree bound read them from w
        h = trace_polynomial(NON_NEAT, 9)
        real = {
            "trace": weilrank.weil.trace_polynomial,
            "sf": weilrank.weil.poly_squarefree_part,
            "chain": weilrank.weil.sturm_surd_counts,
        }
        calls = {key: [] for key in real}

        def counting(key):
            def wrapper(f, *args):
                calls[key].append(f)
                return real[key](f, *args)

            return wrapper

        for name, mod in list(sys.modules.items()):
            if name.startswith("weilrank"):
                for attr, value in list(vars(mod).items()):
                    for key, fn in real.items():
                        if value is fn:
                            monkeypatch.setattr(mod, attr, counting(key))
        o = oracle_rank(validate(NON_NEAT, 9))
        assert o.rank == 2 and len(o.lattice.certificates) == 1
        assert calls["trace"] == [NON_NEAT]
        assert calls["chain"] == [h] and calls["sf"].count(h) == 0

    def test_stable_in_bound(self):
        w = validate(NON_NEAT, 9)
        for bound in (8, 12, 20):
            assert oracle_rank(w, exponent_bound=bound).rank == 2

    def test_invariant_under_base_change(self):
        w = validate(NON_NEAT, 9)
        r0 = oracle_rank(w).rank
        for n in (2, 3):
            assert oracle_rank(base_change(w, n)).rank == r0
