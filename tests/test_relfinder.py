"""Certified roots, exact relation verification, relation lattices."""

import math
import random
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weilrank.relfinder
import weilrank.weil
from weilrank.errors import DegreeOverflow, PrecisionExhausted, PreconditionViolation
from weilrank.exactcore import IntPoly, poly_squarefree_part, prime_power, sturm_real_root_count
from weilrank.relfinder import (
    RelationCertificate,
    _GRIDS,
    _candidate_vectors,
    _echelon,
    _lattice_contains,
    _theta_of_root,
    _saturate,
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


class TestRootStarts:
    """Soundness rests on the sign changes and the disjointness check, not on the starts."""

    @pytest.mark.parametrize("poly, q", START_CASES)
    @pytest.mark.parametrize("perturb", ["asymmetric_noise", "reversed"])
    def test_order_independent_of_starts(self, monkeypatch, poly, q, perturb):
        w = validate(poly, q)
        roots = certified_roots(w)
        oracle = oracle_rank(w)
        real = weilrank.relfinder._double_starts

        def moved(h):
            out = real(h)
            if perturb == "reversed":
                return out[::-1]
            return [x + abs(x) * 1e-12 * (j + 1) * (-1) ** j for j, x in enumerate(out)]

        monkeypatch.setattr(weilrank.relfinder, "_double_starts", moved)
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
        real = weilrank.relfinder._double_starts
        monkeypatch.setattr(
            weilrank.relfinder, "_double_starts", lambda h: [real(h)[0]] * h.degree
        )
        with pytest.raises(PrecisionExhausted):
            certified_roots(validate(poly, q))

    def test_non_finite_start(self, monkeypatch):
        monkeypatch.setattr(
            weilrank.relfinder, "_double_starts", lambda h: [float("nan")] * h.degree
        )
        with pytest.raises(PrecisionExhausted):
            certified_roots(validate(NON_NEAT, 9))

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
        assert verify_relation(w, (1, 1, 0, 0), 1, roots=roots).holds  # alpha conj(alpha) = q
        assert not verify_relation(w, (2, 0, 0, 0), 1, roots=roots).holds

    def test_roots_never_factor(self, monkeypatch):
        def refuse(f):
            raise AssertionError(f"factored {f}")

        monkeypatch.setattr(weilrank.weil, "factor_over_integers", refuse)
        for poly, q in START_CASES:
            certified_roots(validate(poly, q))

    def test_small_boxes_all_certify(self):
        # every Weil polynomial with g = 1, q <= 25; g = 2, q <= 5; g = 3, q = 2
        boxes = [(1, q) for q in range(2, 26)] + [(2, q) for q in range(2, 6)] + [(3, 2)]
        count = 0
        for g, q in boxes:
            if prime_power(q) is None:
                continue
            for w in enumerate_weil(SearchSpec(g=g, q=q)):
                roots = certified_roots(w)
                assert len(roots) == w.squarefree.degree
                for a, b in zip(roots, roots[1:]):
                    assert (a.re - b.re) ** 2 + (a.im - b.im) ** 2 > (a.radius + b.radius) ** 2
                count += 1
        assert count == 727


class TestVerifyRelation:
    # certificates of the Fraction/mpmath implementation this one replaced
    @pytest.mark.parametrize(
        "poly, q, e, m, holds, sep, bits",
        [
            (NON_NEAT, 9, (2, 0, 2, 0, -2, 0), 1, True, -378, 442),
            (NON_NEAT, 9, (2, 0, 2, 0, 2, 0), 3, False, -519, 583),
            (NON_NEAT, 9, (2, 0, -2, 0, 0, 0), 0, False, -237, 301),
            (P(64, -32, 4, 4, 1, -2, 1), 4, (2, 0, 2, 0, -2, 0), 1, True, -284, 348),
            (P(64, -32, 4, 4, 1, -2, 1), 4, (2, 0, 2, 0, 2, 0), 3, False, -378, 442),
        ],
    )
    def test_certificates_unchanged(self, poly, q, e, m, holds, sep, bits):
        assert verify_relation(validate(poly, q), e, m) == RelationCertificate(
            holds=holds,
            exponents=e,
            power_of_q=m,
            separation_log2=sep,
            conjugate_degree_bound=48,
            precision_bits=bits,
        )


    def test_trivial_pair_relation(self):
        w = validate(P(5, -1, 1), 5)
        cert = verify_relation(w, (1, 1), 1)
        assert cert.holds

    def test_refuted_relation(self):
        w = validate(P(5, -1, 1), 5)
        cert = verify_relation(w, (2, 0), 1)
        assert not cert.holds

    def test_non_neat_norm_relation(self):
        # some orientation of the three pairs multiplies to q^3
        w = validate(NON_NEAT, 9)
        roots = certified_roots(w)
        reps = [r.index for r in roots if r.conjugate_index > r.index]
        found = False
        for signs in [(1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)]:
            e = [0] * len(roots)
            for s, i in zip(signs, reps):
                e[i] = 2 * s
            cert = verify_relation(w, e, sum(signs), roots=roots)
            if cert.holds:
                found = True
                break
        assert found

    def test_zero_vector(self):
        w = validate(P(5, -1, 1), 5)
        assert verify_relation(w, (0, 0), 0).holds
        assert not verify_relation(w, (0, 0), 1).holds

    def test_replayable(self):
        w = validate(P(5, -1, 1), 5)
        a = verify_relation(w, (1, 1), 1)
        b = verify_relation(w, (1, 1), 1)
        assert a == b

    def test_degree_cap(self):
        # squarefree degree 8 and six nonzero exponents: 8^6 > DEFAULT_DEGREE_CAP = 6^6 * 4
        w = validate(_sextic_from_trace([5, 0, -5, 0, 1], 2), 2)
        assert w.squarefree.degree == 8
        with pytest.raises(DegreeOverflow):
            verify_relation(w, (1, 1, 1, 1, 1, 1, 0, 0), 3)


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


class TestCandidateScan:
    @pytest.mark.parametrize("kind, d, bound, seed", SCAN_CASES)
    def test_matches_per_lead_scan(self, kind, d, bound, seed):
        thetas = _scan_thetas(kind, d, seed)
        assert _candidate_vectors(thetas, bound) == _per_lead_scan(thetas, bound)

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
        thetas = [_theta_of_root(r) for r in roots if r.conjugate_index > r.index]
        got = _candidate_vectors(thetas, 20)
        assert got == _per_lead_scan(thetas, 20)
        assert got[0] == (1, 1, -1)

    def test_grid_cache_is_bounded(self):
        _GRIDS.clear()
        for bound in range(1, 8):
            _candidate_vectors([0.1, 0.2, 0.3], bound)
        assert len(_GRIDS) == 4 and set(_GRIDS) == {(3, b) for b in range(4, 8)}
        # a grid past the row cap is built for its call and dropped
        _candidate_vectors([0.1, 0.2, 0.3, 0.4], 20)
        assert (4, 20) not in _GRIDS and len(_GRIDS) == 4
        assert not any(g.flags.writeable for g in _GRIDS.values())


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

        def counted(w, e, m_power, **kwargs):
            calls.append((tuple(e), m_power))
            return real(w, e, m_power, **kwargs)

        monkeypatch.setattr(weilrank.relfinder, "verify_relation", counted)
        w = validate(poly, q)
        o = oracle_rank(w)
        assert o.rank == 2 and len(o.lattice.basis) == 1
        # the basis row is the verified candidate, proved once, not twice
        assert len(calls) == 1
        # and its certificate is the one a fresh proof gives
        roots = certified_roots(w)
        for cert in o.lattice.certificates:
            assert cert == real(w, cert.exponents, cert.power_of_q, roots=roots)

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
