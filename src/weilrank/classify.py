"""Neatness and rank classification for dimension at most three.

The decision procedure over a sufficiently large field:

  * a supersingular eigenvalue set has rank 0 and is neat;
  * dimensions 1 and 2 are always neat, with rank the number of
    eigenvalue pairs per simple component;
  * in dimension 3, the only non-neat configuration is an absolutely
    simple variety with irreducible sextic CM characteristic polynomial,
    an imaginary quadratic subfield of norm-one type, and almost-ordinary
    Newton polygon; its rank is 2, every neat simple threefold has the
    pair-count rank;
  * products combine through the unit-group collapse rules for shared
    imaginary quadratic fields, and three ordinary elliptic factors with
    pairwise distinct CM fields have rank 3; so every rank is a theorem.

The certified oracle is opt-in (`force_oracle`, `--oracle-check`): it
cross-checks the rank of a simple or product input alike, and a
disagreement raises, because it can only mean a bug on one side.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm

from .errors import (
    DimensionTooLarge,
    NonIntegralPolygon,
    NotSufficientlyLarge,
    OracleDisagreement,
    PreconditionViolation,
    WeilrankError,
)
from .exactcore import IntPoly, is_perfect_square
from .newton import NewtonPolygon, NewtonType, classify_newton, newton_polygon
from .relfinder import OracleRank, oracle_rank
from .subfields import (
    ConjugateFactorization,
    _sextic_witness,
    _subfield_candidates,
    conjugate_factorizations,
    norm_condition,
    p_splits,
)
from .weil import (
    EigenvalueStructure,
    WeilPolynomial,
    base_change,
    ratio_torsion_orders,
    validate,
)

__all__ = [
    "ClassificationReport",
    "sufficiency_degree",
    "classify",
    "classify_auto",
    "theorem_diagnostics",
    "fourfold_diagnostic",
]


def sufficiency_degree(w: WeilPolynomial) -> int:
    """Least extension degree after which the eigenvalue group has no torsion:
    the lcm of `ratio_torsion_orders(w)`, read off the degree-g^2 polynomial
    T_V of the values q (rho + 1/rho) over the eigenvalue ratios rho, and
    for g = 3 the order of zeta = G(0)^2 / q^3 != 1 for P = G * conj(G) over
    an imaginary quadratic field (`_sextic_witness`), the torsion of a
    product of three eigenvalues that an irreducible sextic and a quartic
    times a curve carry alike; zeta^n = 1 over F_(q^n).

    Two facts make these tests enough for pairwise ratios.
      * Torsion among the beta = q^(-1) alpha^2 is already ratio torsion.
        For a non-real alpha, beta = alpha / conj(alpha) is a ratio of two
        distinct roots; for alpha = +-sqrt(q), beta = 1.
      * One base change is enough.  If (alpha/gamma)^n is a root of unity,
        so is alpha/gamma, so every torsion ratio over F_(q^n) is the n-th
        power of a torsion ratio over F_q.  With n the lcm of their orders
        each of them becomes 1, and F_(q^n) has no ratio torsion left.
    For g = 4 only pairwise ratios are seen (ROADMAP item 10).
    """
    found = _sextic_witness(w.poly, w.p, w.v, norm_one=False) if w.g == 3 else None
    return lcm(*ratio_torsion_orders(w), found[1] if found else 1)


@dataclass(frozen=True)
class ClassificationReport:
    """The verdict of `classify` over the field q.  `simple` means one distinct
    irreducible factor, so E^3 over F_(5^12) is simple here until the Honda-Tate
    index of ROADMAP item 6 tells an isotypic P from a simple one."""

    g: int
    q: int
    poly: IntPoly
    sufficiency_degree: int
    simple: bool
    neat: bool
    rank: int
    newton: NewtonType
    polygon: NewtonPolygon
    condition_i: bool
    condition_ii: bool
    condition_iii: bool
    witness: ConjugateFactorization | None
    components: tuple[EigenvalueStructure, ...]
    oracle: OracleRank | None
    extension_from: tuple[int, int] | None = None  # (original q, degree applied)

    @property
    def gamma_rank(self) -> int:
        return self.rank + 1


def _require_sufficient(w: WeilPolynomial):
    n = sufficiency_degree(w)
    if n > 1:
        raise NotSufficientlyLarge(n)


def classify(w: WeilPolynomial, force_oracle: bool = False) -> ClassificationReport:
    """Neatness, rank, and condition flags over a sufficiently large field.

    The caller extends the field first (see `classify_auto`); a field with
    eigenvalue torsion is rejected so every verdict names the field it
    holds over.  Every rank is a theorem; `force_oracle` cross-checks it
    against the certified oracle, which otherwise is not called.
    """
    _require_dimension(w)
    _require_sufficient(w)
    return _classify_sufficient(w, force_oracle)


def _require_dimension(w: WeilPolynomial):
    if w.g > 3:
        raise DimensionTooLarge(
            f"dimension {w.g} > 3; use fourfold_diagnostic for g = 4"
        )


def _classify_sufficient(w: WeilPolynomial, force_oracle: bool) -> ClassificationReport:
    """The classification body, for a field already known to be sufficient.

    A polygon with a non-integral segment is refused first: slopes and
    lengths do not change under base change, so `classify` and
    `classify_auto` refuse the same P.
    """
    polygon = newton_polygon(w)
    # slope * length is an integer on the polygon of every abelian variety; a formal
    # Weil polynomial can break it, so no variety has its eigenvalues: t^2 + 2t + 8
    # over F_8 has slopes 1/3 and 2/3 of length one
    for s, l in polygon.segments:
        if l % s.denominator:
            raise NonIntegralPolygon(
                f"Newton polygon slope {s} has length {l}, and {s} * {l} is not"
                f" an integer: no abelian variety of dimension {w.g} has these eigenvalues"
            )
    ntype = classify_newton(polygon, w.g)
    comps = w.components
    witness = None
    cond_i = cond_ii = cond_iii = False

    if len(comps) == 1:
        comp = comps[0]
        simple = True
        if comp.supersingular:
            neat, rank = True, 0
        elif comp.pmin.degree == 6:
            # (i) by theorem: the only real eigenvalues, +-sqrt(q), have degree
            # at most 2, so an irreducible sextic Weil factor has no real root
            cond_i = True
            cond_iii = "almost_ordinary" in ntype.labels
            found = _sextic_witness(comp.pmin, w.p, w.v, norm_one=True)
            witness, cond_ii = (found[0], True) if found else (None, False)
            neat = not (cond_i and cond_ii and cond_iii)
            rank = 3 if neat else 2
        else:
            # dimension <= 2, or a repeated factor: neat, pair-count rank
            neat, rank = True, comp.d
    else:
        simple = False
        neat = True
        rank = _combined_rank(comps, w)

    oracle = oracle_rank(w) if force_oracle else None
    if oracle is not None and oracle.rank != rank:
        msg = f"classifier rank {rank} != oracle rank {oracle.rank} for {w.poly}"
        raise OracleDisagreement(msg)
    report = ClassificationReport(
        g=w.g,
        q=w.q,
        poly=w.poly,
        sufficiency_degree=1,
        simple=simple,
        neat=neat,
        rank=rank,
        newton=ntype,
        polygon=polygon,
        condition_i=cond_i,
        condition_ii=cond_ii,
        condition_iii=cond_iii,
        witness=witness,
        components=comps,
        oracle=oracle,
    )
    if not 0 <= rank <= w.g or report.gamma_rank > sum(c.pmin.degree for c in comps) // 2 + 1:
        raise WeilrankError(f"rank {rank} out of range for {w.poly}")
    if (rank == 0) != ("supersingular" in ntype.labels):
        raise WeilrankError(f"rank {rank} contradicts the Newton polygon of {w.poly}")
    return report


def _combined_rank(comps, w: WeilPolynomial) -> int:
    """Rank of a g <= 3 product from the unit-group collapse rules.

    The ordinary curve t^2 + c t + q has CM field Q(sqrt(d)), d = c^2 - 4q < 0,
    and Q(sqrt(d)) = Q(sqrt(e)) exactly when d e is a square, so the fields
    are compared by square class and no integer is factored.  Ordinary
    elliptic factors with one CM field give rank 1, with two
    fields rank 2.  Three pairwise distinct fields K1, K2, K3 give rank 3:
    the third quadratic subfield Q(sqrt(d2 d3)) of K2 K3 is real, so
    K1 meets K2 K3 only in Q, and a relation would force beta_1^a = +-1,
    which is torsion and therefore 1 over a sufficiently large field.  A
    quartic surface gives 2, and an elliptic factor adds 1 unless its CM
    field K = Q(sqrt(d)) is one of the surface's subfields, that is when
    d m is a square for one of the integers m that `_subfield_candidates`
    gives with `square_class=int`, so no integer is factored here either.

    The relative norm of q^(-1) Fr^2 to K is then never 1, so it is not
    tested.  The split pmin = G * conj(G), G = t^2 + A t + B over K, puts
    one root of each conjugate pair in G: if G held alpha and conj(alpha),
    so would conj(G), and pmin would have a double root.  The norm is 1
    exactly when B = alpha_a alpha_b = +-q, that is alpha_a = +-conj(alpha_b).
    The + sign puts a root twice in pmin; the - sign makes alpha_a /
    conj(alpha_b) = -1 a ratio of distinct eigenvalues, which
    `ratio_torsion_orders` reports, so no sufficiently large field has it.
    A root of unity N beta_E = zeta != 1, as for (t^4 - 4t^3 + 35t^2 - 100t + 625)
    (t^2 - 8t + 25) over F_25, is the zeta of `sufficiency_degree`, which clears it.
    """
    active = [c for c in comps if not c.supersingular]
    quad = [c for c in active if c.pmin.degree == 2]
    quartic = [c for c in active if c.pmin.degree == 4 and c.e == 1]
    if len(quad) + len(quartic) != len(active):
        # a non-supersingular sextic or repeated quartic needs g > 3
        raise PreconditionViolation(f"unexpected component in the product {w.poly}")
    ds = [c.pmin.coeffs[1] ** 2 - 4 * w.q for c in quad]
    fields = [d for i, d in enumerate(ds) if not any(is_perfect_square(d * e) for e in ds[:i])]
    if not quartic:
        return len(fields)
    # exactly one quartic (degrees forbid two) plus at most one elliptic factor
    ms = _subfield_candidates(quartic[0].pmin, w.q, square_class=int) if fields else []
    return 2 + sum(not any(is_perfect_square(d * m) for m in ms) for d in fields)


def classify_auto(w: WeilPolynomial, force_oracle: bool = False) -> ClassificationReport:
    """Extend to a sufficiently large field first, then classify.

    The report records which field the verdict refers to: `extension_from`
    holds the original q and the degree applied.  By `sufficiency_degree`
    that field has no ratio torsion, so the torsion check of `classify` is
    not repeated there.
    """
    _require_dimension(w)
    n = sufficiency_degree(w)
    wn = base_change(w, n) if n > 1 else w
    report = _classify_sufficient(wn, force_oracle)
    return replace(report, sufficiency_degree=n, extension_from=(w.q, n))


# -- theorem-level diagnostics ----------------------------------------------


@dataclass(frozen=True)
class TheoremDiagnostics:
    """Consistency findings; a contradiction entry means an implementation bug."""

    inert_subfield: tuple[dict, ...]
    slope_parity: dict | None
    product_collapse: dict | None
    contradictions: tuple[str, ...]


def theorem_diagnostics(w: WeilPolynomial) -> TheoremDiagnostics:
    """Evaluate the non-split-subfield, slope-parity, and collapse criteria.

    (a) simple with an imaginary quadratic subfield in which p does not
    split: the relative norm of q^(-1) Fr^2 must be 1 and the rank must
    drop below the pair count; (b) simple, irreducible, two slopes
    {c, 1-c} with c != 1/2 and rank = g - 1 forces g even; (c) for a pair
    of simple non-supersingular components whose product rank collapses by
    one, a shared imaginary quadratic field with p split and non-torsion
    norms must exist.  Necessary-only directions are reported as such.
    """
    _require_sufficient(w)
    comps = w.components
    rk = oracle_rank(w)
    contradictions: list[str] = []
    inert_checks: list[dict] = []
    slope_parity = None
    product_collapse = None

    if len(comps) == 1:
        pmin = comps[0].pmin
        d = pmin.degree // 2
        if comps[0].sqrt_root == "none":
            for cf in conjugate_factorizations(pmin):
                split = p_splits(cf.m, w.p)
                if split == "split":
                    continue
                norm_one = norm_condition(cf, w.q)
                rank_lt_d = rk.rank < d
                check = {
                    "m": cf.m,
                    "p_splitting": split,
                    "norm_is_one": norm_one,
                    "rank": rk.rank,
                    "pair_count": d,
                    "consistent": norm_one and (d <= 1 or rank_lt_d),
                }
                inert_checks.append(check)
                if not check["consistent"]:
                    contradictions.append(f"inert_subfield:m={cf.m}")
        polygon = newton_polygon(w)
        slopes = set(polygon.slopes)
        if (
            comps[0].e == 1
            and len(slopes) == 2
            and Fraction(1, 2) not in slopes
        ):
            ok = not (rk.rank == w.g - 1 and w.g % 2 == 1)
            slope_parity = {"rank": rk.rank, "g": w.g, "consistent": ok}
            if not ok:
                contradictions.append("slope_parity")
    else:
        active = [c for c in comps if not c.supersingular]
        if len(active) == 2:
            # component ranks from pair counts (both components neat: g <= 2)
            r_parts = [c.d for c in active]
            collapsed = rk.rank == sum(r_parts) - 1
            shared = None
            if collapsed:
                shared_ms = set(_imaginary_fields(active[0]))
                shared_ms &= set(_imaginary_fields(active[1]))
                if shared_ms:
                    m = min(shared_ms, key=abs)
                    shared = {"m": m, "p_splits": p_splits(m, w.p)}
                else:
                    contradictions.append("product_collapse:no_shared_field")
            product_collapse = {
                "component_ranks": r_parts,
                "product_rank": rk.rank,
                "collapsed_by_one": collapsed,
                "shared_field": shared,
            }
    return TheoremDiagnostics(
        inert_subfield=tuple(inert_checks),
        slope_parity=slope_parity,
        product_collapse=product_collapse,
        contradictions=tuple(contradictions),
    )


def _imaginary_fields(c: EigenvalueStructure):
    """The m < 0 with Q(sqrt(m)) inside the component's field."""
    if c.sqrt_root != "none":
        return []
    return [cf.m for cf in conjugate_factorizations(c.pmin)]


@dataclass(frozen=True)
class FourfoldDiagnostic:
    decomposition: tuple[tuple[IntPoly, int], ...]
    newton_primary: str
    oracle: OracleRank
    rank_is_three: bool
    quadratic_subfield_in_component: bool
    non_neat_threefold_component: bool


def fourfold_diagnostic(w: WeilPolynomial) -> FourfoldDiagnostic:
    """Informational report for g = 4: decomposition, polygon, oracle rank.

    When the rank is 3, reports whether some component's CM field contains
    an imaginary quadratic subfield, and whether the variety decomposes as
    (non-neat almost-ordinary threefold) x (ordinary elliptic curve).  No
    neatness verdict is issued in dimension 4.
    """
    if w.g != 4:
        raise PreconditionViolation("fourfold diagnostic needs g = 4")
    _require_sufficient(w)
    comps = w.components
    polygon = newton_polygon(w)
    ntype = classify_newton(polygon, w.g)
    rk = oracle_rank(w)
    has_quad = False
    non_neat_threefold = False
    if rk.rank == 3:
        has_quad = any(_imaginary_fields(c) for c in comps)
        sextics = [c for c in comps if c.pmin.degree == 6 and c.e == 1]
        elliptics = [c for c in comps if c.pmin.degree == 2 and c.e == 1]
        if len(sextics) == 1 and len(elliptics) == 1 and len(comps) == 2:
            sub = validate(sextics[0].pmin, w.q)
            sub_report = classify(sub)
            non_neat_threefold = not sub_report.neat
    return FourfoldDiagnostic(
        decomposition=w.factors,
        newton_primary=ntype.primary,
        oracle=rk,
        rank_is_three=rk.rank == 3,
        quadratic_subfield_in_component=has_quad,
        non_neat_threefold_component=non_neat_threefold,
    )
