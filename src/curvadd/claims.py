"""Registry of the published claims this toolkit audits.

Each entry transcribes a claim as stated (point counts, point lists,
witness assertions, smoothness language) so reports can print claim
and computation side by side.  When they disagree, the discrepancy is
a finding to surface under paper_flags, never something to reconcile
silently.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import Frozen
from .poly import parse_bipoly


class CurveClaim(Frozen):
    """One curve together with what is claimed about it."""

    label: str
    p: int
    k: int
    expression: str
    claimed_point_codes: tuple  # ((x, y) integer pairs) as published
    claimed_count: int
    claims_identity_witness: bool  # claims f(x) = x satisfies the condition
    claimed_smooth: bool = False


CURVE_CLAIMS = (
    CurveClaim(
        label="quadratic-over-F3",
        p=3,
        k=1,
        expression="y^2 + 2*x*y + 2*y + x",
        claimed_point_codes=((0, 0), (0, 1)),
        claimed_count=2,
        claims_identity_witness=True,
    ),
    CurveClaim(
        label="cubic-over-F5",
        p=5,
        k=1,
        expression="y^2 - x^3 - 3*x - 1",
        claimed_point_codes=((0, 1), (0, 4), (1, 0)),
        claimed_count=3,
        claims_identity_witness=True,
        claimed_smooth=True,
    ),
)


def _normalized(poly):
    """Scale so the graded-lex leading coefficient is 1; two defining
    polynomials give the same curve iff they normalize equal."""
    lead = poly.sorted_terms()[0][1]
    return poly * lead.inverse()


@lru_cache(maxsize=None)
def _claimed_poly(claim, ctx):
    """The claim's polynomial over ctx, normalized: parsed once per
    (claim, context).  Only contexts of the claim's (p, k) reach it,
    so the cache holds a few entries per claim."""
    return _normalized(parse_bipoly(claim.expression, ctx))


def claim_for_curve(curve):
    """The registry entry matching this curve, if any (same field,
    same polynomial up to a nonzero constant factor)."""
    ctx = curve.ctx
    mine = None
    for claim in CURVE_CLAIMS:
        if ctx.p != claim.p or ctx.k != claim.k:
            continue
        if mine is None:
            mine = _normalized(curve.defining)
        if _claimed_poly(claim, ctx) == mine:
            return claim
    return None


def identity_defeater(codes):
    """The first (x, y) code pair with both codes nonzero: the point
    where f(x) = x fails the vanishing condition, or None when it
    holds."""
    return next((pt for pt in codes if pt[0] and pt[1]), None)


def claim_flags(curve, points, decision, singular=None):
    """Discrepancy notices comparing the computation to the claims;
    points and singular are PointSets, read as codes."""
    claim = claim_for_curve(curve)
    if claim is None:
        return []
    flags = []
    computed_codes = points.codes
    if points.count != claim.claimed_count:
        flags.append(
            f"{claim.label}: paper claims {claim.claimed_count} affine "
            f"points; exhaustive enumeration finds {points.count}"
        )
    claimed = set(claim.claimed_point_codes)
    computed = set(computed_codes)
    for pt in sorted(claimed - computed):
        flags.append(
            f"{claim.label}: claimed point {pt} is not on the curve"
        )
    for pt in sorted(computed - claimed):
        flags.append(
            f"{claim.label}: point {pt} is on the curve but missing "
            "from the paper's list"
        )
    if claim.claims_identity_witness:
        defeating = identity_defeater(computed_codes)
        if not decision.exists_nonzero:
            where = f"; point {defeating} defeats it" if defeating else ""
            flags.append(
                f"{claim.label}: paper claims f(x) = x satisfies the "
                f"vanishing condition, but no nonzero additive map "
                f"does{where}"
            )
        elif defeating is not None:
            flags.append(
                f"{claim.label}: paper claims f(x) = x works, but point "
                f"{defeating} defeats f(x) = x (another witness exists)"
            )
    if claim.claimed_smooth and singular is not None and singular.count:
        x, y = next(iter(singular))
        flags.append(
            f"{claim.label}: paper calls this curve smooth, but "
            f"({x!r}, {y!r}) is a singular point"
        )
    return flags


def uncertified_flag(bound, p, k):
    """Flag a case the paper claims at (p, k) that its inequality does
    not force, or None; a forced case is always a claimed one."""
    if not bound.claimed_by_statement or bound.forced_zero:
        return None
    return (
        f"{bound.name} case (p={p}, k={k}): "
        "claimed by paper, not certified by its inequality"
    )
