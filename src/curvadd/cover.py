"""The decision core: can a nonzero additive map f on F_{p^k} satisfy
f(x) * f(y) = 0 at every point (x, y) of a curve?

Two independent deciders answer it:

* decide_by_hyperplanes: a nonzero f works iff its kernel, widened to
  any hyperplane containing it, covers every point in one coordinate.
  So it suffices to test the (p^k - 1)/(p - 1) trace-functional
  hyperplanes.
* decide_by_exhaustion: decide every one of the p^(k^2) nonzero
  linearized maps against every point, an oracle for the first
  decider.  A map f = sum a_i x^(p^i) is a vector a of F_q^k, and
  f(x) = 0 is one linear equation in it, a hyperplane H_x for x != 0
  (Lidl-Niederreiter, Finite Fields, 3.4), so the working maps are
  the nonzero vectors of the intersection over the points of
  H_x u H_y.  The oracle branches on subspaces V of F_q^k, cutting V
  by H_x or H_y at each point that constrains it; the walk covers
  every map, and stays exhaustive, in at most 2^(k+1) - 1 nodes
  instead of q^k steps.

Each of the three per-point checks runs on integer arithmetic of its
own, so no shared shortcut can hide a bug from the others:

* the hyperplane decider uses the trace form: Tr(a x) = a^T T x over
  F_p, with T the Gram matrix Tr(g^(i+j)) of the power basis, so each
  membership test is a length-k dot product mod p on the digits of a;
* the oracle uses discrete logs and Zech's logarithms
  (fields.code_tables, the tables the point scans run on);
* verify_witness uses the witness's own F_p matrix (to_matrix), one
  matrix-vector product per distinct coordinate, once per witness.

The zero-forcing bound and its conic/elliptic specializations are
evaluated in exact integer arithmetic; square roots never appear, as
both sides are squared after a sign check, so boundary cases are
decided exactly.  conic_bound and elliptic_bound also carry the
statement's case splits, as claimed_by_statement.  analyze() bundles
everything and hard-errors if any applicable forcing bound contradicts
the search verdict.

A verdict holds its witness map and nothing derived from it: the
deciders compute no kernel, and CoverVerdict.witness_subspace takes it
from the map when a report asks.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index, mul

from . import additive, claims
from .additive import LinearizedMap, hyperplane_functionals
from .caps import check_cap, effective_cap
from .errors import ContextMismatch, Frozen, Inconsistent
from .curve import (
    PointSet,
    fibre_scan,
    hasse_weil_window,
    points_at_infinity_count,
    singular_points,
    singular_scan_steps,
)
from .fields import _digits, check_pk, code_tables

# Not called here any more, but bench/spans.py times the pipeline by
# wrapping these names on this module.
from .curve import affine_points, axis_parallel_lines  # noqa: F401


class CoverVerdict(Frozen):
    """Outcome of a search for a nonzero f with f(x)f(y) = 0 on all
    points.  If exists_nonzero, witness_map is such an f; method names
    the decider.  The kernel is not stored: witness_subspace derives
    it from the map."""

    exists_nonzero: bool
    witness_map: object = None
    method: str = "hyperplane-search"

    @property
    def witness_subspace(self):
        """The kernel of witness_map as a Subspace, None without a map."""
        f = self.witness_map
        return None if f is None else f.kernel()


class BoundReport(Frozen):
    """One forcing bound, with the exact integers behind the verdict.

    d is the curve degree the bound is about (2 for conic, 3 for
    elliptic); a bound applies to a curve iff d is its degree.

    forced_zero means: every additive f vanishing multiplicatively on
    the curve must be identically zero.  exact_terms holds the integer
    comparison terms, as (name, value) pairs, so boundary cases are
    auditable.
    """

    name: str
    forced_zero: bool
    exact_terms: tuple
    m: int = None
    d: int = None
    cover_lower_bound: Fraction = None
    claimed_by_statement: bool = None


def zero_forcing_inequality(p, k, d):
    """The main bound: (q + 1 - (d-1)(d-2) sqrt(q) - d) / d > 2 p^(k-1).

    Rearranged to A > B * sqrt(q) with A = q + 1 - d - 2 d p^(k-1) and
    B = (d-1)(d-2), then squared: holds iff A > 0 and A^2 > B^2 * q.
    """
    p, k = check_pk(p, k)
    d = index(d)
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    q = p**k
    a = q + 1 - d - 2 * d * p ** (k - 1)
    b = (d - 1) * (d - 2)
    forced = a > 0 and a * a > b * b * q
    return BoundReport(
        name="inequality1",
        forced_zero=forced,
        exact_terms=(
            ("q", q),
            ("d", d),
            ("A", a),
            ("A_squared", a * a),
            ("B", b),
            ("B_squared_times_q", b * b * q),
        ),
        d=d,
    )


def zero_forcing_by_count(m, d, p, k):
    """Count form of the bound: m/d > 2 p^(k-1) with the true affine
    point count m, compared as exact rationals."""
    p, k = check_pk(p, k)
    m, d = index(m), index(d)
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    threshold = 2 * p ** (k - 1)
    forced = Fraction(m, d) > threshold
    return BoundReport(
        name="by_count",
        forced_zero=forced,
        exact_terms=(("m", m), ("d", d), ("two_p_km1_times_d", threshold * d)),
        m=m,
        d=d,
        cover_lower_bound=Fraction(m, d),
    )


def conjectural_by_count(m, d, p, k):
    """The conjectured sharper threshold m/d > p^(k-1), with the factor
    2 dropped.  Reported only; never used to force a verdict.  The
    arguments are refused as zero_forcing_by_count refuses them."""
    lower = zero_forcing_by_count(m, d, p, k).cover_lower_bound
    return lower > p ** (k - 1)


def conic_bound(p, k):
    """Conic specialization (d = 2): forced iff q - 1 > 4 p^(k-1).

    The statement-level claim is p >= 5; at (p=5, k=1) the inequality
    itself fails (4 > 4), so claimed_by_statement and forced_zero can
    disagree there.
    """
    p, k = check_pk(p, k)
    q = p**k
    lhs = q - 1
    rhs = 4 * p ** (k - 1)
    return BoundReport(
        name="conic",
        forced_zero=lhs > rhs,
        exact_terms=(("q_minus_1", lhs), ("four_p_km1", rhs)),
        d=2,
        claimed_by_statement=p >= 5,
    )


def elliptic_bound(p, k):
    """Smooth cubic specialization: forced iff
    (p - 6) p^(k-1) > 2 p^(k/2), squared to
    p > 6 and (p - 6)^2 p^(k-1) > 4 p.

    The statement-level claim is p > 13, p = 7 with k > 2, or
    p in {11, 13} with k > 1.
    """
    p, k = check_pk(p, k)
    lhs = (p - 6) ** 2 * p ** (k - 1)
    rhs = 4 * p
    forced = p > 6 and lhs > rhs
    return BoundReport(
        name="elliptic",
        forced_zero=forced,
        exact_terms=(
            ("p_minus_6", p - 6),
            ("p_minus_6_sq_times_p_km1", lhs),
            ("four_p", rhs),
        ),
        d=3,
        claimed_by_statement=(
            p > 13 or (p == 7 and k > 2) or (p in (11, 13) and k > 1)
        ),
    )


# ---------------------------------------------------------------------------
# Decision procedures.


def _point_codes(points, ctx):
    """The (x, y) code pairs of points over ctx: a PointSet's own, or
    the codes of each pair of coordinates by ctx.coerce.  A point of
    another context raises ContextMismatch."""
    if isinstance(points, PointSet):
        if points.codes and points.ctx != ctx:
            raise ContextMismatch("point from a different context")
        return points.codes
    return [(int(ctx.coerce(x)), int(ctx.coerce(y))) for x, y in points]


def _trace_gram(ctx):
    """The Gram matrix T of the trace form, T_ij = Tr(g^(i+j)) mod p,
    with g the power-basis generator (the root of the modulus), so
    that Tr(a x) = a^T T x on coordinate vectors.

    Tr(g^m) is the m-th power sum of the roots of the modulus, which
    Newton's identities give from its coefficients c_0..c_k: for
    m <= k, s_m = -(sum_{i<m} c_{k-i} s_{m-i} + m c_{k-m}); beyond k,
    s_m = -sum_{i<=k} c_{k-i} s_{m-i}.  For k = 1, T = [[1]].
    """
    p, k, c = ctx.p, ctx.k, ctx.modulus
    s = [k % p]
    for m in range(1, 2 * k - 1):
        acc = m * c[k - m] if m <= k else 0
        for i in range(1, min(m, k + 1)):
            acc += c[k - i] * s[m - i]
        s.append(-acc % p)
    return tuple(tuple(s[i + j] for j in range(k)) for i in range(k))


def decide_by_hyperplanes(points, ctx):
    """Search the hyperplanes for one covering every point.

    A nonzero additive f works iff ker f, and hence some hyperplane
    containing ker f, covers all points in one coordinate; so testing
    hyperplanes alone is complete.  Membership x in ker Tr(a .) is
    a . w_x = 0 mod p on the digits of a, where w_x = T x is the trace
    covector of x (see _trace_gram); only the witness a becomes a map,
    by additive.trace_functional.  Points are read as codes, and w_x is
    computed from the base-p digits of x's code when a candidate's test
    first reaches x: with no witness, most candidates fail within a few
    points.
    """
    pairs = _point_codes(points, ctx)
    p, k = ctx.p, ctx.k
    gram = _trace_gram(ctx)
    covectors = {}

    def covector(code):
        digits = _digits(code, p, k)
        got = covectors[code] = tuple(sum(map(mul, row, digits)) % p for row in gram)
        return got

    for a in hyperplane_functionals(ctx):
        digits = a.coeffs
        for x, y in pairs:
            wx = covectors.get(x) or covector(x)
            if sum(map(mul, digits, wx)) % p:
                wy = covectors.get(y) or covector(y)
                if sum(map(mul, digits, wy)) % p:
                    break
        else:
            return CoverVerdict(True, additive.trace_functional(a), "hyperplane-search")
    return CoverVerdict(False, method="hyperplane-search")


def _subspace_walk(pairs, ctx):
    """The least working map as a tuple of coefficient codes, or None
    when only the zero map works, and the number of nodes walked, for
    the points given as (x, y) code pairs.

    A map a = (a_0, ..., a_{k-1}) vanishes at x iff a . h_x = 0 with
    h_x = (x, x^p, ..., x^(p^(k-1))): a hyperplane H_x of F_q^k when
    x != 0, all of it when x = 0.  The working maps are therefore the
    nonzero vectors of the intersection over the points of
    H_x u H_y.  The walk starts from V = F_q^k and, at the first point
    with V in neither H_x nor H_y, recurses into V n H_x and V n H_y;
    a V that lies in H_x or H_y at every point is a leaf.  Each step
    down drops the dimension by one, so the walk has depth at most k
    and at most 2^(k+1) - 1 nodes; a V reached twice with the same
    next point is walked once.

    V is held by its reduced row echelon basis, rows in pivot order.
    Its least nonzero vector, in code order with a_0 most significant,
    is its last row: a nonzero vector's first nonzero entry sits in a
    pivot column, the vectors zero before the last pivot are the
    multiples of the last row, and the pivot 1 has the least nonzero
    code.  The least working map is the least last row over the leaves.

    To cut V by a . h = 0, take the last row r_t with s_t = r_t . h
    nonzero and replace each earlier row r_i by r_i - (s_i / s_t) r_t.
    The later rows already lie in the hyperplane, r_t is zero in every
    other pivot column and nonzero only in later non-pivot ones, so the
    rows left are again in reduced echelon form.

    Entries are logs of element codes (None for zero, so the pivot 1
    is log 0), products are sums of logs and each addition is one
    Zech-table lookup (fields.code_tables): a code path disjoint from
    the trace form of the hyperplane search.
    """
    tables = code_tables(ctx)
    exp, log, zech = tables.exp, tables.log, tables.zech
    n = len(zech)
    k = ctx.k
    half = n // 2
    # log(x^(p^j)) = log(x) p^j mod n
    steps = [pow(ctx.p, j, n) for j in range(k)]

    # one (h_x, h_y) pair of log vectors per point with no zero
    # coordinate; (x, y) and (y, x) constrain alike, so keep one
    constraints = []
    seen = set()
    for x, y in pairs:
        lx, ly = log[x], log[y]
        if lx is None or ly is None:
            continue
        key = (lx, ly) if lx <= ly else (ly, lx)
        if key in seen:
            continue
        seen.add(key)
        constraints.append(tuple(tuple(lv * s % n for s in steps) for lv in key))

    def add(a, b):
        # the log of g^a + g^b
        if a is None:
            return b
        if b is None:
            return a
        z = zech[(b - a) % n]
        return None if z is None else (a + z) % n

    def dot(row, h):
        # the log of row . h, left unreduced mod n
        acc = None
        for a, b in zip(row, h):
            if a is None:
                continue
            t = a + b
            if acc is None:
                acc = t
            else:
                z = zech[(t - acc) % n]
                acc = None if z is None else acc + z
        return acc

    def cut(rows, s):
        t = max(i for i, v in enumerate(s) if v is not None)
        pivot_row, st = rows[t], s[t]
        out = []
        for i, row in enumerate(rows[:t]):
            if s[i] is None:
                out.append(row)
            else:
                # -(s_i / s_t) has log s_i - s_t + n/2, since -1 = g^(n/2)
                c = s[i] - st + half
                out.append(tuple(
                    add(a, None if b is None else (b + c) % n)
                    for a, b in zip(row, pivot_row)
                ))
        return tuple(out) + rows[t + 1:]

    memo = {}
    nodes = 0

    def walk(rows, start):
        nonlocal nodes
        if (rows, start) in memo:
            return memo[rows, start]
        nodes += 1
        best = None
        if rows:
            for i in range(start, len(constraints)):
                hx, hy = constraints[i]
                sx = [dot(row, hx) for row in rows]
                if all(v is None for v in sx):
                    continue
                sy = [dot(row, hy) for row in rows]
                if all(v is None for v in sy):
                    continue
                found = (walk(cut(rows, s), i + 1) for s in (sx, sy))
                best = min((f for f in found if f is not None), default=None)
                break
            else:
                best = tuple(0 if a is None else exp[a] for a in rows[-1])
        memo[rows, start] = best
        return best

    identity = tuple(
        tuple(0 if i == j else None for j in range(k)) for i in range(k)
    )
    return walk(identity, 0), nodes


def decide_by_exhaustion(points, ctx):
    """Exhaustive oracle: the first working map in code order, found by
    branching on subspaces of the coefficient space instead of walking
    the maps.

    The maps f(x) = sum a_i x^(p^i) are ordered by the codes of
    (a_0, ..., a_{k-1}) with a_{k-1} fastest, and the reported witness
    is the first working map in that order.  The working maps are the
    nonzero vectors of the leaves of a depth-first walk that cuts F_q^k
    by the kernel hyperplane of one coordinate of a point at a time
    (_subspace_walk).  Every one of the q^k maps is decided: a map that
    works lies in the leaf reached by following, at each cut, a
    coordinate where it vanishes, and a map that fails at some point
    lies in no leaf.  So the oracle stays complete while the walk has
    at most 2^(k+1) - 1 nodes.  Arithmetic runs on the logs of element
    codes with Zech-table sums, independent of the hyperplane search
    and of verify_witness.

    The cap counts the q entries of the code tables, as the hyperplane
    decider's counts the q codes of its candidates, and refuses before
    they are built; the walk's nodes are fewer.
    """
    check_cap("exhaustive oracle", ctx.order)
    codes, _ = _subspace_walk(_point_codes(points, ctx), ctx)
    if codes is None:
        return CoverVerdict(False, method="exhaustive-oracle")
    witness = LinearizedMap(ctx, [ctx.decode(c) for c in codes])
    return CoverVerdict(True, witness, "exhaustive-oracle")


def verify_witness(verdict, points):
    """Post-hoc soundness: the witness is nonzero and vanishes on a
    coordinate of every point.

    f(v) = M v over F_p with M = f.to_matrix(), so each distinct
    coordinate costs one integer matrix-vector product on the base-p
    digits of its code; f itself is evaluated only on the k basis
    elements, and no point is decoded.
    """
    if not verdict.exists_nonzero:
        return True
    f = verdict.witness_map
    if f is None or f.is_zero():
        return False
    ctx = f.ctx
    pairs = _point_codes(points, ctx)
    p, k = ctx.p, ctx.k
    matrix = f.to_matrix()
    zeros = {}

    def zero_at(code):
        hit = zeros.get(code)
        if hit is None:
            digits = _digits(code, p, k)
            hit = zeros[code] = not any(
                sum(map(mul, row, digits)) % p for row in matrix
            )
        return hit

    for x, y in pairs:
        if not (zero_at(x) or zero_at(y)):
            return False
    return True


def check_verdicts(verdicts, points, c):
    """Raise Inconsistent unless verify_witness accepts the witness of
    every verdict on the points of curve c, and the verdicts then agree
    on exists_nonzero; each distinct witness is verified once."""
    verified = set()
    for verdict in verdicts:
        if not verdict.exists_nonzero or verdict.witness_map in verified:
            continue
        verified.add(verdict.witness_map)
        if not verify_witness(verdict, points):
            raise Inconsistent(
                f"INCONSISTENT: {verdict.method} returned a witness that "
                f"fails re-verification on {c!r}; this is a bug"
            )
    first = verdicts[0]
    for verdict in verdicts[1:]:
        if verdict.exists_nonzero != first.exists_nonzero:
            raise Inconsistent(
                f"INCONSISTENT: {first.method} says exists_nonzero="
                f"{first.exists_nonzero} but {verdict.method} says "
                f"{verdict.exists_nonzero} for {c!r}; this is a bug"
            )


# ---------------------------------------------------------------------------
# The full pipeline.


class AnalysisReport(Frozen):
    """Everything analyze() established about one curve."""

    curve: object
    points: object  # PointSet
    infinity_count: int
    singular: object  # PointSet over the searched extension, or None
    singular_ext_used: int  # 0 only when singular_ext=0 asked for no scan
    hw: object  # HWWindow
    inequality1: BoundReport
    by_count: BoundReport
    conic: BoundReport
    elliptic: BoundReport
    conjectural_flag: bool
    decision: CoverVerdict
    oracle_verdict: CoverVerdict = None
    oracle_agreement: str = "skipped"  # "agree", or "skipped" for oracle="off"
    paper_flags: tuple = ()

    @property
    def forcing_bounds(self):
        """The bounds for the curve's degree that report forced_zero."""
        bounds = (self.inequality1, self.by_count, self.conic, self.elliptic)
        return [b for b in bounds if b.d == self.curve.degree and b.forced_zero]


def _feasible_singular_ext(ctx, requested):
    """Largest extension degree <= requested whose singular scan fits
    the cap in force (0 when even degree 1 does not fit).  The scan
    grows with m, so the search stops at the first m that does not fit,
    however large `requested` is."""
    best = 0
    while best < requested and singular_scan_steps(ctx, best + 1) <= effective_cap():
        best += 1
    return best


def analyze(c, singular_ext=2, oracle="auto"):
    """Run the whole pipeline on one curve.

    oracle: "auto" and "on" cross-check the hyperplane decider with the
    exhaustive oracle, "off" skips it.  Bad arguments are refused before
    any scan starts.  The deciders' own refusals, on q, cannot fire
    here: the affine scan has already passed its q^2 pairs.

    Raises Inconsistent when an applicable forcing bound contradicts
    the search verdict or the two deciders disagree; the message
    carries every hypothesis problem detected (singular points, window
    violation, axis lines), since a violated hypothesis is the usual
    cause.
    """
    if oracle not in ("auto", "on", "off"):
        raise ValueError(f"oracle must be auto|on|off, got {oracle!r}")
    requested_ext = index(singular_ext)
    if requested_ext < 0:
        raise ValueError(f"singular_ext must be >= 0, got {requested_ext}")
    ctx = c.ctx
    p, k, d = ctx.p, ctx.k, c.degree
    run_oracle = oracle != "off"

    scan = fibre_scan(c)
    points = scan.points
    inf_count = points_at_infinity_count(c)
    hw = hasse_weil_window(c, affine_count=points.count, infinity_count=inf_count)

    ext_used = _feasible_singular_ext(ctx, requested_ext)
    if ext_used == 1:
        singular = scan.singular
    elif ext_used:
        singular = singular_points(c, ext_used)
    else:
        singular = None

    ineq1 = zero_forcing_inequality(p, k, d)
    by_count = zero_forcing_by_count(points.count, d, p, k)
    conic = conic_bound(p, k)
    elliptic = elliptic_bound(p, k)
    conjectural = conjectural_by_count(points.count, d, p, k)

    decision = decide_by_hyperplanes(points, ctx)

    oracle_verdict = decide_by_exhaustion(points, ctx) if run_oracle else None

    notes = []
    if singular is not None and singular.count:
        shown = ", ".join(f"({x!r}, {y!r})" for x, y in list(singular)[:4])
        notes.append(
            f"singular point(s) over F_{p}^{ctx.k * ext_used}: {shown}"
        )
    if hw.verdict == "violates-window":
        notes.append(
            f"point count N = {hw.n_points} falls outside the window "
            f"[{hw.lower}, {hw.upper}]; the curve cannot be smooth and "
            "absolutely irreducible"
        )
    if scan.lines:
        notes.append(
            "axis-parallel line component(s) on the curve: "
            + ", ".join(scan.lines)
            + "; the per-line point bound behind the counting argument fails"
        )

    check_verdicts([v for v in (decision, oracle_verdict) if v is not None], points, c)

    flags = list(claims.claim_flags(c, points, decision, singular=singular))
    for bound in (conic, elliptic):
        if bound.d == d and (flag := claims.uncertified_flag(bound, p, k)):
            flags.append(flag)
    flags.extend("hypothesis note: " + n for n in notes)

    report = AnalysisReport(
        curve=c,
        points=points,
        infinity_count=inf_count,
        singular=singular,
        singular_ext_used=ext_used,
        hw=hw,
        inequality1=ineq1,
        by_count=by_count,
        conic=conic,
        elliptic=elliptic,
        conjectural_flag=conjectural,
        decision=decision,
        oracle_verdict=oracle_verdict,
        oracle_agreement="agree" if run_oracle else "skipped",
        paper_flags=tuple(flags),
    )

    if report.forcing_bounds and decision.exists_nonzero:
        fired = ", ".join(b.name for b in report.forcing_bounds)
        detail = "; ".join(notes) if notes else "no hypothesis problem detected"
        raise Inconsistent(
            f"INCONSISTENT: bound(s) [{fired}] force every f to be zero, "
            f"yet a nonzero witness exists for {c!r} "
            f"(witness {report.decision.witness_map!r}). "
            f"Hypothesis check: {detail}."
        )

    return report
