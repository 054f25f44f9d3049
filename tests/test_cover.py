"""Zero-forcing bounds, the two deciders, and the combined analysis."""

import itertools
import random
import sys
from fractions import Fraction

import pytest

from curvadd import (
    CapExceeded,
    ContextMismatch,
    FqContext,
    FqElement,
    Inconsistent,
    LinearizedMap,
    affine_points,
    analyze,
    conic_bound,
    conjectural_by_count,
    decide_by_exhaustion,
    decide_by_hyperplanes,
    elliptic_bound,
    is_prime,
    parse_curve_file,
    verify_witness,
    zero_forcing_by_count,
    zero_forcing_inequality,
)
from curvadd import claims, cover
from curvadd.caps import effective_cap
from curvadd.curve import PointSet
from curvadd.fields import code_tables

from conftest import CUSTOM_MODULI, build_curve, odd_prime_powers, random_point_set, span_elements
from field_reference import trace
from oracle_reference import map_walk_oracle, prefix_walk_oracle


def test_inequality_exact_values():
    b = zero_forcing_inequality(7, 1, 2)
    assert b.forced_zero
    assert b.exact_terms == {
        "q": 7, "d": 2, "A": 2, "A_squared": 4, "B": 0,
        "B_squared_times_q": 0,
    }
    # d = 3 over F_7: A = 8 - 3 - 6 = -1, fails on sign alone
    assert not zero_forcing_inequality(7, 1, 3).forced_zero
    # large field, degree 3: A = 344, B = 2, A^2 > 4 * 343
    assert zero_forcing_inequality(7, 3, 3).forced_zero


def test_inequality_resolved_case_5_2_2():
    # q = 25, d = 2: A = 25 + 1 - 2 - 20 = 4 > 0 and 16 > 0.
    b = zero_forcing_inequality(5, 2, 2)
    assert b.forced_zero
    assert b.exact_terms["A"] == 4


def test_inequality_strictness():
    # A = 0 exactly at q + 1 = d(1 + 2 p^(k-1)); pick d = q = 3 shapes.
    # p=3, k=1, d=1: A = 3 + 1 - 1 - 2 = 1, B = 0: forced.
    assert zero_forcing_inequality(3, 1, 1).forced_zero
    # p=3, k=1, d=4/3 is not integral; use the A^2 vs B^2 q edge instead:
    # p=11, k=1, d=3: A = 12 - 3 - 6 = 3, B = 2, 9 > 44 false.
    b = zero_forcing_inequality(11, 1, 3)
    assert b.exact_terms["A"] == 3 and not b.forced_zero


def test_inequality_validation():
    with pytest.raises(ValueError):
        zero_forcing_inequality(2, 1, 2)
    with pytest.raises(ValueError):
        zero_forcing_inequality(9, 1, 2)
    with pytest.raises(ValueError):
        zero_forcing_inequality(5, 0, 2)
    with pytest.raises(ValueError):
        zero_forcing_inequality(5, 1, 0)
    # the FqContext limits apply: 2^63 + 29 is prime but too large
    too_big = (1 << 63) + 29
    for check in (
        lambda: zero_forcing_inequality(too_big, 1, 2),
        lambda: zero_forcing_by_count(3, 2, too_big, 1),
        lambda: conic_bound(too_big, 1),
        lambda: elliptic_bound(too_big, 1),
        lambda: FqContext(too_big),
    ):
        with pytest.raises(ValueError, match="p too large"):
            check()


def test_by_count_exact_rational_comparison():
    assert zero_forcing_by_count(5, 2, 5, 1).forced_zero  # 5/2 > 2
    assert not zero_forcing_by_count(4, 2, 5, 1).forced_zero  # 2 > 2 fails
    b = zero_forcing_by_count(7, 3, 3, 2)  # 7/3 > 6 is false
    assert not b.forced_zero
    assert b.cover_lower_bound == Fraction(7, 3)
    with pytest.raises(ValueError):
        zero_forcing_by_count(-1, 2, 5, 1)


def test_conjectural_threshold_drops_factor_two():
    # m/d = 3/2 over F_5: above p^0 = 1 but not above 2.
    assert conjectural_by_count(3, 2, 5, 1)
    assert not zero_forcing_by_count(3, 2, 5, 1).forced_zero
    assert not conjectural_by_count(2, 2, 5, 1)  # 1 > 1 fails


def test_conic_bound_and_claim():
    # q - 1 > 4 p^(k-1); the claim covers all p >= 5 but the
    # inequality itself fails at (5, 1): 4 > 4.
    b = conic_bound(5, 1)
    assert not b.forced_zero and b.claimed_by_statement
    assert b.exact_terms == {"q_minus_1": 4, "four_p_km1": 4}
    assert conic_bound(7, 1).forced_zero
    assert conic_bound(5, 2).forced_zero
    assert not conic_bound(3, 1).forced_zero
    assert not conic_bound(3, 4).claimed_by_statement
    assert conic_bound(5, 1).claimed_by_statement


def test_elliptic_bound_and_claim():
    # (p - 6)^2 p^(k-1) > 4p with p > 6.
    assert not elliptic_bound(5, 3).forced_zero  # p <= 6: never
    b = elliptic_bound(7, 1)  # 1 > 28 false
    assert not b.forced_zero and not b.claimed_by_statement
    assert elliptic_bound(7, 3).forced_zero  # 49 > 28
    assert elliptic_bound(7, 3).claimed_by_statement
    b = elliptic_bound(11, 2)
    assert b.forced_zero and b.claimed_by_statement
    assert not elliptic_bound(11, 1).claimed_by_statement
    b = elliptic_bound(17, 1)
    assert b.forced_zero and b.claimed_by_statement


def test_claim_formula_matches_computed_on_grid():
    for p in (5, 7, 11, 13, 17, 19, 23):
        for k in (1, 2, 3, 4):
            b = elliptic_bound(p, k)
            assert b.forced_zero == b.claimed_by_statement


def test_forced_case_is_always_claimed():
    # so an uncertified claim is the only mismatch the case split can show
    for p in range(3, 200, 2):
        if not is_prime(p):
            continue
        for k in range(1, 9):
            for bound in (conic_bound(p, k), elliptic_bound(p, k)):
                assert not bound.forced_zero or bound.claimed_by_statement, (p, k)
                flag = claims.uncertified_flag(bound, p, k)
                uncertified = bound.claimed_by_statement and not bound.forced_zero
                assert (flag is not None) == uncertified, (p, k)


def test_deciders_agree_on_seeded_sets():
    for p, k in ((3, 1), (5, 1), (3, 2), (7, 1)):
        ctx = FqContext(p, k)
        rng = random.Random(1000 * p + k)
        for _ in range(40):
            pts = random_point_set(rng, ctx)
            v1 = decide_by_hyperplanes(pts, ctx)
            v2 = decide_by_exhaustion(pts, ctx)
            assert v1.exists_nonzero == v2.exists_nonzero, pts
            assert v2 == map_walk_oracle(pts, ctx) == prefix_walk_oracle(pts, ctx), pts
            for v in (v1, v2):
                assert verify_witness(v, pts)


def test_decider_methods_and_determinism():
    # over a prime field only scalings are additive, so the single
    # product value g over F_9 leaves genuine room for a witness
    ctx = FqContext(3, 2)
    pts = [(ctx.one(), ctx.decode(3))]
    v1 = decide_by_hyperplanes(pts, ctx)
    v2 = decide_by_exhaustion(pts, ctx)
    assert v1.method == "hyperplane-search"
    assert v2.method == "exhaustive-oracle"
    assert v1.exists_nonzero and v2.exists_nonzero
    # repeated runs give identical witnesses
    again = decide_by_hyperplanes(pts, ctx)
    assert again.witness_map.coeffs == v1.witness_map.coeffs


def test_oracle_without_constrained_points_returns_first_nonzero_map():
    # f(0) = 0 for every map, so the empty set and points that all have
    # a zero coordinate leave all of F_q^k, whose least nonzero vector
    # is the last row (0, ..., 0, 1) of its echelon basis
    for p, k in ((3, 1), (5, 1), (3, 2), (5, 2), (3, 3)):
        ctx = FqContext(p, k)
        zero = ctx.zero()
        axes = [(zero, e) for e in ctx.elements()] + [(e, zero) for e in ctx.elements()]
        for pts in ([], axes):
            v = decide_by_exhaustion(pts, ctx)
            assert [int(a) for a in v.witness_map.coeffs] == [0] * (k - 1) + [1]
            assert v == map_walk_oracle(pts, ctx) == prefix_walk_oracle(pts, ctx)
            assert verify_witness(v, pts)


def test_oracle_over_prime_field():
    # k = 1: the maps are x -> a x, which vanish only at 0, so one
    # point off the axes leaves no witness
    ctx = FqContext(7)
    on_axes = [(ctx.zero(), ctx.decode(3)), (ctx.decode(5), ctx.zero())]
    v = decide_by_exhaustion(on_axes, ctx)
    assert v == map_walk_oracle(on_axes, ctx)
    assert [int(a) for a in v.witness_map.coeffs] == [1]
    pts = on_axes + [(ctx.decode(2), ctx.decode(6))]
    v = decide_by_exhaustion(pts, ctx)
    assert v == map_walk_oracle(pts, ctx)
    assert not v.exists_nonzero


def codes_of(pts):
    """The (x, y) code pairs of a list of element pairs, the form
    _subspace_walk reads."""
    return [(int(x), int(y)) for x, y in pts]


def kernel_point_set(rng, ctx, size=6):
    """Points with one coordinate in the kernel of a random map, so a
    witness exists when the map is nonzero; the first point rides along
    swapped, and its kernel coordinate on the diagonal."""
    f = LinearizedMap(ctx, [ctx.decode(rng.randrange(ctx.order)) for _ in range(ctx.k)])
    kernel = list(span_elements(f.kernel()))
    drawn = [(rng.choice(kernel), ctx.decode(rng.randrange(ctx.order))) for _ in range(size)]
    pts = {(a, b) if rng.random() < 0.5 else (b, a) for a, b in drawn}
    a, b = drawn[0]
    pts |= {(b, a), (a, a)}
    return sorted(pts, key=lambda pt: (int(pt[0]), int(pt[1])))


@pytest.mark.parametrize("p,k,modulus", CUSTOM_MODULI)
def test_oracle_matches_map_walk_under_custom_moduli(p, k, modulus):
    ctx = FqContext(p, k, modulus)
    rng = random.Random(f"{p}/{k}/{modulus}")
    witnesses = 0
    for i in range(16):
        pts = kernel_point_set(rng, ctx) if i % 2 else random_point_set(rng, ctx)
        v = decide_by_exhaustion(pts, ctx)
        assert v == map_walk_oracle(pts, ctx) == prefix_walk_oracle(pts, ctx), pts
        assert v.exists_nonzero == decide_by_hyperplanes(pts, ctx).exists_nonzero
        witnesses += v.exists_nonzero
    assert witnesses >= 8


SEEDED_ORACLE_FIELDS = ((3, 2), (5, 2), (3, 3), (7, 2), (11, 2), (5, 3), (13, 2))


def test_oracle_matches_walks_on_seeded_sets():
    # half random sets, half with one coordinate in a map's kernel; the
    # all-maps walk joins in where its q^k maps stay few
    checked = witnesses = 0
    for p, k in SEEDED_ORACLE_FIELDS:
        ctx = FqContext(p, k)
        rng = random.Random(f"subspace walk {p}^{k}")
        for i in range(30):
            pts = kernel_point_set(rng, ctx) if i % 2 else random_point_set(rng, ctx)
            v = decide_by_exhaustion(pts, ctx)
            assert v == prefix_walk_oracle(pts, ctx), (p, k, pts)
            if ctx.order**k <= 3**10:
                assert v == map_walk_oracle(pts, ctx), (p, k, pts)
            assert v.exists_nonzero == decide_by_hyperplanes(pts, ctx).exists_nonzero
            assert verify_witness(v, pts)
            assert cover._subspace_walk(codes_of(pts), ctx)[1] <= 2 ** (k + 1) - 1
            checked += 1
            witnesses += v.exists_nonzero
    assert checked >= 200 and witnesses >= 60, (checked, witnesses)


def deep_point_set(ctx, rng):
    """Points that hold for the trace map x + x^p + ... + x^(p^(k-1))
    only through its kernel: one coordinate from a spanning set of the
    trace-zero hyperplane, the other off it.  Reaching that map takes
    k - 1 cuts, one per independent kernel coordinate, so the walk
    goes to depth k - 1.  Zero coordinates, a repeated point and both
    (x, y) and (y, x) ride along."""
    trace_map = LinearizedMap(ctx, [ctx.one()] * ctx.k)
    kernel = trace_map.kernel()
    off = [e for e in ctx.elements() if not trace_map(e).is_zero()]
    pts = []
    for row in kernel.rows:
        x = ctx.element(row)
        pts.append((x, rng.choice(off)) if rng.random() < 0.5 else (rng.choice(off), x))
    a, b = pts[0]
    pts += [(b, a), pts[-1], (ctx.zero(), rng.choice(off)), (rng.choice(off), ctx.zero())]
    return trace_map, pts


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (3, 3), (5, 3), (3, 4), (3, 5), (7, 3)])
def test_oracle_walks_to_depth_k_minus_1(p, k, monkeypatch):
    # F_81, F_243 and F_343 have more than 2^24 maps; the default caps
    # admit them all
    monkeypatch.delenv("CURVADD_CAP", raising=False)
    ctx = FqContext(p, k)
    rng = random.Random(f"deep {p}^{k}")
    for _ in range(4):
        trace_map, pts = deep_point_set(ctx, rng)
        v = decide_by_exhaustion(pts, ctx)
        assert v.exists_nonzero and verify_witness(v, pts)
        assert decide_by_hyperplanes(pts, ctx).exists_nonzero
        codes, nodes = cover._subspace_walk(codes_of(pts), ctx)
        # k - 1 branchings down one path leave at least 2k - 1 nodes
        assert 2 * k - 1 <= nodes <= 2 ** (k + 1) - 1
        witness = [int(a) for a in v.witness_map.coeffs]
        assert witness == list(codes) <= [int(a) for a in trace_map.coeffs]
        if ctx.order ** (k - 1) <= 5**6:
            assert v == prefix_walk_oracle(pts, ctx), pts


def test_oracle_node_bound_on_curves():
    for p, k, expr in (
        (3, 3, "x*y - 1"),
        (5, 3, "y - 2*x^5 + 2*x"),
        (3, 4, "y - x^3 + x"),
        (3, 4, "y^2 - x^3 - x"),
        (3, 5, "x*y - 1"),
    ):
        c = build_curve(p, k, expr)
        pts = affine_points(c)
        codes, nodes = cover._subspace_walk(pts.codes, c.ctx)
        assert nodes <= 2 ** (k + 1) - 1, (p, k, expr, nodes)
        assert (codes is not None) == decide_by_hyperplanes(pts, c.ctx).exists_nonzero
        if c.ctx.order ** (k - 1) <= 5**6:
            assert decide_by_exhaustion(pts, c.ctx) == prefix_walk_oracle(pts, c.ctx)


def test_oracle_walk_uses_no_element_arithmetic(monkeypatch):
    def no_arithmetic(*args):
        raise AssertionError("FqElement arithmetic inside the subspace walk")

    c = build_curve(5, 3, "y - 2*x^5 + 2*x")
    pts = affine_points(c).codes
    for name in ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__", "__truediv__", "__pow__"):
        monkeypatch.setattr(FqElement, name, no_arithmetic)
    assert cover._subspace_walk(pts, c.ctx)[0] is not None


def test_oracle_decides_past_the_prefix_walk_at_default_caps(monkeypatch):
    # 729^6 = 3^36 maps: the prefix walk would visit 3^30 prefixes
    monkeypatch.delenv("CURVADD_CAP", raising=False)
    for expr, has_witness in (("x*y - 1", False), ("y - x^3 + x", True)):
        c = build_curve(3, 6, expr)
        pts = affine_points(c)
        v = decide_by_exhaustion(pts, c.ctx)
        assert v.method == "exhaustive-oracle"
        assert v.exists_nonzero == has_witness
        assert v.exists_nonzero == decide_by_hyperplanes(pts, c.ctx).exists_nonzero
        assert verify_witness(v, pts)
    # the cap counts the 729 code-table entries, not the maps
    monkeypatch.setenv("CURVADD_CAP", str(3**6))
    assert decide_by_exhaustion(pts, c.ctx).exists_nonzero
    monkeypatch.setenv("CURVADD_CAP", str(3**6 - 1))
    with pytest.raises(CapExceeded) as err:
        decide_by_exhaustion(pts, c.ctx)
    assert str(err.value) == "exhaustive oracle needs 729 steps, cap is 728"


TRACE_FORM_FIELDS = [(p, k, None) for p, k in odd_prime_powers(3**5)] + list(CUSTOM_MODULI)


@pytest.mark.parametrize("p,k,modulus", TRACE_FORM_FIELDS)
def test_trace_form_matches_element_trace(p, k, modulus):
    # a . (T x) = Tr(a x) for every x and the first hyperplane
    # representatives a, against the sum of conjugates (field_reference.trace)
    from curvadd.additive import hyperplane_functionals, trace_functional

    ctx = FqContext(p, k, modulus)
    gram = cover._trace_gram(ctx)
    reps = [
        trace_functional(a).coeffs[0]
        for a in itertools.islice(hyperplane_functionals(ctx), 3)
    ]
    for x in ctx.elements():
        w = [sum(t * c for t, c in zip(row, x.coeffs)) % p for row in gram]
        for a in reps:
            form = sum(ai * wi for ai, wi in zip(a.coeffs, w)) % p
            tr = trace(a * x)
            assert not any(tr.coeffs[1:])  # Tr(a x) lies in F_p
            assert form == tr.coeffs[0], (a, x)


def test_empty_point_set_has_witness():
    ctx = FqContext(3)
    v = decide_by_hyperplanes([], ctx)
    assert v.exists_nonzero
    assert not v.witness_map.is_zero()
    assert verify_witness(v, [])


def test_full_orbit_set_forces_zero():
    # every nonzero coordinate pair with product structure saturating
    # the field defeats all hyperplanes
    ctx = FqContext(3)
    nz = [e for e in ctx.elements() if not e.is_zero()]
    pts = [(a, b) for a in nz for b in nz]
    assert not decide_by_hyperplanes(pts, ctx).exists_nonzero
    assert not decide_by_exhaustion(pts, ctx).exists_nonzero


def test_decider_context_mismatch():
    ctx3 = FqContext(3)
    ctx5 = FqContext(5)
    pts = [(ctx5.constant(1), ctx5.constant(1))]
    with pytest.raises(ContextMismatch):
        decide_by_hyperplanes(pts, ctx3)
    with pytest.raises(ContextMismatch):
        decide_by_exhaustion(pts, ctx3)


def test_verify_witness_detects_corruption():
    ctx = FqContext(3, 2)
    pts = [(ctx.one(), ctx.decode(3))]
    v = decide_by_hyperplanes(pts, ctx)
    assert verify_witness(v, pts)
    # add a point whose product hits a nonzero value of the map
    c = next(
        e for e in ctx.elements()
        if not e.is_zero() and not v.witness_map(e).is_zero()
    )
    assert not verify_witness(v, pts + [(c, c)])
    # zeroed or missing witness fails; a negative verdict is vacuous
    zero_map = LinearizedMap(ctx, [0] * ctx.k)
    zeroed = cover.CoverVerdict(v.exists_nonzero, zero_map, v.method)
    assert not verify_witness(zeroed, pts)
    missing = cover.CoverVerdict(v.exists_nonzero, None, v.method)
    assert not verify_witness(missing, pts)
    negative = cover.CoverVerdict(False, v.witness_map, v.method)
    assert verify_witness(negative, pts)


def test_verify_witness_rejects_on_repeated_coordinates():
    ctx = FqContext(3, 2)
    zero, a, b = ctx.zero(), ctx.decode(1), ctx.decode(4)
    # f(x) = x vanishes at 0 only; (a, b) fails after a and b were both
    # evaluated at earlier points
    pts = [(a, zero), (b, zero), (a, b)]
    found = decide_by_hyperplanes(pts[:2], ctx)
    v = cover.CoverVerdict(True, LinearizedMap.identity(ctx), found.method)
    assert verify_witness(v, pts[:2])
    assert not verify_witness(v, pts)
    # same code, other modulus: refused, not answered from the cache
    other = FqContext(3, 2, (2, 1, 1)).decode(1)
    with pytest.raises(ContextMismatch):
        verify_witness(v, pts[:2] + [(other, zero)])


def test_analyze_hyperbola_end_to_end():
    r = analyze(build_curve(7, 1, "x*y - 1"))
    assert not r.decision.exists_nonzero
    assert r.decision.witness_map is None
    assert r.oracle_agreement == "agree"
    assert r.paper_flags == ()
    assert r.inequality1.forced_zero and r.by_count.forced_zero
    assert r.conic.forced_zero
    assert len(r.points) == 6
    assert r.infinity_count == 2
    assert r.hw.verdict == "consistent"
    assert r.conjectural_flag


def test_analyze_oracle_modes():
    c = build_curve(3, 1, "x*y - 1")
    auto = analyze(c, oracle="auto")
    on = analyze(c, oracle="on")
    off = analyze(c, oracle="off")
    assert auto == on
    assert on.oracle_agreement == "agree"
    assert on.oracle_verdict == decide_by_exhaustion(on.points, c.ctx)
    assert off.oracle_agreement == "skipped"
    assert off.oracle_verdict is None
    assert on.decision.exists_nonzero == off.decision.exists_nonzero


def test_equal_reports_hash_equal():
    assert hash(conic_bound(5, 2)) == hash(conic_bound(5, 2))
    assert len({zero_forcing_inequality(7, 1, 2), zero_forcing_inequality(7, 1, 2)}) == 1
    for c in (build_curve(3, 2, "x*y - 1"), build_curve(5, 1, "y^2 - x^3 - x")):
        a, b = analyze(c), analyze(c)
        assert a == b and hash(a) == hash(b)


def test_analyze_refuses_deciders_that_disagree(monkeypatch):
    c = build_curve(5, 1, "y^2 - x^3 - x")
    assert analyze(c, oracle="on").decision.exists_nonzero
    def no_witness(points, ctx):
        return cover.CoverVerdict(False, method="exhaustive-oracle")

    monkeypatch.setattr(cover, "decide_by_exhaustion", no_witness)
    message = "hyperplane-search says exists_nonzero=True but exhaustive-oracle says False"
    with pytest.raises(Inconsistent, match=message):
        analyze(c, oracle="on")
    assert analyze(c, oracle="off").decision.exists_nonzero


def counting_verify_witness(monkeypatch):
    """Wrap cover.verify_witness; the returned list grows by the map of
    every verdict it is called on."""
    calls = []
    real = cover.verify_witness

    def counted(verdict, points):
        calls.append(verdict.witness_map)
        return real(verdict, points)

    monkeypatch.setattr(cover, "verify_witness", counted)
    return calls


def test_check_verdicts_verifies_a_shared_witness_once(monkeypatch):
    # on an Artin-Schreier curve both deciders return x + x^3 + x^9
    calls = counting_verify_witness(monkeypatch)
    report = analyze(build_curve(3, 3, "y - x^3 + x"), oracle="on")
    assert report.decision.witness_map == report.oracle_verdict.witness_map
    assert calls == [report.decision.witness_map]


def test_check_verdicts_verifies_each_distinct_witness(monkeypatch):
    ctx = FqContext(3, 2)
    c = build_curve(3, 2, "y - x^3 + x")
    points = affine_points(c)
    f = decide_by_hyperplanes(points, ctx).witness_map
    g = LinearizedMap(ctx, [2 * a for a in f.coeffs])
    calls = counting_verify_witness(monkeypatch)
    both = [cover.CoverVerdict(True, f, "first"), cover.CoverVerdict(True, g, "second")]
    cover.check_verdicts(both, points, c)
    assert calls == [f, g]
    # a corrupted second map is still re-verified, and refused
    corrupted = cover.CoverVerdict(True, LinearizedMap.identity(ctx), "second")
    with pytest.raises(Inconsistent, match="second returned a witness that fails"):
        cover.check_verdicts([both[0], corrupted], points, c)
    missing = cover.CoverVerdict(True, None, "second")
    with pytest.raises(Inconsistent, match="second returned a witness that fails"):
        cover.check_verdicts([both[0], missing], points, c)
    # agreement on exists_nonzero is checked for every verdict
    with pytest.raises(Inconsistent, match="first says exists_nonzero=True but no says False"):
        cover.check_verdicts([both[0], cover.CoverVerdict(False, method="no")], points, c)


@pytest.mark.parametrize(
    "p,k,expr,witness", [(5, 3, "y - 3*x^5 + 3*x", True), (3, 4, "x*y - 1", False)]
)
def test_hyperplane_decider_needs_no_code_tables(p, k, expr, witness, monkeypatch):
    # the decider and verify_witness run on arithmetic of their own: the
    # oracle's code tables are never read once the points are known
    c = build_curve(p, k, expr)
    points = affine_points(c)
    expected = decide_by_hyperplanes(points, c.ctx)
    assert expected.exists_nonzero == witness
    assert verify_witness(expected, points)

    def no_tables(ctx):
        raise AssertionError(f"code tables read for {ctx!r}")

    patched = [
        module for name, module in list(sys.modules.items())
        if name.startswith("curvadd.") and hasattr(module, "code_tables")
    ]
    assert code_tables.__module__ in {m.__name__ for m in patched}
    for module in patched:
        monkeypatch.setattr(module, "code_tables", no_tables)
    verdict = decide_by_hyperplanes(points, c.ctx)
    assert verdict == expected
    assert verify_witness(verdict, points)


def test_analyze_claim_curve_flags():
    r3 = analyze(build_curve(3, 1, "y^2 + 2*x*y + 2*y + x"))
    assert len(r3.points) == 5
    assert not r3.decision.exists_nonzero
    # claim mismatches plus hypothesis notes, all surfaced
    assert sum("quadratic-over-F3" in f for f in r3.paper_flags) == 5
    assert sum(f.startswith("hypothesis note") for f in r3.paper_flags) == 3
    assert any("(1, 1)" in f for f in r3.paper_flags)
    assert any("axis-parallel" in f for f in r3.paper_flags)

    r5 = analyze(build_curve(5, 1, "y^2 - x^3 - 3*x - 1"))
    assert len(r5.points) == 4
    assert sum("cubic-over-F5" in f for f in r5.paper_flags) == 3
    assert any("(2, 0)" in f and "singular" in f for f in r5.paper_flags)
    assert r5.singular and [int(x) for x, _ in r5.singular] == [2]


def test_claim_flags_for_a_wrong_point_and_a_defeated_identity(monkeypatch):
    # x^2 + y^2 = 1 over F_9 has a witness, but not f(x) = x: (g, g) is on it
    claim = claims.CurveClaim(
        label="circle-over-F9",
        p=3,
        k=2,
        expression="x^2 + y^2 - 1",
        claimed_point_codes=((0, 1), (0, 2), (1, 0), (1, 1), (2, 0), (3, 3), (3, 6)),
        claimed_count=8,
        claims_identity_witness=True,
    )
    monkeypatch.setattr(claims, "CURVE_CLAIMS", (claim,))
    report = analyze(build_curve(3, 2, "x^2 + y^2 - 1"))
    assert report.decision.exists_nonzero
    flags = [f for f in report.paper_flags if f.startswith("circle-over-F9: ")]
    assert "circle-over-F9: claimed point (1, 1) is not on the curve" in flags
    assert (
        "circle-over-F9: paper claims f(x) = x works, but point (3, 3) "
        "defeats f(x) = x (another witness exists)"
    ) in flags
    assert not any("affine points" in f for f in flags)


def test_analyze_vacuous_curve():
    r = analyze(build_curve(3, 1, "x^2 + 1"))
    assert len(r.points) == 0
    assert r.decision.exists_nonzero
    assert not r.decision.witness_map.is_zero()


def test_analyze_inconsistent_axis_line():
    with pytest.raises(Inconsistent) as err:
        analyze(build_curve(5, 1, "y"))
    msg = str(err.value)
    assert "force" in msg and "witness" in msg
    assert "axis-parallel" in msg


def test_analyze_inconsistent_extension_line():
    # x = g over F_9: both bounds fire, yet x -> x^3 - g^2 x style maps
    # kill the fixed first coordinate
    with pytest.raises(Inconsistent):
        analyze(build_curve(3, 2, "x - g"))


def test_analyze_inconsistent_split_conic():
    # x^2 - 3 y^2 over F_17 splits into two lines through the origin;
    # (0, 0) contributes nothing and the lines' multiplicative span
    # misses a hyperplane, while the conic bound still fires
    with pytest.raises(Inconsistent) as err:
        analyze(build_curve(17, 1, "x^2 - 3*y^2"))
    assert "conic" in str(err.value)


def test_analyze_forced_without_witness_is_consistent():
    # the quadratic claim curve: forced by count, decider finds none
    r = analyze(build_curve(3, 1, "y^2 + 2*x*y + 2*y + x"))
    assert r.by_count.forced_zero
    assert not r.decision.exists_nonzero


def test_bounds_apply_by_degree():
    # conic (d = 2) and elliptic (d = 3) count only for curves of their
    # degree, inequality1 and by_count for every curve
    conic = analyze(build_curve(7, 1, "x^2 + y^2 - 1"))
    cubic = analyze(build_curve(7, 1, "y^2 - x^3 - x"))
    wide = analyze(build_curve(17, 1, "x^2 + y^2 - 1"))
    assert conic.conic.forced_zero and cubic.conic.forced_zero  # 7 - 1 > 4
    assert [b.name for b in conic.forcing_bounds] == ["inequality1", "by_count", "conic"]
    assert [b.name for b in cubic.forcing_bounds] == ["by_count"]
    assert wide.elliptic.forced_zero and wide.elliptic not in wide.forcing_bounds
    # the uncertified conic claim at p = 5 is flagged for conics only
    flag = "conic case (p=5, k=1): claimed by paper, not certified by its inequality"
    assert flag in analyze(build_curve(5, 1, "x^2 + y^2 - 1")).paper_flags
    assert flag not in analyze(build_curve(5, 1, "y^2 - x^3 - x - 2")).paper_flags


def test_caps_env_override(monkeypatch):
    monkeypatch.setenv("CURVADD_CAP", "99")
    assert effective_cap() == 99
    monkeypatch.delenv("CURVADD_CAP")
    assert effective_cap() == 1 << 20
    monkeypatch.setenv("CURVADD_CAP", "not a number")
    with pytest.raises(ValueError):
        effective_cap()


def test_analyze_refuses_before_any_scan(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("a point scan started before the refusal")

    c = build_curve(7, 3, "x*y - 1")
    # every scan starts by building the code tables its rows run on
    monkeypatch.setattr("curvadd.curve.code_tables", no_scan)
    monkeypatch.setattr("curvadd.curve._rows", no_scan)
    with pytest.raises(ValueError, match=r"^singular_ext must be >= 0, got -1$"):
        analyze(c, singular_ext=-1)
    monkeypatch.setenv("CURVADD_CAP", "3")
    for oracle in ("auto", "on", "off"):
        with pytest.raises(CapExceeded) as err:
            analyze(c, oracle=oracle)
        assert str(err.value) == "affine point scan needs 117649 steps, cap is 3"


def test_singular_ext_search_stops_at_first_misfit(monkeypatch):
    # Over F_3 the default cap 2^20 admits (3^m)^2 up to m = 6.  The
    # search for that degree must not walk every m up to the request.
    degrees = []

    def stub_singular_points(c, ext_degree=2):
        degrees.append(ext_degree)
        return PointSet()

    monkeypatch.setattr(cover, "singular_points", stub_singular_points)
    c = build_curve(3, 1, "x*y - 1")
    small = analyze(c, singular_ext=10, oracle="off")
    huge = analyze(c, singular_ext=10**9, oracle="off")
    assert small.singular_ext_used == huge.singular_ext_used == 6
    assert degrees == [6, 6]
    assert cover._feasible_singular_ext(c.ctx, 10**9) == 6
    assert cover._feasible_singular_ext(c.ctx, 0) == 0
    monkeypatch.setenv("CURVADD_CAP", "8")
    assert cover._feasible_singular_ext(c.ctx, 10**9) == 0


@pytest.mark.parametrize("slack", (0, 1))
def test_each_capped_stage_refuses_exactly_when_it_is_skipped(monkeypatch, slack):
    # F_3: the singular scan at extension 2 counts (3^2)^2 pairs
    c = build_curve(3, 1, "x*y - 1")
    monkeypatch.setenv("CURVADD_CAP", str(3**4 - slack))
    try:
        cover.singular_points(c, 2)
        allowed = True
    except CapExceeded:
        allowed = False
    assert allowed == (slack == 0)
    assert (analyze(c, oracle="off").singular_ext_used == 2) == allowed


def test_hyperplane_search_refuses_before_building_tables(monkeypatch):
    # one hyperplane over F_p, but p codes behind it, and no tables
    monkeypatch.setenv("CURVADD_CAP", "1000")
    ctx = FqContext(10007)
    built = code_tables.cache_info().misses
    with pytest.raises(CapExceeded):
        next(cover.hyperplane_functionals(ctx))
    with pytest.raises(CapExceeded):
        decide_by_hyperplanes([], ctx)
    assert code_tables.cache_info().misses == built


def test_oracle_refuses_before_building_tables(monkeypatch):
    # the walk has at most 3 nodes over F_p, but p code table entries
    monkeypatch.setenv("CURVADD_CAP", "1000")
    ctx = FqContext(10007)
    built = code_tables.cache_info().misses
    with pytest.raises(CapExceeded) as err:
        decide_by_exhaustion([], ctx)
    assert str(err.value) == "exhaustive oracle needs 10007 steps, cap is 1000"
    assert code_tables.cache_info().misses == built


@pytest.mark.parametrize("expr", ("x*y - 1", "y^2 - x^3 - x", "y - x^3 + x"))
@pytest.mark.parametrize("p,k", [(3, 4), (3, 5), (3, 6), (5, 4), (7, 3)])
def test_analyze_cross_checks_past_the_old_map_cap(p, k, expr, monkeypatch):
    # q^k > 2^24 maps in every one of these fields, and the default
    # caps let the oracle decide them all
    monkeypatch.delenv("CURVADD_CAP", raising=False)
    c = build_curve(p, k, expr)
    report = analyze(c)
    oracle = report.oracle_verdict
    assert report.oracle_agreement == "agree"
    assert oracle.method == "exhaustive-oracle"
    assert oracle.exists_nonzero == report.decision.exists_nonzero
    # in characteristic 3 the trace vanishes at every y = x^3 - x
    assert oracle.exists_nonzero == (p == 3 and expr == "y - x^3 + x")
    if oracle.exists_nonzero:
        assert verify_witness(oracle, report.points)
    _, nodes = cover._subspace_walk(report.points.codes, c.ctx)
    assert nodes <= 2 ** (k + 1) - 1
