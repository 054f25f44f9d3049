"""Point enumeration, singularity detection, windows, files."""

import itertools

import pytest

from curvadd import (
    CapExceeded,
    Curve,
    FqContext,
    FqElement,
    LinearizedMap,
    ParseError,
    axis_parallel_lines,
    affine_points,
    hasse_weil_window,
    parse_bipoly,
    parse_curve_file,
    points_at_infinity_count,
    singular_points,
    verify_witness,
)
from curvadd import DEFAULT_FIELD_CAP, PointSet, cli, cover, fields
from curvadd import curve as curve_mod
from curvadd.curve import fibre_scan
from curvadd.fields import _embedding_root, embed
from curvadd.poly import SparsePoly, unipoly_gcd

import scan_reference
from conftest import (
    CORPUS,
    CUSTOM_MODULI,
    build_curve,
    differential_curves,
    reference_affine,
    reference_infinity_count,
    seeded_rng,
)


@pytest.mark.parametrize(
    "p,k,expr",
    [
        (3, 1, "x*y - 1"),
        (5, 1, "y^2 - x^3 - 3*x - 1"),
        (3, 1, "y^2 + 2*x*y + 2*y + x"),
        (7, 1, "x^2 + y^2 - 1"),
        (3, 2, "x*y - 1"),
        (3, 2, "g*x^2 + y + 1"),
    ],
)
def test_affine_points_match_naive_enumeration(p, k, expr):
    c = build_curve(p, k, expr)
    fast = list(affine_points(c))
    naive = reference_affine(c)
    assert set(fast) == set(naive)
    assert fast == sorted(fast, key=lambda pt: (int(pt[0]), int(pt[1])))


def test_known_point_sets():
    quad = build_curve(3, 1, "y^2 + 2*x*y + 2*y + x")
    codes = [(int(x), int(y)) for x, y in affine_points(quad)]
    assert codes == [(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)]
    cubic = build_curve(5, 1, "y^2 - x^3 - 3*x - 1")
    codes = [(int(x), int(y)) for x, y in affine_points(cubic)]
    assert codes == [(0, 1), (0, 4), (1, 0), (2, 0)]


def test_vertical_line_branch():
    # x = 2 over F_5: the y-free row vanishes identically at x = 2.
    c = build_curve(5, 1, "x - 2")
    pts = [(int(x), int(y)) for x, y in affine_points(c)]
    assert pts == [(2, y) for y in range(5)]


def test_points_at_infinity():
    assert points_at_infinity_count(build_curve(7, 1, "x*y - 1")) == 2
    assert points_at_infinity_count(build_curve(7, 1, "y - x^2")) == 1
    # x^2 + y^2: -1 is a square mod 5 but not mod 7
    assert points_at_infinity_count(build_curve(5, 1, "x^2 + y^2 - 1")) == 2
    assert points_at_infinity_count(build_curve(7, 1, "x^2 + y^2 - 1")) == 0


def test_singular_points_rational():
    cubic = build_curve(5, 1, "y^2 - x^3 - 3*x - 1")
    sing1 = singular_points(cubic, 1)
    assert [(int(x), int(y)) for x, y in sing1] == [(2, 0)]
    # stays the only one over the quadratic extension
    sing2 = singular_points(cubic, 2)
    assert sing2.count == 1
    node = build_curve(7, 1, "y^2 - x^3 - x^2")  # node at the origin
    assert [(int(x), int(y)) for x, y in singular_points(node, 1)] == [(0, 0)]


def test_singular_points_smooth_curves():
    for p, k, expr in (
        (7, 1, "x*y - 1"),
        (5, 1, "x^2 + y^2 - 1"),
        (7, 1, "y^2 - x^3 - x"),
    ):
        assert singular_points(build_curve(p, k, expr), 2).count == 0


def test_hasse_weil_window_consistent():
    hw = hasse_weil_window(build_curve(7, 1, "x*y - 1"))
    assert (hw.n_points, hw.lower, hw.upper) == (8, 8, 8)
    assert hw.genus_bound == 0
    assert hw.verdict == "consistent"
    cubic = hasse_weil_window(build_curve(7, 1, "y^2 - x^3 - x"))
    assert cubic.genus_bound == 1
    assert cubic.verdict == "consistent"
    assert cubic.lower <= cubic.n_points <= cubic.upper


def test_hasse_weil_window_violation():
    # x^2 - y^2 splits into two crossing lines: N is far above q + 1.
    hw = hasse_weil_window(build_curve(5, 1, "x^2 - y^2"))
    assert hw.n_points == 2 * 5 - 1 + 2
    assert hw.genus_bound == 0
    assert hw.verdict == "violates-window"
    quad = hasse_weil_window(build_curve(3, 1, "y^2 + 2*x*y + 2*y + x"))
    assert quad.verdict == "violates-window"


def test_window_uses_exact_integers():
    # For g_bound = 1 over F_5 the window must be the exact integer
    # interval [6 - floor(2*sqrt(5)), 6 + floor(2*sqrt(5))] = [2, 10].
    hw = hasse_weil_window(build_curve(5, 1, "y^2 - x^3 - x - 2"))
    assert (hw.lower, hw.upper) == (2, 10)


def test_axis_parallel_lines():
    c = build_curve(5, 1, "(x - 2)*(y + 1)")
    assert axis_parallel_lines(c) == ("x = 2", "y = 4")
    assert axis_parallel_lines(build_curve(5, 1, "x*y - 1")) == ()
    assert axis_parallel_lines(build_curve(5, 1, "x^2 - y^2")) == ()
    assert axis_parallel_lines(build_curve(3, 1, "y^2 + 2*x*y + 2*y + x")) == (
        "y = 1",
    )


def test_parse_curve_file_full():
    text = """
# demo curve
p = 5
k = 2
modulus = [2, 0, 1]
f = x*y - g
assert_smooth = true
"""
    c = parse_curve_file(text)
    assert c.ctx.p == 5 and c.ctx.k == 2
    assert c.ctx.modulus == (2, 0, 1)
    assert c.assert_smooth and not c.assert_abs_irreducible
    assert c.degree == 2


def test_parse_curve_file_errors():
    with pytest.raises(ParseError):
        parse_curve_file("p = 5\nk = 1\n")  # missing f
    with pytest.raises(ParseError):
        parse_curve_file("p = 5\nf = x\n")  # missing k
    with pytest.raises(ParseError):
        parse_curve_file("p = 5\nk = 1\nf = y^^2\n")
    with pytest.raises(ParseError):
        parse_curve_file("p = 5\nk = 1\nf = x\nwhat = 1\n")
    # invalid field parameters are ValueError but not a parse error
    with pytest.raises(ValueError) as err:
        parse_curve_file("p = 4\nk = 1\nf = x*y - 1\n")
    assert not isinstance(err.value, ParseError)


def test_curve_constructor_rejects_degenerate():
    ctx = FqContext(3)
    with pytest.raises(ValueError):
        Curve(SparsePoly.constant(ctx, ctx.one()))
    with pytest.raises(ValueError):
        Curve(SparsePoly.zero(ctx))


def test_affine_scan_cap():
    c = build_curve(2147483647, 1, "x*y - 1")
    with pytest.raises(CapExceeded):
        affine_points(c)


# ---------------------------------------------------------------------------
# Differential checks of the single fibre scan against direct evaluation.


def brute_singular(c, ext_degree):
    """Every pair over F_{q^m} where f, f_x and f_y all evaluate to 0."""
    ctx = c.ctx
    ext = ctx if ext_degree == 1 else FqContext(ctx.p, ctx.k * ext_degree)

    def lift(poly):
        return SparsePoly(ext, {e: embed(v, ext) for e, v in poly.terms.items()})

    polys = [lift(c.defining), lift(c.defining.partial(0)), lift(c.defining.partial(1))]
    return [
        (a, b)
        for a, b in itertools.product(ext.elements(), repeat=2)
        if all(poly.evaluate((a, b)).is_zero() for poly in polys)
    ]


@pytest.mark.parametrize("c", differential_curves(), ids=repr)
def test_single_scan_matches_direct_evaluation(c):
    assert list(affine_points(c)) == reference_affine(c)
    assert points_at_infinity_count(c) == reference_infinity_count(c)
    exts = (1, 2) if c.ctx.order <= 9 else (1,)
    for m in exts:
        assert list(singular_points(c, m)) == brute_singular(c, m), m


@pytest.mark.parametrize("c", differential_curves(), ids=repr)
def test_analyze_reads_singular_points_off_affine_scan(c, monkeypatch):
    # one pass over the q rows f(x, .) gives analyze its points, its
    # singular points and its axis lines; every other row it builds is
    # a single one (f_x at a candidate x, f at a full column)
    expected = singular_points(c, 1)
    passes = []
    rows = curve_mod._rows

    def counted_rows(terms, index, tables, codes):
        if len(codes) > 1:
            passes.append((index, len(codes)))
        return rows(terms, index, tables, codes)

    def no_second_scan(*args, **kwargs):
        raise AssertionError("analyze ran a separate scan")

    monkeypatch.setattr(curve_mod, "_rows", counted_rows)
    for name in ("affine_points", "singular_points", "axis_parallel_lines"):
        monkeypatch.setattr(cover, name, no_second_scan)
    report = cover.analyze(c, singular_ext=1, oracle="off")
    assert report.singular_ext_used == 1
    assert report.singular == expected
    assert passes == [(0, c.ctx.order)]


def test_singular_points_over_extension_only():
    # the parabolas y = +-(x^2 + 1) cross at x^2 = -1, which has no
    # root in F_3 but two in F_9
    c = build_curve(3, 1, "y^2 - (x^2 + 1)^2")
    assert singular_points(c, 1).count == 0
    # F_9 = F_3[g]/(g^2 + 1): the crossings are x = g, 2g (codes 3, 6)
    assert [(int(x), int(y)) for x, y in singular_points(c, 2)] == [(3, 0), (6, 0)]
    # under g^2 + g + 2, g generates F_9^*, so it has no square root in
    # F_9: the two crossings x = +-sqrt(g) appear only over F_81
    c = Curve(parse_bipoly("y^2 - (x^2 - g)^2", FqContext(3, 2, [2, 1, 1])))
    assert singular_points(c, 1).count == 0
    assert singular_points(c, 2).count == 2


def old_embedding_root(src, dst):
    """The embedding root by its first definition: the source modulus
    evaluated by Horner's rule on elements at every destination element
    in code order, the first zero winning."""
    for x in dst.elements():
        acc = dst.zero()
        for c in reversed(src.modulus):
            acc = acc * x + c
        if acc.is_zero():
            return x
    raise AssertionError("the source modulus has no root in the destination")


# The node, the cusp and the curve whose singular points may lie over
# F_{q^2} only, each over F_9 with its default modulus and over every
# non-default modulus.  f_y = 2y forces y = 0 at a singular point, which
# leaves (0, 0) on the first two and (r, 0) with r^2 = g on the third;
# the flag marks the third.
EXT2_CURVES = (("y^2 - x^3 - x^2", False), ("y^2 - x^3", False), ("y^2 - (x^2 - g)^2", True))


@pytest.mark.parametrize("p,k,modulus", [(3, 2, None)] + list(CUSTOM_MODULI))
@pytest.mark.parametrize("expr,over_sqrt_g", EXT2_CURVES)
def test_analyze_at_extension_2_under_custom_moduli(p, k, modulus, expr, over_sqrt_g):
    ctx = FqContext(p, k, modulus)
    c = Curve(parse_bipoly(expr, ctx))
    report = cover.analyze(c, singular_ext=2)
    assert report.singular_ext_used == 2
    ext = FqContext(p, 2 * k)
    assert _embedding_root(ctx, ext) == old_embedding_root(ctx, ext)
    zero = ext.zero()
    if over_sqrt_g:
        g = embed(ctx.gen(), ext)
        closed_form = [(r, zero) for r in ext.elements() if r * r == g]
    else:
        closed_form = [(zero, zero)]
    # the pair scan over F_625 or F_729 takes tens of seconds, so the
    # larger fields are held to the closed form alone
    if ext.order <= 81:
        assert brute_singular(c, 2) == closed_form
    assert list(report.singular) == closed_form


# ---------------------------------------------------------------------------
# The fused pass against the separate loops it replaced.

# Curves with a line x = a or y = b as a component, one of them under a
# non-default modulus.
LINE_CURVES = (
    ((5, 1), "(x - 2)*(y + 1)"),
    ((5, 1), "y"),
    ((5, 1), "x - 2"),
    ((7, 1), "x*(y - 3)*(x - y)"),
    ((3, 2), "(x - g)*(y - x^2)"),
    ((3, 2, (2, 1, 1)), "(y - g)*(x^2 + y^2 + 1)"),
)


def fused_pass_curves():
    curves = differential_curves()
    curves += [Curve(parse_bipoly(expr, FqContext(*args))) for args, expr in LINE_CURVES]
    for p, k, modulus in CUSTOM_MODULI:
        ctx = FqContext(p, k, modulus)
        curves += [Curve(parse_bipoly(expr, ctx)) for expr, _ in EXT2_CURVES]
    return curves


def lift(c, ext):
    return Curve(SparsePoly(ext, {e: embed(v, ext) for e, v in c.defining.terms.items()}))


@pytest.mark.parametrize("c", fused_pass_curves(), ids=repr)
def test_fused_pass_matches_separate_loops(c):
    scan = fibre_scan(c)
    assert list(scan.singular) == scan_reference.singular_subset(c, list(scan.points))
    assert scan.lines == axis_parallel_lines(c) == scan_reference.axis_lines(c)
    q = c.ctx.order
    if q * q <= 81:
        lifted = lift(c, FqContext(c.ctx.p, 2 * c.ctx.k))
        points = list(affine_points(lifted))
        assert list(singular_points(c, 2)) == scan_reference.singular_subset(lifted, points)


def test_full_rows_and_columns_without_a_line():
    # x^3 - x vanishes on all of F_3, so every row and every column is
    # t^3 - t, with 3 roots but not the zero polynomial: all 9 points
    # lie on the curve, and no line does; f_x = -1 leaves no singular point
    c = build_curve(3, 1, "x^3 - x + y^3 - y")
    scan = fibre_scan(c)
    assert scan.points.codes == tuple(itertools.product(range(3), repeat=2))
    assert scan.lines == scan_reference.axis_lines(c) == ()
    assert scan.singular.count == 0


def test_code_paths_decode_no_point(monkeypatch):
    # the pass, the singular filter, the axis lines, verify_witness and
    # report_json read codes; only the witness builds field elements,
    # so its matrix is taken before FqElement construction is refused
    curves = [
        build_curve(5, 1, "(x - 2)*(y + 1)"),
        build_curve(5, 1, "y^2 - x^3 - 3*x - 1"),
        build_curve(3, 2, "x^2 + y^2 - 1"),
    ]
    expected = [
        (affine_points(c).codes, singular_points(c, 1).codes, axis_parallel_lines(c))
        for c in curves
    ]
    assert [len(e[1]) for e in expected] == [1, 1, 0] and expected[0][2] == ("x = 2", "y = 4")
    report = cover.analyze(curves[-1])
    assert report.decision.exists_nonzero
    report_json = cli.report_json(report)
    matrix = report.decision.witness_map.to_matrix()

    def refuse(*args, **kwargs):
        raise AssertionError("a field element was built")

    monkeypatch.setattr(FqContext, "decode", refuse)
    monkeypatch.setattr(FqElement, "__init__", refuse)
    monkeypatch.setattr(LinearizedMap, "to_matrix", lambda self: matrix)
    with pytest.raises(AssertionError):
        curves[0].ctx.one()
    for c, (points, singular, lines) in zip(curves, expected):
        scan = fibre_scan(c)
        assert (scan.points.codes, scan.singular.codes, scan.lines) == (points, singular, lines)
        assert singular_points(c, 1).codes == singular
        assert axis_parallel_lines(c) == lines
    assert verify_witness(report.decision, report.points)
    assert cli.report_json(report) == report_json


# ---------------------------------------------------------------------------
# The resultant certificate of singular_points against the lifted scan.


def certificate_curves():
    """differential_curves(), the extension-2 curves under every
    non-default modulus, and seeded random curves of total degree <= 3
    (mostly of degree <= 2 in y) over F_3 ... F_13, F_9 and F_25."""
    curves = [c for c in differential_curves() if c.ctx.order**4 <= DEFAULT_FIELD_CAP]
    for p, k, modulus in CUSTOM_MODULI:
        ctx = FqContext(p, k, modulus)
        curves += [Curve(parse_bipoly(expr, ctx)) for expr, _ in EXT2_CURVES]
    rng = seeded_rng(18)
    for p, k in ((3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2)):
        ctx = FqContext(p, k)
        curves.append(Curve(parse_bipoly("y^2 - x^3 - x", ctx)))
        for _ in range(8):
            terms = {(0, 1): ctx.one()}  # never constant
            for i in range(4):
                for j in range(4 - i):
                    if rng.random() < (0.1 if j == 3 else 0.5):
                        terms[i, j] = ctx.decode(rng.randrange(1, ctx.order))
            curves.append(Curve(SparsePoly(ctx, terms)))
    return curves


def lifted_singular(c, m):
    """The singular points over F_{q^m} by the scan of the lifted curve."""
    return fibre_scan(lift(c, FqContext(c.ctx.p, m * c.ctx.k))).singular


@pytest.mark.parametrize("c", certificate_curves(), ids=repr)
def test_certificate_implies_an_empty_lifted_scan(c):
    q = c.ctx.order
    scan = lifted_singular(c, 2)
    if curve_mod._no_singular_point(c, q * q):
        assert scan.count == 0
    assert singular_points(c, 2) == scan


# (p, k, modulus, expression, deg G or None when a resultant is zero or
# there is no formula, certificate, singular points over F_{q^2})
CERTIFICATE_CASES = (
    # no y at all, singular along x = 0: outside the formulas
    (5, 2, None, "4*x^3 + (3*g + 4)*x^2", None, False, 625),
    # the cusp: f_x = -3x^2 = 0, so Res_y(f, f_x) = 0
    (3, 1, None, "y^2 - x^3", None, False, 1),
    # a repeated component: both resultants are zero
    (5, 1, None, "(y - x)^2", None, False, 25),
    # a node at the origin, a root of G = x^2 in F_q
    (7, 1, None, "y^2 - x^3 - x^2", 2, False, 1),
    # G = (x^2 + 1)^2: roots +-i in F_9, where the parabolas cross
    (3, 1, None, "y^2 - (x^2 + 1)^2", 4, False, 2),
    # G = x, where the leading coefficient 2x vanishes, but no point
    # over x = 0 is singular
    (3, 1, None, "2*x^2*y + 2*x*y^2 + x^2 + y", 1, False, 0),
    # G = h^2 with h = x^3 - x + 1 irreducible over F_3: its roots
    # lie in F_27, not in F_9
    (3, 1, None, "y^2 - (x^3 - x + 1)^2", 6, True, 0),
    (3, 2, (2, 1, 1), "x*y - 1", 0, True, 0),
    (5, 1, None, "x^2 + y^2 - 1", 0, True, 0),
)


@pytest.mark.parametrize("p,k,modulus,expr,gcd_degree,certified,count", CERTIFICATE_CASES)
def test_certificate_cases(p, k, modulus, expr, gcd_degree, certified, count):
    c = Curve(parse_bipoly(expr, FqContext(p, k, modulus)))
    resultants = curve_mod._singular_x_resultants(c)
    if gcd_degree is None:
        assert resultants is None or any(r.is_zero() for r in resultants)
    else:
        assert unipoly_gcd(*resultants).degree == gcd_degree
    q = c.ctx.order
    assert curve_mod._no_singular_point(c, q * q) is certified
    scan = lifted_singular(c, 2)
    assert scan.count == count
    assert singular_points(c, 2) == scan


def test_certificate_with_f_x_zero_or_no_y():
    # f_x = 0 gives a zero Res_y(f, f_x); a curve in x alone, or of
    # degree 3 in y, has no formula
    cusp = build_curve(3, 1, "y^2 - x^3")
    assert curve_mod._singular_x_resultants(cusp)[0].is_zero()
    assert curve_mod._singular_x_resultants(build_curve(5, 1, "x^3 - x")) is None
    assert curve_mod._singular_x_resultants(build_curve(5, 1, "y^3 - x")) is None


# The smooth corpus curves with deg_y f <= 2 whose extension-2 scan fits
SMOOTH_EXT2 = [
    entry
    for entry in CORPUS
    if entry[3] and (entry[0] ** entry[1]) ** 4 <= DEFAULT_FIELD_CAP and "y^4" not in entry[2]
]


@pytest.mark.parametrize("entry", SMOOTH_EXT2, ids=str)
def test_analyze_certifies_smooth_curves_without_extension_tables(entry, monkeypatch):
    c = build_curve(*entry)
    q = c.ctx.order
    expected = cli.report_json(cover.analyze(c, singular_ext=2))
    tables = fields.code_tables

    def base_tables(ctx):
        assert ctx.order == q, f"code tables built for {ctx!r}"
        return tables(ctx)

    def no_embed(*args, **kwargs):
        raise AssertionError("an element was embedded")

    for module in (fields, curve_mod, cover):
        monkeypatch.setattr(module, "code_tables", base_tables)
    monkeypatch.setattr(curve_mod, "embed", no_embed)
    report = cover.analyze(c, singular_ext=2)
    assert report.singular_ext_used == 2
    assert report.singular == PointSet(FqContext(c.ctx.p, 2 * c.ctx.k), ())
    assert cli.report_json(report) == expected


# ---------------------------------------------------------------------------
# Closed-form point counts on fields the element-by-element scan made
# too slow to test.


@pytest.mark.parametrize("p,k", [(3, 5), (7, 3), (3, 6)])
def test_hyperbola_has_q_minus_1_points(p, k):
    c = build_curve(p, k, "x*y - 1")
    q = c.ctx.order
    pts = list(affine_points(c))
    assert len(pts) == q - 1
    assert [int(x) for x, _ in pts] == list(range(1, q))
    one = c.ctx.one()
    assert all(x * y == one for x, y in pts)


def euler_chi(v):
    """The quadratic character of v by Euler's criterion."""
    if v.is_zero():
        return 0
    return 1 if v ** ((v.ctx.order - 1) // 2) == v.ctx.one() else -1


@pytest.mark.parametrize(
    "p,k,a,b", [(127, 1, "3", "1"), (127, 1, "5", "7"), (11, 2, "g", "1"), (11, 2, "2", "g + 3")]
)
def test_cubic_count_matches_character_sum(p, k, a, b):
    # y^2 = g(x) has 1 + chi(g(x)) points over each x
    c = build_curve(p, k, f"y^2 - x^3 - ({a})*x - ({b})")
    rhs = parse_bipoly(f"x^3 + ({a})*x + ({b})", c.ctx)
    y0 = c.ctx.zero()
    expected = c.ctx.order + sum(euler_chi(rhs.evaluate((x, y0))) for x in c.ctx.elements())
    assert affine_points(c).count == expected
