"""Point enumeration, singularity detection, windows, files."""

import itertools

import pytest

from curvadd import (
    CapExceeded,
    Curve,
    FqContext,
    ParseError,
    axis_parallel_lines,
    affine_points,
    hasse_weil_window,
    parse_bipoly,
    parse_curve_file,
    points_at_infinity_count,
    singular_points,
)
from curvadd import cover
from curvadd.fields import _embedding_root, embed
from curvadd.poly import SparsePoly

from conftest import (
    CORPUS,
    CUSTOM_MODULI,
    build_curve,
    reference_affine,
    reference_infinity_count,
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
    assert axis_parallel_lines(c) == ["x = 2", "y = 4"]
    assert axis_parallel_lines(build_curve(5, 1, "x*y - 1")) == []
    assert axis_parallel_lines(build_curve(5, 1, "x^2 - y^2")) == []
    assert axis_parallel_lines(build_curve(3, 1, "y^2 + 2*x*y + 2*y + x")) == [
        "y = 1"
    ]


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

# Beyond the corpus: a node, a cusp, a curve with a vertical line
# component, a pair of parabolas over F_3 that cross only over F_9,
# and an F_9 curve under the non-default modulus g^2 + g + 2, whose
# singular points (x^2 = g, y = 0) lie over F_81 only, so the lifted
# scan has to go through embed.
EXTRA_CURVES = (
    ((7, 1), "y^2 - x^3 - x^2"),
    ((7, 1), "y^2 - x^3"),
    ((5, 1), "(x - 2)*(y - x^2)"),
    ((3, 1), "y^2 - (x^2 + 1)^2"),
    ((3, 2, (2, 1, 1)), "y^2 - (x^2 - g)^2"),
)


def differential_curves():
    curves = [build_curve(*entry) for entry in CORPUS]
    for field_args, expr in EXTRA_CURVES:
        curves.append(Curve(parse_bipoly(expr, FqContext(*field_args))))
    return curves


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
    expected = singular_points(c, 1)
    scans = []

    def counted_affine_points(*args, **kwargs):
        scans.append(args)
        return affine_points(*args, **kwargs)

    def no_second_scan(*args, **kwargs):
        raise AssertionError("analyze ran a separate singular scan")

    monkeypatch.setattr(cover, "affine_points", counted_affine_points)
    monkeypatch.setattr(cover, "singular_points", no_second_scan)
    report = cover.analyze(c, singular_ext=1, oracle="off")
    assert report.singular_ext_used == 1
    assert report.singular == expected
    assert len(scans) == 1


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
