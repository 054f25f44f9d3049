"""Property-based differential tests of the point scans, the two
deciders, witness re-verification and rational-function arithmetic.

The scans run on integer code tables (fields.code_tables); the
reference here evaluates with SparsePoly.evaluate and substitute on
field elements, pair by pair.  Fields are small (q <= 27), extension
fields use random non-default moduli, and the polynomials have degree
at most 4, some with a line x = a or y = b as a component.

The hyperplane decider runs on the trace form over F_p; it must agree
with the exhaustive oracle and, witness for witness, with the
Frobenius-orbit dot products on field elements kept below.  The
oracle, which branches on subspaces of the coefficient space, must
match the plain walk over all maps and the walk over prefixes that
solves for the last coefficient (oracle_reference.py) witness for
witness.
verify_witness runs on the witness's F_p matrix; the reference
evaluates the map pointwise with LinearizedMap.__call__.

Rendering a random polynomial in x and y and parsing the text back
gives the same polynomial, under default and non-default moduli.

RationalFunction operations cancel common factors piecemeal; the
reference builds the unreduced numerator and denominator and reduces
them with the full gcd of the public constructor.  Operands over Q,
F_3, F_5 and F_9 share a denominator factor in most draws.

UniPoly arithmetic runs on int lists over Q and prime fields; it must
match the element loops of unipoly_reference.py result for result,
over Q with heights up to 10^6, F_3, F_5, F_7, F_(2^61 - 1), and F_9
under a non-default modulus (the generic loop, as a control).  Every
kernel result must repack from its coefficients to an equal polynomial
with an equal hash, and over Q its stored form must be canonical.
RationalFunction arithmetic over Q and F_p must build no Fraction and
no FqElement once its operands exist.

Runs are derandomized, so the suite stays deterministic.
"""

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from curvadd import (
    Curve,
    FqContext,
    LinearizedMap,
    affine_points,
    axis_parallel_lines,
    decide_by_exhaustion,
    decide_by_hyperplanes,
    points_at_infinity_count,
    singular_points,
    verify_witness,
)
from curvadd import poly
from curvadd.additive import hyperplane_functionals, trace_functional
from curvadd.cover import CoverVerdict
from curvadd.fields import FqElement
from curvadd.poly import (
    QQ,
    RationalFunction,
    SparsePoly,
    UniPoly,
    field_domain,
    parse_bipoly,
    unipoly_gcd,
)
from curvadd.valuation import random_unipoly

import unipoly_reference as element_loops
from conftest import (
    CUSTOM_MODULI,
    reference_affine,
    reference_infinity_count,
    span_elements,
)
from oracle_reference import map_walk_oracle, prefix_walk_oracle

# p in {3, 5, 7}, k <= 3, q <= 27; larger fields first, where
# hypothesis draws most often
FIELDS = ((3, 3), (5, 2), (3, 2), (7, 1), (5, 1), (3, 1))
MAX_DEGREE = 4

SETTINGS = settings(
    max_examples=60,
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@lru_cache(maxsize=None)
def non_default_moduli(p, k):
    """Every monic irreducible degree-k modulus over F_p except the
    default one, as coefficient tuples low to high."""
    default = FqContext(p, k).modulus
    out = []
    for low in itertools.product(range(p), repeat=k):
        modulus = low + (1,)
        if modulus == default:
            continue
        try:
            FqContext(p, k, modulus)
        except ValueError:  # reducible
            continue
        out.append(modulus)
    return tuple(out)


@st.composite
def contexts(draw):
    p, k = draw(st.sampled_from(FIELDS))
    if k == 1:
        return FqContext(p)
    return FqContext(p, k, draw(st.sampled_from(non_default_moduli(p, k))))


@st.composite
def curves(draw):
    """A polynomial of degree <= 4 with at least two terms, so never
    constant; in some draws times a line x - a or y - b."""
    ctx = draw(contexts())
    line = draw(st.sampled_from((None, 0, 1)))
    top = MAX_DEGREE - (line is not None)
    monomials = [(i, j) for i in range(top + 1) for j in range(top + 1 - i)]
    chosen = draw(st.lists(st.sampled_from(monomials), min_size=2, max_size=6, unique=True))
    if draw(st.booleans()):
        # a constant term rules out the lines x = 0 and y = 0, which
        # sparse draws otherwise contain often
        chosen = list(dict.fromkeys(chosen + [(0, 0)]))
    codes = draw(st.lists(st.integers(1, ctx.order - 1), min_size=len(chosen), max_size=len(chosen)))
    poly = SparsePoly(ctx, {e: ctx.decode(c) for e, c in zip(chosen, codes)})
    if line is not None:
        value = ctx.decode(draw(st.integers(0, ctx.order - 1)))
        poly = poly * (SparsePoly.variable(ctx, line) - value)
    return Curve(poly)


def reference_axis_lines(c):
    lines = []
    for v in c.ctx.elements():
        if c.defining.substitute(0, v).is_zero():
            lines.append(f"x = {v!r}")
        if c.defining.substitute(1, v).is_zero():
            lines.append(f"y = {v!r}")
    return lines


def reference_singular(c, points):
    fx, fy = c.defining.partial(0), c.defining.partial(1)
    return [pt for pt in points if fx.evaluate(pt).is_zero() and fy.evaluate(pt).is_zero()]


@SETTINGS
@given(curves())
def test_scans_match_reference(c):
    expected = reference_affine(c)
    assert list(affine_points(c)) == expected
    assert points_at_infinity_count(c) == reference_infinity_count(c)
    assert axis_parallel_lines(c) == reference_axis_lines(c)
    assert list(singular_points(c, 1)) == reference_singular(c, expected)


@st.composite
def bivariate_polys(draw):
    """A polynomial in x and y of degree <= 4 with up to 8 terms (zero
    and constants included), over a field with its default modulus or
    any non-default one, conftest's CUSTOM_MODULI among them."""
    p, k = draw(st.sampled_from(FIELDS))
    moduli = (None,) if k == 1 else (None,) + non_default_moduli(p, k)
    ctx = FqContext(p, k, draw(st.sampled_from(moduli)))
    monomials = [(i, j) for i in range(MAX_DEGREE + 1) for j in range(MAX_DEGREE + 1 - i)]
    chosen = draw(st.lists(st.sampled_from(monomials), max_size=8, unique=True))
    codes = draw(st.lists(st.integers(1, ctx.order - 1), min_size=len(chosen), max_size=len(chosen)))
    return SparsePoly(ctx, {e: ctx.decode(c) for e, c in zip(chosen, codes)})


@settings(SETTINGS, max_examples=300)
@given(bivariate_polys())
def test_render_then_parse_is_identity(f):
    assert parse_bipoly(f.render(), f.ctx) == f


@st.composite
def maps_and_points(draw):
    """A context, a linearized map (sometimes zero) and up to 10
    distinct points, each coordinate drawn at random or, in some
    draws, from the map's kernel, so both verdicts occur."""
    ctx = draw(contexts())
    codes = st.integers(0, ctx.order - 1)
    f = LinearizedMap(ctx, [ctx.decode(c) for c in draw(st.lists(codes, min_size=ctx.k, max_size=ctx.k))])
    kernel = list(span_elements(f.kernel()))
    coordinate = st.one_of(codes.map(ctx.decode), st.sampled_from(kernel))
    pts = draw(st.lists(st.tuples(coordinate, coordinate), max_size=10, unique=True))
    return ctx, f, sorted(pts, key=lambda pt: (int(pt[0]), int(pt[1])))


def frobenius_orbit(e):
    orbit = [e]
    for _ in range(e.ctx.k - 1):
        orbit.append(orbit[-1] ** e.ctx.p)
    return orbit


def reference_decider(points, ctx):
    """The hyperplane search on field elements: x lies in ker Tr(a .)
    iff the Frobenius orbits of a and x have dot product 0."""
    pairs = [(frobenius_orbit(x), frobenius_orbit(y)) for x, y in points]

    def vanishes(avec, orbit):
        acc = ctx.zero()
        for a, b in zip(avec, orbit):
            acc = acc + a * b
        return acc.is_zero()

    for a in hyperplane_functionals(ctx):
        functional = trace_functional(a)
        if all(vanishes(functional.coeffs, fx) or vanishes(functional.coeffs, fy) for fx, fy in pairs):
            return CoverVerdict(True, functional, "hyperplane-search")
    return CoverVerdict(False, method="hyperplane-search")


def reference_verify(f, points):
    return not f.is_zero() and all(f(x).is_zero() or f(y).is_zero() for x, y in points)


@SETTINGS
@given(maps_and_points())
def test_deciders_and_witness_check_match_references(case):
    ctx, f, pts = case
    verdict = decide_by_hyperplanes(pts, ctx)
    assert verdict == reference_decider(pts, ctx)
    oracle = decide_by_exhaustion(pts, ctx)
    assert oracle == map_walk_oracle(pts, ctx) == prefix_walk_oracle(pts, ctx)
    assert oracle.exists_nonzero == verdict.exists_nonzero
    assert verify_witness(oracle, pts)
    assert verify_witness(verdict, pts)
    claimed = CoverVerdict(True, f, "test")
    assert verify_witness(claimed, pts) == reference_verify(f, pts)


RF_DOMAINS = (
    QQ,
    field_domain(FqContext(3)),
    field_domain(FqContext(5)),
    field_domain(FqContext(3, 2)),
)


def coefficients(domain):
    if domain == QQ:
        return st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
    return st.integers(0, domain.ctx.order - 1).map(domain.ctx.decode)


def unipolys(domain, max_degree, nonzero=False):
    polys = st.lists(coefficients(domain), max_size=max_degree + 1).map(
        lambda cs: UniPoly(domain, cs)
    )
    return polys.filter(lambda f: not f.is_zero()) if nonzero else polys


@st.composite
def rational_pairs(draw):
    """Two canonical rational functions over one domain whose
    denominators are built with a common factor, so a sum can hit the
    gcd(b, d) != 1 branch unless a numerator cancels it."""
    domain = draw(st.sampled_from(RF_DOMAINS))
    shared = draw(unipolys(domain, 2, nonzero=True))
    x, y = (
        RationalFunction(draw(unipolys(domain, 3)), draw(unipolys(domain, 2, nonzero=True)) * shared)
        for _ in range(2)
    )
    return domain, x, y


# RationalFunction(num, den), the public constructor, reduces by the
# full gcd: it is the reference every operation is compared with.
reference = RationalFunction


def reference_compose(P, x):
    """P(x) by Horner, every step reduced by the full gcd."""
    acc = reference(UniPoly.zero(x.domain), UniPoly.one(x.domain))
    for c in reversed(P.coeffs):
        acc = reference(acc.num * x.num + UniPoly(x.domain, (c,)) * acc.den * x.den, acc.den * x.den)
    return acc


def assert_same(result, expected):
    """Same num and den as the reference, and canonical on its own:
    monic den, gcd 1 (which makes zero 0/1)."""
    assert (result.num, result.den) == (expected.num, expected.den)
    assert result.den.leading == result.domain.one
    assert unipoly_gcd(result.num, result.den) == UniPoly.one(result.domain)


@SETTINGS
@given(rational_pairs(), st.integers(-3, 4), st.data())
def test_rational_ops_match_full_gcd(pair, e, data):
    domain, x, y = pair
    a, b, c, d = x.num, x.den, y.num, y.den
    assert_same(x + y, reference(a * d + c * b, b * d))
    assert_same(x - y, reference(a * d - c * b, b * d))
    assert_same(x * y, reference(a * c, b * d))
    if not y.is_zero():
        # y's inverse has y's denominator on top: a cross-cancellation
        assert_same(x / y, reference(a * d, b * c))
    assert_same(-x, reference(-a, b))
    if not x.is_zero():
        assert_same(x.inverse(), reference(b, a))
    if e >= 0:
        assert_same(x**e, reference(a**e, b**e))
    elif not x.is_zero():
        assert_same(x**e, reference(b ** -e, a ** -e))
    P = data.draw(unipolys(domain, 4))
    assert_same(P(x), reference_compose(P, x))


KERNEL_DOMAINS = (
    QQ,
    field_domain(FqContext(3)),
    field_domain(FqContext(5)),
    field_domain(FqContext(7)),
    field_domain(FqContext(2**61 - 1)),
    # the generic element loop, untouched by the integer kernels
    field_domain(FqContext(*CUSTOM_MODULI[0])),
)
HEIGHT = 10**6


def kernel_coefficients(domain):
    """Coefficients with zero drawn often: over Q signed, numerators
    and denominators up to 10^6; over F_p any residue."""
    if domain == QQ:
        rational = st.builds(Fraction, st.integers(-HEIGHT, HEIGHT), st.integers(1, HEIGHT))
        small = st.builds(Fraction, st.integers(-3, 3))
        return st.one_of(small, rational)
    return st.one_of(st.just(0), st.integers(0, domain.ctx.order - 1)).map(domain.ctx.decode)


@st.composite
def kernel_operands(draw):
    """Over one domain: polynomials a, b, a*g and b*g, each factor of
    degree <= 5 (zero and constants included), so the last two share
    g in most draws; and a scalar."""
    domain = draw(st.sampled_from(KERNEL_DOMAINS))
    polys = st.lists(kernel_coefficients(domain), max_size=6).map(lambda cs: UniPoly(domain, cs))
    a, b, g = draw(polys), draw(polys), draw(polys)
    return a, b, element_loops.mul(a, g), element_loops.mul(b, g), draw(kernel_coefficients(domain))


def assert_same_poly(got, want):
    """Equal, and built from the same coefficient types, so an int
    never stands in for a Fraction."""
    assert got == want
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


@settings(SETTINGS, max_examples=400)
@given(kernel_operands())
def test_unipoly_kernels_match_element_loops(case):
    a, b, ag, bg, c = case
    for x, y in ((a, b), (ag, bg), (bg, a)):
        assert_same_poly(x + y, element_loops.add(x, y))
        assert_same_poly(x - y, element_loops.sub(x, y))
        assert_same_poly(-x, element_loops.neg(x))
        assert_same_poly(x * y, element_loops.mul(x, y))
        assert_same_poly(x.scale(c), element_loops.scale(x, c))
        assert_same_poly(x.monic(), element_loops.monic(x))
        value = x(c)
        assert value == element_loops.evaluate(x, c) and type(value) is type(c)
        assert_same_poly(unipoly_gcd(x, y), element_loops.gcd(x, y))
        if not y.is_zero():
            q, r = element_loops.poly_divmod(x, y)
            got_q, got_r = divmod(x, y)
            assert_same_poly(got_q, q)
            assert_same_poly(got_r, r)
            assert_same_poly(x // y, q)
            assert_same_poly(x % y, r)


def assert_canonical_form(x):
    """UniPoly(d, x.coeffs) rebuilds x with its hash; over Q the stored
    form is canonical: den > 0, content coprime to den, no trailing
    zero; over F_p it is ints in [0, p), no trailing zero."""
    domain = x.domain
    again = UniPoly(domain, x.coeffs)
    assert again == x and hash(again) == hash(x)
    if domain == QQ:
        nums, den = x._form
        assert den > 0 and math.gcd(den, *nums) == 1
    elif domain.ctx.k == 1:
        nums = x._form
        assert all(0 <= v < domain.ctx.p for v in nums)
    else:
        return
    assert not nums or nums[-1] != 0


@settings(SETTINGS, max_examples=200)
@given(kernel_operands())
def test_unipoly_kernel_form_is_canonical(case):
    a, b, ag, bg, c = case
    results = [a, ag * bg, ag + bg, ag - bg, -a, a.scale(c), a.monic(), unipoly_gcd(ag, bg)]
    if not b.is_zero():
        results.extend(divmod(ag, b))
    for x in results:
        assert_canonical_form(x)


def sample_pairs(domain, rng, count):
    """Rational functions x, y, y nonzero, whose denominators share a
    factor, and a polynomial P."""
    out = []
    for _ in range(count):
        shared = random_unipoly(rng, domain, 2, nonzero=True)
        x, y = (
            RationalFunction(random_unipoly(rng, domain, 3, nonzero=nonzero), random_unipoly(rng, domain, 2, nonzero=True) * shared)
            for nonzero in (False, True)
        )
        out.append((x, y, random_unipoly(rng, domain, 3)))
    return out


def rational_results(x, y, P):
    return (
        x + y,
        x - y,
        x * y,
        y.inverse(),
        x == y,
        x.polynomial_part(),
        unipoly_gcd(x.num, y.den),
        P(x),
    )


@pytest.mark.parametrize("domain", KERNEL_DOMAINS[:-1], ids=repr)
def test_rational_function_arithmetic_builds_no_coefficients(domain, monkeypatch):
    cases = sample_pairs(domain, random.Random(12), 20)
    want = [rational_results(*case) for case in cases]

    def built(*args, **kwargs):
        raise AssertionError("a Fraction or FqElement was built")

    monkeypatch.setattr(poly, "Fraction", built)
    monkeypatch.setattr(poly, "FqElement", built)
    monkeypatch.setattr(Fraction, "__new__", built)
    monkeypatch.setattr(FqElement, "__init__", built)
    got = [rational_results(*case) for case in cases]
    monkeypatch.undo()
    assert got == want
