"""Polynomials, rational functions, and the expression parser."""

import itertools
import operator
import random
import time
from fractions import Fraction

import pytest

from curvadd import (
    QQ,
    ContextMismatch,
    FqContext,
    ParseError,
    RationalFunction,
    SparsePoly,
    UniPoly,
    field_domain,
    parse_bipoly,
)
from curvadd.poly import MAX_DEGREE, MAX_NESTING, unipoly_gcd


def _t(domain=QQ):
    return UniPoly.variable(domain)


def test_unipoly_basic_arithmetic():
    t = _t()
    f = (t + 1) ** 2
    assert f.coeff(0) == 1 and f.coeff(1) == 2 and f.coeff(2) == 1
    assert f.degree == 2
    assert (f - t**2 - 2 * t - 1).is_zero()
    assert (t - t).degree < 0  # NEG_INF sentinel


def test_unipoly_divmod_property():
    rng = random.Random(3)
    for domain in (QQ, field_domain(FqContext(5))):
        for _ in range(40):
            a_coeffs = [rng.randint(-6, 6) for _ in range(rng.randint(1, 7))]
            b_coeffs = [rng.randint(-6, 6) for _ in range(rng.randint(1, 5))]
            a = UniPoly(domain, [domain.coerce(c) for c in a_coeffs])
            b = UniPoly(domain, [domain.coerce(c) for c in b_coeffs])
            if b.is_zero():
                continue
            q, r = divmod(a, b)
            assert q * b + r == a
            assert r.is_zero() or r.degree < b.degree


def test_unipoly_gcd():
    t = _t()
    g = unipoly_gcd(t**2 - 1, t**3 - 1)
    assert g == (t - 1)  # monic normalization
    dom5 = field_domain(FqContext(5))
    s = _t(dom5)
    g5 = unipoly_gcd(s**2 + 4, s**2 + 3 * s + 2)  # both divisible by s + 2... check
    # s^2 + 4 = (s+1)(s+4); s^2 + 3s + 2 = (s+1)(s+2); gcd = s + 1
    assert g5 == s + 1


def test_unipoly_errors_on_every_kernel():
    # QQ and F_3 run integer kernels, F_9 the generic element loop
    domains = (QQ, field_domain(FqContext(3)), field_domain(FqContext(3, 2)), field_domain(FqContext(5)))
    for domain in domains:
        t, zero = _t(domain), UniPoly.zero(domain)
        for op in (divmod, operator.floordiv, operator.mod):
            for a in (t + 1, zero):
                with pytest.raises(ZeroDivisionError):
                    op(a, zero)
    for left, right in itertools.permutations(domains, 2):
        a, b = _t(left) + 1, _t(right)
        for op in (operator.add, operator.sub, operator.mul, divmod, unipoly_gcd):
            with pytest.raises(ContextMismatch):
                op(a, b)


def test_large_prime_field_builds_no_table():
    # p = 2^61 - 1: a per-p table could never be built, so the first
    # product and gcd finishing in milliseconds shows there is none
    start = time.perf_counter()
    s = _t(field_domain(FqContext(2**61 - 1)))
    f, g = (s + 3) * (s - 5), (s + 3) * (s**2 + 7)
    assert unipoly_gcd(f, g) == s + 3
    assert f // (s - 5) == s + 3
    assert time.perf_counter() - start < 0.1


def test_rational_gcd_removes_content():
    # coprime, degrees 12 and 11, heights 10^6: the primitive remainder
    # sequence takes milliseconds, plain pseudo-remainders seconds
    rng = random.Random(5)
    a, b = (
        UniPoly(QQ, [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) for _ in range(n)])
        for n in (13, 12)
    )
    start = time.perf_counter()
    assert unipoly_gcd(a, b) == UniPoly.one(QQ)
    assert time.perf_counter() - start < 1


def test_rational_function_canonical():
    t = _t()
    x = (t**2 - 1) / (t - 1)
    assert x == RationalFunction(t + 1)
    assert x.den == UniPoly.one(QQ)
    # denominator always monic
    y = RationalFunction(t, 2 * t**2 + 2)
    assert y.den.leading == 1
    assert y * RationalFunction(t**2 + 1) * 2 == RationalFunction(t)


def test_rational_function_field_ops():
    t = _t()
    x = (t**2 + 1) / t**5
    assert x.inverse() * x == RationalFunction(UniPoly.one(QQ))
    assert (x - x).is_zero()
    assert x + 0 == x and x * 1 == x
    with pytest.raises(ZeroDivisionError):
        RationalFunction(t, UniPoly.zero(QQ))
    with pytest.raises(ZeroDivisionError):
        RationalFunction(UniPoly.zero(QQ)).inverse()


def test_rational_function_eq_hash_contract():
    t = _t()
    assert (t**2 - 1) / (t - 1) in {RationalFunction(t + 1)}
    one = RationalFunction.constant(QQ, 1)
    assert one != 1 and one not in {1}
    dom = field_domain(FqContext(3))
    s = RationalFunction.constant(dom, 1)
    assert s != dom.one and s not in {dom.one}
    # arithmetic still coerces domain values and polynomials
    assert one + 0 == one and one * 1 == one and 2 - one == one
    assert one * t == RationalFunction(t)


def test_polynomial_part():
    t = _t()
    assert ((t**3 + 2 * t) / (t**2 + 1)).polynomial_part() == t
    assert RationalFunction((t + 1) ** 2 + 1).polynomial_part() == t**2 + 2 * t + 2
    assert (1 / t).polynomial_part().is_zero()
    x = (t**4 + t + 1) / (t**2)
    assert x.polynomial_part() == t**2


def test_rational_function_over_finite_field():
    dom = field_domain(FqContext(3))
    s = _t(dom)
    x = (s**2 + 1) / (s**2 + 2)  # denominators reduce mod 3
    assert x * (s**2 + 2) == RationalFunction(s**2 + 1)
    with pytest.raises(ContextMismatch):
        UniPoly(dom, [FqContext(5).one()])


def test_sparsepoly_eval_and_degree():
    ctx = FqContext(5)
    f = parse_bipoly("y^2 - x^3 - 3*x - 1", ctx)
    assert f.total_degree == 3
    assert f.degree_in(0) == 3 and f.degree_in(1) == 2
    assert f.evaluate((ctx.constant(0), ctx.constant(1))).is_zero()
    assert f.evaluate((ctx.constant(2), ctx.constant(0))).is_zero()
    assert not f.evaluate((ctx.constant(1), ctx.constant(1))).is_zero()


def test_sparsepoly_ring_ops():
    ctx = FqContext(7)
    x = SparsePoly.variable(ctx, 0)
    y = SparsePoly.variable(ctx, 1)
    f = (x + y) ** 2
    assert f == x**2 + 2 * x * y + y**2
    assert ((x + y) * (x - y)) == x**2 - y**2
    assert (f - f).is_zero()
    # substitution eliminates the variable: a UniPoly in the other one
    u = UniPoly.variable(field_domain(ctx))
    assert f.substitute(0, ctx.constant(0)) == u**2
    assert f.substitute(1, ctx.constant(1)) == u**2 + 2 * u + 1
    assert (x - x).substitute(0, ctx.constant(3)).is_zero()
    # outside input: exponent pairs and variable indices only
    with pytest.raises(ValueError):
        SparsePoly(ctx, {(1, 0, 0): 1})
    for index in (-1, 2):
        with pytest.raises(ValueError):
            SparsePoly.variable(ctx, index)
        with pytest.raises(ValueError):
            f.substitute(index, ctx.constant(1))
        with pytest.raises(ValueError):
            f.partial(index)


def test_partial_derivative():
    ctx = FqContext(5)
    f = parse_bipoly("x^3*y^2 + 2*x + y", ctx)
    fx = f.partial(0)
    fy = f.partial(1)
    assert fx == parse_bipoly("3*x^2*y^2 + 2", ctx)
    assert fy == parse_bipoly("2*x^3*y + 1", ctx)
    # char-p collapse: d/dx of x^5 is 5x^4 = 0
    assert parse_bipoly("x^5", ctx).partial(0).is_zero()


def test_leading_form():
    ctx = FqContext(3)
    f = parse_bipoly("x*y + x + 2", ctx)
    lead = f.leading_form()
    assert lead == parse_bipoly("x*y", ctx)


def test_render_reparse_round_trip():
    ctx = FqContext(5, 2)
    for text in (
        "x^2 + 2*x*y + y^2 + 1",
        "g*x^3 + (g + 1)*y + 2",
        "x^4 + y^4 + 4",
        "2*x*y + 3",
    ):
        f = parse_bipoly(text, ctx)
        assert parse_bipoly(f.render(), ctx) == f


def test_parser_valid_forms():
    ctx = FqContext(3)
    f = parse_bipoly("-x + y", ctx)
    assert f == parse_bipoly("2*x + y", ctx)  # leading minus is (p-1) times
    assert parse_bipoly("7", ctx) == SparsePoly.constant(ctx, ctx.constant(1))
    assert parse_bipoly("x^0", ctx) == SparsePoly.constant(ctx, ctx.one())
    assert parse_bipoly("(x + y)^2", ctx) == parse_bipoly("x^2 + 2*x*y + y^2", ctx)
    assert parse_bipoly("2^3", ctx) == SparsePoly.constant(ctx, ctx.constant(8))


def test_parser_gen_symbol():
    f9 = FqContext(3, 2)
    f = parse_bipoly("g*x + g^2", f9)
    g = f9.gen()
    assert f.evaluate((f9.one(), f9.zero())) == g + g * g
    with pytest.raises(ParseError) as err:
        parse_bipoly("g*x + 1", FqContext(3))
    assert err.value.position == 0


def test_parser_error_positions():
    ctx = FqContext(3)
    cases = (
        ("y^^2", 2),
        ("x + * y", 4),
        ("x + ", 4),
        ("(x + y", 6),
        ("x ^ y", 4),
        ("x @ y", 2),
        ("x + u", 4),
        ("", 0),
    )
    for text, pos in cases:
        with pytest.raises(ParseError) as err:
            parse_bipoly(text, ctx)
        assert err.value.position == pos, text
        assert f"position {pos}" in str(err.value)


def test_parser_nesting_limit():
    ctx = FqContext(5)
    nested = "(" * 50 + "x" + ")" * 50 + "*y - 1"
    assert parse_bipoly(nested, ctx) == parse_bipoly("x*y - 1", ctx)
    at_limit = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_bipoly(at_limit, ctx) == parse_bipoly("x", ctx)
    # the error sits at the first '(' past the limit, however deep
    for depth in (MAX_NESTING + 1, 300):
        with pytest.raises(ParseError) as err:
            parse_bipoly("(" * depth + "x" + ")" * depth, ctx)
        assert err.value.position == MAX_NESTING


def test_parser_degree_limit():
    ctx = FqContext(5)
    x, y = SparsePoly.variable(ctx, 0), SparsePoly.variable(ctx, 1)
    assert parse_bipoly(f"(x*y)^{MAX_DEGREE // 2}", ctx) == (x * y) ** (MAX_DEGREE // 2)
    assert parse_bipoly(f"0^{10**9} + 2^{10**9 + 1}*x", ctx) == x * 2  # 2^4 = 1 mod 5
    # refused at the '^' or '*' that would pass the limit, before expanding
    cases = (
        (f"x^{MAX_DEGREE + 1}", 1),
        ("(x + y + 1)^5000 - 1", 11),
        (f"y*x^{MAX_DEGREE} + 1", 1),
        (f"x^{MAX_DEGREE // 2}*y^{MAX_DEGREE // 2}*x", 9),
    )
    for text, pos in cases:
        with pytest.raises(ParseError) as err:
            parse_bipoly(text, ctx)
        assert err.value.position == pos, text
        assert f"MAX_DEGREE = {MAX_DEGREE}" in str(err.value)


def test_fraction_coefficients_stay_exact():
    t = _t()
    x = RationalFunction(
        UniPoly(QQ, [Fraction(1, 3), Fraction(2, 7)]), t**3 + 1
    )
    y = x + x + x
    assert y.num.coeff(0) == 1
    third = (x * 3 - y)
    assert third.is_zero()
