"""Every renderer prints through fields._render_sum.  Each is checked
against a test-local copy of the loop it had before, on seeded inputs:
Q with negative and fractional coefficients, F_3 and F_5, F_9 and F_27
under default and custom moduli (coefficients like "g + 1"), and the
zero objects."""

import random
from fractions import Fraction

import pytest

from curvadd import FqContext, LinearizedMap, SparsePoly, UniPoly, field_domain
from curvadd.cli import _modulus_str
from curvadd.poly import QQ

from conftest import CUSTOM_MODULI

CONTEXTS = [(3, 1, None), (5, 1, None), (3, 2, None), (3, 3, None)] + [
    m for m in CUSTOM_MODULI if m[0] == 3
]


def old_unipoly_render(poly, var="t"):
    if poly.is_zero():
        return "0"
    coeffs = poly.coeffs
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == poly.domain.zero:
            continue
        if i == 0:
            parts.append(str(c))
            continue
        power = var if i == 1 else f"{var}^{i}"
        if c == poly.domain.one:
            parts.append(power)
        else:
            cs = str(c)
            if "+" in cs:
                cs = f"({cs})"
            parts.append(f"{cs}*{power}")
    out = parts[0]
    for part in parts[1:]:
        if part.startswith("-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out


def old_element_repr(e):
    if not any(e.coeffs):
        return "0"
    parts = []
    for i in range(e.ctx.k - 1, -1, -1):
        c = e.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            power = "g" if i == 1 else f"g^{i}"
            parts.append(power if c == 1 else f"{c}*{power}")
    return " + ".join(parts)


def old_sparse_render(f):
    if not f.terms:
        return "0"
    parts = []
    for exps, coeff in f.sorted_terms():
        factors = []
        for name, e in zip("xy", exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        cs = repr(coeff)
        if not factors:
            parts.append(cs)
        elif coeff == f.ctx.one():
            parts.append("*".join(factors))
        else:
            if "+" in cs:
                cs = f"({cs})"
            parts.append("*".join([cs] + factors))
    return " + ".join(parts)


def old_map_repr(f):
    if f.is_zero():
        return "LinearizedMap(0)"
    p = f.ctx.p
    parts = []
    for i, a in enumerate(f.coeffs):
        if a.is_zero():
            continue
        var = "x" if i == 0 else f"x^{p**i}"
        acoef = repr(a)
        if acoef == "1":
            parts.append(var)
        elif "+" in acoef:
            parts.append(f"({acoef})*{var}")
        else:
            parts.append(f"{acoef}*{var}")
    return f"LinearizedMap({' + '.join(parts)})"


def old_modulus_str(ctx):
    dom = field_domain(ctx)
    return old_unipoly_render(UniPoly(dom, [ctx.constant(c) for c in ctx.modulus]), "g")


def sparse_coeff(rng, ctx):
    # mostly zero, so terms drop out; ones and non-ones both occur
    return ctx.decode(rng.choice([0, 0, 1, rng.randrange(ctx.order)]))


def test_unipoly_render_over_q():
    rng = random.Random(1)
    polys = [UniPoly.zero(QQ)]
    for _ in range(200):
        n = rng.randint(1, 6)
        polys.append(
            UniPoly(QQ, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)])
        )
    assert any("-" in old_unipoly_render(f) for f in polys)
    assert any("/" in old_unipoly_render(f) for f in polys)
    for f in polys:
        for var in ("t", "x"):
            assert f.render(var) == old_unipoly_render(f, var)
        assert repr(f) == old_unipoly_render(f)


@pytest.mark.parametrize("p,k,modulus", CONTEXTS)
def test_renderers_over_finite_fields(p, k, modulus):
    ctx = FqContext(p, k, modulus)
    rng = random.Random(p * 100 + k)
    domain = field_domain(ctx)
    for e in ctx.elements():
        assert repr(e) == old_element_repr(e)
    assert _modulus_str(ctx) == old_modulus_str(ctx)

    unipolys = [UniPoly.zero(domain)] + [
        UniPoly(domain, [sparse_coeff(rng, ctx) for _ in range(rng.randint(1, 5))])
        for _ in range(100)
    ]
    sparse = [SparsePoly.zero(ctx)] + [
        SparsePoly(
            ctx,
            {(rng.randint(0, 3), rng.randint(0, 3)): sparse_coeff(rng, ctx) for _ in range(4)},
        )
        for _ in range(100)
    ]
    maps = [LinearizedMap.zero(ctx)] + [
        LinearizedMap(ctx, [sparse_coeff(rng, ctx) for _ in range(k)]) for _ in range(100)
    ]
    for f in unipolys:
        assert f.render() == old_unipoly_render(f)
    for f in sparse:
        assert f.render() == old_sparse_render(f)
    for f in maps:
        assert repr(f) == old_map_repr(f)
    if k > 1:
        # parenthesised coefficients occur, so that rule is exercised
        assert any("(" in f.render() for f in unipolys)
        assert any("(" in f.render() for f in sparse)
        assert any("(" in repr(f) for f in maps)
