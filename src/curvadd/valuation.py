"""Valuations at desk scale: the degree valuation on rational function
fields, the p-adic valuation on Q, and an explicit nonzero additive
functional h with h(x) * h(1/x) = 0 for every nonzero x.

The degree valuation on K(t) is v(f/g) = deg g - deg f, with
v(0) = infinity.  Its valuation ring O is the set of functions whose
polynomial part (numerator divided by denominator) is constant, which
is what makes the functional

    h(x) = coefficient of t^1 in the polynomial part of x

vanish on all of O while h(t) = 1: h is additive and linear over the
coefficient field, nonzero, and for any nonzero x at least one of x,
1/x lies in O, so h(x) * h(1/x) = 0.  The same construction works
verbatim over Q(t) and over F_p(t); realizing it over bigger fields
(e.g. the reals) needs non-constructive extension machinery that is
deliberately out of scope here, so every statement this module makes
is machine-checked.

Randomized checks draw rational functions of bounded degree and bounded
coefficient height from a caller-seeded generator, so runs reproduce.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Rational
from operator import index

from .errors import ContextMismatch, Frozen, Inconsistent
from .fields import MAX_PRIME, is_prime
from .poly import QQ, RationalFunction, UniPoly

# v(0); compares greater than every finite value, absorbs addition.
INFINITY = math.inf


def degree_valuation(x):
    """v(f/g) = deg g - deg f on the reduced form; v(0) = INFINITY."""
    if x.is_zero():
        return INFINITY
    return x.den.degree - x.num.degree


def in_valuation_ring(x):
    """Membership in O = {x : v(x) >= 0} for the degree valuation."""
    return degree_valuation(x) >= 0


def h_additive(x):
    """Coefficient of t^1 in the polynomial part of x.

    Additive and linear over the coefficient field; zero on all of O
    (polynomial part constant there); h(t) = 1.
    """
    return x.polynomial_part().coeff(1)


def check_x_or_inverse(x):
    """x in O or 1/x in O; true for every nonzero x."""
    if x.is_zero():
        raise ValueError("x must be nonzero")
    return in_valuation_ring(x) or in_valuation_ring(x.inverse())


def padic_valuation(x, p):
    """Exponent of the prime p in x, an int or a Fraction; INFINITY for
    0.  p is at most MAX_PRIME, the range where is_prime is a proof."""
    if not isinstance(x, Rational):
        raise TypeError(f"x must be an int or a Fraction, got {x!r}")
    p = index(p)
    if p > MAX_PRIME:
        raise ValueError(f"p too large: {p} > {MAX_PRIME}")
    if p < 2 or not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    x = Fraction(x)
    if x == 0:
        return INFINITY

    def mult(n):
        n = abs(n)
        v = 0
        while n % p == 0:
            n //= p
            v += 1
        return v

    return mult(x.numerator) - mult(x.denominator)


# ---------------------------------------------------------------------------
# Seeded random inputs.


def _random_coeff(rng, domain, height):
    if domain == QQ:
        return Fraction(rng.randint(-height, height), rng.randint(1, height))
    ctx = domain.ctx
    code = rng.randrange(ctx.order)
    # over F_p the code is the residue itself, which UniPoly packs as is
    return code if ctx.k == 1 else ctx.decode(code)


def random_unipoly(rng, domain, max_degree=8, height=9, nonzero=False):
    """Random polynomial of degree <= max_degree with small coefficients."""
    while True:
        deg = rng.randint(0, max_degree)
        poly = UniPoly(
            domain, [_random_coeff(rng, domain, height) for _ in range(deg + 1)]
        )
        if not nonzero or not poly.is_zero():
            return poly


def random_rational_function(rng, domain, max_degree=8, height=9, nonzero=False):
    """Random reduced rational function with both degrees <= max_degree."""
    num = random_unipoly(rng, domain, max_degree, height, nonzero=nonzero)
    den = random_unipoly(rng, domain, max_degree, height, nonzero=True)
    return RationalFunction(num, den)


# ---------------------------------------------------------------------------
# Property runs.  Violations raise Inconsistent: every property these
# loops test holds identically, so a failure always means a broken
# implementation, never bad luck with the sample.


class AxiomCheckReport(Frozen):
    sample_count: int
    seed: int
    domains: tuple
    checks: int


def _vadd(a, b):
    if a is INFINITY or b is INFINITY:
        return INFINITY
    return a + b


def _fail(message):
    raise Inconsistent(f"property failure: {message}")


def _check_degree_axioms(rng, domain, label, sample_count):
    checks = 0
    zero = RationalFunction(UniPoly.zero(domain))
    if degree_valuation(zero) is not INFINITY:
        _fail(f"v(0) != infinity over {label}")
    t = RationalFunction.variable(domain)
    if h_additive(t) != domain.one:
        _fail(f"h(t) != 1 over {label}")
    checks += 2
    for i in range(sample_count):
        x = random_rational_function(rng, domain)
        y = random_rational_function(rng, domain)
        vx, vy = degree_valuation(x), degree_valuation(y)
        total, product, hx = x + y, x * y, h_additive(x)
        # v(x) = infinity iff x = 0
        if (vx is INFINITY) != x.is_zero():
            _fail(f"v(x) = infinity botched over {label} at sample {i}")
        # v(xy) = v(x) + v(y)
        if degree_valuation(product) != _vadd(vx, vy):
            _fail(f"v(xy) != v(x)+v(y) over {label} at sample {i}")
        # v(x+y) >= min(v(x), v(y))
        if degree_valuation(total) < min(vx, vy):
            _fail(f"v(x+y) < min over {label} at sample {i}")
        # O is closed under + and *
        if vx >= 0 and vy >= 0:
            if not in_valuation_ring(total) or not in_valuation_ring(product):
                _fail(f"O not closed over {label} at sample {i}")
        # x in O or 1/x in O; h(x) * h(1/x) = 0
        if not x.is_zero():
            if not check_x_or_inverse(x):
                _fail(f"x or 1/x escapes O over {label} at sample {i}")
            if hx * h_additive(x.inverse()) != domain.zero:
                _fail(f"h(x)*h(1/x) != 0 over {label} at sample {i}")
        # h is additive and linear; h vanishes on O
        if h_additive(total) != hx + h_additive(y):
            _fail(f"h not additive over {label} at sample {i}")
        c = _random_coeff(rng, domain, 9)
        if h_additive(x * RationalFunction.constant(domain, c)) != c * hx:
            _fail(f"h not linear over {label} at sample {i}")
        if vx >= 0 and hx != domain.zero:
            _fail(f"h nonzero on O over {label} at sample {i}")
        checks += 9
    return checks


def _check_padic_axioms(rng, p, sample_count):
    checks = 0
    if padic_valuation(0, p) is not INFINITY:
        _fail(f"v_{p}(0) != infinity")
    checks += 1
    for i in range(sample_count):
        x = Fraction(rng.randint(-400, 400), rng.randint(1, 400))
        y = Fraction(rng.randint(-400, 400), rng.randint(1, 400))
        vx, vy = padic_valuation(x, p), padic_valuation(y, p)
        if (vx is INFINITY) != (x == 0):
            _fail(f"v_{p}(x) = infinity botched at sample {i}")
        if padic_valuation(x * y, p) != _vadd(vx, vy):
            _fail(f"v_{p}(xy) != v(x)+v(y) at sample {i}")
        if padic_valuation(x + y, p) < min(vx, vy):
            _fail(f"v_{p}(x+y) < min at sample {i}")
        checks += 3
    return checks


def verify_valuation_axioms(sample_count=1000, seed=42):
    """Seeded property run over Q(t), F_3(t), F_5(t) and the p-adic
    valuations for p in {2, 3, 5}.  Raises Inconsistent on the first
    violation; returns a tally when everything holds."""
    import random as _random

    from .fields import FqContext
    from .poly import field_domain

    sample_count = index(sample_count)
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    rng = _random.Random(seed)
    checks = 0
    labels = []
    for label, domain in (
        ("Q(t)", QQ),
        ("F_3(t)", field_domain(FqContext(3))),
        ("F_5(t)", field_domain(FqContext(5))),
    ):
        checks += _check_degree_axioms(rng, domain, label, sample_count)
        labels.append(f"degree valuation on {label}")
    for p in (2, 3, 5):
        checks += _check_padic_axioms(rng, p, sample_count)
        labels.append(f"{p}-adic valuation on Q")
    return AxiomCheckReport(
        sample_count=sample_count,
        seed=seed,
        domains=tuple(labels),
        checks=checks,
    )


class FamilyCheckReport(Frozen):
    p_expr: str
    q_expr: str
    checked: int


def ext2_family_check(P, Q, samples):
    """For polynomials P, Q and nonzero samples s, certify the route
    behind the parametrized family (P(s), Q(1/s)):

        s in O      =>  P(s) in O,    so h(P(s)) = 0;
        s not in O  =>  1/s in O, so Q(1/s) in O and h(Q(1/s)) = 0;

    hence h(P(s)) * h(Q(1/s)) = 0 at every sample.  Any violation is a
    hard failure (Inconsistent)."""
    if not isinstance(P, UniPoly) or not isinstance(Q, UniPoly):
        raise TypeError("P and Q must be polynomials (UniPoly)")
    if P.domain != Q.domain:
        raise ContextMismatch("P and Q over different domains")
    domain = P.domain
    checked = 0
    for i, s in enumerate(samples):
        if not isinstance(s, RationalFunction) or s.domain != domain:
            raise ContextMismatch(f"sample {i} is not over the same field")
        if s.is_zero():
            raise ValueError(f"sample {i} is zero; samples must be nonzero")
        first = P(s)
        second = Q(s.inverse())
        if in_valuation_ring(s):
            if not in_valuation_ring(first):
                _fail(f"P(s) escaped O although s in O (sample {i})")
            if h_additive(first) != domain.zero:
                _fail(f"h(P(s)) != 0 although s in O (sample {i})")
        else:
            if not in_valuation_ring(s.inverse()):
                _fail(f"neither s nor 1/s in O (sample {i})")
            if not in_valuation_ring(second):
                _fail(f"Q(1/s) escaped O although 1/s in O (sample {i})")
            if h_additive(second) != domain.zero:
                _fail(f"h(Q(1/s)) != 0 although 1/s in O (sample {i})")
        if h_additive(first) * h_additive(second) != domain.zero:
            _fail(f"h(P(s)) * h(Q(1/s)) != 0 (sample {i})")
        checked += 1
    return FamilyCheckReport(
        p_expr=P.render("x"), q_expr=Q.render("x"), checked=checked
    )
