"""Shared test corpus and helpers.

The curve corpus stays clear of axis-parallel line components: for
those the counting argument's hypotheses fail by design and analyze
raises Inconsistent; dedicated tests cover that behavior separately.
"""

import itertools
import random

from curvadd import Curve, FqContext, is_prime, parse_bipoly

# (p, k, expression, assert_smooth, assert_abs_irreducible)
CORPUS = (
    (3, 1, "x*y - 1", True, True),
    (5, 1, "x*y - 1", True, True),
    (7, 1, "x*y - 1", True, True),
    (3, 2, "x*y - 1", True, True),
    (5, 2, "x*y - 1", True, True),
    (3, 3, "x*y - 1", True, True),
    (7, 2, "x*y - 1", True, True),
    (3, 1, "y^2 + 2*x*y + 2*y + x", False, False),
    (5, 1, "y^2 - x^3 - 3*x - 1", False, False),
    (5, 1, "x^2 + y^2 - 1", True, True),
    (7, 1, "x^2 + y^2 - 1", True, True),
    (7, 1, "y - x^2", True, True),
    (7, 1, "y^2 - x^3 - x", True, True),
    (5, 1, "y^2 - x^3 - x - 2", True, True),
    (5, 1, "x^2 - y^2", False, False),
    (3, 2, "x^2 + g*y^2 + g", True, True),
    (3, 2, "x^4 + y^4 + 1", True, True),
)

HYPERBOLA_FIELDS = ((3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2))

# (p, k, modulus) of non-default moduli for F_9, F_25 and F_27
CUSTOM_MODULI = ((3, 2, (2, 1, 1)), (5, 2, (2, 1, 1)), (3, 3, (2, 2, 0, 1)))


def build_curve(p, k, expr, smooth=False, irred=False):
    ctx = FqContext(p, k)
    return Curve(
        parse_bipoly(expr, ctx),
        assert_smooth=smooth,
        assert_abs_irreducible=irred,
    )


def corpus_curves():
    return [build_curve(*entry) for entry in CORPUS]


# The differential corpus: CORPUS plus a node, a cusp, a curve with a
# vertical line component, a pair of parabolas over F_3 that cross only
# over F_9, and an F_9 curve under the non-default modulus g^2 + g + 2,
# whose singular points (x^2 = g, y = 0) lie over F_81 only, so the
# lifted scan has to go through embed.
EXTRA_CURVES = (
    ((7, 1), "y^2 - x^3 - x^2"),
    ((7, 1), "y^2 - x^3"),
    ((5, 1), "(x - 2)*(y - x^2)"),
    ((3, 1), "y^2 - (x^2 + 1)^2"),
    ((3, 2, (2, 1, 1)), "y^2 - (x^2 - g)^2"),
)


def differential_curves():
    curves = corpus_curves()
    for field_args, expr in EXTRA_CURVES:
        curves.append(Curve(parse_bipoly(expr, FqContext(*field_args))))
    return curves


def odd_prime_powers(limit):
    """(p, k) for every odd prime power p^k <= limit."""
    out = []
    for p in range(3, limit + 1, 2):
        if is_prime(p):
            k = 1
            while p**k <= limit:
                out.append((p, k))
                k += 1
    return sorted(out, key=lambda pk: pk[0] ** pk[1])


def random_point_set(rng, ctx, max_points=8):
    """Seeded random affine point set over ctx, possibly empty."""
    n = rng.randint(0, max_points)
    codes = {
        (rng.randrange(ctx.order), rng.randrange(ctx.order)) for _ in range(n)
    }
    return [(ctx.decode(a), ctx.decode(b)) for a, b in sorted(codes)]


def reference_affine(c):
    """The affine points by direct evaluation at every pair, in code
    order: the route independent of the fibre scan."""
    elements = list(c.ctx.elements())
    return [
        (a, b)
        for a, b in itertools.product(elements, repeat=2)
        if c.defining.evaluate((a, b)).is_zero()
    ]


def reference_infinity_count(c):
    """The points at infinity by direct evaluation of the leading form
    at every (a : 1) and at (1 : 0)."""
    ctx = c.ctx
    lead = c.defining.leading_form()
    count = sum(lead.evaluate((a, ctx.one())).is_zero() for a in ctx.elements())
    return count + lead.evaluate((ctx.one(), ctx.zero())).is_zero()


def seeded_rng(seed):
    return random.Random(seed)


def span_elements(subspace):
    """All p^dim members of an F_p-subspace, in the order of their
    coordinates on its canonical basis rows, the first row slowest."""
    ctx, p = subspace.ctx, subspace.ctx.p
    for combo in itertools.product(range(p), repeat=subspace.dim):
        coeffs = [0] * ctx.k
        for c, row in zip(combo, subspace.rows):
            for i, v in enumerate(row):
                coeffs[i] = (coeffs[i] + c * v) % p
        yield ctx.element(coeffs)
