"""Two earlier exhaustive oracles, kept as references for
cover.decide_by_exhaustion.

map_walk_oracle tests every one of the q^k nonzero linearized maps
against every point, in the code order of their coefficients (a_{k-1}
fastest), on the same log/Zech arithmetic, so its witness is the first
working map in that order.  prefix_walk_oracle walks the q^(k-1)
prefixes (a_0, ..., a_{k-2}) in that order and solves for a_{k-1} at
each.  decide_by_exhaustion branches on subspaces of the coefficient
space instead, and must return the same verdict and the same witness
as both.
"""

import itertools

from curvadd import LinearizedMap
from curvadd.cover import CoverVerdict
from curvadd.fields import code_tables


def map_walk_oracle(points, ctx):
    tables = code_tables(ctx)
    exp, log, zech = tables.exp, tables.log, tables.zech
    n = len(zech)
    # log(x^(p^i)) = log(x) * p^i mod n; the orbit of 0 is all zeros
    steps = [pow(ctx.p, i, n) for i in range(ctx.k)]

    zero_orbit = (None,) * ctx.k
    orbit_logs = {}

    def orbit(e):
        code = int(e)
        got = orbit_logs.get(code)
        if got is None:
            lx = log[code]
            got = orbit_logs[code] = (
                zero_orbit if lx is None else tuple(lx * s % n for s in steps)
            )
        return got

    pairs = [(orbit(x), orbit(y)) for x, y in points]

    def vanishes(alogs, xlogs):
        acc = None
        for a, b in zip(alogs, xlogs):
            if a is None or b is None:
                continue
            t = a + b
            if acc is None:
                acc = t
            else:
                z = zech[(t - acc) % n]
                acc = None if z is None else acc + z
        return acc is None

    # log lists the logs in code order, so this is code order too; the
    # first vector is the zero map
    maps = itertools.product(log, repeat=ctx.k)
    next(maps)
    for alogs in maps:
        ok = True
        for fx, fy in pairs:
            if vanishes(alogs, fx):
                continue
            if vanishes(alogs, fy):
                continue
            ok = False
            break
        if ok:
            witness = LinearizedMap(
                ctx, [ctx.decode(0 if a is None else exp[a]) for a in alogs]
            )
            return CoverVerdict(True, witness, "exhaustive-oracle")
    return CoverVerdict(False, method="exhaustive-oracle")


def prefix_walk_oracle(points, ctx):
    """The maps f(x) = sum a_i x^(p^i) are ordered by the codes of
    (a_0, ..., a_{k-1}) with a_{k-1} fastest.  Fix a prefix
    (a_0, ..., a_{k-2}).  A point with a zero coordinate holds for
    every map, so it is dropped.  For x != 0, f(x) = 0 holds for
    exactly one a_{k-1}:

        c_x = -S_x / x^(p^(k-1)),  S_x = sum_{i<k-1} a_i x^(p^i),

    so a point (x, y) admits only a_{k-1} in {c_x, c_y}.  The prefix's
    working maps are those with a_{k-1} in the intersection of these
    sets over the points (the zero map taken out under the all-zero
    prefix), and the first of them has the smallest code there.

    With u_i(x) = -x^(p^i) / x^(p^(k-1)), c_x = sum_{i<k-1} a_i u_i(x),
    and log u_i(x) = (n/2 + log(x) (p^i - p^(k-1))) mod n for n = q - 1,
    since -1 = g^(n/2).
    """
    tables = code_tables(ctx)
    exp, log, zech = tables.exp, tables.log, tables.zech
    n = len(zech)
    k = ctx.k
    top = pow(ctx.p, k - 1, n)
    steps = [(pow(ctx.p, i, n) - top) % n for i in range(k - 1)]
    half = n // 2

    # one (log u_i(x), log u_i(y)) pair per point with no zero
    # coordinate; (x, y) and (y, x) constrain alike, so keep one
    constraints = []
    seen = set()
    for x, y in points:
        lx, ly = log[int(x)], log[int(y)]
        if lx is None or ly is None:
            continue
        key = (lx, ly) if lx <= ly else (ly, lx)
        if key in seen:
            continue
        seen.add(key)
        constraints.append(
            tuple(tuple((half + lv * s) % n for s in steps) for lv in key)
        )

    def solve(alogs, ulogs):
        # the code of sum a_i u_i, by Zech additions on logs
        acc = None
        for a, u in zip(alogs, ulogs):
            if a is None:
                continue
            t = a + u
            if acc is None:
                acc = t
            else:
                z = zech[(t - acc) % n]
                acc = None if z is None else acc + z
        return 0 if acc is None else exp[acc % n]

    def found(alogs, last):
        witness = LinearizedMap(
            ctx,
            [ctx.decode(0 if a is None else exp[a]) for a in alogs]
            + [ctx.decode(last)],
        )
        return CoverVerdict(True, witness, "exhaustive-oracle")

    # log lists the logs in code order, so this is code order too
    prefixes = itertools.product(log, repeat=k - 1)
    zero_prefix = next(prefixes)
    if not constraints:
        # every map works; the first nonzero one is (0, ..., 0, 1)
        return found(zero_prefix, 1)
    # under the all-zero prefix every c_x is 0, the zero map: skip it
    (ux, uy), rest = constraints[0], constraints[1:]
    for alogs in prefixes:
        alive = {solve(alogs, ux), solve(alogs, uy)}
        for vx, vy in rest:
            alive &= {solve(alogs, vx), solve(alogs, vy)}
            if not alive:
                break
        else:
            return found(alogs, min(alive))
    return CoverVerdict(False, method="exhaustive-oracle")
