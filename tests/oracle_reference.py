"""The exhaustive oracle's map walk, kept as the reference for
cover.decide_by_exhaustion.

It tests every one of the q^k nonzero linearized maps against every
point, in the code order of their coefficients (a_{k-1} fastest), on
the same log/Zech arithmetic, so its witness is the first working map
in that order.  decide_by_exhaustion solves for a_{k-1} instead of
walking it and must return the same verdict and the same witness.
"""

import itertools

from curvadd import LinearizedMap
from curvadd.cover import CoverVerdict
from curvadd.fields import code_tables


def map_walk_oracle(points, ctx):
    exp, log, zech = code_tables(ctx)
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
            return CoverVerdict(True, witness, witness.kernel(), "exhaustive-oracle")
    return CoverVerdict(False, method="exhaustive-oracle")
