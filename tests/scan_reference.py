"""The two scan loops that curve.fibre_scan replaced, kept as
references for it.

singular_subset builds one row of each partial derivative
(SparsePoly.partial) per distinct x of the given points and tests every
point by Horner's rule on logs; axis_lines reads all q rows f(a, .) and
all q columns f(., b) for the zero polynomial.  Both run on the same
code tables and row builder as the fused pass, but decide by separate
walks.
"""

from curvadd.curve import _log_terms, _rows
from curvadd.fields import _vanishing_logs, code_tables


def singular_subset(c, points):
    """The points among `points` (element pairs on c) where both
    partials of the defining polynomial vanish too, in the same order."""
    ctx = c.ctx
    tables = code_tables(ctx)
    log, zech = tables.log, tables.zech
    partials = [c.defining.partial(0), c.defining.partial(1)]
    # a zero partial vanishes everywhere and needs no rows
    partials = [_log_terms(f, log) for f in partials if not f.is_zero()]
    rows = {int(x): [] for x, _ in points}
    codes = list(rows)
    for terms in partials:
        for code, row in zip(codes, _rows(terms, 0, tables, codes)):
            rows[code].append(row)

    def vanishes(row, y):
        ly = log[int(y)]
        if ly is None:
            return row[-1] is None
        return bool(_vanishing_logs(row, (ly,), zech))

    return [(x, y) for x, y in points if all(vanishes(row, y) for row in rows[int(x)])]


def axis_lines(c):
    """Lines x = a or y = b contained in c, as a tuple of strings, from
    a walk over every row and every column."""
    ctx = c.ctx
    tables = code_tables(ctx)
    terms = _log_terms(c.defining, tables.log)
    codes = range(ctx.order)
    lines = []
    rows, columns = _rows(terms, 0, tables, codes), _rows(terms, 1, tables, codes)
    for code, row, column in zip(codes, rows, columns):
        if all(v is None for v in row):
            lines.append(f"x = {ctx.decode(code)!r}")
        if all(v is None for v in column):
            lines.append(f"y = {ctx.decode(code)!r}")
    return tuple(lines)
