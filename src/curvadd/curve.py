"""Plane curves over F_{p^k}: point enumeration, points at infinity,
singular-point search over small extensions, the Hasse-Weil window
check, and the curve file format.

All three point searches run one fibre scan: each row f(x, .) is built
as coefficient logs and its roots come from fields._row_roots, by
formula when the row has degree <= 2 in y (every curve the paper works
with) and by Horner's rule on logs above that.

Smoothness and absolute irreducibility are treated as user assertions
plus best-effort refutation: the tool looks for singular points over a
small extension and checks the point count against the Hasse-Weil
window, but an empty singular scan is reported as "none found up to
degree m", never as a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .caps import check_cap
from .errors import ContextMismatch, ParseError
from .fields import FqContext, _row_roots, _vanishing_logs, code_tables, embed
from .poly import SparsePoly, parse_bipoly


@dataclass(frozen=True)
class Curve:
    """A plane curve: the zero set of a bivariate polynomial.

    The assert_* flags echo the curve file's declarations into the
    report (curve.assertions); nothing checks them."""

    defining: SparsePoly
    assert_smooth: bool = False
    assert_abs_irreducible: bool = False

    def __post_init__(self):
        if self.defining.is_zero():
            raise ValueError("the zero polynomial does not define a curve")
        if self.defining.total_degree < 1:
            raise ValueError("a constant polynomial does not define a curve")

    @property
    def ctx(self):
        return self.defining.ctx

    @property
    def degree(self):
        return self.defining.total_degree

    def expression(self):
        return self.defining.render()

    def __repr__(self):
        return f"Curve({self.expression()} = 0 over {self.ctx!r})"


@dataclass(frozen=True)
class PointSet:
    """Sorted, duplicate-free points; order is by coordinate codes."""

    points: tuple = ()

    @property
    def count(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


def _rows(poly, index, tables, codes):
    """Yield the rows of the bivariate `poly` with variable `index` set
    to each value (by code) in `codes`: the coefficient logs (see
    fields.CodeTables) of the other variable, highest power first.
    None is a zero coefficient, so an all-None row means poly vanishes
    on the whole line.

    Each coefficient sum(a_i * v^i) is built in logs, a product being
    a sum of logs and each addition one Zech-table lookup; no field
    element is created.
    """
    log, zech = tables.log, tables.zech
    n = len(zech)
    other = 1 - index
    top = poly.degree_in(other)
    groups = [[] for _ in range(top + 1)]
    for exps, coeff in poly.terms.items():
        groups[top - exps[other]].append((exps[index], log[int(coeff)]))
    for code in codes:
        lv = log[code]
        if lv is None:  # v = 0 keeps the terms free of the variable
            yield [next((lc for e, lc in g if e == 0), None) for g in groups]
            continue
        row = []
        for group in groups:
            acc = None
            for e, lc in group:
                t = lc + e * lv
                if acc is None:
                    acc = t
                else:
                    z = zech[(t - acc) % n]
                    acc = None if z is None else acc + z
            row.append(acc if acc is None else acc % n)
        yield row


def affine_points(c):
    """All (x, y) with defining(x, y) = 0, in code order.

    For each x, the fibre's points are the roots of the row f(x, .); a
    zero row means the vertical line x = const lies on the curve.  The
    cap still counts the p^{2k} pairs (x, y) before starting, though a
    row of degree <= 2 in y is solved in O(1), not tried at every y.
    """
    ctx = c.ctx
    check_cap("affine point scan", ctx.order**2)
    tables = code_tables(ctx)
    codes = range(ctx.order)
    elements = [ctx.decode(code) for code in codes]
    return PointSet(
        tuple(
            (x, elements[y])
            for x, row in zip(elements, _rows(c.defining, 0, tables, codes))
            for y in _row_roots(row, tables)
        )
    )


def points_at_infinity_count(c):
    """Projective roots of the leading form L on the line at infinity.

    Roots are (a : 1) for the roots a of L(., 1), plus (1 : 0) when the
    pure x^d term is absent; the count never exceeds d.
    """
    ctx = c.ctx
    check_cap("infinity root scan", ctx.order)
    lead = c.defining.leading_form()
    tables = code_tables(ctx)
    (row,) = _rows(lead, 1, tables, (1,))
    count = len(_row_roots(row, tables))
    if (c.degree, 0) not in lead.terms:
        count += 1
    return count


def singular_subset(c, points):
    """The points among `points` (on c) where both partials of the
    defining polynomial vanish too, in the same order.

    Each partial is evaluated on code logs: one _rows row per distinct
    x, then _vanishing_logs at y (the constant term when y = 0).  The
    field's O(q) code tables are built if need be, so callers hold
    points found by a capped scan of the same field.
    """
    ctx = c.ctx
    tables = code_tables(ctx)
    log, zech = tables.log, tables.zech
    partials = [c.defining.partial(0), c.defining.partial(1)]
    # a zero partial vanishes everywhere and needs no rows
    partials = [f for f in partials if not f.is_zero()]
    rows = {}
    for x, y in points:
        if x.ctx != ctx or y.ctx != ctx:
            raise ContextMismatch("point from a different context")
        rows[int(x)] = []
    codes = list(rows)
    for f in partials:
        for code, row in zip(codes, _rows(f, 0, tables, codes)):
            rows[code].append(row)

    def vanishes(row, y):
        ly = log[int(y)]
        if ly is None:
            return row[-1] is None
        return bool(_vanishing_logs(row, (ly,), zech))

    return PointSet(
        tuple(
            (x, y)
            for x, y in points
            if all(vanishes(row, y) for row in rows[int(x)])
        )
    )


def singular_scan_steps(ctx, ext_degree):
    """The singular scan's step count over F_{q^m}, m = ext_degree: the
    (q^m)^2 pairs that singular_points refuses on and that
    cover._feasible_singular_ext picks m by."""
    return ctx.order ** (2 * ext_degree)


def singular_points(c, ext_degree=2):
    """Points over F_{p^(k*ext_degree)} where the defining polynomial
    and both partials vanish: the affine points of c lifted to that
    field, passed through singular_subset.

    An empty result only means no singular point was found up to this
    extension degree; it is not a smoothness certificate.
    """
    ext_degree = int(ext_degree)
    if ext_degree < 1:
        raise ValueError(f"ext_degree must be >= 1, got {ext_degree}")
    ctx = c.ctx
    check_cap(
        f"singular scan over F_{ctx.p}^{ctx.k * ext_degree}",
        singular_scan_steps(ctx, ext_degree),
    )
    if ext_degree > 1:
        ext = FqContext(ctx.p, ctx.k * ext_degree)
        lifted = {e: embed(v, ext) for e, v in c.defining.terms.items()}
        c = Curve(SparsePoly(ext, lifted))
    return singular_subset(c, affine_points(c))


@dataclass(frozen=True)
class HWWindow:
    """The point-count window |N - (q+1)| <= 2 * g_bound * sqrt(q).

    The comparison is done exactly by squaring: (N - q - 1)^2 against
    4 * g_bound^2 * q; lower/upper are the integer-rounded endpoints
    for display only.  verdict is "consistent" or "violates-window";
    a violation is evidence that the smoothness / absolute
    irreducibility hypotheses fail for this curve.
    """

    q: int
    n_points: int
    affine_count: int
    infinity_count: int
    genus_bound: int
    lower: int
    upper: int
    verdict: str


def hasse_weil_window(c, affine_count=None, infinity_count=None):
    """Exact window check for N = affine count + infinity count.

    Counts are enumerated unless supplied by the caller (analyze passes
    them in to avoid re-scanning).
    """
    if affine_count is None:
        affine_count = affine_points(c).count
    if infinity_count is None:
        infinity_count = points_at_infinity_count(c)
    q = c.ctx.order
    d = c.degree
    g_bound = (d - 1) * (d - 2) // 2
    n = affine_count + infinity_count
    center = q + 1
    radius_sq = 4 * g_bound * g_bound * q
    ok = (n - center) ** 2 <= radius_sq
    half = math.isqrt(radius_sq)
    return HWWindow(
        q=q,
        n_points=n,
        affine_count=affine_count,
        infinity_count=infinity_count,
        genus_bound=g_bound,
        lower=center - half,
        upper=center + half,
        verdict="consistent" if ok else "violates-window",
    )


def axis_parallel_lines(c):
    """Lines x = a or y = b contained in the curve, as strings.

    Such a component makes the vanishing condition degenerate (the
    coordinate 0 case) or breaks the vertex-degree bound behind the
    counting argument, so analyze surfaces them as hypothesis notes.
    """
    ctx = c.ctx
    check_cap("axis line scan", ctx.order)
    tables = code_tables(ctx)
    codes = range(ctx.order)
    rows = _rows(c.defining, 0, tables, codes)
    columns = _rows(c.defining, 1, tables, codes)
    lines = []
    for code, row, column in zip(codes, rows, columns):
        if all(v is None for v in row):
            lines.append(f"x = {ctx.decode(code)!r}")
        if all(v is None for v in column):
            lines.append(f"y = {ctx.decode(code)!r}")
    return lines


# ---------------------------------------------------------------------------
# Curve file format:
#
#   p = 5
#   k = 1
#   modulus = [0, 1]            (optional)
#   f = y^2 - x^3 - 3*x - 1
#   assert_smooth = true        (optional)
#   assert_abs_irreducible = true   (optional)
#
# Blank lines and lines starting with '#' are ignored.


_BOOL_KEYS = ("assert_smooth", "assert_abs_irreducible")


def parse_curve_file(text):
    """Parse the line-oriented curve file format into a Curve."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in ("p", "k", "modulus", "f") + _BOOL_KEYS:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ParseError(f"line {lineno}: duplicate key {key!r}")
        values[key] = (lineno, value)

    for required in ("p", "k", "f"):
        if required not in values:
            raise ParseError(f"curve file is missing '{required} = ...'")

    def int_value(key):
        lineno, raw = values[key]
        try:
            return int(raw)
        except ValueError:
            raise ParseError(f"line {lineno}: {key} must be an integer") from None

    p = int_value("p")
    k = int_value("k")
    modulus = None
    if "modulus" in values:
        lineno, raw = values["modulus"]
        if not (raw.startswith("[") and raw.endswith("]")):
            raise ParseError(f"line {lineno}: modulus must look like [c0,c1,...]")
        body = raw[1:-1].strip()
        try:
            modulus = [int(part) for part in body.split(",")] if body else []
        except ValueError:
            raise ParseError(
                f"line {lineno}: modulus entries must be integers"
            ) from None

    flags = {}
    for key in _BOOL_KEYS:
        if key not in values:
            flags[key] = False
            continue
        lineno, raw = values[key]
        if raw not in ("true", "false"):
            raise ParseError(f"line {lineno}: {key} must be true or false")
        flags[key] = raw == "true"

    ctx = FqContext(p, k, modulus)  # ValueError on bad field parameters
    defining = parse_bipoly(values["f"][1], ctx)
    if defining.is_zero() or defining.total_degree < 1:
        raise ParseError("f must be a nonconstant polynomial")
    return Curve(
        defining=defining,
        assert_smooth=flags["assert_smooth"],
        assert_abs_irreducible=flags["assert_abs_irreducible"],
    )


def load_curve_file(path):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_curve_file(handle.read())
