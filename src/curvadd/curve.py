"""Plane curves over F_{p^k}: point enumeration, points at infinity,
singular-point search over small extensions, the Hasse-Weil window
check, and the curve file format.

The affine points, the singular points among them and the axis-parallel
lines come from one pass over the rows f(x, .) (fibre_scan), all on
integer codes: each row is built as coefficient logs and its roots come
from fields._row_roots, by formula when the row has degree <= 2 in y
(every curve the paper works with) and by Horner's rule on logs above
that.  Points are held as code pairs (PointSet) and decoded to field
elements only when iterated.

Smoothness and absolute irreducibility are treated as user assertions
plus best-effort refutation: the tool looks for singular points over a
small extension and checks the point count against the Hasse-Weil
window, but an empty singular scan is reported as "none found up to
degree m", never as a proof.  Over an extension F_{q^m}, a curve of
degree 1 or 2 in y first gets a certificate over F_q: when the gcd of
its two y-resultants Res_y(f, f_x) and Res_y(f, f_y) has no root in
F_{q^m}, no affine singular point has its x there, and the extension
is neither built nor scanned.  Otherwise the curve is lifted to
F_{q^m} and scanned.
"""

from __future__ import annotations

import math
import operator

from .caps import check_cap
from .errors import Frozen, ParseError
from .fields import (
    FqContext,
    _code_str,
    _row_roots,
    _vanishing_logs,
    code_tables,
    embed,
)
from . import poly
from .poly import SparsePoly, UniPoly, field_domain, parse_bipoly


class Curve(Frozen):
    """A plane curve: the zero set of a bivariate polynomial.

    The assert_* flags echo the curve file's declarations into the
    report (curve.assertions); nothing checks them."""

    defining: SparsePoly
    assert_smooth: bool = False
    assert_abs_irreducible: bool = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
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


class PointSet(Frozen):
    """Sorted, duplicate-free points of one field.

    codes holds each point as its pair of element codes
    (int(x), int(y)), in increasing order; iteration decodes the pairs
    to FqElements of ctx one at a time.  Consumers that count, compare
    or print codes read codes and build no element."""

    ctx: FqContext = None
    codes: tuple = ()

    @property
    def count(self):
        return len(self.codes)

    def __iter__(self):
        return ((self.ctx.decode(x), self.ctx.decode(y)) for x, y in self.codes)

    def __len__(self):
        return len(self.codes)


class FibreScan(Frozen):
    """What one pass over the rows of a curve finds (fibre_scan), read
    by field name.

    points is the PointSet of affine points, singular the PointSet of
    those where both partials vanish too, and lines the tuple of
    axis-parallel line components, as "x = a" / "y = b".
    """

    points: PointSet
    singular: PointSet
    lines: tuple


def _log_terms(f, log):
    """The terms of f with each coefficient code replaced by its log."""
    return {exps: log[code] for exps, code in f._terms}


def _rows(terms, index, tables, codes):
    """Yield the rows of a bivariate polynomial, given by `terms`
    (exponent pair -> coefficient log, see fields.CodeTables), with
    variable `index` set to each value (by code) in `codes`: the
    coefficient logs of the other variable, highest power first.  None
    is a zero coefficient, so an all-None row means the polynomial
    vanishes on the whole line.

    Each coefficient sum(a_i * v^i) is built in logs, a product being
    a sum of logs and each addition one Zech-table lookup; no field
    element is created.
    """
    log, zech = tables.log, tables.zech
    n = len(zech)
    other = 1 - index
    top = max(exps[other] for exps in terms)
    groups = [[] for _ in range(top + 1)]
    for exps, lc in terms.items():
        groups[top - exps[other]].append((exps[index], lc))
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


def _vanishes(row, y, tables):
    """Whether a row of coefficient logs (highest power first) vanishes
    at the element with code y; the empty row is the zero polynomial."""
    ly = tables.log[y]
    if ly is None:
        return not row or row[-1] is None
    return bool(_vanishing_logs(row, (ly,), tables.zech))


def fibre_scan(c):
    """One pass over the rows f(x, .) of c, x in code order, on code
    logs throughout; it decodes no point.

    * The affine points of each fibre are the roots of its row
      (fields._row_roots), by formula for degree <= 2 in y.
    * f_y(x, .) is the derivative of that row: j * c_j, in logs
      log c_j + log(j mod p), and zero when p divides j.  A root where
      it vanishes is a candidate, and only an x with a candidate gets
      its row of f_x built; the singular points are the candidates
      where that vanishes too.  A row of degree d with d distinct roots
      has only simple ones, where f_y does not vanish, so such a row
      (every row of degree 1, and of degree 2 unless D = 0) skips the
      test.
    * An all-None row f(a, .) is the line x = a.  A line y = b puts a
      point in column b on every row, so only a column that every row
      has a root in gets its row f(., b) built, to confirm the line.

    The cap counts the q^2 pairs (x, y) before starting, though a row
    of degree <= 2 in y is solved in O(1), not tried at every y.
    """
    ctx = c.ctx
    q, p = ctx.order, ctx.p
    check_cap("affine point scan", q**2)
    tables = code_tables(ctx)
    log = tables.log
    terms = _log_terms(c.defining, log)
    # f_x on logs: i * a_ij x^(i-1) y^j, gone when p divides i
    fx_terms = {(i - 1, j): lc + log[i % p] for (i, j), lc in terms.items() if i % p}
    fy_logs = [log[j % p] for j in range(c.defining.degree_in(1), 0, -1)]
    codes = range(q)
    points, singular, lines = [], [], []
    full = None  # the columns every row so far has a root in
    for x, row in zip(codes, _rows(terms, 0, tables, codes)):
        roots = _row_roots(row, tables)
        if full is None:
            full = set(roots)
        elif full:
            full.intersection_update(roots)
        if not roots:
            continue
        points.extend([(x, y) for y in roots])
        if row[0] is not None and len(roots) == len(row) - 1:
            continue
        if len(roots) == q and all(v is None for v in row):
            lines.append((x, "x"))
        fy = [None if a is None or b is None else a + b for a, b in zip(row, fy_logs)]
        hits = [y for y in roots if _vanishes(fy, y, tables)]
        if hits and fx_terms:
            (fx,) = _rows(fx_terms, 0, tables, (x,))
            hits = [y for y in hits if _vanishes(fx, y, tables)]
        singular.extend([(x, y) for y in hits])
    for b in sorted(full):
        if all(v is None for v in next(_rows(terms, 1, tables, (b,)))):
            lines.append((b, "y"))
    return FibreScan(
        PointSet(ctx, tuple(points)),
        PointSet(ctx, tuple(singular)),
        tuple(f"{var} = {_code_str(ctx, code)}" for code, var in sorted(lines)),
    )


def affine_points(c):
    """All (x, y) with defining(x, y) = 0, in code order, as a PointSet
    of code pairs: the points of fibre_scan, under its cap."""
    return fibre_scan(c).points


def points_at_infinity_count(c):
    """Projective roots of the leading form L on the line at infinity.

    Roots are (a : 1) for the roots a of L(., 1), plus (1 : 0) when the
    pure x^d term is absent; the count never exceeds d.
    """
    ctx = c.ctx
    check_cap("infinity root scan", ctx.order)
    lead = c.defining.leading_form()
    tables = code_tables(ctx)
    (row,) = _rows(_log_terms(lead, tables.log), 1, tables, (1,))
    count = len(_row_roots(row, tables))
    if (c.degree, 0) not in lead.terms:
        count += 1
    return count


def singular_scan_steps(ctx, ext_degree):
    """The singular scan's step count over F_{q^m}, m = ext_degree: the
    (q^m)^2 pairs that singular_points refuses on and that
    cover._feasible_singular_ext picks m by."""
    return ctx.order ** (2 * ext_degree)


def _in_y(f, n, domain):
    """f as a polynomial in y of formal degree n: its n + 1
    coefficients, lowest power first, each a UniPoly in x over domain."""
    columns = [{} for _ in range(n + 1)]
    for (i, j), coeff in f.terms.items():
        columns[j][i] = coeff
    return [
        UniPoly(domain, [col.get(i, 0) for i in range(max(col, default=-1) + 1)])
        for col in columns
    ]


def _singular_x_resultants(c):
    """(Res_y(f, f_x), Res_y(f, f_y)) as UniPolys in x over the base
    field, Sylvester resultants with the formal y-degrees n of f and f_x
    and n - 1 of f_y, for n = deg_y f in {1, 2}; None otherwise.

    With f = a*y + b they are a*b' - a'*b and a; with
    f = a*y^2 + b*y + c they are (a*c' - a'*c)^2 - (a*b' - a'*b)*(b*c' - b'*c)
    and a*(b^2 - 4*a*c), up to sign (' is d/dx).
    """
    f = c.defining
    n = f.degree_in(1)
    if n not in (1, 2):
        return None
    domain = field_domain(c.ctx)
    cs, ds = _in_y(f, n, domain), _in_y(f.partial(0), n, domain)
    if n == 1:
        (b, a), (b1, a1) = cs, ds
        return a * b1 - a1 * b, a
    (c0, b, a), (c1, b1, a1) = cs, ds
    res_x = (a * c1 - a1 * c0) ** 2 - (a * b1 - a1 * b) * (b * c1 - b1 * c0)
    return res_x, a * (b * b - 4 * a * c0)


def _no_singular_point(c, order):
    """Whether the resultants prove that c has no affine singular point
    with x in F_order, an extension of its field: both are nonzero and
    G = gcd(Res_y(f, f_x), Res_y(f, f_y)) is constant or coprime to
    x^order - x, whose roots are F_order.  x^order mod G is taken by
    repeated squaring, so this costs O(deg(G)^2 log(order)) operations
    of the base field and builds no table.

    False proves nothing: a zero resultant (f_x = 0, or a repeated
    component), a root of G in F_order, or deg_y f not in {1, 2}.
    """
    resultants = _singular_x_resultants(c)
    if resultants is None or any(r.is_zero() for r in resultants):
        return False
    g = poly.unipoly_gcd(*resultants)
    if g.degree == 0:
        return True
    x = UniPoly.variable(g.domain)
    acc = UniPoly.one(g.domain)
    for bit in bin(order)[2:]:
        acc = acc * acc % g
        if bit == "1":
            acc = acc * x % g
    return poly.unipoly_gcd(g, acc - x).degree == 0


def singular_points(c, ext_degree=2):
    """Points over F_{p^(k*ext_degree)} where the defining polynomial
    and both partials vanish, as a PointSet of code pairs over that
    field: fibre_scan's singular points of c, for ext_degree 1, or of
    c lifted to the extension field (embed), where only the singular
    pairs it returns are ever decoded.

    For ext_degree >= 2 and deg_y f in {1, 2}, a certificate over the
    base field comes first (_no_singular_point) and, when it holds,
    the result is empty with no extension table built and no element
    embedded.  It is sound: at a singular point (x0, y0), the powers
    (y0^(s-1), ..., y0, 1) are a kernel vector of the s x s Sylvester
    matrix of f and f_x, and of that of f and f_y, at x = x0, so x0 is
    a root of both resultants and of their gcd G, in F_{q^m}.  It only
    ever proves emptiness; the lifted scan is the one place that lists
    singular points.  The cap still counts the q^(2m) pairs of that
    scan.

    An empty result means no affine singular point over this extension;
    it is not a smoothness certificate, as larger extensions and the
    points at infinity are not searched.
    """
    ext_degree = operator.index(ext_degree)
    if ext_degree < 1:
        raise ValueError(f"ext_degree must be >= 1, got {ext_degree}")
    ctx = c.ctx
    check_cap(
        f"singular scan over F_{ctx.p}^{ctx.k * ext_degree}",
        singular_scan_steps(ctx, ext_degree),
    )
    if ext_degree > 1:
        ext = FqContext(ctx.p, ctx.k * ext_degree)
        if _no_singular_point(c, ext.order):
            return PointSet(ext, ())
        lifted = {e: embed(v, ext) for e, v in c.defining.terms.items()}
        c = Curve(SparsePoly(ext, lifted))
    return fibre_scan(c).singular


class HWWindow(Frozen):
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
    them in to avoid re-scanning); a supplied count goes through
    operator.index and must be >= 0.
    """
    given = []
    for name, count in (
        ("affine_count", affine_count),
        ("infinity_count", infinity_count),
    ):
        if count is not None:
            count = operator.index(count)
            if count < 0:
                raise ValueError(f"{name} must be >= 0, got {count}")
        given.append(count)
    affine_count, infinity_count = given
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
    """Lines x = a or y = b contained in the curve, as a tuple of
    strings, x = a before y = a and in code order: the lines of
    fibre_scan, under its cap.

    Such a component makes the vanishing condition degenerate (the
    coordinate 0 case) or breaks the vertex-degree bound behind the
    counting argument, so analyze surfaces them as hypothesis notes.
    """
    return fibre_scan(c).lines


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
