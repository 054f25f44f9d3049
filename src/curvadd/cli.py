"""Command-line front end.

Subcommands: analyze (full pipeline on a curve file, optional JSON),
bound (evaluate one forcing inequality with its exact terms), search
(run the two deciders directly), valuation (degree and p-adic
valuation demos and property runs), verify-paper (side-by-side audit
of the published claims against computation).

Exit codes, exhaustive and disjoint: 0 success, 1 parse error,
2 invalid parameters or a cap refusal, 3 internal inconsistency or
property failure.  Discrepancies with published claims are findings,
reported under paper_flags with exit 0.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii

from . import claims as claims_mod
from .cover import (
    analyze,
    check_verdicts,
    conic_bound,
    decide_by_exhaustion,
    decide_by_hyperplanes,
    elliptic_bound,
    zero_forcing_inequality,
)
from .curve import Curve, affine_points, load_curve_file
from .errors import CapExceeded, Inconsistent, ParseError
from .fields import FqContext, _dense_terms, _render_sum, check_pk, is_prime
from .poly import QQ, UniPoly, field_domain, parse_bipoly
from .valuation import (
    INFINITY,
    check_x_or_inverse,
    degree_valuation,
    ext2_family_check,
    h_additive,
    in_valuation_ring,
    padic_valuation,
    random_rational_function,
    verify_valuation_axioms,
)

# Max entries of the affine point list that go into JSON; the count
# stays exact regardless.
AFFINE_LIST_CAP = 10**4


# ---------------------------------------------------------------------------
# Rendering helpers.


def _modulus_str(ctx):
    return _render_sum(_dense_terms(ctx.modulus, "g"))


def _field_str(ctx):
    if ctx.k == 1:
        return f"F_{ctx.p}"
    return f"F_{ctx.p}^{ctx.k}"


def _terms_str(exact_terms):
    return ", ".join(f"{key} = {value}" for key, value in exact_terms.items())


def _point_str(pt):
    x, y = pt
    return f"({x!r}, {y!r})"


def _bound_json(report):
    out = {
        "forced_zero": report.forced_zero,
        "exact_terms": dict(report.exact_terms),
    }
    if report.claimed_by_statement is not None:
        out["claimed_by_statement"] = report.claimed_by_statement
    return out


def report_json(report):
    """AnalysisReport -> JSON-ready dict.

    Elements serialize as integer codes sum(c_i * p^i); point lists are
    sorted by those codes.  Everything is a JSON scalar, list, or dict,
    so dumps(loads(text)) reproduces text byte for byte.
    """
    ctx = report.curve.ctx
    affine = [list(pt) for pt in report.points.codes[:AFFINE_LIST_CAP]]
    singular = (
        [list(pt) for pt in report.singular.codes]
        if report.singular is not None
        else []
    )
    decision = report.decision
    witness_coeffs = None
    witness_basis = None
    if decision.exists_nonzero:
        witness_coeffs = [int(c) for c in decision.witness_map.coeffs]
        witness_basis = [list(row) for row in decision.witness_subspace.rows]
    by_count = report.by_count
    return {
        "field": {"p": ctx.p, "k": ctx.k, "modulus": list(ctx.modulus)},
        "curve": {
            "expression": report.curve.expression(),
            "degree": report.curve.degree,
            "assertions": {
                "assert_smooth": report.curve.assert_smooth,
                "assert_abs_irreducible": report.curve.assert_abs_irreducible,
            },
        },
        "points": {
            "affine_count": report.points.count,
            "affine_list": affine,
            "infinity_count": report.infinity_count,
            "singular_found": singular,
            "singular_search_degree": report.singular_ext_used,
        },
        "hw": {
            "N": report.hw.n_points,
            "window_check": report.hw.verdict,
            "genus_bound": report.hw.genus_bound,
            "lower": report.hw.lower,
            "upper": report.hw.upper,
        },
        "bounds": {
            "inequality1": _bound_json(report.inequality1),
            "by_count": {
                "m": by_count.m,
                "d": by_count.d,
                "lower_bound": str(by_count.cover_lower_bound),
                "forced_zero": by_count.forced_zero,
            },
            "conic": _bound_json(report.conic),
            "elliptic": _bound_json(report.elliptic),
            "conjectural_flag": report.conjectural_flag,
        },
        "decision": {
            "exists_nonzero": decision.exists_nonzero,
            "witness_map_coeffs": witness_coeffs,
            "witness_kernel_basis": witness_basis,
            "method": decision.method,
            "oracle_agreement": report.oracle_agreement,
        },
        "paper_flags": sorted(report.paper_flags),
    }


def dump_json(obj):
    """The canonical report text: json.dumps(obj, indent=2,
    sort_keys=True) + "\n", byte for byte, for dicts with str keys,
    lists, tuples, str, int, bool and None.  Any other type, or a key
    that is not a str, raises TypeError.

    json.dumps takes its C encoder only without indent, so this writer
    stands in for its pure-Python one: a list of int pairs (the point
    lists) is one % format, and everything else one append per token.
    """
    out = []
    _dump(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _dump(obj, newline, out):
    """Append obj's canonical text to out; newline is a line break plus
    the indentation of obj's own line."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        if all(
            type(v) is list and len(v) == 2 and type(v[0]) is int and type(v[1]) is int
            for v in obj
        ):
            pair = f"[{inner}  %d,{inner}  %d{inner}]"
            text = f"[{inner}" + f",{inner}".join([pair] * len(obj)) + f"{newline}]"
            out.append(text % tuple(chain.from_iterable(obj)))
            return
        out.append("[")
        sep = inner
        for v in obj:
            out.append(sep)
            _dump(v, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = newline + "  "
        out.append("{")
        sep = inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _dump(obj[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _print_witness(verdict, out):
    if verdict.exists_nonzero:
        coeffs = [int(c) for c in verdict.witness_map.coeffs]
        out.write(f"  witness f = {verdict.witness_map!r}, coeffs {coeffs}\n")
        rows = [list(r) for r in verdict.witness_subspace.rows]
        out.write(f"  kernel basis rows: {rows}\n")


def _print_analysis(report, out):
    ctx = report.curve.ctx
    w = out.write
    w(f"curve: {report.curve.expression()} = 0 over {_field_str(ctx)}, ")
    w(f"degree {report.curve.degree}\n")
    w(f"field: p = {ctx.p}, k = {ctx.k}, modulus {_modulus_str(ctx)}\n")
    w(
        f"points: affine m = {report.points.count}, "
        f"at infinity = {report.infinity_count}, N = {report.hw.n_points}\n"
    )
    if report.points.count and report.points.count <= 12:
        w("  " + ", ".join(_point_str(pt) for pt in report.points) + "\n")
    if report.singular_ext_used == 0:
        # the affine scan passed the cap, and extension 1 costs the same
        w("singular points: scan not requested (--singular-ext 0)\n")
    elif report.singular is None or not report.singular.count:
        ext = ctx.k * report.singular_ext_used
        w(f"singular points: none over F_{ctx.p}^{ext}\n")
    else:
        shown = ", ".join(_point_str(pt) for pt in list(report.singular)[:6])
        w(f"singular points: {shown}\n")
    hw = report.hw
    w(
        f"hasse-weil: N = {hw.n_points} vs window [{hw.lower}, {hw.upper}] "
        f"(genus bound {hw.genus_bound}): {hw.verdict}\n"
    )
    w("bounds:\n")
    for bound in (report.inequality1, report.by_count):
        w(
            f"  {bound.name}: forced_zero = {bound.forced_zero}"
            f"   [{_terms_str(bound.exact_terms)}]\n"
        )
    for bound in (report.conic, report.elliptic):
        tag = "" if bound.d == report.curve.degree else " (degree does not apply)"
        w(
            f"  {bound.name}{tag}: forced_zero = {bound.forced_zero}"
            f"   [{_terms_str(bound.exact_terms)}]"
            f"  statement claims: {bound.claimed_by_statement}\n"
        )
    w(
        "  conjectural m/d > p^(k-1) (reported only): "
        f"{report.conjectural_flag}\n"
    )
    w(
        f"decision: exists_nonzero = {report.decision.exists_nonzero} "
        f"({report.decision.method}; oracle: {report.oracle_agreement})\n"
    )
    _print_witness(report.decision, out)
    if report.paper_flags:
        w("paper_flags:\n")
        for flag in report.paper_flags:
            w(f"  - {flag}\n")
    else:
        w("paper_flags: none\n")


# ---------------------------------------------------------------------------
# Subcommands.


def cmd_analyze(args):
    curve = load_curve_file(args.curve)
    report = analyze(curve, singular_ext=args.singular_ext, oracle=args.oracle)
    if args.json == "-":
        # pure JSON on stdout so the output pipes cleanly
        sys.stdout.write(dump_json(report_json(report)))
        return 0
    _print_analysis(report, sys.stdout)
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(dump_json(report_json(report)))
        sys.stdout.write(f"json written to {args.json}\n")
    return 0


def cmd_bound(args):
    if (args.d is None) == (args.klass is None):
        raise ValueError("give exactly one of --d or --class")
    p, k = check_pk(args.p, args.k)
    # every bound prints a multiple of p^(k-1), which has
    # floor((k-1) log10 p) + 1 digits: refuse on those before any work
    _check_digits(
        f"p^(k-1) at p = {p}, k = {k}",
        math.floor((k - 1) * Fraction(math.log10(p))) + 1,
    )
    if args.d is not None:
        report = zero_forcing_inequality(p, k, args.d)
    elif args.klass == "conic":
        report = conic_bound(p, k)
    else:
        report = elliptic_bound(p, k)
    for key, value in report.exact_terms.items():
        _check_digits(f"{key} at p = {p}, k = {k}", _decimal_digits(value))
    lines = [f"bound: {report.name} at p = {p}, k = {k}"]
    lines += [f"  {key} = {value}" for key, value in report.exact_terms.items()]
    if report.claimed_by_statement is not None:
        lines.append(
            f"claimed by the statement-level case split: {report.claimed_by_statement}"
        )
    lines.append(f"forced_zero = {report.forced_zero}")
    print("\n".join(lines))
    return 0


def cmd_search(args):
    """Run the chosen deciders on the affine points; "both" checks
    them against each other.  The affine scan is the only cap that can
    refuse: each decider's cap counts q, fewer than the q^2 pairs that
    scan has passed."""
    curve = load_curve_file(args.curve)
    ctx = curve.ctx
    points = affine_points(curve)
    print(
        f"curve: {curve.expression()} = 0 over {_field_str(ctx)}; "
        f"affine points: {points.count}"
    )
    verdicts = []
    if args.mode in ("hyperplane", "both"):
        verdicts.append(decide_by_hyperplanes(points, ctx))
    if args.mode in ("exhaustive", "both"):
        verdicts.append(decide_by_exhaustion(points, ctx))
    check_verdicts(verdicts, points, curve)
    for verdict in verdicts:
        print(f"{verdict.method}: exists_nonzero = {verdict.exists_nonzero}")
        _print_witness(verdict, sys.stdout)
    if len(verdicts) == 2:
        print("agreement: ok")
    return 0


def _check_digits(label, digits):
    """Raise ValueError when a number of `digits` decimal digits would
    pass Python's int string-conversion limit (the default limit when it
    is switched off), so callers refuse it before building or printing it."""
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if digits > limit:
        raise ValueError(f"{label} has more than {limit} digits")


def _decimal_digits(n):
    """The number of decimal digits of |n|, counted without str(n);
    log10 rounds near a power of ten, so d is settled exactly."""
    n = abs(n) or 1
    d = math.floor(math.log10(n)) + 1
    return d + (n >= 10**d) - (n < 10 ** (d - 1))


def _fraction(tok):
    """Fraction(tok), refused by _check_digits before it is built when
    an exponent would give the numerator or the denominator too many
    digits.  Without an exponent, Fraction's own int() calls already
    refuse such digit strings."""
    mantissa, _, exp = tok.lower().partition("e")
    if exp:
        e = int(exp)
        digits = "".join(ch for ch in mantissa if ch.isdecimal()).lstrip("0")
        frac = sum(ch.isdecimal() for ch in mantissa.partition(".")[2])
        if digits:
            _check_digits(repr(tok), max(len(digits) + e - frac, frac - e + 1))
    return Fraction(tok)


def _parse_coeff_csv(text, domain):
    tokens = [tok.strip() for tok in text.split(",")]
    if not tokens or any(not tok for tok in tokens):
        raise ValueError(f"bad coefficient list {text!r}")
    coeffs = []
    for tok in tokens:
        try:
            if domain == QQ:
                coeffs.append(_fraction(tok))
            else:
                coeffs.append(domain.ctx.constant(int(tok)))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad coefficient {tok!r}") from None
    return UniPoly(domain, coeffs)


def _demo_line(out, label, actual, want):
    if actual != want:
        raise Inconsistent(
            f"property failure: {label}: expected {want}, got {actual}"
        )
    out.write(f"  {label} = {actual}\n")


def _run_demo(out):
    from .poly import RationalFunction

    t = RationalFunction.variable(QQ)
    zero = RationalFunction(UniPoly.zero(QQ))
    w = out.write
    w("degree valuation on Q(t): v(num/den) = deg den - deg num\n")
    _demo_line(out, "v(t)", degree_valuation(t), -1)
    _demo_line(out, "v(1/t)", degree_valuation(t.inverse()), 1)
    _demo_line(out, "v((t^2 + 1)/t^5)", degree_valuation((t**2 + 1) / t**5), 3)
    _demo_line(
        out, "v(1/t + 1/t^2)", degree_valuation(t.inverse() + (t**2).inverse()), 1
    )
    _demo_line(
        out,
        "v(7/3)",
        degree_valuation(RationalFunction.constant(QQ, Fraction(7, 3))),
        0,
    )
    _demo_line(out, "v(0)", degree_valuation(zero), INFINITY)
    w("valuation ring O = {x : v(x) >= 0}:\n")
    _demo_line(out, "t in O", in_valuation_ring(t), False)
    _demo_line(out, "1/(t + 1) in O", in_valuation_ring((t + 1).inverse()), True)
    w("h(x) = coefficient of t^1 in the polynomial part of x;\n")
    w("h is additive, vanishes on O, and h(t) = 1:\n")
    _demo_line(out, "h(t)", h_additive(t), Fraction(1))
    _demo_line(out, "h(1/(t + 1))", h_additive((t + 1).inverse()), Fraction(0))
    _demo_line(
        out,
        "h((t^3 + 2*t)/(t^2 + 1))",
        h_additive((t**3 + 2 * t) / (t**2 + 1)),
        Fraction(1),
    )
    _demo_line(out, "h((t + 1)^2 + 1)", h_additive((t + 1) ** 2 + 1), Fraction(2))
    w("for nonzero x, x in O or 1/x in O, so h(x) * h(1/x) = 0:\n")
    showcase = (
        ("t", t),
        ("1/t", t.inverse()),
        ("(t^2 + 1)/t^5", (t**2 + 1) / t**5),
        ("(t^3 + 2*t)/(t^2 + 1)", (t**3 + 2 * t) / (t**2 + 1)),
        ("7/3", RationalFunction.constant(QQ, Fraction(7, 3))),
    )
    for label, x in showcase:
        _demo_line(out, f"x or 1/x in O for x = {label}", check_x_or_inverse(x), True)
        _demo_line(
            out,
            f"h(x) * h(1/x) for x = {label}",
            h_additive(x) * h_additive(x.inverse()),
            Fraction(0),
        )
    w("the same construction over F_3(t):\n")
    dom3 = field_domain(FqContext(3))
    s = RationalFunction.variable(dom3)
    _demo_line(out, "v(s)", degree_valuation(s), -1)
    _demo_line(out, "h(s)", h_additive(s), dom3.one)
    _demo_line(
        out,
        "h(s) * h(1/s)",
        h_additive(s) * h_additive(s.inverse()),
        dom3.zero,
    )
    w("p-adic valuations on Q:\n")
    _demo_line(out, "v_2(12)", padic_valuation(12, 2), 2)
    _demo_line(out, "v_2(5/8)", padic_valuation(Fraction(5, 8), 2), -3)
    _demo_line(out, "v_3(0)", padic_valuation(0, 3), INFINITY)
    w("every displayed identity was machine-checked\n")
    return 0


def cmd_valuation(args):
    import random

    if args.demo:
        return _run_demo(sys.stdout)
    if args.check_axioms is not None:
        report = verify_valuation_axioms(args.check_axioms, seed=args.seed)
        print(
            f"axiom run: {report.sample_count} samples per domain, "
            f"seed {report.seed}"
        )
        for label in report.domains:
            print(f"  {label}: ok")
        print(f"{report.checks} individual checks, all passed")
        return 0
    if args.ext2 is not None:
        if args.char == 0:
            domain = QQ
        elif args.char >= 3 and is_prime(args.char):
            domain = field_domain(FqContext(args.char))
        else:
            raise ValueError(f"--char must be 0 or an odd prime, got {args.char}")
        P = _parse_coeff_csv(args.ext2[0], domain)
        Q = _parse_coeff_csv(args.ext2[1], domain)
        if args.samples < 1:
            raise ValueError("--samples must be >= 1")
        rng = random.Random(args.seed)
        samples = [
            random_rational_function(rng, domain, nonzero=True)
            for _ in range(args.samples)
        ]
        report = ext2_family_check(P, Q, samples)
        base = "Q(t)" if args.char == 0 else f"F_{args.char}(t)"
        print(f"family check over {base}: P = {report.p_expr}, Q = {report.q_expr}")
        print(
            f"h(P(s)) * h(Q(1/s)) = 0 for all {report.checked} sampled "
            f"nonzero s (seed {args.seed})"
        )
        return 0
    # --padic
    try:
        x = _fraction(args.padic[0])
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"bad rational {args.padic[0]!r}") from None
    try:
        p = int(args.padic[1])
    except ValueError:
        raise ValueError(f"bad prime {args.padic[1]!r}") from None
    value = padic_valuation(x, p)
    print(f"v_{p}({x}) = {value}")
    return 0


def _match(claimed, computed):
    return "MATCH" if claimed == computed else "MISMATCH"


def cmd_verify_paper(args):
    findings = []
    print("published claims vs computed values")
    print("===================================")
    for claim in claims_mod.CURVE_CLAIMS:
        ctx = FqContext(claim.p, claim.k)
        curve = Curve(parse_bipoly(claim.expression, ctx))
        report = analyze(curve)
        print(f"\n[{claim.label}] {claim.expression} = 0 over {_field_str(ctx)}")
        claimed_pts = ", ".join(str(pt) for pt in claim.claimed_point_codes)
        computed_pts = ", ".join(str(pt) for pt in report.points.codes)
        print(f"  affine points claimed : {claim.claimed_count}  [{claimed_pts}]")
        print(
            f"  affine points computed: {report.points.count}  [{computed_pts}]"
            f"   {_match(claim.claimed_count, report.points.count)}"
        )
        if claim.claims_identity_witness:
            print("  witness claimed : f(x) = x satisfies the vanishing condition")
            if report.decision.exists_nonzero:
                coeffs = [int(c) for c in report.decision.witness_map.coeffs]
                identity_works = claims_mod.identity_defeater(report.points.codes) is None
                print(
                    f"  witness computed: exists_nonzero = True, "
                    f"first witness coeffs {coeffs}   "
                    f"{_match(True, identity_works)}"
                )
            else:
                print(
                    "  witness computed: no nonzero additive map satisfies "
                    "the condition   MISMATCH"
                )
        if claim.claimed_smooth:
            n_singular = report.singular.count if report.singular else 0
            print("  smoothness claimed : smooth")
            print(
                f"  smoothness computed: {n_singular} singular point(s)"
                f"   {_match(0, n_singular)}"
            )
        for flag in report.paper_flags:
            findings.append(flag)

    print("\n[hyperbola x*y - 1 = 0]")
    print("  field   m  forced  exists  verdict")
    for p, k in ((3, 1), (5, 1), (7, 1), (3, 2)):
        ctx = FqContext(p, k)
        report = analyze(Curve(parse_bipoly("x*y - 1", ctx)))
        # the paper: such an f exists only over fields transcendental over F_p
        exists = report.decision.exists_nonzero
        if exists:
            findings.append(
                f"hyperbola over {_field_str(ctx)}: witness {report.decision.witness_map!r}, "
                "but the paper rules out a nonzero f over a finite field"
            )
        print(
            f"  {_field_str(ctx):<6} {report.points.count:>2}  "
            f"{str(bool(report.forcing_bounds)):<6}  "
            f"{str(exists):<6}  {_match(False, exists)}"
        )

    grid = [(p, k) for p in (5, 7, 11, 13, 17) for k in (1, 2, 3)]
    cases = (
        (conic_bound, "[conic case, d = 2]  claimed: p >= 5; computed: q - 1 > 4*p^(k-1)"),
        (
            elliptic_bound,
            "[elliptic case, d = 3]  claimed: p > 13, or p = 7 with k > 2, "
            "or p in {11, 13} with k > 1",
        ),
    )
    for bound_at, header in cases:
        print(f"\n{header}")
        print("   p  k  claimed  computed  verdict")
        for p, k in grid:
            report = bound_at(p, k)
            claimed, forced = report.claimed_by_statement, report.forced_zero
            if flag := claims_mod.uncertified_flag(report, p, k):
                findings.append(flag)
            print(
                f"  {p:>2} {k:>2}  {str(claimed):<7} "
                f" {str(forced):<8}  {_match(claimed, forced)}"
            )

    print("\npaper_flags:")
    if findings:
        for finding in findings:
            print(f"  - {finding}")
        print(f"\n{len(findings)} finding(s); exit 0 (findings are not errors)")
    else:
        print("  none")
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point.


def build_parser():
    parser = argparse.ArgumentParser(
        prog="curvadd",
        description=(
            "Exact-arithmetic toolkit: additive maps vanishing "
            "multiplicatively on plane curves over odd-characteristic "
            "finite fields, zero-forcing bounds, and valuation "
            "constructions on rational function fields."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", help="full pipeline on a curve file, optional JSON report"
    )
    p_analyze.add_argument("--curve", required=True, help="curve file path")
    p_analyze.add_argument(
        "--singular-ext",
        type=int,
        default=2,
        help="extension degree for the singular point scan (default 2)",
    )
    p_analyze.add_argument(
        "--json",
        nargs="?",
        const="-",
        default=None,
        help="write the JSON report to this path ('-' or no value: stdout)",
    )
    p_analyze.add_argument(
        "--oracle",
        choices=("auto", "on", "off"),
        default="auto",
        help="exhaustive cross-check: auto and on run it, off skips it",
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_bound = sub.add_parser(
        "bound", help="evaluate one forcing bound with its exact terms"
    )
    p_bound.add_argument("--p", type=int, required=True, help="odd prime")
    p_bound.add_argument("--k", type=int, required=True, help="extension degree")
    p_bound.add_argument("--d", type=int, help="curve degree (general bound)")
    p_bound.add_argument(
        "--class",
        dest="klass",
        choices=("conic", "elliptic"),
        help="specialized case instead of --d",
    )
    p_bound.set_defaults(func=cmd_bound)

    p_search = sub.add_parser(
        "search", help="run the deciders directly on a curve file"
    )
    p_search.add_argument("--curve", required=True, help="curve file path")
    p_search.add_argument(
        "--mode",
        choices=("hyperplane", "exhaustive", "both"),
        default="both",
        help="decision route(s); both asserts agreement (default)",
    )
    p_search.set_defaults(func=cmd_search)

    p_val = sub.add_parser(
        "valuation", help="degree and p-adic valuation demos and property runs"
    )
    group = p_val.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--demo",
        action="store_true",
        help="print the construction with machine-checked examples",
    )
    group.add_argument(
        "--check-axioms",
        type=int,
        metavar="N",
        help="run N seeded samples of the valuation axioms per domain",
    )
    group.add_argument(
        "--ext2",
        nargs=2,
        metavar=("P_COEFFS", "Q_COEFFS"),
        help="family check; coefficients low to high, comma-separated",
    )
    group.add_argument(
        "--padic",
        nargs=2,
        metavar=("RATIONAL", "P"),
        help="p-adic valuation of one rational, e.g. --padic 5/8 2",
    )
    p_val.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")
    p_val.add_argument(
        "--samples", type=int, default=50, help="samples for --ext2 (default 50)"
    )
    p_val.add_argument(
        "--char",
        type=int,
        default=0,
        help="coefficient field for --ext2: 0 for Q, or an odd prime",
    )
    p_val.set_defaults(func=cmd_valuation)

    p_verify = sub.add_parser(
        "verify-paper",
        help="audit the published claims side by side with computation",
    )
    p_verify.set_defaults(func=cmd_verify_paper)

    return parser


@functools.cache
def _parser():
    """The parser of build_parser(), built on the first main() call and
    reused: parse_args keeps no state between calls."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Inconsistent as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CapExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
