"""Acceptance gate: one test per criterion, full computation, no stubs.

Each test prints an explicit PASS line (visible with -v plus -s or -rA)
so a green run doubles as a checklist.  The whole file stays under the
one minute wall on commodity hardware; the slow pieces are criterion 2
(exhaustive oracle over F_27) and criterion 7 (1000 axiom samples plus
3000 family checks in exact arithmetic).
"""

import itertools
import random

from curvadd import (
    FqContext,
    QQ,
    analyze,
    affine_points,
    conic_bound,
    decide_by_exhaustion,
    decide_by_hyperplanes,
    elliptic_bound,
    ext2_family_check,
    field_domain,
    hasse_weil_window,
    random_rational_function,
    verify_valuation_axioms,
    verify_witness,
)
from curvadd.claims import CURVE_CLAIMS
from curvadd.cli import main
from curvadd.poly import ParseError, parse_bipoly
from curvadd.valuation import random_unipoly

from conftest import (
    CORPUS,
    HYPERBOLA_FIELDS,
    build_curve,
    corpus_curves,
    random_point_set,
)
from oracle_reference import map_walk_oracle, prefix_walk_oracle


def test_criterion_1_case_split_table():
    grid = [(p, k) for p in (5, 7, 11, 13, 17, 19) for k in (1, 2, 3, 4)]
    for p, k in grid:
        in_claimed_set = (
            p > 13 or (p == 7 and k > 2) or (p in (11, 13) and k > 1)
        )
        bound = elliptic_bound(p, k)
        assert bound.forced_zero == in_claimed_set, (p, k)
        assert bound.claimed_by_statement == in_claimed_set, (p, k)

        conic = conic_bound(p, k)
        assert conic.forced_zero == (p**k - 1 > 4 * p ** (k - 1)), (p, k)
    # the boundary case: claimed by the statement, not certified
    edge = conic_bound(5, 1)
    assert edge.claimed_by_statement and not edge.forced_zero
    assert edge.exact_terms == (("q_minus_1", 4), ("four_p_km1", 4))
    print("PASS criterion 1: elliptic and conic case splits exact on the "
          "24-cell grid, (5,1) conic boundary fails as computed")


def test_criterion_2_oracle_equivalence():
    checked = 0
    for p, k in HYPERBOLA_FIELDS:
        ctx = FqContext(p, k)
        assert p ** (k * k) <= 2**16  # exhaustion stays tractable
        rng = random.Random(20000 + 100 * p + k)
        for _ in range(200):
            pts = random_point_set(rng, ctx)
            v1 = decide_by_hyperplanes(pts, ctx)
            v2 = decide_by_exhaustion(pts, ctx)
            assert v1.exists_nonzero == v2.exists_nonzero, (p, k, pts)
            assert v2 == map_walk_oracle(pts, ctx) == prefix_walk_oracle(pts, ctx), (p, k, pts)
            assert verify_witness(v1, pts), (p, k, pts)
            assert verify_witness(v2, pts), (p, k, pts)
            checked += 1
    assert checked == 200 * len(HYPERBOLA_FIELDS)
    print(f"PASS criterion 2: hyperplane and exhaustive deciders agree on "
          f"{checked} seeded point sets over {len(HYPERBOLA_FIELDS)} fields, "
          f"the oracle matches the all-maps and prefix walks witness for witness, "
          f"all witnesses re-verified")


def test_criterion_3_forced_zero_consistency():
    forced_cases = 0
    for c, entry in zip(corpus_curves(), CORPUS):
        report = analyze(c, singular_ext=1)
        forced = (
            report.inequality1.forced_zero or report.by_count.forced_zero
        )
        if forced:
            forced_cases += 1
            assert not report.decision.exists_nonzero, entry
    assert forced_cases >= 8  # the corpus genuinely exercises the bound
    print(f"PASS criterion 3: all {len(CORPUS)} corpus curves consistent; "
          f"{forced_cases} had a bound fire and none had a witness")


def test_criterion_4_claim_reproduction(capsys):
    # independent brute force in plain integer arithmetic
    quad = {
        (x, y)
        for x in range(3)
        for y in range(3)
        if (y * y + 2 * x * y + 2 * y + x) % 3 == 0
    }
    assert quad == {(0, 0), (0, 1), (1, 1), (2, 1), (2, 2)}
    assert (1, 1) in quad and len(quad) == 5

    cubic = {
        (x, y)
        for x in range(5)
        for y in range(5)
        if (y * y - x**3 - 3 * x - 1) % 5 == 0
    }
    assert cubic == {(0, 1), (0, 4), (1, 0), (2, 0)}
    assert (2, 0) in cubic and len(cubic) == 4

    # the package computes the same sets
    for claim, expected in ((CURVE_CLAIMS[0], quad), (CURVE_CLAIMS[1], cubic)):
        c = build_curve(claim.p, claim.k, claim.expression)
        got = {(int(x), int(y)) for x, y in affine_points(c)}
        assert got == expected
        assert set(claim.claimed_point_codes) < got  # strict: claims short

    # and the report command surfaces every discrepancy without erroring
    assert main(["verify-paper"]) == 0
    out = capsys.readouterr().out
    assert "13 finding(s); exit 0" in out
    for needle in (
        "(1, 1)",
        "(2, 0)",
        "MISMATCH",
        "claimed by paper, not certified by its inequality",
    ):
        assert needle in out
    print("PASS criterion 4: both published example curves re-enumerated; "
          "computed sets match the independent brute force (5 and 4 points, "
          "including (1, 1) and (2, 0)); 13 discrepancies flagged, exit 0")


def test_criterion_5_hasse_weil_window():
    smooth_checked = 0
    for (p, k, expr, smooth, _irred), c in zip(CORPUS, corpus_curves()):
        if not smooth:
            continue
        hw = hasse_weil_window(c)
        q = p**k
        assert (hw.n_points - q - 1) ** 2 <= 4 * hw.genus_bound**2 * q, expr
        assert hw.verdict == "consistent", expr
        smooth_checked += 1
    assert smooth_checked >= 10

    hw = hasse_weil_window(build_curve(5, 1, "x^2 - y^2"))
    assert hw.genus_bound == 0 and hw.n_points == 11
    assert hw.verdict == "violates-window"
    print(f"PASS criterion 5: window inequality holds for all "
          f"{smooth_checked} smooth corpus curves; x^2 - y^2 over F_5 "
          f"triggers violates-window")


def test_criterion_6_hyperbola_suite():
    for p, k in HYPERBOLA_FIELDS:
        report = analyze(build_curve(p, k, "x*y - 1"), singular_ext=1)
        assert not report.decision.exists_nonzero, (p, k)
        assert report.decision.witness_map is None
        assert report.oracle_agreement == "agree"
    labels = ", ".join(
        f"F_{p}" if k == 1 else f"F_{p}^{k}" for p, k in HYPERBOLA_FIELDS
    )
    print(f"PASS criterion 6: exists_nonzero = False for x*y - 1 over "
          f"{labels}")


def test_criterion_7_valuation_properties():
    report = verify_valuation_axioms(sample_count=1000, seed=42)
    assert report.sample_count == 1000 and report.seed == 42
    assert len(report.domains) == 6
    assert report.checks >= 6 * 1000  # many independent checks per sample

    # small degrees and heights keep exact arithmetic inside the time
    # budget; the property is degree-free
    domains = [QQ, field_domain(FqContext(3)), field_domain(FqContext(5))]
    pairs_per_domain = 20
    for domain in domains:
        rng = random.Random(42)
        for _ in range(pairs_per_domain):
            p_poly = random_unipoly(
                rng, domain, max_degree=3, height=5, nonzero=True
            )
            q_poly = random_unipoly(
                rng, domain, max_degree=3, height=5, nonzero=True
            )
            samples = [
                random_rational_function(
                    rng, domain, max_degree=3, height=5, nonzero=True
                )
                for _ in range(50)
            ]
            fam = ext2_family_check(p_poly, q_poly, samples)
            assert fam.checked == 50
    print(f"PASS criterion 7: {report.checks} axiom checks over "
          f"{len(report.domains)} domains (seed 42, 1000 samples), plus "
          f"{pairs_per_domain} (P, Q) family pairs x 50 samples in each of "
          f"Q(t), F_3(t), F_5(t)")


def parser_corpus():
    """100 cases: 60 valid with independently computed values at
    (x, y) = (2, 3) mod 7, 40 invalid with positions fixed by the
    grammar's error contract (offending token index; len(s) at end of
    input)."""
    valid = []
    for a, i, j in itertools.product((1, 2, 5), (0, 1, 2), (0, 1, 2)):
        valid.append((f"{a}*x^{i}*y^{j}", a * 2**i * 3**j % 7))
    for i, j, b in itertools.product((1, 2, 3), (1, 2), (1, 4)):
        valid.append((f"x^{i} + {b}*y^{j}", (2**i + b * 3**j) % 7))
    for c in range(4):
        valid.append((f"({c} + x)*(y - {c})", (c + 2) * (3 - c) % 7))
    for i, c in itertools.product((1, 2), (1, 2)):
        valid.append((f"-x^{i} - {c}", (-(2**i) - c) % 7))
    for n in (3, 4, 5):
        valid.append((f"2^{n} + x", (2**n + 2) % 7))
    valid += [
        ("  x*y  ", 6),
        ("x  *  y", 6),
        ("x\t+\ty", 5),
        ("x^0 + y^0", 2),
        ("-3*x", -6 % 7),
        ("0*x + 0", 0),
        ("100*x", 200 % 7),
        ("(x + y)^2", 25 % 7),
        ("x*(y + (x - 1))", 8 % 7),
        ("y^2*x - x^2*y + 1", 7 % 7),
    ]

    bases = ["x", "y", "x*y", "(x + y)", "x - 2*y"]
    invalid = []
    for b in bases:
        n = len(b)
        invalid += [
            (f"{b}^^2", n + 1),    # second caret
            (f"{b} + ", n + 3),    # dangling operator, error at EOF
            (f"({b}", n + 1),      # unclosed paren, error at EOF
            (f"{b} @ y", n + 1),   # unknown character
            (f"{b} ^ y", n + 3),   # exponent must be an integer literal
            (f"{b} + * y", n + 3),  # operator where a value must be
            (f"{b})", n),          # trailing close paren
        ]
    invalid += [("", 0), ("*", 0), ("^2", 0), ("()", 1), ("2x", 1)]
    return valid, invalid


def test_criterion_8_parser_corpus():
    valid, invalid = parser_corpus()
    assert len(valid) + len(invalid) == 100
    ctx = FqContext(7)
    x, y = ctx.constant(2), ctx.constant(3)
    for expr, expected in valid:
        poly = parse_bipoly(expr, ctx)
        assert poly.evaluate((x, y)) == ctx.constant(expected), expr
        # render/parse idempotence
        rendered = poly.render()
        again = parse_bipoly(rendered, ctx)
        assert again == poly, expr
        assert again.render() == rendered, expr

    for expr, position in invalid:
        try:
            parse_bipoly(expr, ctx)
        except ParseError as exc:
            assert exc.position == position, (expr, exc.position)
        else:
            raise AssertionError(f"{expr!r} parsed but must not")
    print(f"PASS criterion 8: {len(valid)} valid expressions evaluate to "
          f"independently computed values and round-trip; {len(invalid)} "
          f"invalid expressions fail at the exact expected positions")
