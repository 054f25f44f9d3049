"""Frozen outputs: analyze reports, verify-paper, a bound grid, the
valuation subcommand and rational-function arithmetic.

The report, verify-paper and bound fixtures under tests/golden/ were
recorded from the code before the fibre-scan refactor; the valuation
and rational-function fixtures from the code before rational-function
results were built by cross-cancellation instead of a full gcd.  A
change that alters any of these bytes has to say why, and re-record
them with

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import io
import json
import os
import random
import sys

from curvadd.cli import dump_json, main, report_json
from curvadd.cover import analyze
from curvadd.fields import FqContext
from curvadd.poly import QQ, UniPoly, field_domain
from curvadd.valuation import random_rational_function

from conftest import CORPUS, build_curve

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

BOUND_PRIMES = (3, 5, 7, 11, 13)
BOUND_KS = (1, 2, 3)
BOUND_SHAPES = (["--d", "2"], ["--d", "3"], ["--d", "4"],
                ["--class", "conic"], ["--class", "elliptic"])


def render_reports():
    """report_json bytes for every corpus curve at extension 1, and at
    extension 2 where q <= 9 (larger fields at extension 2 are slow)."""
    out = {}
    for entry in CORPUS:
        curve = build_curve(*entry)
        exts = (1, 2) if curve.ctx.order <= 9 else (1,)
        for ext in exts:
            key = f"F_{entry[0]}^{entry[1]} {entry[2]} ext={ext}"
            out[key] = dump_json(report_json(analyze(curve, singular_ext=ext)))
    return out


def _stdout_of(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue()


def render_verify_paper():
    return _stdout_of(["verify-paper"])


def render_bound_grid():
    parts = []
    for p in BOUND_PRIMES:
        for k in BOUND_KS:
            for shape in BOUND_SHAPES:
                parts.append(_stdout_of(["bound", "--p", str(p), "--k", str(k)] + shape))
    return "".join(parts)


VALUATION_RUNS = (
    ["--demo"],
    ["--check-axioms", "60", "--seed", "42"],
    ["--ext2", "1,0,1", "0,1,1", "--samples", "50", "--char", "0"],
    ["--ext2", "1,0,1", "0,1,1", "--samples", "50", "--char", "3"],
    ["--ext2", "1,0,1", "0,1,1", "--samples", "50", "--char", "5"],
    ["--ext2", "1,2,0,1", "0,1,1,2", "--samples", "50", "--char", "0"],
)


def render_valuation():
    return "".join(_stdout_of(["valuation"] + run) for run in VALUATION_RUNS)


def render_rational_ops():
    """repr of x + y, x - y, x * y, 1/x, x^3, x^-2 and P(x) on seeded
    random rational functions over Q, F_3, F_5 and F_9."""
    lines = []
    for label, domain in (
        ("Q", QQ),
        ("F_3", field_domain(FqContext(3))),
        ("F_5", field_domain(FqContext(5))),
        ("F_9", field_domain(FqContext(3, 2))),
    ):
        rng = random.Random(7)
        P = UniPoly(domain, [domain.one, domain.zero, domain.one, domain.one])
        for _ in range(20):
            x = random_rational_function(rng, domain, max_degree=4, nonzero=True)
            y = random_rational_function(rng, domain, max_degree=4)
            results = (x + y, x - y, x * y, x.inverse(), x**3, x**-2, P(x))
            lines.append(f"{label}: " + " | ".join(map(repr, results)) + "\n")
    return "".join(lines)


FIXTURES = (
    ("reports.json", lambda: json.dumps(render_reports(), indent=1, sort_keys=True) + "\n"),
    ("verify_paper.txt", render_verify_paper),
    ("bound_grid.txt", render_bound_grid),
    ("valuation.txt", render_valuation),
    ("rational_ops.txt", render_rational_ops),
)


def _read(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8", newline="") as fh:
        return fh.read()


def test_reports_match_golden():
    frozen = json.loads(_read("reports.json"))
    fresh = render_reports()
    assert sorted(fresh) == sorted(frozen)
    for key, text in fresh.items():
        assert text == frozen[key], key


def test_verify_paper_matches_golden():
    assert render_verify_paper() == _read("verify_paper.txt")


def test_bound_grid_matches_golden():
    assert render_bound_grid() == _read("bound_grid.txt")


def test_valuation_matches_golden():
    assert render_valuation() == _read("valuation.txt")


def test_rational_ops_match_golden():
    assert render_rational_ops() == _read("rational_ops.txt")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    os.makedirs(GOLDEN, exist_ok=True)
    for name, render in FIXTURES:
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(render())
