"""Frozen outputs: analyze reports, verify-paper and a bound grid.

The fixtures under tests/golden/ were recorded from the code before the
fibre-scan refactor.  A change that alters any of these bytes has to
say why, and re-record them with

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import io
import json
import os
import sys

from curvadd.cli import dump_json, main, report_json
from curvadd.cover import analyze

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


FIXTURES = (
    ("reports.json", lambda: json.dumps(render_reports(), indent=1, sort_keys=True) + "\n"),
    ("verify_paper.txt", render_verify_paper),
    ("bound_grid.txt", render_bound_grid),
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


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    os.makedirs(GOLDEN, exist_ok=True)
    for name, render in FIXTURES:
        with open(os.path.join(GOLDEN, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(render())
