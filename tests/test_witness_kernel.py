"""The reported witness kernel, checked by arithmetic the kernel code
does not use.

LinearizedMap.kernel() reads the map off its F_p matrix (to_matrix)
and takes a null space mod p.  Here each reported basis row is read as
a field element and mapped by LinearizedMap.__call__, which runs on
FqElement arithmetic, and the zeros of the map are counted by calling
it at every element of the field.  The rows are the kernel's basis
exactly when they map to zero, span p^rows elements, and the map has
p^rows zeros.
"""

import ast
import itertools
import json
import os

import pytest

from curvadd import FqContext, LinearizedMap, analyze
from curvadd.cli import main, report_json

from conftest import differential_curves

GOLDEN_REPORTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "reports.json")

# the zeros are counted by calling the map at every element up to here
COUNT_LIMIT = 729


def check_kernel_basis(ctx, coeffs, basis):
    f = LinearizedMap(ctx, [ctx.decode(c) for c in coeffs])
    rows = [ctx.element(row) for row in basis]
    assert all(f(x).is_zero() for x in rows)
    span = set()
    for combo in itertools.product(range(ctx.p), repeat=len(rows)):
        x = ctx.zero()
        for c, row in zip(combo, rows):
            x = x + c * row
        span.add(x)
    assert len(span) == ctx.p ** len(rows)
    if ctx.order <= COUNT_LIMIT:
        zeros = sum(f(x).is_zero() for x in ctx.elements())
        assert zeros == ctx.p ** len(rows)


def check_report(doc):
    decision = doc["decision"]
    coeffs, basis = decision["witness_map_coeffs"], decision["witness_kernel_basis"]
    assert (coeffs is None) == (basis is None) == (not decision["exists_nonzero"])
    if coeffs is not None:
        field = doc["field"]
        check_kernel_basis(FqContext(field["p"], field["k"], field["modulus"]), coeffs, basis)
    return coeffs is not None


def test_golden_reports_carry_the_witness_kernel():
    with open(GOLDEN_REPORTS, encoding="utf-8") as fh:
        reports = json.load(fh)
    witnesses = [key for key, text in reports.items() if check_report(json.loads(text))]
    assert len(witnesses) == 6, witnesses


@pytest.mark.parametrize("c", differential_curves(), ids=repr)
def test_differential_corpus_reports_carry_the_witness_kernel(c):
    check_report(report_json(analyze(c, singular_ext=1)))


SEARCH_CURVES = (
    "p = 3\nk = 2\nf = x^2 + y^2 - 1\n",
    "p = 3\nk = 2\nmodulus = [2, 1, 1]\nf = x^2 + y^2 - 1\n",
    "p = 5\nk = 1\nf = y^2 - x^3 - 3*x - 1\n",
    "p = 3\nk = 3\nf = y - x^3 + x\n",
    "p = 5\nk = 3\nf = y - x^5 + x\n",
)


@pytest.mark.parametrize("text", SEARCH_CURVES)
def test_search_both_prints_each_witness_kernel(text, tmp_path, capsys):
    path = tmp_path / "c.curve"
    path.write_text(text)
    assert main(["search", "--curve", str(path), "--mode", "both"]) == 0
    lines = capsys.readouterr().out.splitlines()
    values = dict(line.split(" = ") for line in text.splitlines())
    ctx = FqContext(
        int(values["p"]), int(values["k"]),
        ast.literal_eval(values["modulus"]) if "modulus" in values else None,
    )
    witnesses = [i for i, line in enumerate(lines) if line.startswith("  witness f = ")]
    assert len(witnesses) == 2, lines
    for i in witnesses:
        coeffs = ast.literal_eval(lines[i].rsplit(", coeffs ", 1)[1])
        label, basis = lines[i + 1].split(": ", 1)
        assert label == "  kernel basis rows"
        check_kernel_basis(ctx, coeffs, ast.literal_eval(basis))
