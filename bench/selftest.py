"""Checks that the reference checks work.

Each check in reference.py is fed a right answer, which must pass, and
a deliberately wrong one, which must fail: an off-by-one count, a point
outside the witness kernel, a wrong tally, a non-canonical JSON byte, a
wrong exit code.  The span self-time arithmetic is checked on a
hand-built span tree, and the metric names against BENCHMARK.json.
run.py runs this before every benchmark run and refuses to measure if
any of it fails.
"""

from __future__ import annotations

import copy
import json
import os

import reference
from spans import LAYER_METRICS, self_times

HERE = os.path.dirname(os.path.abspath(__file__))


def _hyperbola_report(p):
    """A correct analyze report for x*y - 1 over F_p, built by hand."""
    points = reference.brute_force_points(p, "hyperbola", [])
    return {
        "field": {"p": p, "k": 1, "modulus": [0, 1]},
        "points": {
            "affine_count": len(points),
            "affine_list": points,
            "infinity_count": 2,
            "singular_found": [],
            "singular_search_degree": 2,
        },
        "bounds": {
            "inequality1": {"forced_zero": reference.inequality1_forced(p, 1, 2)},
            "by_count": {"forced_zero": reference.by_count_forced(len(points), 2, p, 1)},
        },
        "decision": {
            "exists_nonzero": False,
            "witness_map_coeffs": None,
            "witness_kernel_basis": None,
            "oracle_agreement": "agree",
        },
    }


def _expect(problems, label, report, job, want_pass):
    got = reference.check_report(report, job, {})
    if bool(got) == want_pass:
        problems.append(f"{label}: check {'failed' if want_pass else 'passed'}: {got}")


def run():
    """Every way the checks fail to work, as a list of strings."""
    problems = []
    job = {"p": 7, "k": 1, "family": "hyperbola", "coeffs": [],
           "singular_ext": 2, "oracle": "auto"}
    good = _hyperbola_report(7)
    _expect(problems, "correct report", good, job, True)

    wrong = copy.deepcopy(good)
    wrong["points"]["affine_count"] += 1
    _expect(problems, "off-by-one count", wrong, job, False)
    wrong = copy.deepcopy(good)
    wrong["points"]["affine_list"][2] = [2, 5]
    _expect(problems, "point off the curve", wrong, job, False)
    wrong = copy.deepcopy(good)
    wrong["points"]["singular_search_degree"] = 1
    _expect(problems, "wrong singular degree", wrong, job, False)

    # F_9 = F_3[g]/(g^2 + 1); witness kernel span{1}: the prime field
    basis = [[1, 0]]
    if reference.check_witness(basis, [[1, 3], [3, 2], [4, 0]], 3, 2):
        problems.append("witness check rejects points with a coordinate in the kernel")
    if not reference.check_witness(basis, [[1, 3], [3, 4]], 3, 2):
        problems.append("witness check accepts a point outside the kernel")
    if not reference.check_witness([[1, 0], [0, 1]], [[1, 3]], 3, 2):
        problems.append("witness check accepts a full-dimension kernel")

    field = reference.RefField(3, 2, [1, 0, 1])
    g = 3  # code of g
    if field.mul(g, g) != 2 or field.chi(2) != 1 or field.pow(g, 4) != 1:
        problems.append("reference field arithmetic is wrong in F_9")

    tally = reference.valuation_tally(10)
    axioms = {"kind": "axioms", "n": 10}
    good_axioms = {"checks": tally, "sample_count": 10, "domains": list("abcdef")}
    if reference.check_valuation(axioms, good_axioms):
        problems.append("valuation check rejects the right tally")
    if not reference.check_valuation(axioms, dict(good_axioms, checks=tally + 1)):
        problems.append("valuation check accepts a wrong tally")

    text = json.dumps({"b": [1, 2], "a": 1}, indent=2, sort_keys=True) + "\n"
    if reference.check_canonical_json(text)[1]:
        problems.append("canonical JSON rejected")
    if not reference.check_canonical_json(text.replace(": ", ":  ", 1))[1]:
        problems.append("non-canonical JSON byte accepted")

    cli = {"cli": "bound", "exit": 0, "p": 5, "k": 1, "d": None, "klass": "conic"}
    if reference.check_cli(cli, 0, "forced_zero = False\n", "", {}):
        problems.append("bound check rejects the right verdict")
    if not reference.check_cli(cli, 0, "forced_zero = True\n", "", {}):
        problems.append("bound check accepts a wrong verdict")
    if not reference.check_cli(cli, 2, "forced_zero = False\n", "", {}):
        problems.append("CLI check accepts a wrong exit code")

    # span tree: root [0, 100] with children [10, 30] and [20, 50]
    # (overlapping) and [90, 120] (clipped to 90..100); a grandchild
    # [12, 18] under the first child
    tree = [
        ["root", 0, 100, -1, 0],
        ["a", 10, 30, 0, 0],
        ["b", 20, 50, 0, 0],
        ["c", 90, 120, 0, 0],
        ["a1", 12, 18, 1, 0],
    ]
    if self_times(tree) != [50, 14, 30, 30, 6]:
        problems.append(f"span self times wrong: {self_times(tree)}")

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    e2e = {"setup_s", "wall_s", "wall_warm_s", "peak_rss_mb"}
    if {m["name"] for m in declared["end_to_end"]} != e2e:
        problems.append("BENCHMARK.json end_to_end metrics differ from run.py's")
    if {m["name"] for m in declared["per_layer"]} != set(LAYER_METRICS):
        problems.append("BENCHMARK.json per_layer metrics differ from spans.LAYER_METRICS")
    return problems


if __name__ == "__main__":
    found = run()
    print("\n".join(found) if found else "reference checks: self-test passed")
    raise SystemExit(1 if found else 0)
