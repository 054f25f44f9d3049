"""The benchmark's tracer (bench/spans.py) still fits the package.

The tracer rebinds curvadd names from outside and forwards their
arguments, so a renamed function or a changed signature breaks the
traced benchmark run.  This test installs it in a fresh interpreter,
where the rebinding cannot leak into other tests, and drives one
traced analyze() and one CLI search through it.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys

import curvadd
import curvadd.cli
import spans

tracer = spans.Tracer()
tracer.install(curvadd)
curve = curvadd.load_curve_file(sys.argv[1])
report = curvadd.cover.analyze(curve, oracle="on")
assert report.decision.exists_nonzero and report.oracle_agreement == "agree"
assert curvadd.cli.main(["search", "--curve", sys.argv[1], "--mode", "both"]) == 0
print("hyperplanes_tried", tracer.layer_metrics()["cover.hyperplanes_tried"])
"""


def test_tracer_installs_and_counts(tmp_path):
    path = tmp_path / "cubic.curve"
    path.write_text("p = 5\nk = 1\nf = y^2 - x^3 - 3*x - 1\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    env.pop("CURVADD_CAP", None)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    label, tried = proc.stdout.splitlines()[-1].split()
    assert label == "hyperplanes_tried" and float(tried) > 0
