"""One benchmark process: set up a workload's job list, run it, check it.

Started by run.py, one fresh single-threaded process per sample:

    python3 bench/child.py <workload> <seed> <mode>

mode is one of
  setup     build the inputs and exit; only the ready time counts
  untraced  set up, run the job list cold, then warm, then check
  traced    install the tracer first, set up, run the job list once,
            check, and time the FqElement operations
  drift     set up and run once, to hash the report bytes

The last stdout line is one JSON record for run.py.  Job output never
reaches stdout: CLI calls write into buffers.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
from spans import LAYER_METRICS, Tracer, calibrate_span_cost  # noqa: E402
from workloads import fields_of, make_jobs  # noqa: E402

MICRO_SAMPLE = 2000


def _curve_text(job):
    return f"p = {job['p']}\nk = {job['k']}\nf = {job['expr']}\n"


class Runner:
    """Holds one workload's prepared inputs and runs its jobs."""

    def __init__(self, curvadd, jobs, workdir):
        self.curvadd = curvadd
        self.jobs = jobs
        self.inputs = []
        poly = curvadd.poly
        for job in jobs:
            kind = job["kind"]
            if kind == "analyze":
                self.inputs.append(curvadd.curve.parse_curve_file(_curve_text(job)))
            elif kind == "cli":
                argv = list(job["argv"])
                if "file" in job:
                    path = os.path.join(workdir, job["file"])
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(_curve_text(job))
                    argv[argv.index(None)] = path
                self.inputs.append(argv)
            elif kind == "axioms":
                self.inputs.append(None)
            else:
                dom = poly.QQ if job["char"] == 0 else poly.field_domain(
                    curvadd.fields.FqContext(job["char"]))

                def uni(coeffs):
                    if job["char"] == 0:
                        return poly.UniPoly(dom, [Fraction(n, d) for n, d in coeffs])
                    return poly.UniPoly(dom, [dom.ctx.constant(c) for c in coeffs])

                samples = [poly.RationalFunction(uni(n), uni(d)) for n, d in job["sample_coeffs"]]
                self.inputs.append((uni(job["P"]), uni(job["Q"]), samples))

    def run(self, job, data):
        """Run one job; returns its output bytes-to-check as a dict."""
        c = self.curvadd
        kind = job["kind"]
        if kind == "analyze":
            report = c.cover.analyze(data, singular_ext=job["singular_ext"], oracle=job["oracle"])
            return {"text": c.cli.dump_json(c.cli.report_json(report))}
        if kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = c.cli.main(data)
                except SystemExit as exc:
                    code = exc.code
            return {"code": code, "text": out.getvalue(), "err": err.getvalue()}
        if kind == "axioms":
            rep = c.valuation.verify_valuation_axioms(job["n"], seed=job["seed"])
            result = {"checks": rep.checks, "sample_count": rep.sample_count,
                      "domains": list(rep.domains)}
        else:
            rep = c.valuation.ext2_family_check(*data)
            result = {"checked": rep.checked, "p_expr": rep.p_expr, "q_expr": rep.q_expr}
        return {"text": json.dumps(result, sort_keys=True), "result": result}

    def run_pass(self, tracer=None):
        """Run every job once; returns (seconds, outputs)."""
        outputs = []
        t0 = time.perf_counter_ns()
        for i, (job, data) in enumerate(zip(self.jobs, self.inputs)):
            try:
                if tracer is None:
                    outputs.append(self.run(job, data))
                else:
                    tracer.job = i
                    with tracer.span("harness.job"):
                        outputs.append(self.run(job, data))
            except Exception as exc:  # a job that raises is a failed job
                outputs.append({"error": f"{type(exc).__name__}: {exc}"})
        return (time.perf_counter_ns() - t0) / 1e9, outputs


def check(job, output, field_cache):
    """Problems with one job's output, by the reference checks."""
    if "error" in output:
        return [output["error"]]
    kind = job["kind"]
    if kind == "analyze":
        rep, problems = reference.check_canonical_json(output["text"])
        return problems or reference.check_report(rep, job, field_cache)
    if kind == "cli":
        return reference.check_cli(job, output["code"], output["text"], output["err"], field_cache)
    return reference.check_valuation(job, output["result"])


def digest(output):
    return hashlib.sha256(output.get("text", output.get("error", "")).encode()).hexdigest()


def micro_timings(curvadd, jobs, seed):
    """Nanoseconds per FqElement mul, add and inverse on the job list's
    own fields, over a seeded sample of nonzero elements."""
    rng = random.Random(f"micro/{seed}")
    totals = {"mul": 0, "add": 0, "inv": 0}
    count = 0
    for p, k in fields_of(jobs):
        ctx = curvadd.fields.FqContext(p, k)
        pairs = [(ctx.decode(rng.randrange(1, ctx.order)), ctx.decode(rng.randrange(1, ctx.order)))
                 for _ in range(MICRO_SAMPLE)]
        t0 = time.perf_counter_ns()
        for a, b in pairs:
            a * b
        t1 = time.perf_counter_ns()
        for a, b in pairs:
            a + b
        t2 = time.perf_counter_ns()
        for a, _ in pairs:
            a.inverse()
        t3 = time.perf_counter_ns()
        totals["mul"] += t1 - t0
        totals["add"] += t2 - t1
        totals["inv"] += t3 - t2
        count += len(pairs)
    return {f"fields.{op}_ns": t / max(count, 1) for op, t in totals.items()}


def main(argv):
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    workdir = os.path.join(HERE, "out", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        tracer = None
        import curvadd
        import curvadd.cli  # noqa: F401  (submodules the tracer rebinds)

        if mode == "traced":
            tracer = Tracer()
            tracer.install(curvadd)
        jobs = make_jobs(workload, seed)
        runner = Runner(curvadd, jobs, workdir)
        ready_ns = time.monotonic_ns()
        record = {"ready_ns": ready_ns, "jobs": len(jobs)}
        if mode == "setup":
            print(json.dumps(record))
            return 0

        cold_s, cold = runner.run_pass(tracer)
        record["wall_s"] = cold_s
        passes = [cold]
        if mode == "untraced":
            warm_s, warm = runner.run_pass()
            record["wall_warm_s"] = warm_s
            passes.append(warm)
        record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        # A warm output is right when it equals a right cold output.
        field_cache = {}
        failures = []
        failed = 0
        for i, job in enumerate(jobs):
            problems = check(job, cold[i], field_cache)
            failed += bool(problems)
            if len(passes) > 1 and (problems or passes[1][i] != cold[i]):
                failed += 1
                problems = problems or ["warm pass output differs from the cold pass"]
            if problems:
                failures.append({"job": job["name"], "problems": problems[:3]})
        record["attempted"] = len(jobs) * len(passes)
        record["failed"] = failed
        record["failures"] = failures
        record["hashes"] = {job["name"]: digest(out) for job, out in zip(jobs, cold)}

        if tracer is not None:
            layers = tracer.layer_metrics()
            layers.update(micro_timings(curvadd, jobs, seed))
            layers["trace.harness_s"] = calibrate_span_cost() * len(tracer.spans)
            record["layers"] = {k: v for k, v in layers.items() if k in LAYER_METRICS}
            record["shares"] = tracer.shares()
            path = os.path.join(HERE, "out", f"spans-{workload}-seed{seed}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "job"],
                           "jobs": [job["name"] for job in jobs],
                           "spans": tracer.spans}, fh)
        print(json.dumps(record))
        return 0
    finally:
        for name in os.listdir(workdir):
            os.remove(os.path.join(workdir, name))
        os.rmdir(workdir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
