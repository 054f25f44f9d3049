"""curvadd benchmark: end-to-end wall time per workload, and a traced
run for per-layer numbers.

    python3 bench/run.py --workload scan-ladder --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run it from the repository root.  Each sample is a fresh
single-threaded process (bench/child.py) with CURVADD_CAP unset,
PYTHONHASHSEED fixed, bytecode caching on and src/ put first on
PYTHONPATH, as the tier-1 test command does.  The run repeats samples until --seconds is used up
and reports medians:

  setup_s      process start to ready: interpreter, `import curvadd`,
               every FqContext and parsed input of the job list
  wall_s       the job list once, cold, tracing off
  wall_warm_s  the same job list again in the same process, with the
               package's process-wide caches now full
  peak_rss_mb  ru_maxrss of the sample process

--trace 1 alternates untraced and traced samples and reports the
per-layer metrics of spans.LAYER_METRICS instead.  Every job's output
is checked by reference.py; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import selftest  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_jobs  # noqa: E402

# Samples per run at least, even when one sample outlasts --seconds.
MIN_SAMPLES = 3
# Set-up-only samples started after each full sample; setup_s is the
# median over all of them.
SETUP_SAMPLES = 2


class SampleFailed(RuntimeError):
    pass


# Every sample process must end before this many seconds after start.
DEADLINE_S = 170
_START = time.monotonic()


def child_env():
    env = dict(os.environ)
    env.pop("CURVADD_CAP", None)
    # bytecode is cached, as for an installed package, so setup_s does
    # not include compiling the sources
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def sample(workload, seed, mode):
    """Run one child process; returns its record with setup_s added.
    Raises SampleFailed when the process dies, and TimeoutExpired (after
    killing it) when it would outlive the deadline."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed), mode]
    timeout = max(1.0, DEADLINE_S - (time.monotonic() - _START))
    start = time.monotonic_ns()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SampleFailed(f"{mode} sample exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["setup_s"] = (record["ready_ns"] - start) / 1e9
    return record


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(workload, seed, seconds, trace):
    """Sample one workload for about `seconds`; returns (result, notes)."""
    with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)[workload]

    sample(workload, seed, "setup")  # fills the bytecode cache; not counted
    full, traced, setups, crashed = [], [], [], []
    t0 = time.monotonic()
    modes = ["untraced", "traced"] if trace else ["untraced"]
    longest = 0.0
    while True:
        for mode in modes:
            began = time.monotonic()
            try:
                record = sample(workload, seed, mode)
            except SampleFailed as exc:
                # a sample process that dies fails every job it held
                jobs = len(make_jobs(workload, seed)) * (2 if mode == "untraced" else 1)
                crashed.append({"attempted": jobs, "failed": jobs, "failures": [
                    {"job": f"{mode} sample process", "problems": [str(exc)]}]})
                continue
            longest = max(longest, time.monotonic() - began)
            (traced if mode == "traced" else full).append(record)
            setups.append(record["setup_s"])
            for _ in range(SETUP_SAMPLES):
                setups.append(sample(workload, seed, "setup")["setup_s"])
        elapsed = time.monotonic() - t0
        enough = min(len(full), len(traced) if trace else len(full)) >= MIN_SAMPLES
        if (enough and elapsed + longest * len(modes) > seconds) or (crashed and elapsed > 3 * seconds):
            break
    if not full or (trace and not traced):
        raise SampleFailed(f"no sample of {workload} completed: {crashed[:1]}")

    records = full + traced + crashed
    drift = None
    if trace:
        drift = full[0] if seed == DEFAULT_SEED else sample(workload, DEFAULT_SEED, "drift")
        if drift is not full[0]:
            records.append(drift)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    failures = [f for r in records for f in r["failures"]]

    if trace:
        metrics = {}
        for name, (unit, _, _) in LAYER_METRICS.items():
            values = [r["layers"][name] for r in traced]
            metrics[name] = {"value": median(values), "unit": unit}
        overhead = median([r["wall_s"] for r in traced]) / median([r["wall_s"] for r in full]) - 1
        metrics["trace.overhead_frac"]["value"] = overhead
        changed = sorted(name for name, h in drift["hashes"].items() if golden.get(name) != h)
        changed += sorted(set(golden) - set(drift["hashes"]))
        metrics["cli.reports_changed"]["value"] = len(changed)
        shares = {}
        for r in traced:
            for name, share in r["shares"].items():
                shares.setdefault(name, []).append(share)
        notes = {
            "reports_changed": changed,
            "self_time_shares": {n: round(median(v), 4) for n, v in
                                 sorted(shares.items(), key=lambda kv: -median(kv[1]))},
        }
    else:
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "wall_s": {"value": median([r["wall_s"] for r in full]), "unit": "s"},
            "wall_warm_s": {"value": median([r["wall_warm_s"] for r in full]), "unit": "s"},
            "peak_rss_mb": {"value": median([r["peak_rss_mb"] for r in full]), "unit": "MB"},
        }
        notes = {}
    notes.update(samples=len(full), traced_samples=len(traced), setup_samples=len(setups),
                 fail_frac=failed / attempted, failures=failures[:10])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "curvadd", "__init__.py")):
        print("error: src/curvadd not found; run from a curvadd checkout", file=sys.stderr)
        return 2
    problems = selftest.run()
    if problems:
        print("error: the reference checks failed their self-test:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 3

    print("machine: " + json.dumps(machine()))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            result, notes = run_workload(name, args.seed, args.seconds, args.trace)
        except (SampleFailed, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        results[name] = result
        print(f"workload {name} (seed {args.seed}): " + json.dumps(notes))
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<28} {entry['value']:.6g} {entry['unit']}")
        print(f"  {'fail_frac':<28} {notes['fail_frac']:.6g} ratio"
              f"  ({result['failed']} of {result['attempted']} jobs failed)")
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
