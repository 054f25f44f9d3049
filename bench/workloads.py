"""The four benchmark workloads: job lists generated from a seed.

The seed picks curve coefficients (always in the prime field) and the
valuation family inputs.  It never changes field sizes, curve families
or polynomial degrees, so the work in a job list is the same for every
seed.  Each workload stresses different layers; the reasons are in
BENCHMARK.json and in WORKLOADS below.
"""

from __future__ import annotations

import random

from reference import family_expression, family_is_smooth

# Seed whose report hashes are recorded in golden.json.
DEFAULT_SEED = 1

# scan-ladder: default analyze() with the oracle off.  Every rung has
# q^4 > 2^20, so the singular scan drops to extension 1 and the two q^2
# fibre scans in `curve` dominate.  Artin-Schreier curves (p = 3 and
# p = 7 rungs) have a witness, so the decider's success path runs.
SCAN_LADDER = (
    (7, 2, ("hyperbola", "conic", "cubic", "artin-schreier")),
    (3, 4, ("hyperbola", "artin-schreier")),
    (11, 2, ("conic",)),
    (127, 1, ("cubic",)),
)

# exact-small: default analyze() (singular_ext=2, oracle="auto") where
# the extension-2 singular scan fits the cap (q^4 <= 2^20), plus F_125, where the
# oracle walks the maps up to the Artin-Schreier curve's first witness.
EXACT_SMALL = (
    (3, 2, "cubic"),
    (11, 1, "conic"),
    (13, 1, "hyperbola"),
    (5, 3, "artin-schreier"),
)

# audit-sweep: every odd prime power q < 50, one curve file each.
AUDIT_FIELDS = (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49)
AUDIT_FAMILIES = ("hyperbola", "conic", "cubic", "parabola")
BOUND_GRID = tuple((p, k) for p in (3, 5, 7, 11, 13) for k in (1, 2, 3))
# Cap refusals: the affine scan needs q^2 > 2^20 steps, so analyze
# refuses before it starts.
REFUSALS = ((1031, 1), (5, 5))

# valuation-props: the axiom run keeps the CLI's default seed, because
# its own sampler draws degrees 0..8 and its per-seed work varies by
# about 12% (interquartile range over seeds at N = 60); the family
# inputs have fixed degrees and take their coefficients from the seed.
AXIOM_SAMPLES = 40
AXIOM_SEED = 42
FAMILY_DOMAINS = (0, 3, 5)
FAMILY_SAMPLES = 16


def _prime_power(q):
    for p in range(3, q + 1, 2):
        if q % p == 0:
            k, r = 0, q
            while r % p == 0:
                r //= p
                k += 1
            return p, k
    raise ValueError(q)


def _coeffs(rng, family, p, k):
    """Nonzero prime-field coefficients giving a smooth curve."""
    while True:
        coeffs = [rng.randrange(1, p) for _ in range(3)]
        if family_is_smooth(family, coeffs, p, k):
            return coeffs


def _curve_job(rng, p, k, family, singular_ext, oracle):
    coeffs = _coeffs(rng, family, p, k)
    return {
        "name": f"{family}/F_{p}^{k}",
        "kind": "analyze",
        "p": p,
        "k": k,
        "family": family,
        "coeffs": coeffs,
        "expr": family_expression(family, coeffs, p),
        "singular_ext": singular_ext,
        "oracle": oracle,
    }


def scan_ladder(rng):
    return [
        _curve_job(rng, p, k, family, 2, "off")
        for p, k, families in SCAN_LADDER
        for family in families
    ]


def exact_small(rng):
    return [_curve_job(rng, p, k, family, 2, "auto") for p, k, family in EXACT_SMALL]


def audit_sweep(rng):
    jobs = [{"name": "verify-paper", "kind": "cli", "cli": "verify-paper",
             "argv": ["verify-paper"], "exit": 0}]
    for p, k in BOUND_GRID:
        d = rng.randint(2, 6)
        for klass in (None, "conic", "elliptic"):
            argv = ["bound", "--p", str(p), "--k", str(k)]
            argv += ["--d", str(d)] if klass is None else ["--class", klass]
            jobs.append({
                "name": f"bound/{p}/{k}/{klass or d}", "kind": "cli", "cli": "bound",
                "argv": argv, "exit": 0, "p": p, "k": k,
                "d": d if klass is None else None, "klass": klass,
            })
    for i, q in enumerate(AUDIT_FIELDS):
        p, k = _prime_power(q)
        family = AUDIT_FAMILIES[i % len(AUDIT_FAMILIES)]
        if k > 1:
            # whether a witness exists, and so how far the oracle walks,
            # must not depend on the seed: it does not for these two
            family = "artin-schreier" if i % 2 else "hyperbola"
        job = _curve_job(rng, p, k, family, 1, "auto")
        job.update(kind="cli", cli="analyze", exit=0, name=f"analyze/{job['name']}")
        job["file"] = f"{family}-{p}-{k}.curve"
        job["argv"] = ["analyze", "--curve", None, "--json", "-", "--singular-ext", "1"]
        jobs.append(job)
    for p, k in REFUSALS:
        jobs.append({
            "name": f"refusal/F_{p}^{k}", "kind": "cli", "cli": "refusal",
            "p": p, "k": k, "family": "hyperbola", "coeffs": [],
            "expr": "x*y - 1", "file": f"refusal-{p}-{k}.curve",
            "argv": ["analyze", "--curve", None], "exit": 2,
        })
    return jobs


def _fixed_degree_poly(rng, char, degree):
    """Coefficients (low to high) of a polynomial of exact degree."""
    if char == 0:
        coeffs = [[rng.randint(-9, 9), rng.randint(1, 9)] for _ in range(degree)]
        coeffs.append([rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)])
        return coeffs
    return [rng.randrange(char) for _ in range(degree)] + [rng.randrange(1, char)]


def valuation_props(rng):
    jobs = [{"name": "axioms", "kind": "axioms", "n": AXIOM_SAMPLES, "seed": AXIOM_SEED}]
    for char in FAMILY_DOMAINS:
        samples = []
        for i in range(FAMILY_SAMPLES):
            # alternate s in O and s outside O, so both branches run
            num_deg, den_deg = (3, 2) if i % 2 else (2, 3)
            samples.append((_fixed_degree_poly(rng, char, num_deg),
                            _fixed_degree_poly(rng, char, den_deg)))
        jobs.append({
            "name": f"family/{'Q' if char == 0 else f'F_{char}'}(t)",
            "kind": "family",
            "char": char,
            "P": _fixed_degree_poly(rng, char, 3),
            "Q": _fixed_degree_poly(rng, char, 3),
            "sample_coeffs": samples,
            "samples": FAMILY_SAMPLES,
        })
    return jobs


WORKLOADS = {
    "scan-ladder": scan_ladder,
    "exact-small": exact_small,
    "audit-sweep": audit_sweep,
    "valuation-props": valuation_props,
}


def make_jobs(workload, seed):
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))


def fields_of(jobs):
    """Distinct (p, k) of the fields a job list works in."""
    out = set()
    for job in jobs:
        if job["kind"] in ("analyze", "cli") and job.get("cli") in (None, "analyze"):
            out.add((job["p"], job["k"]))
        elif job["kind"] == "family" and job["char"]:
            out.add((job["char"], 1))
    return sorted(out)
