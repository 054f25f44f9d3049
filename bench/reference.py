"""Reference checks for benchmark outputs.

Nothing here imports curvadd.  Field arithmetic for the checks runs on
this module's own exp/log tables over integer element codes, built
from the modulus printed in each report, so a defect in the package's
`fields` layer cannot make a wrong answer pass.  Every check returns a
list of problems; an empty list means the output is correct.

Element codes follow the report format: the code of
c_0 + c_1 g + ... + c_{k-1} g^{k-1} is sum(c_i * p^i).
"""

from __future__ import annotations

import json
import re

# The documented default caps of the package (caps.py).  They are
# restated here, not imported, so the expected extension degree and
# oracle decision are derived independently of the code under test.
FIELD_CAP = 1 << 20
ORACLE_CAP = 1 << 24


# ---------------------------------------------------------------------------
# Field arithmetic on integer codes.


def _digits(code, p, k):
    out = []
    for _ in range(k):
        out.append(code % p)
        code //= p
    return out


def _code(digits, p):
    code = 0
    for c in reversed(digits):
        code = code * p + c
    return code


def _mulmod(a, b, modulus, p):
    """Product of two digit vectors reduced by a monic modulus."""
    k = len(modulus) - 1
    prod = [0] * (2 * k - 1)
    for i, av in enumerate(a):
        if av:
            for j, bv in enumerate(b):
                prod[i + j] = (prod[i + j] + av * bv) % p
    for top in range(len(prod) - 1, k - 1, -1):
        c = prod[top]
        if c:
            for i in range(k + 1):
                prod[top - k + i] = (prod[top - k + i] - c * modulus[i]) % p
    return prod[:k]


class RefField:
    """F_{p^k} on integer codes with exp/log tables."""

    def __init__(self, p, k, modulus):
        self.p, self.k, self.q = p, k, p**k
        modulus = [int(c) % p for c in modulus]
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ValueError(f"bad modulus {modulus} for k = {k}")
        n = self.q - 1
        for cand in range(1, self.q):
            g = _digits(cand, p, k)
            exp = [0] * n
            cur = _digits(1, p, k)
            seen = set()
            for i in range(n):
                code = _code(cur, p)
                if code in seen:
                    break
                seen.add(code)
                exp[i] = code
                cur = _mulmod(cur, g, modulus, p)
            else:
                break
        else:
            raise ValueError(f"modulus {modulus} is not irreducible mod {p}")
        self.exp = exp
        self.log = [0] * self.q
        for i, code in enumerate(exp):
            self.log[code] = i

    def const(self, c):
        return int(c) % self.p

    def add(self, a, b):
        p = self.p
        return _code(
            [(x + y) % p for x, y in zip(_digits(a, p, self.k), _digits(b, p, self.k))],
            p,
        )

    def neg(self, a):
        p = self.p
        return _code([(-x) % p for x in _digits(a, p, self.k)], p)

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if not a or not b:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def pow(self, a, e):
        if not a:
            return 0 if e else 1
        return self.exp[(self.log[a] * e) % (self.q - 1)]

    def chi(self, a):
        """Quadratic character; the table generator is a non-square."""
        if not a:
            return 0
        return 1 if self.log[a] % 2 == 0 else -1


# ---------------------------------------------------------------------------
# Curve families.  Each generated curve is one of these, with
# coefficients in the prime field; _on_curve tests a point on codes, and
# the counts are closed forms (or an O(q) character sum for the cubic).


def family_expression(family, coeffs, p):
    """The curve polynomial in the parser's syntax."""
    a, b, c = (coeffs + [0, 0, 0])[:3]
    if family == "hyperbola":
        return "x*y - 1"
    if family == "conic":
        return f"{a}*x^2 + {b}*y^2 - {c}"
    if family == "cubic":
        return f"y^2 - x^3 - {a}*x - {b}"
    if family == "parabola":
        return f"y - {a}*x^2 - {b}"
    if family == "artin-schreier":
        return f"y - {a}*x^{p} + {a}*x"
    raise ValueError(f"unknown family {family!r}")


def family_degree(family, p):
    return {"hyperbola": 2, "conic": 2, "cubic": 3, "parabola": 2}.get(family, p)


def family_is_smooth(family, coeffs, p, k):
    """Smoothness of the generated curve, from its coefficients."""
    a, b, c = (coeffs + [0, 0, 0])[:3]
    if family == "conic":
        return a % p != 0 and b % p != 0 and c % p != 0
    if family == "cubic":
        if p == 3:
            return a % p != 0
        return (4 * a**3 + 27 * b**2) % p != 0
    if family == "artin-schreier":
        return a % p != 0 and k >= 2
    return True


def _on_curve(field, family, coeffs, x, y):
    f = field
    a, b, c = (list(map(f.const, coeffs)) + [0, 0, 0])[:3]
    if family == "hyperbola":
        return f.mul(x, y) == 1
    if family == "conic":
        return f.add(f.mul(a, f.mul(x, x)), f.mul(b, f.mul(y, y))) == c
    if family == "cubic":
        rhs = f.add(f.add(f.pow(x, 3), f.mul(a, x)), b)
        return f.mul(y, y) == rhs
    if family == "parabola":
        return y == f.add(f.mul(a, f.mul(x, x)), b)
    if family == "artin-schreier":
        return y == f.mul(a, f.sub(f.pow(x, f.p), x))
    raise ValueError(f"unknown family {family!r}")


def expected_affine_count(field, family, coeffs):
    f = field
    q = f.q
    if family == "hyperbola":
        return q - 1
    if family == "conic":
        a, b = f.const(coeffs[0]), f.const(coeffs[1])
        return q - f.chi(f.neg(f.mul(a, b)))
    if family in ("parabola", "artin-schreier"):
        return q
    if family == "cubic":
        a, b = f.const(coeffs[0]), f.const(coeffs[1])
        total = 0
        for x in range(q):
            total += 1 + f.chi(f.add(f.add(f.pow(x, 3), f.mul(a, x)), b))
        return total
    raise ValueError(f"unknown family {family!r}")


def expected_infinity_count(field, family, coeffs):
    if family == "hyperbola":
        return 2
    if family == "conic":
        f = field
        a, b = f.const(coeffs[0]), f.const(coeffs[1])
        return 1 + f.chi(f.neg(f.mul(a, b)))
    return 1


def brute_force_points(p, family, coeffs):
    """Every affine point over the prime field F_p, by plain integer
    evaluation of the curve polynomial."""
    a, b, c = (coeffs + [0, 0, 0])[:3]
    polys = {
        "hyperbola": lambda x, y: x * y - 1,
        "conic": lambda x, y: a * x * x + b * y * y - c,
        "cubic": lambda x, y: y * y - x**3 - a * x - b,
        "parabola": lambda x, y: y - a * x * x - b,
        "artin-schreier": lambda x, y: y - a * x**p + a * x,
    }
    f = polys[family]
    return [[x, y] for x in range(p) for y in range(p) if f(x, y) % p == 0]


# ---------------------------------------------------------------------------
# Linear algebra over F_p for witness re-checks.


def rref(rows, p):
    m = [[v % p for v in row] for row in rows]
    if not m:
        return []
    r = 0
    for col in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][col], -1, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return m[:r]


def in_span(basis, vec, p):
    """vec lies in the row space of an RREF basis."""
    vec = [v % p for v in vec]
    for row in basis:
        lead = next(i for i, v in enumerate(row) if v)
        if vec[lead]:
            f = vec[lead]
            vec = [(x - f * y) % p for x, y in zip(vec, row)]
    return not any(vec)


def check_witness(basis, points, p, k):
    """The kernel has dimension < k, and every point has x or y in it."""
    problems = []
    if len(basis) >= k:
        problems.append(f"witness kernel has dimension {len(basis)} >= k = {k}")
        return problems
    canon = rref(basis, p)
    if len(canon) != len(basis):
        problems.append("witness kernel basis is not independent")
    for x, y in points:
        if not (in_span(canon, _digits(x, p, k), p) or in_span(canon, _digits(y, p, k), p)):
            problems.append(f"point ({x}, {y}) has neither coordinate in the kernel")
            break
    return problems


# ---------------------------------------------------------------------------
# Bounds, restated from the paper's inequalities.


def inequality1_forced(p, k, d):
    q = p**k
    a = q + 1 - d - 2 * d * p ** (k - 1)
    b = (d - 1) * (d - 2)
    return a > 0 and a * a > b * b * q


def by_count_forced(m, d, p, k):
    return m > 2 * p ** (k - 1) * d


def conic_forced(p, k):
    return p**k - 1 > 4 * p ** (k - 1)


def elliptic_forced(p, k):
    return p > 6 and (p - 6) ** 2 * p ** (k - 1) > 4 * p


def expected_singular_ext(q, requested):
    best = 0
    for m in range(1, requested + 1):
        if (q**m) ** 2 <= FIELD_CAP:
            best = m
    return best


# ---------------------------------------------------------------------------
# Output checks.


def check_canonical_json(text):
    """The text is the canonical dump of what it parses to."""
    try:
        obj = json.loads(text)
    except ValueError as exc:
        return None, [f"output is not JSON: {exc}"]
    again = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if again != text:
        return obj, ["JSON output does not re-serialize byte-identically"]
    return obj, []


def check_report(rep, job, field_cache):
    """Check an analyze report (the JSON dict) against the curve the job
    generated."""
    p, k = job["p"], job["k"]
    family, coeffs = job["family"], job["coeffs"]
    q = p**k
    problems = []
    fld = rep.get("field", {})
    if (fld.get("p"), fld.get("k")) != (p, k):
        return [f"report is over F_{fld.get('p')}^{fld.get('k')}, not F_{p}^{k}"]
    key = (p, k, tuple(fld["modulus"]))
    field = field_cache.get(key)
    if field is None:
        field = field_cache[key] = RefField(p, k, fld["modulus"])

    pts = rep["points"]
    listed = pts["affine_list"]
    want = expected_affine_count(field, family, coeffs)
    if pts["affine_count"] != want:
        problems.append(f"affine_count {pts['affine_count']} != expected {want}")
    if len(listed) != pts["affine_count"]:
        problems.append("affine_list length differs from affine_count")
    if any(a >= b for a, b in zip(listed, listed[1:])):
        problems.append("affine_list is not strictly sorted")
    bad = next((pt for pt in listed if not _on_curve(field, family, coeffs, *pt)), None)
    if bad is not None:
        problems.append(f"listed point {bad} is not on the curve")
    if k == 1 and listed != brute_force_points(p, family, coeffs):
        problems.append("affine_list differs from the brute-force point list")
    inf = expected_infinity_count(field, family, coeffs)
    if pts["infinity_count"] != inf:
        problems.append(f"infinity_count {pts['infinity_count']} != expected {inf}")
    ext = expected_singular_ext(q, job["singular_ext"])
    if pts["singular_search_degree"] != ext:
        problems.append(
            f"singular_search_degree {pts['singular_search_degree']} != expected {ext}"
        )
    if pts["singular_found"]:
        problems.append("singular points reported on a smooth curve")

    d = family_degree(family, p)
    bounds = rep["bounds"]
    if bounds["inequality1"]["forced_zero"] != inequality1_forced(p, k, d):
        problems.append("inequality1 forced_zero disagrees with the inequality")
    if bounds["by_count"]["forced_zero"] != by_count_forced(want, d, p, k):
        problems.append("by_count forced_zero disagrees with the count bound")

    dec = rep["decision"]
    forced = inequality1_forced(p, k, d) or by_count_forced(want, d, p, k)
    if forced and dec["exists_nonzero"]:
        problems.append("a forcing bound holds, yet a witness is reported")
    if family == "artin-schreier" and not dec["exists_nonzero"]:
        problems.append("Artin-Schreier curve reported without a witness")
    if dec["exists_nonzero"]:
        if not any(dec["witness_map_coeffs"]):
            problems.append("witness map is zero")
        problems += check_witness(dec["witness_kernel_basis"], listed, p, k)
    oracle = job["oracle"]
    ran = oracle == "on" or (oracle == "auto" and q**k <= ORACLE_CAP)
    if dec["oracle_agreement"] != ("agree" if ran else "skipped"):
        problems.append(f"oracle_agreement {dec['oracle_agreement']!r} unexpected")
    return problems


def check_cli(job, code, out, err, field_cache):
    """Check one CLI call: its exit code, then what its stdout says."""
    if code != job["exit"]:
        return [f"exit code {code}, expected {job['exit']}: {err.strip()[:200]}"]
    kind = job["cli"]
    if kind == "refusal":
        if out or "cap is" not in err:
            return ["cap refusal printed output or no cap message"]
        return []
    if kind == "analyze":
        rep, problems = check_canonical_json(out)
        if problems:
            return problems
        return check_report(rep, job, field_cache)
    if kind == "bound":
        match = re.search(r"^forced_zero = (True|False)$", out, re.M)
        if not match:
            return ["bound output has no forced_zero line"]
        p, k = job["p"], job["k"]
        if job["d"] is not None:
            want = inequality1_forced(p, k, job["d"])
        elif job["klass"] == "conic":
            want = conic_forced(p, k)
        else:
            want = elliptic_forced(p, k)
        if (match.group(1) == "True") != want:
            return [f"bound forced_zero = {match.group(1)}, expected {want}"]
        return []
    if kind == "verify-paper":
        problems = []
        for label, q in (("F_3", 3), ("F_5", 5), ("F_7", 7), ("F_3^2", 9)):
            row = re.search(rf"^  {re.escape(label)}\s+(\d+) ", out, re.M)
            if not row or int(row.group(1)) != q - 1:
                problems.append(f"verify-paper hyperbola row for {label} is not m = {q - 1}")
        if not out.rstrip().endswith(("(findings are not errors)", "none")):
            problems.append("verify-paper output is cut short")
        return problems
    return [f"unknown cli job kind {kind!r}"]


def valuation_tally(n):
    """Checks made by verify_valuation_axioms(n): 2 + 9n per degree
    domain over three domains, 1 + 3n per p-adic prime over three."""
    return 9 + 36 * n


def check_valuation(job, result):
    if job["kind"] == "axioms":
        want = valuation_tally(job["n"])
        problems = []
        if result.get("checks") != want:
            problems.append(f"axiom tally {result.get('checks')} != 9 + 36N = {want}")
        if result.get("sample_count") != job["n"] or len(result.get("domains", ())) != 6:
            problems.append("axiom report has the wrong sample count or domains")
        return problems
    if result.get("checked") != job["samples"]:
        return [f"family check covered {result.get('checked')} of {job['samples']} samples"]
    return []
