"""Spans around calls into curvadd's layers, taken from outside.

The package has no timing hooks, so the tracer rebinds the module and
class attributes the pipeline calls through (cover.affine_points,
curve.embed, poly.unipoly_gcd, SparsePoly.substitute, ...) to wrappers
that record a span per call: name, start, end, parent span and job.
Spans stay in memory; the benchmark writes them out when the run ends.

A span's self time is its duration minus the part of it that its
children cover.  Every `*_s` layer metric is a sum of self times, so
the layer metrics of one job add up to the job's time.

LAYER_METRICS lists each per-layer metric with the end-to-end metric
and workload it should move.
"""

from __future__ import annotations

import time
from collections import defaultdict

# name: (unit, better, what it should move)
LAYER_METRICS = {
    "fields.context_s": ("s", "lower", "setup_s and wall_s on audit-sweep; wall_s on exact-small"),
    "fields.contexts": ("count", "lower", "setup_s and wall_s on audit-sweep"),
    "fields.embed_s": ("s", "lower", "wall_s and wall_warm_s on exact-small"),
    "fields.embed_calls": ("count", "lower", "wall_s on exact-small"),
    "fields.mul_ns": ("ns", "lower", "wall_s and wall_warm_s on scan-ladder and exact-small"),
    "fields.add_ns": ("ns", "lower", "wall_s and wall_warm_s on scan-ladder and exact-small"),
    "fields.inv_ns": ("ns", "lower", "wall_s on valuation-props and audit-sweep"),
    "poly.parse_s": ("s", "lower", "setup_s on every workload; wall_s on audit-sweep"),
    "poly.substitute_s": ("s", "lower", "wall_s on scan-ladder"),
    "poly.substitute_calls": ("count", "lower", "wall_s on scan-ladder"),
    "poly.gcd_s": ("s", "lower", "wall_s on valuation-props"),
    "poly.gcd_calls": ("count", "lower", "wall_s on valuation-props"),
    "curve.affine_s": ("s", "lower", "wall_s on scan-ladder"),
    "curve.affine_pairs": ("count", "lower", "wall_s on scan-ladder"),
    "curve.affine_found": ("count", "higher", "none; it is fixed by the curves"),
    "curve.infinity_s": ("s", "lower", "wall_s on scan-ladder"),
    "curve.axis_lines_s": ("s", "lower", "wall_s on scan-ladder"),
    "curve.singular_s": ("s", "lower", "wall_s on scan-ladder (extension 1) and exact-small (extension 2)"),
    "curve.singular_pairs": ("count", "lower", "wall_s on exact-small"),
    "curve.singular_ext_used": ("degree", "higher", "none; it shows the scan's reach"),
    "curve.singular_ext_degraded": ("count", "lower", "none; it shows the cap's cut"),
    "curve.pairs_per_s": ("1/s", "higher", "wall_s on scan-ladder and exact-small"),
    "cover.analyze_self_s": ("s", "lower", "wall_s on scan-ladder"),
    "cover.hyperplane_s": ("s", "lower", "wall_s on scan-ladder"),
    "cover.hyperplanes_tried": ("count", "lower", "wall_s on scan-ladder"),
    "cover.hyperplanes_total": ("count", "lower", "none; it is fixed by the fields"),
    "cover.witness_rate": ("ratio", "higher", "wall_s on scan-ladder"),
    "cover.oracle_s": ("s", "lower", "wall_s on exact-small"),
    "cover.oracle_runs": ("count", "lower", "wall_s on exact-small and audit-sweep"),
    "cover.oracle_skipped": ("count", "higher", "wall_s on exact-small and audit-sweep"),
    "cover.oracle_maps": ("count", "lower", "wall_s on exact-small"),
    "cover.verify_witness_s": ("s", "lower", "wall_s on scan-ladder"),
    "additive.trace_functional_s": ("s", "lower", "wall_s on scan-ladder"),
    "additive.kernel_s": ("s", "lower", "wall_s on scan-ladder"),
    "additive.kernel_calls": ("count", "lower", "wall_s on scan-ladder"),
    "claims.flags_s": ("s", "lower", "wall_s on audit-sweep"),
    "valuation.axioms_s": ("s", "lower", "wall_s on valuation-props"),
    "valuation.checks": ("count", "higher", "none; it is fixed at 9 + 36N"),
    "valuation.checks_per_s": ("1/s", "higher", "wall_s on valuation-props"),
    "valuation.family_s": ("s", "lower", "wall_s on valuation-props"),
    "valuation.family_samples": ("count", "higher", "none; it is fixed by the job list"),
    "cli.command_s": ("s", "lower", "wall_s on audit-sweep"),
    "cli.report_json_s": ("s", "lower", "wall_s on audit-sweep"),
    "cli.dump_json_s": ("s", "lower", "wall_s on audit-sweep"),
    "cli.json_bytes": ("bytes", "lower", "wall_s on audit-sweep"),
    "cli.refusals": ("count", "higher", "none; it is fixed by the job list"),
    "cli.reports_changed": ("count", "lower", "none; report bytes differing from golden.json"),
    "trace.overhead_frac": ("ratio", "lower", "none; traced over untraced wall_s, minus one"),
    "trace.harness_s": ("s", "lower", "none; time the tracer's own bookkeeping adds"),
}

# span name -> layer metric holding its self time
SPAN_METRICS = {
    "fields.context": "fields.context_s",
    "fields.embed": "fields.embed_s",
    "poly.parse": "poly.parse_s",
    "poly.substitute": "poly.substitute_s",
    "poly.gcd": "poly.gcd_s",
    "curve.affine": "curve.affine_s",
    "curve.infinity": "curve.infinity_s",
    "curve.axis_lines": "curve.axis_lines_s",
    "curve.singular": "curve.singular_s",
    "cover.analyze": "cover.analyze_self_s",
    "cover.hyperplane": "cover.hyperplane_s",
    "cover.oracle": "cover.oracle_s",
    "cover.verify_witness": "cover.verify_witness_s",
    "additive.trace_functional": "additive.trace_functional_s",
    "additive.kernel": "additive.kernel_s",
    "claims.flags": "claims.flags_s",
    "valuation.axioms": "valuation.axioms_s",
    "valuation.family": "valuation.family_s",
    "cli.command": "cli.command_s",
    "cli.report_json": "cli.report_json_s",
    "cli.dump_json": "cli.dump_json_s",
}

# Counters a span name adds one to per call.
CALL_COUNTERS = {
    "fields.context": "fields.contexts",
    "fields.embed": "fields.embed_calls",
    "poly.substitute": "poly.substitute_calls",
    "poly.gcd": "poly.gcd_calls",
    "cover.oracle": "cover.oracle_runs",
    "additive.kernel": "additive.kernel_calls",
}


def self_times(spans):
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to its own interval."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        covered = 0
        cur_start = cur_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, start), min(b, end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append(end - start - covered)
    return out


class Tracer:
    """Records spans for the calls it wraps.  A span is the list
    [name, start_ns, end_ns, parent index or -1, job]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = "setup"
        self.counters = defaultdict(float)
        self.ext_used = []

    def wrap(self, name, fn, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def span(self, name):
        """Context manager for a span the harness opens itself."""
        return _Span(self, name)

    def install(self, curvadd):
        """Rebind the names each layer is called through."""
        cover, curve, poly = curvadd.cover, curvadd.curve, curvadd.poly
        fields, additive, claims = curvadd.fields, curvadd.additive, curvadd.claims
        valuation, cli = curvadd.valuation, curvadd.cli
        c = self.counters

        def rebind(owner, attr, name, after=None):
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))

        fields.FqContext.__init__ = self.wrap("fields.context", fields.FqContext.__init__)
        rebind(curve, "embed", "fields.embed")
        for owner in (curve, cli, claims):
            rebind(owner, "parse_bipoly", "poly.parse")
        rebind(poly.SparsePoly, "substitute", "poly.substitute")
        rebind(poly, "unipoly_gcd", "poly.gcd")

        def after_affine(args, kwargs, result):
            c["curve.affine_pairs"] += args[0].ctx.order ** 2
            c["curve.affine_found"] += result.count

        def after_singular(args, kwargs, result):
            ext = args[1] if len(args) > 1 else kwargs.get("ext_degree", 2)
            c["curve.singular_pairs"] += (args[0].ctx.order ** ext) ** 2

        rebind(cover, "affine_points", "curve.affine", after_affine)
        rebind(cover, "points_at_infinity_count", "curve.infinity")
        rebind(cover, "axis_parallel_lines", "curve.axis_lines")
        rebind(cover, "singular_points", "curve.singular", after_singular)

        def after_analyze(args, kwargs, report):
            requested = kwargs.get("singular_ext", args[1] if len(args) > 1 else 2)
            oracle = kwargs.get("oracle", args[2] if len(args) > 2 else "auto")
            self.ext_used.append(report.singular_ext_used)
            if report.singular_ext_used < int(requested):
                c["curve.singular_ext_degraded"] += 1
            if oracle == "auto" and report.oracle_verdict is None:
                c["cover.oracle_skipped"] += 1

        def after_hyperplanes(args, kwargs, verdict):
            if verdict.exists_nonzero:
                c["witnesses"] += 1

        def after_oracle(args, kwargs, verdict):
            ctx = args[1]
            if verdict.exists_nonzero:
                index = 0
                for a in verdict.witness_map.coeffs:
                    index = index * ctx.order + int(a)
                c["cover.oracle_maps"] += index
            else:
                c["cover.oracle_maps"] += ctx.order ** ctx.k - 1

        for owner in (cover, cli):
            rebind(owner, "analyze", "cover.analyze", after_analyze)
            rebind(owner, "decide_by_hyperplanes", "cover.hyperplane", after_hyperplanes)
            rebind(owner, "decide_by_exhaustion", "cover.oracle", after_oracle)
        rebind(cover, "verify_witness", "cover.verify_witness")

        functionals = cover.hyperplane_functionals

        def counted_functionals(ctx, cap=None):
            c["cover.hyperplanes_total"] += (ctx.order - 1) // (ctx.p - 1)
            for functional in functionals(ctx, cap):
                c["cover.hyperplanes_tried"] += 1
                yield functional

        cover.hyperplane_functionals = counted_functionals
        rebind(additive, "trace_functional", "additive.trace_functional")
        rebind(additive.LinearizedMap, "kernel", "additive.kernel")
        rebind(claims, "claim_flags", "claims.flags")

        def after_axioms(args, kwargs, report):
            c["valuation.checks"] += report.checks

        def after_family(args, kwargs, report):
            c["valuation.family_samples"] += report.checked

        for owner in (valuation, cli):
            rebind(owner, "verify_valuation_axioms", "valuation.axioms", after_axioms)
            rebind(owner, "ext2_family_check", "valuation.family", after_family)

        def after_main(args, kwargs, code):
            if code == 2:
                c["cli.refusals"] += 1

        def after_dump(args, kwargs, text):
            c["cli.json_bytes"] += len(text.encode())

        rebind(cli, "main", "cli.command", after_main)
        rebind(cli, "report_json", "cli.report_json")
        rebind(cli, "dump_json", "cli.dump_json", after_dump)

    def layer_metrics(self):
        """Per-layer metrics from the spans and counters recorded so far
        (the `fields.*_ns` micro-timings and the trace.* metrics are
        filled in by the caller)."""
        out = {name: 0.0 for name in LAYER_METRICS}
        out.update(self.counters)
        for span, own in zip(self.spans, self_times(self.spans)):
            metric = SPAN_METRICS.get(span[0])
            if metric is not None:
                out[metric] += own / 1e9
            counter = CALL_COUNTERS.get(span[0])
            if counter is not None:
                out[counter] += 1
        scan_s = out["curve.affine_s"] + out["curve.singular_s"] + out["poly.substitute_s"]
        pairs = out["curve.affine_pairs"] + out["curve.singular_pairs"]
        out["curve.pairs_per_s"] = pairs / scan_s if scan_s else 0.0
        if self.ext_used:
            out["curve.singular_ext_used"] = sum(self.ext_used) / len(self.ext_used)
        tried = out["cover.hyperplanes_tried"]
        out["cover.witness_rate"] = self.counters["witnesses"] / tried if tried else 0.0
        axioms_s = out["valuation.axioms_s"]
        out["valuation.checks_per_s"] = out["valuation.checks"] / axioms_s if axioms_s else 0.0
        out.pop("witnesses", None)
        return out

    def shares(self):
        """Self time per span name as a share of all traced job time
        (spans recorded outside set-up)."""
        totals = defaultdict(int)
        for span, own in zip(self.spans, self_times(self.spans)):
            if span[4] != "setup":
                totals[span[0]] += own
        whole = sum(totals.values()) or 1
        return {name: t / whole for name, t in sorted(totals.items(), key=lambda kv: -kv[1])}


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        t = self.tracer
        self.rec = [self.name, time.perf_counter_ns(), 0, t.stack[-1] if t.stack else -1, t.job]
        t.stack.append(len(t.spans))
        t.spans.append(self.rec)

    def __exit__(self, *exc):
        self.tracer.stack.pop()
        self.rec[2] = time.perf_counter_ns()
        return False


def calibrate_span_cost(n=20000):
    """Seconds one wrapped call costs over a bare call."""
    tracer = Tracer()

    def bare():
        return None

    wrapped = tracer.wrap("calibrate", bare)
    t0 = time.perf_counter_ns()
    for _ in range(n):
        bare()
    t1 = time.perf_counter_ns()
    for _ in range(n):
        wrapped()
    t2 = time.perf_counter_ns()
    return max(0, (t2 - t1) - (t1 - t0)) / n / 1e9
