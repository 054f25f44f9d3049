"""Frobenius and the trace on FqElement, kept as references for the
tests.

Nothing in the package needs either as an element method: the
hyperplane decider and the linearized maps build their powers x^(p^i)
and trace forms on their own.  The tests use these two to state the
field structure those rest on (Frobenius is an automorphism of order k,
the trace is F_p-linear onto F_p) and to check trace_functional and the
trace-form covectors against the plain sum of conjugates.
"""


def frobenius(a, i=1):
    """a -> a^(p^i).  i is taken mod k (Frobenius has order k)."""
    out = a
    for _ in range(int(i) % a.ctx.k):
        out = out**a.ctx.p
    return out


def trace(a):
    """Trace to F_p: sum of a^(p^i) for 0 <= i < k, as an element."""
    acc = cur = a
    for _ in range(a.ctx.k - 1):
        cur = cur**a.ctx.p
        acc = acc + cur
    return acc
