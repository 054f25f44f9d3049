"""Additive (F_p-linear) self-maps of F_{p^k} and their kernels.

Every additive map on F_{p^k} is a linearized polynomial
f(x) = sum a_i x^(p^i) with k coefficients a_i in the field, and the
correspondence with k x k matrices over F_p is a bijection.  Kernels
are F_p-subspaces, held in reduced row-echelon canonical form so equal
subspaces compare equal structurally.

Hyperplanes ((k-1)-dimensional subspaces) are exactly the kernels of
trace functionals x -> Tr(a x); scaling a by the prime subfield leaves
the kernel unchanged, so enumerating one representative per scalar
class yields each hyperplane exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .caps import DEFAULT_FIELD_CAP, check_cap
from .errors import ContextMismatch
from .fields import FqContext, _render_sum, code_tables


# ---------------------------------------------------------------------------
# Row operations over F_p.  Rows are lists of ints in [0, p).


def rref_mod_p(rows, p):
    """Reduced row-echelon form; returns (nonzero rows, pivot columns)."""
    m = [[v % p for v in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                factor = m[i][c]
                m[i] = [(a - factor * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def nullspace_mod_p(rows, p, ncols):
    """A basis of the right null space, one vector per free column;
    Subspace puts it in canonical (RREF) form."""
    red, pivots = rref_mod_p(rows, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for r, c in enumerate(pivots):
            vec[c] = (-red[r][f]) % p
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True, init=False)
class Subspace:
    """An F_p-subspace of F_{p^k} in canonical (RREF) basis form.

    Basis rows are coordinate vectors in the 1, g, ..., g^(k-1) basis.
    Two Subspace values are equal iff they are the same subspace.
    """

    ctx: FqContext
    rows: tuple

    def __init__(self, ctx, rows):
        canon, _ = rref_mod_p([list(r) for r in rows], ctx.p)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "rows", tuple(tuple(r) for r in canon))

    @property
    def dim(self):
        return len(self.rows)

    def __repr__(self):
        if not self.rows:
            return "Subspace({0})"
        return f"Subspace(dim={self.dim}, basis={[list(r) for r in self.rows]})"


@dataclass(frozen=True, slots=True, init=False)
class LinearizedMap:
    """f(x) = sum a_i x^(p^i), the canonical form of an additive map."""

    ctx: FqContext
    coeffs: tuple

    def __init__(self, ctx, coeffs):
        coeffs = tuple(
            ctx.constant(c) if isinstance(c, int) else c for c in coeffs
        )
        if len(coeffs) != ctx.k:
            raise ValueError(f"need k = {ctx.k} coefficients, got {len(coeffs)}")
        for c in coeffs:
            if c.ctx != ctx:
                raise ContextMismatch("coefficient from a different context")
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, [0] * ctx.k)

    @classmethod
    def identity(cls, ctx):
        return cls(ctx, [1] + [0] * (ctx.k - 1))

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __call__(self, x):
        if x.ctx != self.ctx:
            raise ContextMismatch("argument from a different context")
        acc = self.ctx.zero()
        power = x
        for i, a in enumerate(self.coeffs):
            if i:
                power = power**self.ctx.p
            if not a.is_zero():
                acc = acc + a * power
        return acc

    def to_matrix(self):
        """k x k matrix over F_p whose column j holds the coordinates
        of f(g^j) = sum_i a_i h_i^j, with h_i = g^(p^i).

        The Frobenius images h_i are taken once, k - 1 p-th powers, and
        each column steps every term a_i h_i^j to the next by one
        multiplication by h_i, all in FqElement arithmetic."""
        ctx = self.ctx
        k = ctx.k
        frobenius = [ctx.element([0, 1]) if k > 1 else ctx.one()]
        for _ in range(k - 1):
            frobenius.append(frobenius[-1] ** ctx.p)
        terms = list(self.coeffs)
        cols = []
        for j in range(k):
            if j:
                terms = [t * h for t, h in zip(terms, frobenius)]
            cols.append(sum(terms[1:], terms[0]).coeffs)
        return tuple(
            tuple(cols[j][r] for j in range(k)) for r in range(k)
        )

    def kernel(self):
        """Null space of the map as a canonical Subspace."""
        matrix = self.to_matrix()
        basis = nullspace_mod_p([list(r) for r in matrix], self.ctx.p, self.ctx.k)
        return Subspace(self.ctx, basis)

    def __repr__(self):
        p = self.ctx.p
        terms = _render_sum(
            (repr(a), "x" if i == 0 else f"x^{p**i}")
            for i, a in enumerate(self.coeffs)
            if a
        )
        return f"LinearizedMap({terms})"


def trace_functional(a):
    """The map x -> Tr(a x) as a linearized polynomial: a_i = a^(p^i).

    Its kernel is a hyperplane (dimension k - 1) for every a != 0.
    """
    if a.is_zero():
        raise ValueError("trace functional needs a nonzero multiplier")
    ctx = a.ctx
    coeffs = []
    power = a
    for i in range(ctx.k):
        if i:
            power = power**ctx.p
        coeffs.append(power)
    return LinearizedMap(ctx, coeffs)


def hyperplane_functionals(ctx, cap=None):
    """One trace functional per hyperplane, in code order of the
    scalar-class representative a (highest nonzero coordinate = 1).

    The representatives are the codes whose top base-p digit is 1,
    [p^j, 2 p^j) for j < k, and the coefficients a^(p^i) of each
    functional come from the code tables:
    exp[log(a) p^i mod (q - 1)].  trace_functional computes the same
    map on field elements.

    The cap counts the q entries of the code tables, which outnumber
    the (q - 1)/(p - 1) hyperplanes, and refuses before they are built.
    `cap`, when given, stands in for the default cap; CURVADD_CAP
    overrides either.  Nothing in the package passes it.
    """
    default = DEFAULT_FIELD_CAP if cap is None else cap
    check_cap("hyperplane enumeration", ctx.order, default)
    exp, log, _ = code_tables(ctx)
    n = ctx.order - 1
    steps = [pow(ctx.p, i, n) for i in range(ctx.k)]
    for j in range(ctx.k):
        low = ctx.p**j
        for code in range(low, 2 * low):
            la = log[code]
            yield LinearizedMap(ctx, [ctx.decode(exp[la * s % n]) for s in steps])
