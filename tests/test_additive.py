"""Linearized maps, subspaces, and linear algebra mod p."""

import itertools
import random

import pytest

from curvadd import (
    ContextMismatch,
    FqContext,
    LinearizedMap,
    Subspace,
    hyperplane_functionals,
    trace_functional,
)
from curvadd.additive import nullspace_mod_p, rref_mod_p

from conftest import CUSTOM_MODULI, odd_prime_powers, span_elements
from field_reference import frobenius, trace


def test_rref_canonical():
    # Two row-equivalent matrices share one RREF.
    a = [[1, 2, 0], [0, 1, 1]]
    b = [[0, 2, 2], [2, 0, 2]]  # scaled and swapped rows of the same span
    ra, _ = rref_mod_p(a, 3)
    rb, _ = rref_mod_p(b, 3)
    assert ra == rb
    assert ra[0][0] == 1  # pivots normalized


def test_nullspace_rank_nullity():
    rng = random.Random(11)
    for p in (3, 5):
        for _ in range(30):
            k = rng.randint(1, 4)
            mat = [[rng.randrange(p) for _ in range(k)] for _ in range(k)]
            _, pivots = rref_mod_p([row[:] for row in mat], p)
            basis = nullspace_mod_p([row[:] for row in mat], p, k)
            assert len(pivots) + len(basis) == k
            for vec in basis:
                out = [
                    sum(mat[i][j] * vec[j] for j in range(k)) % p
                    for i in range(k)
                ]
                assert all(v == 0 for v in out)


def test_subspace_canonical_and_contains():
    ctx = FqContext(3, 2)
    g = ctx.gen()
    a = Subspace(ctx, [g.coeffs, (g + g).coeffs])
    b = Subspace(ctx, [(g + g).coeffs])
    assert a.rows == b.rows  # same span, same canonical basis
    assert a == b and hash(a) == hash(b)
    assert a.dim == 1
    members = list(span_elements(a))
    assert g in members and ctx.zero() in members
    assert ctx.one() not in members
    assert len(members) == 3


def test_linearized_map_additivity_exhaustive():
    ctx = FqContext(3, 2)
    rng = random.Random(5)
    elems = list(ctx.elements())
    for _ in range(10):
        f = LinearizedMap(ctx, [ctx.decode(rng.randrange(9)) for _ in range(2)])
        for a, b in itertools.product(elems, repeat=2):
            assert f(a + b) == f(a) + f(b)
        for c in range(3):  # F_p-linearity
            for a in elems:
                assert f(a * c) == f(a) * c


def test_map_matrix_round_trip():
    # column j of the matrix holds the coordinates of f(g^j), and the
    # matrix acting on coordinates gives back f on every element
    rng = random.Random(7)
    for p, k in ((3, 2), (5, 2), (3, 3)):
        ctx = FqContext(p, k)
        basis = [ctx.gen() ** j for j in range(k)]
        for _ in range(15):
            coeffs = [ctx.decode(rng.randrange(p**k)) for _ in range(k)]
            f = LinearizedMap(ctx, coeffs)
            m = f.to_matrix()
            for j, b in enumerate(basis):
                image = sum((a * frobenius(b, i) for i, a in enumerate(coeffs)), ctx.zero())
                assert [row[j] for row in m] == list(image.coeffs)
            for a in ctx.elements():
                x = a.coeffs
                y = [sum(m[r][j] * x[j] for j in range(k)) % p for r in range(k)]
                assert y == list(f(a).coeffs)


def old_to_matrix(f):
    """to_matrix by its first definition: f evaluated through __call__
    at each basis element g^j, k - 1 p-th powers per column."""
    ctx = f.ctx
    k = ctx.k
    cols = []
    basis = ctx.one()
    g = ctx.element([0, 1]) if k > 1 else None
    for j in range(k):
        if j:
            basis = basis * g
        cols.append(f(basis).coeffs)
    return tuple(tuple(cols[j][r] for j in range(k)) for r in range(k))


@pytest.mark.parametrize(
    "p,k,modulus", [(p, k, None) for p, k in odd_prime_powers(3**5)] + list(CUSTOM_MODULI)
)
def test_to_matrix_matches_evaluation_at_the_basis(p, k, modulus):
    # the Frobenius-image stepping against evaluation at each g^j, on
    # the identity, the trace map, a functional and seeded maps
    ctx = FqContext(p, k, modulus)
    rng = random.Random(f"to_matrix {p}^{k} {modulus}")
    maps = [
        LinearizedMap.identity(ctx),
        LinearizedMap(ctx, [1] * k),
        trace_functional(next(hyperplane_functionals(ctx))),
    ]
    maps += [
        LinearizedMap(ctx, [ctx.decode(rng.randrange(ctx.order)) for _ in range(k)])
        for _ in range(4)
    ]
    for f in maps:
        assert f.to_matrix() == old_to_matrix(f), f


def test_every_matrix_is_a_linearized_map():
    # The correspondence is onto: the q^k maps give p^(k^2) distinct
    # matrices, so any k x k matrix over F_p arises from exactly one map.
    for p, k in ((3, 2), (5, 2)):
        ctx = FqContext(p, k)
        matrices = {
            LinearizedMap(ctx, coeffs).to_matrix()
            for coeffs in itertools.product(list(ctx.elements()), repeat=k)
        }
        assert len(matrices) == p ** (k * k)
    rng = random.Random(13)
    ctx = FqContext(3, 2)
    matrices = {
        LinearizedMap(ctx, coeffs).to_matrix()
        for coeffs in itertools.product(list(ctx.elements()), repeat=2)
    }
    for _ in range(20):
        mat = tuple(tuple(rng.randrange(3) for _ in range(2)) for _ in range(2))
        assert mat in matrices


def test_kernel_matches_direct_evaluation():
    ctx = FqContext(3, 2)
    rng = random.Random(17)
    for _ in range(20):
        f = LinearizedMap(ctx, [ctx.decode(rng.randrange(9)), ctx.decode(rng.randrange(9))])
        kernel = f.kernel()
        direct = {int(a) for a in ctx.elements() if f(a).is_zero()}
        via_subspace = {int(a) for a in span_elements(kernel)}
        assert direct == via_subspace


def test_zero_and_identity_maps():
    ctx = FqContext(5, 2)
    z = LinearizedMap.zero(ctx)
    assert z.is_zero()
    assert z.kernel().dim == 2
    ident = LinearizedMap.identity(ctx)
    for a in list(ctx.elements())[:8]:
        assert ident(a) == a
    assert ident.kernel().dim == 0


def test_trace_functional_matches_trace():
    ctx = FqContext(3, 2)
    f = trace_functional(ctx.one())
    for a in ctx.elements():
        assert f(a) == trace(a)
    g = trace_functional(ctx.gen())
    for a in ctx.elements():
        assert g(a) == trace(ctx.gen() * a)
    with pytest.raises(ValueError):
        trace_functional(ctx.zero())


def test_trace_functional_and_hyperplanes():
    ctx = FqContext(3, 2)
    functionals = [trace_functional(a) for a in hyperplane_functionals(ctx)]
    assert len(functionals) == (9 - 1) // (3 - 1)  # 4 hyperplanes
    kernels = set()
    for f in functionals:
        kernel = f.kernel()
        assert kernel.dim == 1  # hyperplane: dimension k - 1
        assert not f.is_zero()
        kernels.add(kernel)
        for x, y in itertools.product(list(ctx.elements())[:5], repeat=2):
            assert f(x + y) == f(x) + f(y)
    assert len(kernels) == 4  # scalar multiples deduplicated


def test_enumerate_hyperplanes_counts():
    # the kernels of the hyperplane functionals are (q - 1)/(p - 1)
    # hyperplanes of dimension k - 1, each exactly once
    for p, k, expected in ((3, 2, 4), (5, 2, 6), (3, 3, 13)):
        ctx = FqContext(p, k)
        planes = [trace_functional(a).kernel() for a in hyperplane_functionals(ctx)]
        assert len(planes) == expected
        assert len({pl.rows for pl in planes}) == expected
        for pl in planes:
            assert pl.dim == k - 1


@pytest.mark.parametrize(
    "p,k,modulus", [(p, k, None) for p, k in odd_prime_powers(3**5)] + list(CUSTOM_MODULI)
)
def test_hyperplane_functionals_yield_the_representatives(p, k, modulus):
    # exactly the elements whose top nonzero coordinate is 1, in code
    # order, one per scalar class
    ctx = FqContext(p, k, modulus)
    reps = [
        a for a in ctx.elements()
        if not a.is_zero() and [c for c in a.coeffs if c][-1] == 1
    ]
    assert list(hyperplane_functionals(ctx)) == reps
    assert len(reps) == (ctx.order - 1) // (p - 1)


def test_map_context_mismatch():
    f = LinearizedMap.identity(FqContext(3, 2))
    with pytest.raises(ContextMismatch):
        f(FqContext(5).one())
