"""Linearized maps, subspaces, and linear algebra mod p."""

import itertools
import random

import pytest

from curvadd import (
    CapExceeded,
    ContextMismatch,
    FqContext,
    LinearizedMap,
    Subspace,
    enumerate_all_maps,
    enumerate_hyperplanes,
    hyperplane_functionals,
    trace_functional,
)
from curvadd.additive import nullspace_mod_p, rref_mod_p, solve_mod_p

from conftest import CUSTOM_MODULI, odd_prime_powers


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


def test_solve_mod_p():
    mat = [[1, 2], [0, 1]]
    rhs = [0, 1]
    sol = solve_mod_p([row[:] for row in mat], rhs, 3)
    for i in range(2):
        assert sum(mat[i][j] * sol[j] for j in range(2)) % 3 == rhs[i]
    # singular systems are rejected, not guessed at
    with pytest.raises(ValueError):
        solve_mod_p([[1, 1], [2, 2]], [1, 1], 3)


def test_subspace_canonical_and_contains():
    ctx = FqContext(3, 2)
    g = ctx.gen()
    a = Subspace.from_elements(ctx, [g, g + g])
    b = Subspace.from_elements(ctx, [g + g])
    assert a.rows == b.rows  # same span, same canonical basis
    assert a.dim == 1
    assert a.contains(g) and a.contains(ctx.zero())
    assert not a.contains(ctx.one())
    assert len(list(a.elements())) == 3


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
    rng = random.Random(7)
    for p, k in ((3, 2), (5, 2), (3, 3)):
        ctx = FqContext(p, k)
        for _ in range(15):
            f = LinearizedMap(ctx, [ctx.decode(rng.randrange(p**k)) for _ in range(k)])
            m = f.to_matrix()
            g = LinearizedMap.from_matrix(ctx, m)
            assert g == f
            for a in ctx.elements():
                assert f(a) == g(a)


def test_every_matrix_is_a_linearized_map():
    # The correspondence is onto: any k x k matrix over F_p arises.
    ctx = FqContext(3, 2)
    rng = random.Random(13)
    for _ in range(20):
        mat = [[rng.randrange(3) for _ in range(2)] for _ in range(2)]
        f = LinearizedMap.from_matrix(ctx, mat)
        assert [list(row) for row in f.to_matrix()] == mat


def test_kernel_matches_direct_evaluation():
    ctx = FqContext(3, 2)
    rng = random.Random(17)
    for _ in range(20):
        f = LinearizedMap(ctx, [ctx.decode(rng.randrange(9)), ctx.decode(rng.randrange(9))])
        kernel = f.kernel()
        direct = {int(a) for a in ctx.elements() if f(a).is_zero()}
        via_subspace = {int(a) for a in kernel.elements()}
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
        assert f(a) == a.trace()
    g = trace_functional(ctx.gen())
    for a in ctx.elements():
        assert g(a) == (ctx.gen() * a).trace()
    with pytest.raises(ValueError):
        trace_functional(ctx.zero())


def test_trace_functional_and_hyperplanes():
    ctx = FqContext(3, 2)
    functionals = list(hyperplane_functionals(ctx))
    assert len(functionals) == (9 - 1) // (3 - 1)  # 4 hyperplanes
    kernels = set()
    for f in functionals:
        kernel = f.kernel()
        assert kernel.dim == 1  # hyperplane: dimension k - 1
        assert not f.is_zero()
        kernels.add(kernel.rows)
        for x, y in itertools.product(list(ctx.elements())[:5], repeat=2):
            assert f(x + y) == f(x) + f(y)
    assert len(kernels) == 4  # scalar multiples deduplicated


@pytest.mark.parametrize(
    "p,k,modulus", [(p, k, None) for p, k in odd_prime_powers(3**5)] + list(CUSTOM_MODULI)
)
def test_hyperplane_functionals_match_trace_functional(p, k, modulus):
    # the code-table functionals against trace_functional on field
    # elements, over every representative a (top coordinate 1)
    ctx = FqContext(p, k, modulus)
    reps = [
        a for a in ctx.elements()
        if not a.is_zero() and [c for c in a.coeffs if c][-1] == 1
    ]
    functionals = list(hyperplane_functionals(ctx))
    assert len(functionals) == len(reps) == (ctx.order - 1) // (p - 1)
    for f, a in zip(functionals, reps):
        assert f.coeffs == trace_functional(a).coeffs, a


def test_enumerate_hyperplanes_counts():
    for p, k, expected in ((3, 2, 4), (5, 2, 6), (3, 3, 13)):
        ctx = FqContext(p, k)
        planes = list(enumerate_hyperplanes(ctx))
        assert len(planes) == expected
        assert len({pl.rows for pl in planes}) == expected
        for pl in planes:
            assert pl.dim == k - 1


def test_enumerate_all_maps():
    ctx = FqContext(3, 2)
    maps = list(enumerate_all_maps(ctx))
    assert len(maps) == 3**4  # p^(k^2)
    assert any(f.is_zero() for f in maps)
    nonzero = list(enumerate_all_maps(ctx, include_zero=False))
    assert len(nonzero) == 3**4 - 1
    assert len({f.coeffs for f in maps}) == len(maps)


def test_enumerate_all_maps_cap():
    ctx = FqContext(3, 4)  # 3^16 maps is over the default oracle cap
    with pytest.raises(CapExceeded):
        list(enumerate_all_maps(ctx))


def test_map_context_mismatch():
    f = LinearizedMap.identity(FqContext(3, 2))
    with pytest.raises(ContextMismatch):
        f(FqContext(5).one())
