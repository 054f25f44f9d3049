"""Field arithmetic: exact, exhaustive on small fields."""

import itertools
import math

import pytest

from curvadd import CapExceeded, ContextMismatch, FqContext, FqElement, embed, fields, is_prime
from curvadd.fields import _ppowmod, _row_roots, _vanishing_logs, code_tables

from conftest import CUSTOM_MODULI, odd_prime_powers, seeded_rng
from field_reference import frobenius, trace


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(43):
        assert is_prime(n) == (n in primes)


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)  # Carmichael number
    assert not is_prime(1_000_000_007 * 998_244_353)
    assert is_prime(2_147_483_647)  # 2^31 - 1
    assert is_prime((1 << 61) - 1)


def test_context_validation():
    with pytest.raises(ValueError):
        FqContext(2)  # even characteristic unsupported
    with pytest.raises(ValueError):
        FqContext(9)
    with pytest.raises(ValueError):
        FqContext(1)
    with pytest.raises(ValueError):
        FqContext(5, 0)


def test_deterministic_modulus():
    assert FqContext(3, 1).modulus == (0, 1)
    assert FqContext(3, 2).modulus == (1, 0, 1)
    assert FqContext(5, 2).modulus == (2, 0, 1)
    assert FqContext(7, 2).modulus == (1, 0, 1)
    assert FqContext(3, 3).modulus == (1, 2, 0, 1)
    assert FqContext(3, 4).modulus == (2, 1, 0, 0, 1)


def test_modulus_rejects_reducible():
    with pytest.raises(ValueError):
        FqContext(3, 2, modulus=(0, 0, 1))  # x^2
    with pytest.raises(ValueError):
        FqContext(3, 2, modulus=(2, 0, 1))  # x^2 + 2 = (x+1)(x+2)
    with pytest.raises(ValueError):
        FqContext(3, 2, modulus=(1, 0, 2))  # not monic
    with pytest.raises(ValueError):
        FqContext(3, 2, modulus=(1, 1))  # wrong degree


def test_default_modulus_is_searched_once_per_field(monkeypatch):
    first = FqContext(3, 4)
    calls = []
    is_irreducible = fields._is_irreducible

    def counted(coeffs, p):
        calls.append((tuple(coeffs), p))
        return is_irreducible(coeffs, p)

    monkeypatch.setattr(fields, "_is_irreducible", counted)
    assert FqContext(3, 4) == first
    assert calls == []
    # a custom modulus is checked on its own path, every time
    for _ in range(2):
        assert FqContext(3, 2, modulus=(2, 2, 1)).modulus == (2, 2, 1)
        with pytest.raises(ValueError):
            FqContext(3, 2, modulus=(2, 0, 1))
    assert calls == [((2, 2, 1), 3), ((2, 0, 1), 3)] * 2


def test_explicit_modulus_honored():
    ctx = FqContext(3, 2, modulus=(2, 2, 1))  # x^2 + 2x + 2, irreducible
    g = ctx.gen()
    assert g * g == ctx.element((-2, -2))
    assert ctx.modulus == (2, 2, 1)


def test_code_order_round_trip():
    for p, k in ((3, 1), (3, 2), (5, 2), (3, 3)):
        ctx = FqContext(p, k)
        codes = [int(e) for e in ctx.elements()]
        assert codes == list(range(p**k))
        for code in codes:
            assert int(ctx.decode(code)) == code


@pytest.mark.parametrize("p,k", [(3, 2), (5, 1), (5, 2), (3, 3)])
def test_field_axioms_exhaustive(p, k):
    ctx = FqContext(p, k)
    elems = list(ctx.elements())
    zero, one = ctx.zero(), ctx.one()
    for a in elems:
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        assert a - a == zero
        if not a.is_zero():
            assert a * a.inverse() == one
    for a, b in itertools.product(elems, repeat=2):
        assert a + b == b + a
        assert a * b == b * a
    sample = elems[:: max(1, len(elems) // 6)]
    for a, b, c in itertools.product(sample, repeat=3):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_zero_inverse_raises():
    ctx = FqContext(5, 2)
    with pytest.raises(ZeroDivisionError):
        ctx.zero().inverse()


def test_int_coercion_mod_p():
    ctx = FqContext(5)
    assert ctx.constant(7) == ctx.constant(2)
    assert ctx.constant(-1) == ctx.constant(4)
    a = ctx.constant(3)
    assert a + 4 == ctx.constant(2)
    assert 2 * a == ctx.constant(1)
    assert a - 5 == a


def test_frobenius_is_field_automorphism():
    ctx = FqContext(3, 2)
    elems = list(ctx.elements())
    for a, b in itertools.product(elems, repeat=2):
        assert frobenius(a + b) == frobenius(a) + frobenius(b)
        assert frobenius(a * b) == frobenius(a) * frobenius(b)
    for a in elems:
        assert frobenius(a) == a**3
        assert frobenius(a, 2) == a  # order k
        assert frobenius(a, 5) == frobenius(a, 1)  # exponent mod k
    for c in range(3):
        assert frobenius(ctx.constant(c)) == ctx.constant(c)


def test_freshman_dream():
    ctx = FqContext(5, 2)
    elems = list(ctx.elements())
    for a, b in itertools.product(elems[::3], repeat=2):
        assert (a + b) ** 5 == a**5 + b**5


def test_trace_properties():
    ctx = FqContext(3, 3)
    elems = list(ctx.elements())
    values = set()
    for a in elems:
        t = trace(a)
        assert not any(t.coeffs[1:])  # in the prime field
        assert t == a + a**3 + a**9
        values.add(int(t))
    assert values == {0, 1, 2}  # trace is onto F_p
    for a, b in itertools.product(elems[::4], repeat=2):
        assert trace(a + b) == trace(a) + trace(b)


def test_trace_kernel_size():
    # Tr is p-to-... : kernel has exactly p^(k-1) elements.
    ctx = FqContext(3, 2)
    kernel = [a for a in ctx.elements() if trace(a).is_zero()]
    assert len(kernel) == 3


def test_repr_readable():
    ctx = FqContext(3, 2)
    assert repr(ctx.zero()) == "0"
    assert repr(ctx.one()) == "1"
    assert repr(ctx.gen()) == "g"
    assert repr(ctx.element((1, 2))) == "2*g + 1"


def test_context_mismatch():
    a = FqContext(3).constant(1)
    b = FqContext(5).constant(1)
    with pytest.raises(ContextMismatch):
        a + b
    c = FqContext(3, 2, modulus=(2, 2, 1)).constant(1)
    with pytest.raises(ContextMismatch):
        FqContext(3, 2).constant(1) + c  # same (p, k), different modulus


def test_embed_is_homomorphism():
    src = FqContext(3, 2)
    dst = FqContext(3, 4)
    elems = list(src.elements())
    for a, b in itertools.product(elems[::2], repeat=2):
        assert embed(a + b, dst) == embed(a, dst) + embed(b, dst)
        assert embed(a * b, dst) == embed(a, dst) * embed(b, dst)
    # the embedded generator satisfies the source modulus
    img = embed(src.gen(), dst)
    acc = dst.zero()
    for c in reversed(src.modulus):
        acc = acc * img + c
    assert acc.is_zero()


def test_embed_constants_and_errors():
    f3, f9, f27 = FqContext(3), FqContext(3, 2), FqContext(3, 3)
    for c in range(3):
        assert embed(f3.constant(c), f9) == f9.constant(c)
    with pytest.raises(ContextMismatch):
        embed(FqContext(5).constant(1), f9)  # wrong characteristic
    with pytest.raises(ContextMismatch):
        embed(f9.gen(), f27)  # 2 does not divide 3


def test_elements_cap():
    ctx = FqContext(3, 13)  # ~1.6M elements, over the default cap
    with pytest.raises(CapExceeded):
        list(ctx.elements())


def test_element_methods():
    # The operations behind the removed fq_* / frobenius / trace /
    # enumerate_elements spellings, on values worked by hand in
    # F_9 = F_3[g]/(g^2 + 1) with a = 2 + g (code 5), b = 1 + 2g (code 7).
    ctx = FqContext(3, 2)
    a, b = ctx.decode(5), ctx.decode(7)
    assert (a + b).coeffs == (0, 0)
    assert (a - b).coeffs == (1, 2)
    assert (a * b).coeffs == (0, 2)  # 2 + 5g + 2g^2 = 2g
    assert (-a).coeffs == (1, 2)
    assert a.inverse().coeffs == (1, 1)  # (2 + g)(1 + g) = 1 + 3g = 1
    assert a * a.inverse() == ctx.one()
    assert frobenius(a).coeffs == (2, 2)  # (2 + g)^3 = 8 + g^3 = 2 - g
    assert frobenius(a) == a**3
    assert trace(a) == ctx.one()  # (2 + g) + (2 - g) = 4
    assert [int(e) for e in ctx.elements()] == list(range(9))


def test_eq_hash_contract_with_ints():
    # 1 and 6 both map to one in F_5, so no hash could agree with an
    # int-coercing ==; elements never equal ints
    ctx = FqContext(5)
    assert ctx.one() != 1
    assert not (ctx.one() == 1)
    assert ctx.one() not in {1}
    assert len({ctx.one(), ctx.constant(6)}) == 1
    assert ctx.constant(6) == ctx.one()


# ---------------------------------------------------------------------------
# The integer code tables, checked against element arithmetic.


def check_code_tables(ctx):
    exp, log, zech = code_tables(ctx)
    q = ctx.order
    n = q - 1
    assert len(exp) == 2 * n and len(log) == q and len(zech) == n
    # exp is a bijection onto the nonzero codes, doubled; log inverts it
    assert sorted(exp[:n]) == list(range(1, q))
    assert exp[n:] == exp[:n]
    assert log[0] is None
    assert all(log[exp[i]] == i for i in range(n))
    # successive powers of the generator, by element arithmetic
    g = ctx.decode(exp[1])
    one = ctx.one()
    for i in range(n):
        a = ctx.decode(exp[i])
        assert exp[i + 1] == int(a * g)
        s = a + one
        assert zech[i] == (None if s.is_zero() else log[int(s)])
    # 1 + g^i = 0 exactly at g^i = -1
    assert [i for i in range(n) if zech[i] is None] == [n // 2]
    # g is the first primitive element in code order
    assert all(math.gcd(log[c], n) > 1 for c in range(2, exp[1]))


FIELDS_TO_2_10 = odd_prime_powers(1 << 10)


def test_code_tables_field_count():
    # every field whose q^2 scan fits the default cap 2^20
    assert len(FIELDS_TO_2_10) == 188


@pytest.mark.parametrize("p,k", FIELDS_TO_2_10)
def test_code_tables_match_element_arithmetic(p, k):
    check_code_tables(FqContext(p, k))


@pytest.mark.parametrize(
    "p,k,modulus", [(3, 2, (2, 1, 1)), (5, 2, (2, 1, 1)), (3, 3, (2, 2, 0, 1))]
)
def test_code_tables_non_default_modulus(p, k, modulus):
    ctx = FqContext(p, k, modulus)
    assert ctx.modulus != FqContext(p, k).modulus
    check_code_tables(ctx)
    assert code_tables(ctx) != code_tables(FqContext(p, k))


def element_first_primitive(ctx):
    """The generator search on element powers, as code_tables did it
    before it moved to coefficient lists."""
    n = ctx.order - 1
    factors = [r for r in range(2, n + 1) if n % r == 0 and is_prime(r)]
    one = ctx.one()
    for code in range(2, ctx.order):
        el = ctx.decode(code)
        if all(el ** (n // r) != one for r in factors):
            return el
    raise RuntimeError(f"no primitive element in {ctx!r}")


def element_code_tables(ctx):
    """code_tables built with one element product per exp entry: the
    reference for the digit-vector stepping."""
    q, p = ctx.order, ctx.p
    n = q - 1
    gen = element_first_primitive(ctx)
    exp = [0] * (2 * n)
    log = [None] * q
    cur = ctx.one()
    for i in range(n):
        code = int(cur)
        exp[i] = exp[i + n] = code
        log[code] = i
        cur = cur * gen
    zech = tuple(log[c + 1 if c % p != p - 1 else c + 1 - p] for c in exp[:n])
    return tuple(exp), tuple(log), zech


@pytest.mark.parametrize(
    "p,k,modulus", list(CUSTOM_MODULI) + [(3, 7, None), (5, 5, None), (1031, 1, None)]
)
def test_code_tables_match_element_builder(p, k, modulus):
    ctx = FqContext(p, k, modulus)
    assert fields._first_primitive(ctx) == int(element_first_primitive(ctx))
    assert tuple(code_tables(ctx)) == element_code_tables(ctx)


def test_code_tables_build_without_element_products(monkeypatch):
    def no_product(self, other):
        raise AssertionError("FqElement.__mul__ called while building code tables")

    contexts = [FqContext(p, k, modulus) for p, k, modulus in CUSTOM_MODULI]
    contexts += [FqContext(13, 2), FqContext(7, 3), FqContext(31)]
    monkeypatch.setattr(FqElement, "__mul__", no_product)
    monkeypatch.setattr(FqElement, "__rmul__", no_product)
    for ctx in contexts:
        # __wrapped__ builds afresh, bypassing the per-context cache
        code_tables.__wrapped__(ctx)
    # the patch does catch the element builder
    with pytest.raises(AssertionError, match="__mul__"):
        element_code_tables(contexts[-2])


@pytest.mark.parametrize(
    "p,k,modulus", [(p, k, None) for p, k in odd_prime_powers(3**5)] + list(CUSTOM_MODULI)
)
def test_field_axioms_frobenius_and_trace_sampled(p, k, modulus):
    ctx = FqContext(p, k, modulus)
    rng = seeded_rng(ctx.order + len(modulus or ()))
    zero, one = ctx.zero(), ctx.one()
    sample = [zero, one, ctx.constant(-1)] + [ctx.decode(rng.randrange(ctx.order)) for _ in range(5)]
    for a in sample:
        assert a + zero == a and a * one == a and a * zero == zero
        assert a + (-a) == zero and a - a == zero
        if not a.is_zero():
            assert a * a.inverse() == one
        # Frobenius is x -> x^p, and its k-th power is the identity
        assert frobenius(a) == a**p and a ** ctx.order == a
        tr = trace(a)
        assert not any(tr.coeffs[1:])  # lands in F_p
        assert tr == sum((a ** p**i for i in range(1, k)), a)
    for a, b, c in itertools.product(sample, repeat=3):
        assert a + b == b + a and a * b == b * a
        assert (a + b) + c == a + (b + c) and (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for a, b in itertools.product(sample, repeat=2):
        assert frobenius(a + b) == frobenius(a) + frobenius(b)
        assert frobenius(a * b) == frobenius(a) * frobenius(b)
        assert trace(a + b) == trace(a) + trace(b)
    # order exactly k: the generator's k conjugates are distinct
    g = ctx.gen() if k > 1 else one
    conjugates = [g ** p**i for i in range(k)]
    assert len(set(conjugates)) == k and conjugates[-1] ** p == g


def test_power_squares_no_more_than_the_exponent_needs(monkeypatch):
    # square-and-multiply for e = 2: one squaring, one product into the
    # running result, and no squaring after the last exponent bit
    ctx = FqContext(3, 2)
    a = ctx.decode(5)
    want = {e: ctx.one() for e in range(12)}
    for e in range(1, 12):
        want[e] = want[e - 1] * a
    calls = []
    mul = FqElement.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(FqElement, "__mul__", counted)
    assert a**2 == want[2]
    assert len(calls) == 2
    assert all(a**e == want[e] for e in range(12))
    assert a**-3 == a.inverse() ** 3


def test_ppowmod_squares_no_more_than_the_exponent_needs(monkeypatch):
    # g^e mod g^2 + 1 over F_3, the modulus of the default F_9: for
    # e = 2 one squaring and one product, none after the last bit
    mod, p = [1, 0, 1], 3
    want = [[1]]
    for _ in range(12):
        want.append(fields._pmod(fields._pmul(want[-1], [0, 1], p), mod, p))
    calls = []
    pmul = fields._pmul

    def counted(a, b, q):
        calls.append(1)
        return pmul(a, b, q)

    monkeypatch.setattr(fields, "_pmul", counted)
    assert _ppowmod([0, 1], 2, mod, p) == want[2]
    assert len(calls) == 2
    assert all(_ppowmod([0, 1], e, mod, p) == want[e] for e in range(13))


# ---------------------------------------------------------------------------
# The row-root finder: closed forms for degree <= 2 against the Horner
# scan over every nonzero value.


def horner_roots(row, tables):
    """Roots of a row by trying every log, plus 0 iff the constant term
    is zero: the scan that rows of degree >= 3 still use."""
    exp, _, zech = tables
    n = len(zech)
    if all(c is None for c in row):
        return list(range(n + 1))
    found = sorted(exp[ly] for ly in _vanishing_logs(row, range(n), zech))
    return [0] + found if row[-1] is None else found


def row_of(ctx, *coeffs):
    """The coefficient-log row of the given coefficients, highest power
    first; an int stands for the F_p constant it names."""
    log = code_tables(ctx).log
    return [log[int(ctx.constant(c) if isinstance(c, int) else c)] for c in coeffs]


ROW_FIELDS = [(3, 1, None), (5, 1, None), (7, 1, None), (3, 2, None), (5, 2, None), (3, 3, None)]


@pytest.mark.parametrize("p,k,modulus", ROW_FIELDS + list(CUSTOM_MODULI))
def test_row_roots_match_horner_on_every_short_row(p, k, modulus):
    # every row of 1 to 3 entries, each a log or None: degrees 0 to 2
    # after leading Nones, with every zero discriminant, b = 0 and c = 0
    ctx = FqContext(p, k, modulus)
    tables = code_tables(ctx)
    entries = [None] + list(range(ctx.order - 1))
    for length in (1, 2, 3):
        for row in itertools.product(entries, repeat=length):
            row = list(row)
            assert list(_row_roots(row, tables)) == horner_roots(row, tables), row


@pytest.mark.parametrize("p,k", [(11, 2), (13, 2), (3, 6), (1021, 1)])
def test_row_roots_match_horner_on_seeded_rows(p, k):
    ctx = FqContext(p, k)
    tables = code_tables(ctx)
    n = ctx.order - 1
    rng = seeded_rng(ctx.order)
    rows = []
    for _ in range(200):
        length = rng.randint(1, 3)
        rows.append([None if rng.random() < 0.2 else rng.randrange(n) for _ in range(length)])
    # a*(y - r)*(y - s): double roots (r = s), b = 0 (s = -r), c = 0 (s = 0)
    for _ in range(50):
        a = ctx.decode(rng.randrange(1, ctx.order))
        r = ctx.decode(rng.randrange(ctx.order))
        for s in (r, -r, ctx.zero(), ctx.decode(rng.randrange(ctx.order))):
            rows.append(row_of(ctx, a, -a * (r + s), a * r * s))
            assert sorted({int(r), int(s)}) == list(_row_roots(rows[-1], tables))
    for row in rows:
        assert list(_row_roots(row, tables)) == horner_roots(row, tables), row


@pytest.mark.parametrize(
    "p,coeffs,roots",
    [
        (3, (1, 0, 2), [1, 2]),  # y^2 - 1: b = 0
        (3, (1, 1, 0), [0, 2]),  # y^2 + y = y(y + 1): c = 0
        (3, (1, 2, 1), [2]),  # (y + 1)^2: D = 0, and 2 = -1, 4 = 1
        (3, (1, 0, 1), []),  # y^2 + 1: -1 is no square in F_3
        (3, (2, 0, 1), [1, 2]),  # 2y^2 + 1 = -(y^2 - 1): a = 2 = -1
        (5, (2, 3, 1), [2, 4]),  # (2y + 1)(y + 1): the 2a denominator
        (5, (1, 0, 3), []),  # y^2 + 3: D = -12 = 3 has odd log
        (7, (3, 1), [2]),  # 3y + 1: the root -1/3 = 2 needs log(-1)
        (7, (0, 0, 3, 1), [2]),  # leading zeros do not count as degree
        (7, (4,), []),  # a nonzero constant has no roots
        (7, (0, 0), list(range(7))),  # the zero row vanishes everywhere
    ],
)
def test_row_roots_by_hand(p, coeffs, roots):
    ctx = FqContext(p)
    assert list(_row_roots(row_of(ctx, *coeffs), code_tables(ctx))) == roots
