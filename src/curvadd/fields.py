"""Exact arithmetic in prime fields F_p and extensions F_{p^k}.

An element of F_{p^k} is held as its code, one int: the element
c_0 + c_1 g + ... + c_{k-1} g^{k-1}, with g a root of a monic
irreducible modulus polynomial of degree k over F_p, has the code
sum(c_i * p^i).  The constants of F_p are their own codes, and the
digits c_i are a view, decoded when arithmetic over F_{p^k} needs
them.  Every operation is exact integer arithmetic; nothing here
touches floating point.

The modulus can be supplied explicitly (coefficients low to high,
including the leading 1) or found deterministically: the search takes
the monic irreducible polynomial whose non-leading coefficients form the
smallest code.  For k = 1 the modulus is the polynomial g itself.

Contexts and elements are immutable and hashable.  FqContext.coerce
is the one rule for what belongs to a field: an int is its constant, an
element of an equal context is itself, one of another context raises
ContextMismatch rather than guessing an embedding, and anything else is
a TypeError.  Every binary operator of FqElement, and of UniPoly,
RationalFunction and SparsePoly in poly, goes through _coerced, which
declines an operand of an unrelated type with NotImplemented.  Each of
the four defines +, unary -, * and, for FqElement and RationalFunction,
inverse(); the operators derived from those are written once, in
_RingOps and _FieldOps.
"""

from functools import lru_cache, wraps
from itertools import zip_longest
from operator import index, mul

from .caps import check_cap
from .errors import ContextMismatch, Frozen

# Largest prime accepted for p.  Keeps p inside the range where the
# fixed Miller-Rabin base set below is a proven primality certificate.
MAX_PRIME = (1 << 63) - 1

# Witness set proven deterministic for n < 318665857834031151167461
# (about 3.2 * 10^23), well above MAX_PRIME.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic primality test for 0 <= n <= MAX_PRIME."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_pk(p, k):
    """Validate field parameters: p an odd prime <= MAX_PRIME, k >= 1.
    Returns them as ints; raises TypeError for a value that is not an
    integer (operator.index) and ValueError otherwise."""
    p, k = index(p), index(k)
    if p < 3 or p % 2 == 0:
        raise ValueError(f"p must be an odd prime, got {p}")
    if p > MAX_PRIME:
        raise ValueError(f"p too large: {p} > {MAX_PRIME}")
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return p, k


def _coerced(op):
    """The operand rule of every binary operator of the value types:
    the operand goes through the type's _coerce first, and an operand
    it gives None for is declined with NotImplemented, so Python tries
    the other side or raises TypeError.  _coerce raises ContextMismatch
    for an element of another field (FqContext.coerce), or an operand
    of the same kind over another context or domain."""

    @wraps(op)
    def method(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return op(self, other)

    return method


class _RingOps:
    """The operators a ring's value type derives from its own _coerce,
    __add__, __neg__, __mul__ and _one (the value 1): reflected sums and
    products, and differences both ways round.  A reflected operator
    calls the type's own dunder, not the operator, which would hand a
    pair of types that decline each other back and forth until
    RecursionError instead of TypeError."""

    __slots__ = ()

    def __radd__(self, other):
        return self.__add__(other)

    def __rmul__(self, other):
        return self.__mul__(other)

    @_coerced
    def __sub__(self, other):
        return self + -other

    @_coerced
    def __rsub__(self, other):
        return other - self

    def __pow__(self, e):
        """self**e for an int e >= 0 by square-and-multiply; the base is
        not squared after the last exponent bit."""
        e = index(e)
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result, base = self._one(), self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result


class _FieldOps(_RingOps):
    """_RingOps for a field's value type, which adds inverse():
    quotients both ways round, and a negative power as a power of the
    inverse."""

    __slots__ = ()

    @_coerced
    def __truediv__(self, other):
        return self * other.inverse()

    @_coerced
    def __rtruediv__(self, other):
        return other * self.inverse()

    def __pow__(self, e):
        e = index(e)
        return self.inverse() ** -e if e < 0 else super().__pow__(e)


def _render_sum(terms):
    """The sum of (coefficient text, monomial text) pairs, in the given
    order, as every polynomial and element in the package prints it.
    An empty monomial is a constant term, written as its coefficient.
    Otherwise a coefficient "1" is dropped and one containing "+" is
    parenthesised.  A term after the first that starts with "-" is
    written as a subtraction; no terms at all is "0"."""
    out = ""
    for coeff, monomial in terms:
        if not monomial:
            term = coeff
        elif coeff == "1":
            term = monomial
        else:
            term = f"({coeff})*{monomial}" if "+" in coeff else f"{coeff}*{monomial}"
        if not out:
            out = term
        elif term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out or "0"


def _code_str(ctx, code):
    """The repr of the element with this code, without building it."""
    return _render_sum(_dense_terms(_digits(code, ctx.p, ctx.k), "g"))


def _dense_terms(coeffs, var):
    """The (coefficient text, monomial text) pairs of a dense polynomial
    in var with coefficients low to high, highest power first, zero
    coefficients left out."""
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i]:
            yield str(coeffs[i]), "" if i == 0 else var if i == 1 else f"{var}^{i}"


def _digits(code, p, k):
    """The k base-p digits of an element code, low to high: the
    coefficients of the element it encodes (see FqElement)."""
    if k == 1:
        return (code,)
    out = []
    for _ in range(k):
        code, digit = divmod(code, p)
        out.append(digit)
    return tuple(out)


# ---------------------------------------------------------------------------
# Coefficient-list polynomial helpers over F_p.  Lists are low-to-high
# and trimmed; [] is the zero polynomial.  These are private plumbing
# for modulus handling, element inversion and UniPoly's arithmetic over
# prime fields (poly._PrimeFieldDomain); _mac and _convolve, on
# unreduced ints, also serve Q and the digit vectors below.


def _trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _mac(acc, a, b):
    """Add the product of int lists a and b into acc, unreduced."""
    for s, x in enumerate(a):
        if x:
            for t, y in enumerate(b, s):
                acc[t] += x * y


def _convolve(a, b):
    """The product of int lists a and b, unreduced."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    _mac(out, a, b)
    return out


def _psub(a, b, p):
    return _trim([(x - y) % p for x, y in zip_longest(a, b, fillvalue=0)])


def _pmul(a, b, p):
    return _trim([x % p for x in _convolve(a, b)])


def _pdivmod(a, b, p):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = a[:]
    inv_lead = pow(b[-1], -1, p)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    while len(a) - 1 >= db and a:
        shift = len(a) - 1 - db
        factor = a[-1] * inv_lead % p
        q[shift] = factor
        for i, bv in enumerate(b):
            a[shift + i] = (a[shift + i] - factor * bv) % p
        _trim(a)
    return _trim(q), a


def _pmod(a, b, p):
    return _pdivmod(a, b, p)[1]


def _pgcd(a, b, p):
    """A gcd, not made monic: the irreducibility test reads its degree."""
    while b:
        a, b = b, _pmod(a, b, p)
    return a


def _ppowmod(base, e, mod, p):
    result = [1]
    base = _pmod(base, mod, p)
    while e:
        if e & 1:
            result = _pmod(_pmul(result, base, p), mod, p)
        e >>= 1
        if e:
            base = _pmod(_pmul(base, base, p), mod, p)
    return result


def _is_irreducible(coeffs, p):
    """Irreducibility of a monic polynomial over F_p.

    f of degree k is irreducible iff gcd(f, g^(p^i) - g) = 1 for every
    1 <= i <= k // 2 (any factor of degree d <= k/2 would divide one of
    those) and f has no repeated structure to worry about beyond that.
    """
    f = list(coeffs)
    k = len(f) - 1
    if k < 1:
        return False
    if k == 1:
        return True
    if f[0] == 0:
        return False  # divisible by g
    x = [0, 1]
    xq = x
    for _ in range(k // 2):
        xq = _ppowmod(xq, p, f, p)
        if len(_pgcd(_psub(xq, x, p), f, p)) != 1:
            return False
    return True


@lru_cache(maxsize=None)
def _find_modulus(p, k):
    """Smallest monic irreducible degree-k modulus, by the integer
    encoding sum(c_i * p^i) of the non-leading coefficients; searched
    once per (p, k), as every default FqContext of F_{p^k} needs it.
    For k = 1 that is g itself, at code 0."""
    for code in range(p**k):
        coeffs = _digits(code, p, k) + (1,)
        if _is_irreducible(coeffs, p):
            return coeffs
    raise RuntimeError(f"no irreducible modulus found for p={p}, k={k}")


# ---------------------------------------------------------------------------
# Digit vectors: the arithmetic of F_{p^k} on the k digits of a code,
# low to high (_digits, _encode).  Products are summed unreduced (_mac)
# and reduced by the monic modulus once (_vreduce).


def _encode(digits, p):
    """The code sum(d_i * p^i) of digits in [0, p), low to high."""
    code = 0
    for d in reversed(digits):
        code = code * p + d
    return code


def _vreduce(v, modulus, p):
    """The k digits of sum(v_i g^i) for an int list v of any length,
    entries unreduced: g^m, m >= k, folded down by the modulus from the
    top.  Consumes v."""
    k = len(modulus) - 1
    for m in range(len(v) - 1, k - 1, -1):
        c = v[m] % p
        if c:
            for i in range(k):
                v[m - k + i] -= c * modulus[i]
    return [x % p for x in v[:k]] + [0] * (k - len(v))


def _vmul(a, b, modulus, p):
    return _vreduce(_convolve(a, b), modulus, p)


def _vinv(a, modulus, p):
    """The digits of 1/a, a nonzero: the extended Euclid against the
    modulus, whose gcd with a is a constant as it is irreducible."""
    r0, r1 = list(modulus), _trim(list(a))
    s0, s1 = [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(s0, _pmul(q, s1, p), p)
    inv_c = pow(r0[0], -1, p)
    return _vreduce([v * inv_c for v in s0], modulus, p)


# ---------------------------------------------------------------------------


class FqContext(Frozen):
    """A concrete presentation of F_{p^k}.  A Frozen value: its fields
    are p, k, the modulus and the order p^k, and two contexts are equal
    iff they share p, k and the modulus, so elements from equal
    contexts mix freely.
    """

    __slots__ = ("p", "k", "modulus", "order")

    def __init__(self, p, k=1, modulus=None):
        p, k = check_pk(p, k)
        if modulus is None:
            modulus = _find_modulus(p, k)
        else:
            modulus = tuple(index(c) % p for c in modulus)
            if len(modulus) != k + 1:
                raise ValueError(
                    f"modulus needs {k + 1} coefficients (degree {k}), "
                    f"got {len(modulus)}"
                )
            if modulus[-1] != 1:
                raise ValueError("modulus must be monic")
            if k == 1:
                if modulus != (0, 1):
                    raise ValueError(
                        "for k = 1 the modulus must be [0, 1], i.e. g itself"
                    )
            elif not _is_irreducible(list(modulus), p):
                raise ValueError(
                    f"modulus {list(modulus)} is reducible over F_{p}"
                )
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "order", p**k)

    def __repr__(self):
        if self.k == 1:
            return f"FqContext(p={self.p})"
        return f"FqContext(p={self.p}, k={self.k}, modulus={list(self.modulus)})"

    def coerce(self, value):
        """The element of this field that an operand or coefficient
        stands for: an int is the constant it names, and an element of
        an equal context is itself.  An element of another context
        raises ContextMismatch, and anything else TypeError."""
        if isinstance(value, FqElement):
            if value.ctx != self:
                raise ContextMismatch(f"element of {value.ctx!r} used in {self!r}")
            return value
        if isinstance(value, int):
            return self.constant(value)
        raise TypeError(f"cannot use {value!r} as an element of {self!r}")

    # -- element constructors ------------------------------------------------

    def element(self, coeffs):
        """Element from a coefficient sequence (low to high, length <= k)."""
        coeffs = [index(c) % self.p for c in coeffs]
        if len(coeffs) > self.k:
            raise ValueError(
                f"too many coefficients: {len(coeffs)} > k = {self.k}"
            )
        return FqElement(self, _encode(coeffs, self.p))

    def constant(self, c):
        """The image of the integer c under F_p -> F_{p^k}."""
        return FqElement(self, index(c) % self.p)

    def zero(self):
        return FqElement(self, 0)

    def one(self):
        return FqElement(self, 1)

    def gen(self):
        """The generator g (root of the modulus).  Undefined for k = 1."""
        if self.k == 1:
            raise ValueError("F_p has no extension generator; g needs k >= 2")
        return FqElement(self, self.p)

    def decode(self, code):
        """The element whose code is int(code) (see FqElement)."""
        code = index(code)
        if not 0 <= code < self.order:
            raise ValueError(f"code {code} out of range [0, {self.order})")
        return FqElement(self, code)

    def elements(self):
        """All field elements in code order (0, 1, ..., p-1, g, 1+g, ...)."""
        check_cap(f"enumerating F_{self.p}^{self.k}", self.order)
        for code in range(self.order):
            yield FqElement(self, code)


class FqElement(Frozen, _FieldOps):
    """An element of an FqContext, held as its code: a Frozen value
    whose fields are ctx and code.  int(x) is the code, which defines
    the canonical enumeration order, and coeffs is its digits.

    Integers coerce to constants on the prime subfield, so ``x + 1`` and
    ``3 * x`` work; comparison does not coerce, so ``x == 1`` is always
    False (use ``x == ctx.one()``).
    """

    __slots__ = ("ctx", "code")

    # the hot path: stores the slots through their descriptors (below)
    def __init__(self, ctx, code):
        _set_ctx(self, ctx)
        _set_code(self, code)

    @property
    def coeffs(self):
        ctx = self.ctx
        return _digits(self.code, ctx.p, ctx.k)

    def __bool__(self):
        return self.code != 0

    def is_zero(self):
        return not self.code

    def __int__(self):
        return self.code

    def __repr__(self):
        return _code_str(self.ctx, self.code)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        try:
            return self.ctx.coerce(other)
        except TypeError:
            return None

    @_coerced
    def __add__(self, other):
        ctx = self.ctx
        if ctx.k == 1:
            return FqElement(ctx, (self.code + other.code) % ctx.p)
        pairs = zip(self.coeffs, other.coeffs)
        return FqElement(ctx, _encode([(x + y) % ctx.p for x, y in pairs], ctx.p))

    def __neg__(self):
        ctx = self.ctx
        if ctx.k == 1:
            return FqElement(ctx, -self.code % ctx.p)
        return FqElement(ctx, _encode([-d % ctx.p for d in self.coeffs], ctx.p))

    @_coerced
    def __mul__(self, other):
        ctx = self.ctx
        if ctx.k == 1:
            return FqElement(ctx, self.code * other.code % ctx.p)
        return FqElement(ctx, _encode(_vmul(self.coeffs, other.coeffs, ctx.modulus, ctx.p), ctx.p))

    def _one(self):
        return self.ctx.one()

    def inverse(self):
        if not self.code:
            raise ZeroDivisionError("inverse of zero")
        ctx = self.ctx
        if ctx.k == 1:
            return FqElement(ctx, pow(self.code, -1, ctx.p))
        return FqElement(ctx, _encode(_vinv(self.coeffs, ctx.modulus, ctx.p), ctx.p))


_set_ctx = FqElement.ctx.__set__
_set_code = FqElement.code.__set__


# ---------------------------------------------------------------------------
# Integer code tables: the one arithmetic kernel of the point scans, the
# row-root finder they and the embedding share, and the exhaustive oracle.


class CodeTables(Frozen):
    """Discrete-log tables of a context over element codes, read by
    field name.

    With g the first primitive element in code order and n = q - 1:
    exp[i] is the code of g^i for 0 <= i < n, read at logs reduced
    mod n; log[c] is the log of the element with code c; zech[i] is
    Zech's logarithm log(1 + g^i).
    None stands for the log of zero: log[0] is None, and zech[i] is
    None exactly at i = n/2, where g^i = -1.

    In logs, a product is a sum, and g^a + g^b = g^a * (1 + g^(b-a))
    has log a + zech[(b - a) % n], so polynomials evaluate on logs with
    no element arithmetic at all (Huber, "Some comments on Zech's
    logarithms", IEEE Trans. IT 36(4), 1990): the row scans, the
    embedding root and the exhaustive oracle's row reductions all run
    on them, and code_tables builds them on integers alone.
    """

    exp: tuple
    log: tuple
    zech: tuple


def _first_primitive(ctx):
    """The code of the first element in code order whose powers fill
    F_q^*: the first whose (n/r)-th power is not 1 for any prime r
    dividing n = q - 1.  The powers are taken by pow mod p when k = 1
    and by _ppowmod on coefficient lists modulo the modulus otherwise,
    with no element arithmetic."""
    p, k = ctx.p, ctx.k
    n = ctx.order - 1
    cofactors = []
    rest = n
    f = 2
    while f * f <= rest:
        if rest % f == 0:
            cofactors.append(n // f)
            while rest % f == 0:
                rest //= f
        f += 1
    if rest > 1:
        cofactors.append(n // rest)
    if k == 1:
        for code in range(2, p):
            if all(pow(code, e, p) != 1 for e in cofactors):
                return code
    modulus = list(ctx.modulus)
    # codes below p are the constants, whose orders divide p - 1 < n
    for code in range(p, ctx.order):
        if all(
            _ppowmod(_trim(list(_digits(code, p, k))), e, modulus, p) != [1]
            for e in cofactors
        ):
            return code
    raise RuntimeError(f"no primitive element in {ctx!r}")


@lru_cache(maxsize=32)
def code_tables(ctx):
    """The CodeTables of ctx, built on first use and cached per context
    (tuples, since every caller shares them): O(q) entries, so callers
    check their caps before asking.  Only the 32 contexts used last stay
    cached, so the tables of every field a process met do not.

    Multiplying by the generator g is F_p-linear on coefficient
    vectors, so each power g^(i+1) is the k x k matrix of that map
    (column j: the digits of g * x^j reduced by the modulus) applied to
    the digits of g^i, and each entry costs k dot products mod p, with
    no element arithmetic; for k = 1 it is one product mod p."""
    q, p, k = ctx.order, ctx.p, ctx.k
    n = q - 1
    gen = _first_primitive(ctx)
    exp = [0] * n
    log = [None] * q
    if k == 1:
        code = 1
        for i in range(n):
            exp[i] = code
            log[code] = i
            code = code * gen % p
    else:
        g = list(_digits(gen, p, k))
        rows = list(zip(*[_vreduce([0] * j + g, ctx.modulus, p) for j in range(k)]))
        weights = [p**i for i in range(k)]
        digits = [1] + [0] * (k - 1)
        for i in range(n):
            code = sum(map(mul, digits, weights))
            exp[i] = code
            log[code] = i
            digits = [sum(map(mul, row, digits)) % p for row in rows]
    # adding 1 changes only the lowest base-p digit of a code
    zech = tuple(log[code + 1 if code % p != p - 1 else code + 1 - p] for code in exp)
    return CodeTables(tuple(exp), tuple(log), zech)


def _vanishing_logs(row, lys, zech):
    """The logs among `lys`, in order, of the nonzero values at which a
    row of coefficient logs (highest power first, None for a zero
    coefficient) vanishes: Horner's rule on logs, one Zech lookup per
    step.  The zero row vanishes at every one of them."""
    n = len(zech)
    start = 0
    while start < len(row) and row[start] is None:
        start += 1
    if start == len(row):
        return list(lys)
    top, rest = row[start], row[start + 1 :]
    found = []
    for ly in lys:
        acc = top
        for c in rest:
            if acc is None:
                acc = c
                continue
            acc += ly
            if c is not None:
                z = zech[(c - acc) % n]
                acc = None if z is None else acc + z
        if acc is None:
            found.append(ly)
    return found


def _row_roots(row, tables):
    """The codes of the roots, in code order, of a row of coefficient
    logs (highest power first, None for a zero coefficient).  The zero
    row vanishes everywhere, so its roots are all codes.

    Rows of degree <= 2 are solved, not scanned.  With n = q - 1 and
    h = n/2 the log of -1 (q is odd), a*y + b has its root at log
    b - a + h.  a*y^2 + b*y + c has the roots (-b +- sqrt(D)) / (2a),
    D = b^2 - 4ac built with one Zech lookup: one double root when
    D = 0, none when log D is odd, and otherwise the square roots
    g^(l/2) and g^(l/2 + h) of D = g^l give two, with one Zech lookup
    each.  Higher degrees try every nonzero value by _vanishing_logs.
    Throughout, 0 is a root iff the constant term is zero.
    """
    exp, log, zech = tables.exp, tables.log, tables.zech
    n = len(zech)
    start = 0
    while start < len(row) and row[start] is None:
        start += 1
    degree = len(row) - 1 - start
    if degree < 0:
        return range(n + 1)
    if degree > 2:
        found = sorted(exp[ly] for ly in _vanishing_logs(row, range(n), zech))
        return [0] + found if row[-1] is None else found
    if degree == 0:
        return []
    h = n // 2
    if degree == 1:
        a, b = row[start:]
        return [0] if b is None else [exp[(b - a + h) % n]]
    a, b, c = row[start:]
    l2 = log[2]
    over_2a = -l2 - a
    minus_4ac = None if c is None else 2 * l2 + a + c + h
    if b is None:
        ld = minus_4ac
    elif minus_4ac is None:
        ld = 2 * b
    else:
        z = zech[(minus_4ac - 2 * b) % n]
        ld = None if z is None else 2 * b + z
    if ld is None:  # D = 0: the double root -b/(2a)
        return [0] if b is None else [exp[(b + h + over_2a) % n]]
    if ld % 2:  # n is even, so the parity of log D is well defined
        return []
    roots = []
    for s in (ld // 2, ld // 2 + h):
        if b is None:
            num = s
        else:  # -b + g^s = g^(b+h) * (1 + g^(s-b-h))
            z = zech[(s - b - h) % n]
            num = None if z is None else b + h + z
        roots.append(0 if num is None else exp[(num + over_2a) % n])
    return sorted(roots)


# ---------------------------------------------------------------------------
# Embeddings between contexts over the same prime.


@lru_cache(maxsize=32)
def _embedding_root(src, dst):
    """First root (code order) of src's modulus inside dst, found by
    _row_roots on dst's code tables: the modulus's coefficients are F_p
    constants, whose codes are themselves.  Cached for the 32 pairs
    used last."""
    if src.p != dst.p:
        raise ContextMismatch(
            f"no embedding between characteristics {src.p} and {dst.p}"
        )
    if dst.k % src.k != 0:
        raise ContextMismatch(
            f"F_{src.p}^{src.k} does not embed in F_{dst.p}^{dst.k}"
        )
    tables = code_tables(dst)
    roots = _row_roots([tables.log[c] for c in reversed(src.modulus)], tables)
    if not roots:
        raise RuntimeError("embedding root not found; irreducibility is broken")
    return dst.decode(roots[0])


def embed(a, dst):
    """Embed an element into a larger context over the same prime.

    The embedding sends the source generator to the first root of the
    source modulus in the destination (in code order), so it is
    deterministic.  Finding that root needs the destination's O(q) code
    tables; the root is cached per context pair and capped.
    """
    if a.ctx == dst:
        return a
    check_cap("embedding root scan", dst.order)
    root = _embedding_root(a.ctx, dst)
    acc = dst.zero()
    for c in reversed(a.coeffs):
        acc = acc * root + c
    return acc
