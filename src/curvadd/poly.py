"""Exact polynomial and rational-function arithmetic, plus the
expression parser for curve definitions.

Three layers live here:

* UniPoly: univariate polynomials with coefficients in a *domain*,
  which is either the rationals (stdlib Fraction, arbitrary precision)
  or a finite field context.  The zero polynomial has degree -infinity,
  held as the float sentinel NEG_INF.  A polynomial holds its
  coefficients in the domain's kernel form, and the domain runs the
  arithmetic on it: over QQ integer numerators over one common
  denominator (pseudo-division and the primitive remainder sequence),
  over a finite field the element codes, as int lists over F_p and as
  digit vectors over F_{p^k}.  Fractions and FqElements appear only at
  the edges: the constructor packs them, coeffs, coeff and leading
  build them.
* RationalFunction: quotients of UniPoly over the same domain, always
  in canonical form (coprime, monic denominator).  The constructor
  reduces an arbitrary pair by their full gcd; the operations start
  from canonical operands and cancel only factors they can share
  (Henrici's cross-cancellation), so inverse, powers and composition
  need no gcd at all.
* SparsePoly: sparse polynomials in x and y over a finite field
  context, the curve-defining polynomials.  Terms map exponent pairs
  to nonzero coefficient codes; substituting a value for one variable
  gives a UniPoly in the other.

All three take operands by the one rule of fields._coerced, and take
their derived operators (subtraction, reflected + and *, powers, the
quotients of RationalFunction) from fields._RingOps and _FieldOps;
UniPoly's quotient builds a RationalFunction, RationalFunction**e is
num**e / den**e, and SparsePoly has no quotient.  Every
field element they meet, operand or coefficient, goes through
FqContext.coerce: an int is a constant, an unrelated operand is declined
with NotImplemented, and an element or value of their own kind over
another field or domain raises ContextMismatch.  field_domain gives one
domain per field, and copy and pickle keep it.

The expression grammar, shared by the parser and the renderer:

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := uint | <variable> | 'g' | '(' expr ')'

The variables are x and y; 'g' is the extension-field generator
and is rejected when k = 1; integer literals reduce mod p; whitespace
is ignored; the leading '-' is sugar for multiplying the first term by
p - 1.  Parentheses nest at most MAX_NESTING deep, and a power or
product whose total degree would exceed MAX_DEGREE is refused at its
'^' or '*' before it expands.  Parse errors carry the 0-based
character position of the offending input.
"""

import math
import operator
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from types import MappingProxyType

from .errors import ContextMismatch, Frozen, ParseError
from .fields import (
    FqContext,
    FqElement,
    _FieldOps,
    _RingOps,
    _code_str,
    _coerced,
    _convolve,
    _dense_terms,
    _digits,
    _encode,
    _mac,
    _pdivmod,
    _pmul,
    _render_sum,
    _trim,
    _vinv,
    _vmul,
    _vreduce,
)

# Degree of the zero polynomial.
NEG_INF = float("-inf")

# ---------------------------------------------------------------------------
# Integer kernels.  UniPoly arithmetic runs on Python ints, coefficients
# low to high: the helpers below over Z, and the list and digit-vector
# helpers of fields (_convolve, _pmul, _pdivmod, _mac, _vreduce), which
# also serve its modulus search and element arithmetic.


def _lincomb(a, sa, b, sb):
    """sa*a + sb*b for int lists a, b and int scalars sa, sb, unreduced
    and untrimmed."""
    return [sa * x + sb * y for x, y in zip_longest(a, b, fillvalue=0)]


def _pseudo_divmod(a, b):
    """Pseudo-division over Z (Knuth, TAOCP 4.6.1, Algorithm R): for
    int lists a, b with b trimmed and nonzero, returns (q, r) with
    lc(b)^e * a = q*b + r, e = len(q) = max(len(a) - len(b) + 1, 0),
    and r untrimmed, shorter than b unless e = 0 (then r = a)."""
    lc, n = b[-1], len(b) - 1
    r = list(a)
    q = [0] * max(len(r) - n, 0)
    for k in range(len(q) - 1, -1, -1):
        top = r.pop()
        # every later step multiplies by lc once more
        q[k] = top * lc**k
        if lc != 1:
            r = [lc * x for x in r]
        if top:
            for j in range(n):
                r[k + j] -= top * b[j]
    return q, r


def _primitive(xs):
    """An int list over its content (the gcd of its entries), trimmed."""
    _trim(xs)
    g = math.gcd(*xs)
    return [x // g for x in xs] if g > 1 else xs


_Q_ZERO = ((), 1)


def _rational(nums, den):
    """The Q form of nums / den, for an int list nums and an int den !=
    0: nums trimmed, den > 0, and the content of nums coprime to den."""
    _trim(nums)
    if not nums:
        return _Q_ZERO
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(nums), den
    return tuple([x // g for x in nums]), den // g


# ---------------------------------------------------------------------------
# Coefficient domains.  A domain coerces raw values, supplies its zero
# and one, and holds the kernel UniPoly runs on.  A UniPoly stores its
# coefficients in its domain's kernel form, which has no trailing zero
# and is unique per polynomial, so forms compare and hash as the
# polynomials do; one_form is the polynomial 1.  pack builds a form
# from domain values, unpack and element give them back, and length
# counts the coefficients.  add, neg, mul, divmod and gcd take forms
# and return one, or a pair for divmod (b nonzero); gcd is monic, and
# the gcd of two zeros is zero.  scale multiplies a form by a kernel
# scalar: one from scalars (one per coefficient, None for zero) or
# from monic_scalar (1 / leading coefficient, None when that is 1).


class _RationalDomain:
    """The field Q, with Fraction coefficients at the edges.

    The kernel form is (nums, den): int numerators over one common
    denominator den > 0, with gcd(content(nums), den) = 1; zero is
    ((), 1).  A kernel scalar is an int pair (numerator, denominator),
    not necessarily reduced.  Division is pseudo-division over Z, and
    the gcd is the primitive polynomial remainder sequence.  Only unpack
    and element build Fractions.
    """

    __slots__ = ()

    one_form = ((1,), 1)

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError(f"cannot use {value!r} as a rational coefficient")

    def pack(self, values):
        fs = [self.coerce(v) for v in values]
        den = math.lcm(*[f.denominator for f in fs])
        return _rational([f.numerator * (den // f.denominator) for f in fs], den)

    @staticmethod
    def unpack(form):
        nums, den = form
        return tuple([Fraction(n, den) for n in nums])

    @staticmethod
    def element(form, i):
        return Fraction(form[0][i], form[1])

    @staticmethod
    def length(form):
        return len(form[0])

    @staticmethod
    def scalars(form):
        nums, den = form
        return [(n, den) if n else None for n in nums]

    @staticmethod
    def monic_scalar(form):
        nums, den = form
        return None if nums[-1] == den else (den, nums[-1])

    @staticmethod
    def add(a, b):
        (na, da), (nb, db) = a, b
        den = math.lcm(da, db)
        return _rational(_lincomb(na, den // da, nb, den // db), den)

    @staticmethod
    def neg(a):
        return tuple([-x for x in a[0]]), a[1]

    @staticmethod
    def mul(a, b):
        return _rational(_convolve(a[0], b[0]), a[1] * b[1])

    @staticmethod
    def scale(a, c):
        n, d = c
        return _rational([x * n for x in a[0]], a[1] * d) if n else _Q_ZERO

    @staticmethod
    def divmod(a, b):
        # a = na/da, b = nb/db and lc^e na = Q nb + R give
        # a = (Q db / (lc^e da)) b + R / (lc^e da)
        (na, da), (nb, db) = a, b
        q, r = _pseudo_divmod(na, nb)
        den = nb[-1] ** len(q) * da
        return _rational([c * db for c in q], den), _rational(r, den)

    @staticmethod
    def gcd(a, b):
        a, b = _primitive(list(a[0])), _primitive(list(b[0]))
        while b:
            a, b = b, _primitive(_pseudo_divmod(a, b)[1])
        return _rational(a, a[-1]) if a else _Q_ZERO

    def __reduce__(self):
        return "QQ"

    def __repr__(self):
        return "QQ"


QQ = _RationalDomain()


class _FieldDomain(Frozen):
    """A finite field context used as a coefficient domain.

    The kernel form is the tuple of the coefficients' element codes,
    and a kernel scalar is a code; only unpack and element build
    FqElements.  The class runs the F_{p^k} kernel, which field_domain
    gives to k >= 2: an operation decodes its operands to digit vectors
    once and encodes its result once.  A Frozen value whose fields are
    the context and the form of 1; copy and pickle give back the cached
    field_domain(ctx).
    """

    __slots__ = ("ctx", "one_form")

    def __init__(self, ctx):
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "one_form", (1,))

    @property
    def zero(self):
        return self.ctx.zero()

    @property
    def one(self):
        return self.ctx.one()

    def coerce(self, value):
        return self.ctx.coerce(value)

    def pack(self, values):
        p = self.ctx.p
        # an int is the constant it names, whose code is its residue
        codes = [v % p if isinstance(v, int) else self.coerce(v).code for v in values]
        return tuple(_trim(codes))

    def unpack(self, form):
        ctx = self.ctx
        return tuple([FqElement(ctx, c) for c in form])

    def element(self, form, i):
        return FqElement(self.ctx, form[i])

    length = staticmethod(len)

    @staticmethod
    def scalars(form):
        return [c or None for c in form]

    def neg(self, a):
        return self.scale(a, self.ctx.p - 1)  # the code of -1

    def scale(self, a, c):
        return self.mul(a, (c,))

    def gcd(self, a, b):
        while b:
            a, b = b, self.divmod(a, b)[1]
        s = self.monic_scalar(a) if a else None
        return a if s is None else self.scale(a, s)

    # -- the F_{p^k} kernel ----------------------------------------------------

    def _vectors(self, form):
        p, k = self.ctx.p, self.ctx.k
        return [_digits(c, p, k) for c in form]

    def _codes(self, vectors):
        """The form of int lists, each reduced by _vreduce."""
        ctx = self.ctx
        return tuple(_trim([_encode(_vreduce(v, ctx.modulus, ctx.p), ctx.p) for v in vectors]))

    def monic_scalar(self, form):
        ctx = self.ctx
        if form[-1] == 1:
            return None
        return _encode(_vinv(_digits(form[-1], ctx.p, ctx.k), ctx.modulus, ctx.p), ctx.p)

    def add(self, a, b):
        zero = (0,) * self.ctx.k
        pairs = zip_longest(self._vectors(a), self._vectors(b), fillvalue=zero)
        return self._codes([list(map(operator.add, x, y)) for x, y in pairs])

    def mul(self, a, b):
        if not a or not b:
            return ()
        acc = [[0] * (2 * self.ctx.k - 1) for _ in range(len(a) + len(b) - 1)]
        ys = self._vectors(b)
        for i, x in enumerate(self._vectors(a)):
            for j, y in enumerate(ys, i):
                _mac(acc[j], x, y)
        return self._codes(acc)

    def divmod(self, a, b):
        """Long division; the remainder's sums are reduced at its top."""
        ctx = self.ctx
        p, k, modulus = ctx.p, ctx.k, ctx.modulus
        rem = [list(x) + [0] * (k - 1) for x in self._vectors(a)]
        b = self._vectors(b)
        inv_lead = _vinv(b[-1], modulus, p)
        q = [0] * max(len(a) - len(b) + 1, 0)
        for shift in range(len(q) - 1, -1, -1):
            top = _vreduce(rem.pop(), modulus, p)
            if any(top):
                factor = _vmul(top, inv_lead, modulus, p)
                q[shift] = _encode(factor, p)
                minus = [-d for d in factor]
                for i, y in enumerate(b[:-1], shift):
                    _mac(rem[i], minus, y)
        return tuple(q), self._codes(rem)

    def __reduce__(self):
        return field_domain, (self.ctx,)

    def __repr__(self):
        return f"field_domain({self.ctx!r})"


class _PrimeFieldDomain(_FieldDomain):
    """F_p as a coefficient domain, where a code is a residue in
    [0, p).  Arithmetic runs on int lists: one modular inverse per
    division.  Nothing is tabulated, since p may be as large as
    MAX_PRIME."""

    __slots__ = ()

    def monic_scalar(self, form):
        return None if form[-1] == 1 else pow(form[-1], -1, self.ctx.p)

    def add(self, a, b):
        p = self.ctx.p
        return tuple(_trim([(x + y) % p for x, y in zip_longest(a, b, fillvalue=0)]))

    def mul(self, a, b):
        return tuple(_pmul(a, b, self.ctx.p))

    def scale(self, a, c):
        p = self.ctx.p
        return tuple([x * c % p for x in a])

    def divmod(self, a, b):
        q, r = _pdivmod(list(a), b, self.ctx.p)
        return tuple(q), tuple(r)


@lru_cache(maxsize=None)
def field_domain(ctx):
    """The coefficient domain of a finite field context: one per field
    (copy and pickle keep it)."""
    if not isinstance(ctx, FqContext):
        raise TypeError("field_domain expects an FqContext")
    return (_PrimeFieldDomain if ctx.k == 1 else _FieldDomain)(ctx)


# ---------------------------------------------------------------------------


class UniPoly(Frozen, _RingOps):
    """Univariate polynomial over a domain; coefficients low to high.

    Immutable.  The coefficients are held once, in the domain's kernel
    form, which the arithmetic runs on and equality and hashing compare;
    coeffs, coeff and leading build domain values on demand.  The zero
    polynomial has no coefficients and degree NEG_INF.
    """

    __slots__ = ("domain", "_form")

    def __init__(self, domain, coeffs=()):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_form", domain.pack(coeffs))

    @classmethod
    def _trusted(cls, domain, form):
        """A kernel result: a form of domain, canonical and trimmed,
        taken as it is."""
        self = object.__new__(cls)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_form", form)
        return self

    @classmethod
    def zero(cls, domain):
        return cls(domain, ())

    @classmethod
    def one(cls, domain):
        return cls._trusted(domain, domain.one_form)

    @classmethod
    def variable(cls, domain):
        """The polynomial t."""
        return cls(domain, (domain.zero, domain.one))

    @property
    def coeffs(self):
        """The coefficients as domain values, low to high."""
        return self.domain.unpack(self._form)

    @property
    def degree(self):
        n = self.domain.length(self._form)
        return n - 1 if n else NEG_INF

    def is_zero(self):
        return not self.domain.length(self._form)

    def coeff(self, i):
        if 0 <= i < self.domain.length(self._form):
            return self.domain.element(self._form, i)
        return self.domain.zero

    @property
    def leading(self):
        n = self.domain.length(self._form)
        if not n:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.domain.element(self._form, n - 1)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            if other.domain != self.domain:
                raise ContextMismatch("polynomials over different domains")
            return other
        try:
            return UniPoly(self.domain, (other,))
        except TypeError:
            return None

    @_coerced
    def __add__(self, other):
        return UniPoly._trusted(self.domain, self.domain.add(self._form, other._form))

    def __neg__(self):
        return UniPoly._trusted(self.domain, self.domain.neg(self._form))

    @_coerced
    def __mul__(self, other):
        return UniPoly._trusted(self.domain, self.domain.mul(self._form, other._form))

    def _one(self):
        return UniPoly.one(self.domain)

    def scale(self, c):
        return self * UniPoly(self.domain, (c,))

    @_coerced
    def __truediv__(self, other):
        return RationalFunction(self, other)

    @_coerced
    def __rtruediv__(self, other):
        return RationalFunction(other, self)

    @_coerced
    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if self.degree < other.degree:
            return UniPoly.zero(self.domain), self
        q, r = self.domain.divmod(self._form, other._form)
        return UniPoly._trusted(self.domain, q), UniPoly._trusted(self.domain, r)

    @_coerced
    def __floordiv__(self, other):
        return divmod(self, other)[0]

    @_coerced
    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        s = None if self.is_zero() else self.domain.monic_scalar(self._form)
        if s is None:
            return self
        return UniPoly._trusted(self.domain, self.domain.scale(self._form, s))

    def __call__(self, value):
        """Evaluate at a domain value, as the remainder mod t - value, or
        compose with a RationalFunction over the same domain."""
        if isinstance(value, RationalFunction):
            if value.domain != self.domain:
                raise ContextMismatch("composition across domains")
            return self._compose(value.num, value.den)
        value = self.domain.coerce(value)
        return (self % UniPoly(self.domain, (-value, self.domain.one))).coeff(0)

    def _compose(self, n, d):
        """self(n/d) for coprime n, d with d monic, in the homogenised
        form sum c_i n^i d^(m-i) / d^m, m = deg self.  No gcd is needed:
        a prime factor of d divides every term but c_m n^m."""
        domain = self.domain
        if self.is_zero():
            return RationalFunction._coprime(self, UniPoly.one(domain))
        *rest, top = domain.scalars(self._form)
        acc = domain.scale(domain.one_form, top)
        d_power = domain.one_form
        for c in reversed(rest):
            d_power = domain.mul(d_power, d._form)
            acc = domain.mul(acc, n._form)
            if c is not None:
                acc = domain.add(acc, domain.scale(d_power, c))
        return RationalFunction._coprime(
            UniPoly._trusted(domain, acc), UniPoly._trusted(domain, d_power)
        )

    # -- protocol ------------------------------------------------------------

    def render(self, var="t"):
        return _render_sum(_dense_terms(self.coeffs, var))

    def __repr__(self):
        return self.render()


def unipoly_gcd(a, b):
    """Monic gcd; gcd(0, 0) = 0."""
    if a.domain != b.domain:
        raise ContextMismatch("gcd across domains")
    return UniPoly._trusted(a.domain, a.domain.gcd(a._form, b._form))


# ---------------------------------------------------------------------------


def _nontrivial_gcd(a, b):
    """gcd(a, b) of two nonzero polynomials, or None when it is 1.  A
    constant on either side settles that without a Euclidean loop."""
    if a.degree == 0 or b.degree == 0:
        return None
    g = unipoly_gcd(a, b)
    return None if g.degree == 0 else g


class RationalFunction(Frozen, _FieldOps):
    """Quotient of two UniPoly over one domain, canonical form.

    Invariants: den != 0, gcd(num, den) = 1, den monic; the zero
    function is 0/1.  The canonical form is unique, so every way of
    computing a result gives the same num and den.

    RationalFunction(num, den) accepts any pair and reduces it by the
    full gcd.  Operations start from operands already in canonical form
    and cancel only what can be shared (Henrici's cross-cancellation):

    * a/b * c/d: gcd(a, d) and gcd(c, b), on the factors, not the
      products;
    * a/b + c/d (and -): g = gcd(b, d); when g = 1 no other gcd, else
      one more gcd of the new numerator with g;
    * negation, inverse, powers and constants: no gcd at all.

    A gcd with a constant argument is skipped, since it is 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if den is None:
            den = UniPoly.one(num.domain)
        if num.domain != den.domain:
            raise ContextMismatch("numerator and denominator domains differ")
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if not num.is_zero():
            g = unipoly_gcd(num, den)
            if g.degree != 0:
                num = num // g
                den = den // g
        self._store(num, den)

    @classmethod
    def _coprime(cls, num, den):
        """Trusted constructor for a pair already known to be coprime,
        den nonzero: only makes den monic (zero becomes 0/1)."""
        self = object.__new__(cls)
        self._store(num, den)
        return self

    def _store(self, num, den):
        domain = num.domain
        if num.is_zero():
            den = UniPoly.one(domain)
        else:
            s = domain.monic_scalar(den._form)
            if s is not None:
                num = UniPoly._trusted(domain, domain.scale(num._form, s))
                den = UniPoly._trusted(domain, domain.scale(den._form, s))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @property
    def domain(self):
        return self.num.domain

    @classmethod
    def constant(cls, domain, c):
        return cls._coprime(UniPoly(domain, (c,)), UniPoly.one(domain))

    @classmethod
    def variable(cls, domain):
        """The rational function t."""
        return cls._coprime(UniPoly.variable(domain), UniPoly.one(domain))

    def is_zero(self):
        return self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            other = RationalFunction._coprime(other, UniPoly.one(other.domain))
        if isinstance(other, RationalFunction):
            if other.domain != self.domain:
                raise ContextMismatch("rational functions over different domains")
            return other
        try:
            return RationalFunction.constant(self.domain, other)
        except TypeError:
            return None

    @_coerced
    def __add__(self, other):
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        a, b, c, d = self.num, self.den, other.num, other.den
        g = _nontrivial_gcd(b, d)
        if g is None:
            return RationalFunction._coprime(a * d + c * b, b * d)
        b_g, d_g = b // g, d // g
        t = a * d_g + c * b_g
        if t.is_zero():
            return RationalFunction._coprime(t, UniPoly.one(self.domain))
        g2 = _nontrivial_gcd(t, g)
        if g2 is not None:
            t, d = t // g2, d // g2
        return RationalFunction._coprime(t, b_g * d)

    def __neg__(self):
        return RationalFunction._coprime(-self.num, self.den)

    @_coerced
    def __mul__(self, other):
        a, b, c, d = self.num, self.den, other.num, other.den
        if a.is_zero() or c.is_zero():
            return self if a.is_zero() else other
        g1 = _nontrivial_gcd(a, d)
        if g1 is not None:
            a, d = a // g1, d // g1
        g2 = _nontrivial_gcd(c, b)
        if g2 is not None:
            c, b = c // g2, b // g2
        return RationalFunction._coprime(a * c, b * d)

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RationalFunction._coprime(self.den, self.num)

    def __pow__(self, e):
        e = operator.index(e)
        if e < 0:
            return self.inverse() ** (-e)
        return RationalFunction._coprime(self.num**e, self.den**e)

    def polynomial_part(self):
        """The quotient of num by den; constant exactly when the
        function lies in the valuation ring of the degree valuation."""
        return self.num // self.den

    def __repr__(self):
        if self.den.degree == 0:
            return self.num.render()
        return f"({self.num.render()})/({self.den.render()})"


# ---------------------------------------------------------------------------


def _check_index(index):
    if index not in (0, 1):
        raise ValueError(f"variable index {index} out of range")


class SparsePoly(Frozen, _RingOps):
    """Sparse polynomial in x and y over a finite field context.

    The _terms field holds the nonzero terms as ((i, j), code) pairs,
    for code * x^i y^j, sorted once in graded lexicographic order,
    highest first: ints, which Frozen compares and hashes.  terms maps
    exponent pairs to FqElement coefficients, read-only.  Arithmetic
    runs on the digit vectors of the codes, decoded once per operation.
    Immutable.
    """

    __slots__ = ("ctx", "_terms")

    def __init__(self, ctx, terms=None):
        clean = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(map(operator.index, exps))
            if len(exps) != 2:
                raise ValueError(f"exponent tuple {exps} needs 2 entries")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            clean[exps] = ctx.coerce(coeff).code
        self._store(ctx, clean.items())

    def _store(self, ctx, terms):
        terms = sorted([t for t in terms if t[1]], key=lambda t: (sum(t[0]), t[0]), reverse=True)
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "_terms", tuple(terms))

    @classmethod
    def _of(cls, ctx, vectors):
        """The polynomial of exponent pairs -> int lists, by _vreduce."""
        self = object.__new__(cls)
        p, modulus = ctx.p, ctx.modulus
        self._store(ctx, [(e, _encode(_vreduce(v, modulus, p), p)) for e, v in vectors.items()])
        return self

    def _vectors(self):
        """The terms as a dict from exponent pairs to digit vectors."""
        p, k = self.ctx.p, self.ctx.k
        return {e: _digits(c, p, k) for e, c in self._terms}

    @property
    def terms(self):
        return MappingProxyType(dict(self.sorted_terms()))

    @classmethod
    def zero(cls, ctx):
        return cls(ctx)

    @classmethod
    def constant(cls, ctx, value):
        return cls(ctx, {(0, 0): value})

    @classmethod
    def variable(cls, ctx, index):
        _check_index(index)
        return cls(ctx, {(1 - index, index): ctx.one()})

    @property
    def total_degree(self):
        return sum(self._terms[0][0]) if self._terms else NEG_INF

    def degree_in(self, index):
        return max((e[index] for e, _ in self._terms), default=NEG_INF)

    def is_zero(self):
        return not self._terms

    def sorted_terms(self):
        """The (exponent pair, FqElement) terms, graded lex, highest first."""
        ctx = self.ctx
        return [(e, FqElement(ctx, c)) for e, c in self._terms]

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, SparsePoly):
            if other.ctx != self.ctx:
                raise ContextMismatch("polynomials over different contexts")
            return other
        try:
            return SparsePoly.constant(self.ctx, other)
        except TypeError:
            return None

    @_coerced
    def __add__(self, other):
        out = self._vectors()
        for e, v in other._vectors().items():
            out[e] = list(map(operator.add, out[e], v)) if e in out else v
        return SparsePoly._of(self.ctx, out)

    def __neg__(self):
        return SparsePoly._of(self.ctx, {e: [-d for d in v] for e, v in self._vectors().items()})

    @_coerced
    def __mul__(self, other):
        width = 2 * self.ctx.k - 1
        out = defaultdict(lambda: [0] * width)
        right = other._vectors().items()
        for (i1, j1), x in self._vectors().items():
            for (i2, j2), y in right:
                _mac(out[i1 + i2, j1 + j2], x, y)
        return SparsePoly._of(self.ctx, out)

    def _one(self):
        return SparsePoly._of(self.ctx, {(0, 0): [1]})

    # -- evaluation and calculus ----------------------------------------------

    def evaluate(self, values):
        values = tuple(map(self.ctx.coerce, values))
        if len(values) != 2:
            raise ValueError(f"need 2 values, got {len(values)}")
        x, y = values
        return sum((c * x**i * y**j for (i, j), c in self.sorted_terms()), self.ctx.zero())

    def substitute(self, index, value):
        """Plug a field element into one variable: a UniPoly in the
        other one, over field_domain(ctx)."""
        _check_index(index)
        value = self.ctx.coerce(value)
        coeffs = [self.ctx.zero()] * (1 + max(self.degree_in(1 - index), -1))
        for exps, coeff in self.sorted_terms():
            e, i = exps[index], exps[1 - index]
            coeffs[i] = coeffs[i] + (coeff * value**e if e else coeff)
        return UniPoly(field_domain(self.ctx), coeffs)

    def partial(self, index):
        """Formal partial derivative; char-p annihilation applies."""
        _check_index(index)
        out = {}
        for exps, v in self._vectors().items():
            e = exps[index]
            if e:
                out[exps[:index] + (e - 1,) + exps[index + 1 :]] = [d * e for d in v]
        return SparsePoly._of(self.ctx, out)

    def leading_form(self):
        """The top homogeneous part (terms of maximal total degree)."""
        d = self.total_degree
        return SparsePoly(self.ctx, {e: c for e, c in self.sorted_terms() if sum(e) == d})

    # -- protocol ------------------------------------------------------------

    def render(self):
        """Canonical text in the expression grammar; reparses to self."""
        return _render_sum(
            (
                _code_str(self.ctx, code),
                "*".join(
                    name if e == 1 else f"{name}^{e}"
                    for name, e in zip("xy", exps)
                    if e
                ),
            )
            for exps, code in self._terms
        )

    def __repr__(self):
        return self.render()


# ---------------------------------------------------------------------------
# Parser.


_OPS = set("+-*^()")
MAX_NESTING = 100  # four parser frames per level, far below the recursion limit
# Largest total degree of a parsed polynomial.  Powers and products are
# refused before they expand: the work grows with the fourth power of
# the degree, and (x + y + 1)^64 over F_101 already takes ~2 s.
MAX_DEGREE = 64


def _degree(node):
    return max(node.total_degree, 0)


def _check_degree(degree, what, pos):
    if degree > MAX_DEGREE:
        raise ParseError(f"{what} of degree {degree} exceeds MAX_DEGREE = {MAX_DEGREE}", pos)


def _tokenize(text):
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            try:
                value = int(text[start:i])
            except ValueError:  # past Python's int string-conversion limit
                raise ParseError(
                    f"integer literal of {i - start} digits is too long", start
                ) from None
            tokens.append(("int", value, start))
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in "xyg":
            tokens.append(("name", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text, ctx):
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self):
        poly = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {value!r} after expression", pos)
        return poly

    def expr(self):
        negate = False
        if self.peek()[0] == "-":
            self.take()
            negate = True
        node = self.term()
        if negate:
            node = -node
        while self.peek()[0] in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            node = node + rhs if op == "+" else node - rhs
        return node

    def term(self):
        node = self.factor()
        while self.peek()[0] == "*":
            star = self.take()[2]
            rhs = self.factor()
            _check_degree(_degree(node) + _degree(rhs), "product", star)
            node = node * rhs
        return node

    def factor(self):
        node = self.atom()
        if self.peek()[0] == "^":
            caret = self.take()[2]
            kind, value, pos = self.take()
            if kind != "int":
                what = "end of input" if kind == "end" else repr(value)
                raise ParseError(f"expected integer exponent after '^', got {what}", pos)
            _check_degree(_degree(node) * value, "power", caret)
            node = node**value
        return node

    def atom(self):
        kind, value, pos = self.take()
        if kind == "int":
            return SparsePoly.constant(self.ctx, value)
        if kind == "name":
            if value == "g":
                if self.ctx.k == 1:
                    raise ParseError(
                        "generator 'g' needs an extension field (k >= 2)", pos
                    )
                return SparsePoly.constant(self.ctx, self.ctx.gen())
            return SparsePoly.variable(self.ctx, "xy".index(value))
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested more than {MAX_NESTING} deep", pos)
            node = self.expr()
            self.depth -= 1
            kind, value, pos = self.take()
            if kind != ")":
                what = "end of input" if kind == "end" else repr(value)
                raise ParseError(f"expected ')', got {what}", pos)
            return node
        what = "end of input" if kind == "end" else repr(value)
        raise ParseError(f"expected a value, got {what}", pos)


def parse_bipoly(text, ctx):
    """Parse an expression in the grammar into a SparsePoly in x and y."""
    if not isinstance(text, str):
        raise TypeError("expected an expression string")
    return _Parser(text, ctx).parse()
