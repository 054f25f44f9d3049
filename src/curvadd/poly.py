"""Exact polynomial and rational-function arithmetic, plus the
expression parser for curve definitions.

Three layers live here:

* UniPoly: univariate polynomials with coefficients in a *domain*,
  which is either the rationals (stdlib Fraction, arbitrary precision)
  or a finite field context.  The zero polynomial has degree -infinity,
  held as the float sentinel NEG_INF.  The domain runs the arithmetic:
  over QQ and over a prime field F_p it works on lists of Python ints
  (integer numerators over a common denominator, pseudo-division and
  the primitive remainder sequence over Q; residues mod p over F_p),
  and builds one Fraction or FqElement per output coefficient.  Over
  F_{p^k} with k >= 2 it loops over field elements.
* RationalFunction: quotients of UniPoly over the same domain, always
  in canonical form (coprime, monic denominator).  The constructor
  reduces an arbitrary pair by their full gcd; the operations start
  from canonical operands and cancel only factors they can share
  (Henrici's cross-cancellation), so inverse, powers and composition
  need no gcd at all.
* SparsePoly: sparse multivariate polynomials over a finite field
  context, used for curve-defining polynomials in x and y.  Terms map
  exponent tuples to nonzero coefficients.

The expression grammar, shared by the parser and the renderer:

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := atom ('^' uint)?
    atom   := uint | <variable> | 'g' | '(' expr ')'

Variables default to x and y; 'g' is the extension-field generator
and is rejected when k = 1; integer literals reduce mod p; whitespace
is ignored; the leading '-' is sugar for multiplying the first term by
p - 1.  Parentheses nest at most MAX_NESTING deep, and a power or
product whose total degree would exceed MAX_DEGREE is refused at its
'^' or '*' before it expands.  Parse errors carry the 0-based
character position of the offending input.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest

from .errors import ContextMismatch, ParseError
from .fields import FqContext, FqElement, _pdivmod, _pgcd, _pmul, _power, _trim

# Degree of the zero polynomial.
NEG_INF = float("-inf")

# ---------------------------------------------------------------------------
# Integer kernels.  Over QQ and over prime fields, UniPoly arithmetic
# runs on lists of Python ints, coefficients low to high: the helpers
# below over Z, and the F_p list helpers of fields (_pmul, _pdivmod,
# _pgcd), which also serve its modulus search and element inversion.


def _lincomb(a, sa, b, sb):
    """sa*a + sb*b for int lists a, b and int scalars sa, sb, unreduced
    and untrimmed."""
    return [sa * x + sb * y for x, y in zip_longest(a, b, fillvalue=0)]


def _convolve(a, b):
    """Product of two int lists, unreduced."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


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


# ---------------------------------------------------------------------------
# Coefficient domains.  A domain coerces raw values, supplies its zero
# and one, and holds the arithmetic kernel UniPoly runs on: add, neg,
# mul, scale, divmod and gcd take coefficient tuples (low to high,
# no trailing zero) and return one, or a pair for divmod (b nonzero).
# gcd is monic; the gcd of two zeros is zero.


class _RationalDomain:
    """The field Q with Fraction coefficients.

    Polynomial arithmetic runs on integers: an operand becomes its
    numerators over one common denominator (the lcm of its
    coefficients' denominators), and a Fraction is built once per
    output coefficient.  Division is pseudo-division over Z, and the
    gcd is the primitive polynomial remainder sequence.
    """

    __slots__ = ()

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

    @staticmethod
    def _ints(coeffs):
        """(numerators, common denominator) of Fraction coefficients."""
        den = math.lcm(*[c.denominator for c in coeffs])
        return [c.numerator * (den // c.denominator) for c in coeffs], den

    @staticmethod
    def _fractions(nums, den):
        return tuple([Fraction(n, den) for n in _trim(nums)])

    def add(self, a, b):
        (na, da), (nb, db) = self._ints(a), self._ints(b)
        den = math.lcm(da, db)
        return self._fractions(_lincomb(na, den // da, nb, den // db), den)

    def neg(self, a):
        return tuple([-c for c in a])

    def mul(self, a, b):
        (na, da), (nb, db) = self._ints(a), self._ints(b)
        return self._fractions(_convolve(na, nb), da * db)

    def scale(self, a, c):
        if not c:
            return ()
        nums, den = self._ints(a)
        return self._fractions([n * c.numerator for n in nums], den * c.denominator)

    def divmod(self, a, b):
        # a = na/da, b = nb/db and lc^e na = Q nb + R give
        # a = (Q db / (lc^e da)) b + R / (lc^e da)
        (na, da), (nb, db) = self._ints(a), self._ints(b)
        q, r = _pseudo_divmod(na, nb)
        den = nb[-1] ** len(q) * da
        return self._fractions([c * db for c in q], den), self._fractions(r, den)

    def gcd(self, a, b):
        a, b = _primitive(self._ints(a)[0]), _primitive(self._ints(b)[0])
        while b:
            a, b = b, _primitive(_pseudo_divmod(a, b)[1])
        return self._fractions(a, a[-1]) if a else ()

    def __eq__(self, other):
        return isinstance(other, _RationalDomain)

    def __hash__(self):
        return hash(_RationalDomain)

    def __repr__(self):
        return "QQ"


QQ = _RationalDomain()


class _FieldDomain:
    """A finite field context used as a coefficient domain.

    This class runs the generic kernel, one FqElement operation per
    coefficient step; field_domain gives it to F_{p^k} with k >= 2.
    """

    __slots__ = ("ctx",)

    def __init__(self, ctx):
        self.ctx = ctx

    @property
    def zero(self):
        return self.ctx.zero()

    @property
    def one(self):
        return self.ctx.one()

    def coerce(self, value):
        if isinstance(value, FqElement):
            if value.ctx != self.ctx:
                raise ContextMismatch(
                    f"coefficient from {value.ctx!r} used over {self.ctx!r}"
                )
            return value
        if isinstance(value, int):
            return self.ctx.constant(value)
        raise TypeError(f"cannot use {value!r} as a coefficient over {self.ctx!r}")

    def add(self, a, b):
        out = [x + y for x, y in zip_longest(a, b, fillvalue=self.zero)]
        while out and out[-1].is_zero():
            out.pop()
        return tuple(out)

    def neg(self, a):
        return tuple([-c for c in a])

    def mul(self, a, b):
        if not a or not b:
            return ()
        zero = self.zero
        out = [zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x == zero:
                continue
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return tuple(out)

    def scale(self, a, c):
        return tuple([x * c for x in a]) if c else ()

    def divmod(self, a, b):
        zero = self.zero
        rem = list(a)
        db = len(b) - 1
        inv_lead = self.one / b[-1]
        q = [zero] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db and rem:
            factor = rem[-1] * inv_lead
            shift = len(rem) - 1 - db
            q[shift] = factor
            for i, y in enumerate(b):
                rem[shift + i] = rem[shift + i] - factor * y
            while rem and rem[-1] == zero:
                rem.pop()
        return tuple(q), tuple(rem)

    def gcd(self, a, b):
        while b:
            a, b = b, self.divmod(a, b)[1]
        return self.scale(a, self.one / a[-1]) if a else ()

    def __eq__(self, other):
        return isinstance(other, _FieldDomain) and self.ctx == other.ctx

    def __hash__(self):
        return hash(("_FieldDomain", self.ctx))

    def __repr__(self):
        return f"field_domain({self.ctx!r})"


class _PrimeFieldDomain(_FieldDomain):
    """F_p as a coefficient domain: polynomial arithmetic on ints in
    [0, p), one modular inverse per division, Euclid on int lists made
    monic at the end.  Nothing is tabulated, since p may be as large as
    MAX_PRIME."""

    __slots__ = ()

    @staticmethod
    def _ints(coeffs):
        return [c.coeffs[0] for c in coeffs]

    def _elements(self, xs):
        """Trusted FqElements for ints already in [0, p), trimmed."""
        ctx = self.ctx
        return tuple([FqElement(ctx, (x,)) for x in _trim(xs)])

    def add(self, a, b):
        p = self.ctx.p
        return self._elements([x % p for x in _lincomb(self._ints(a), 1, self._ints(b), 1)])

    def neg(self, a):
        p = self.ctx.p
        return self._elements([-x % p for x in self._ints(a)])

    def mul(self, a, b):
        return self._elements(_pmul(self._ints(a), self._ints(b), self.ctx.p))

    def scale(self, a, c):
        p, c = self.ctx.p, c.coeffs[0]
        return self._elements([x * c % p for x in self._ints(a)] if c else [])

    def divmod(self, a, b):
        q, r = _pdivmod(self._ints(a), self._ints(b), self.ctx.p)
        return self._elements(q), self._elements(r)

    def gcd(self, a, b):
        return self._elements(_pgcd(self._ints(a), self._ints(b), self.ctx.p))


def field_domain(ctx):
    """Coefficient domain wrapping a finite field context."""
    if not isinstance(ctx, FqContext):
        raise TypeError("field_domain expects an FqContext")
    return (_PrimeFieldDomain if ctx.k == 1 else _FieldDomain)(ctx)


# ---------------------------------------------------------------------------


class UniPoly:
    """Univariate polynomial over a domain; coefficients low to high.

    Immutable; no trailing zeros are stored, so the zero polynomial has
    an empty coefficient tuple and degree NEG_INF.  Arithmetic runs on
    the domain's kernel.
    """

    __slots__ = ("domain", "coeffs")

    def __init__(self, domain, coeffs=()):
        cs = [domain.coerce(c) for c in coeffs]
        while cs and cs[-1] == domain.zero:
            cs.pop()
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def _trusted(cls, domain, coeffs):
        """A kernel result: a tuple of canonical domain elements with no
        trailing zero, taken as it is."""
        self = object.__new__(cls)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def zero(cls, domain):
        return cls(domain, ())

    @classmethod
    def one(cls, domain):
        return cls(domain, (domain.one,))

    @classmethod
    def variable(cls, domain):
        """The polynomial t."""
        return cls(domain, (domain.zero, domain.one))

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self):
        return not self.coeffs

    def coeff(self, i):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.domain.zero

    @property
    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, UniPoly):
            if other.domain is not self.domain and other.domain != self.domain:
                raise ContextMismatch("polynomials over different domains")
            return other
        try:
            return UniPoly(self.domain, (self.domain.coerce(other),))
        except (TypeError, ContextMismatch):
            return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return UniPoly._trusted(self.domain, self.domain.add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return UniPoly._trusted(self.domain, self.domain.neg(self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return UniPoly._trusted(self.domain, self.domain.mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def scale(self, c):
        c = self.domain.coerce(c)
        return UniPoly._trusted(self.domain, self.domain.scale(self.coeffs, c))

    def __pow__(self, e):
        e = int(e)
        if e < 0:
            raise ValueError("negative power of a polynomial")
        return _power(UniPoly.one(self.domain), self, e)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(self, other)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return RationalFunction(other, self)

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.coeffs) < len(other.coeffs):
            return UniPoly._trusted(self.domain, ()), self
        q, r = self.domain.divmod(self.coeffs, other.coeffs)
        return UniPoly._trusted(self.domain, q), UniPoly._trusted(self.domain, r)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self):
        if self.is_zero():
            return self
        return self.scale(self.domain.one / self.leading)

    def __call__(self, value):
        """Evaluate at a domain value, as the remainder mod t - value, or
        compose with a RationalFunction over the same domain."""
        if isinstance(value, RationalFunction):
            if value.domain != self.domain:
                raise ContextMismatch("composition across domains")
            return self._compose(value.num, value.den)
        value = self.domain.coerce(value)
        return (self % UniPoly._trusted(self.domain, (-value, self.domain.one))).coeff(0)

    def _compose(self, n, d):
        """self(n/d) for coprime n, d with d monic, in the homogenised
        form sum c_i n^i d^(m-i) / d^m, m = deg self.  No gcd is needed:
        a prime factor of d divides every term but c_m n^m."""
        if self.is_zero():
            return RationalFunction._coprime(self, UniPoly.one(self.domain))
        zero = self.domain.zero
        acc = UniPoly(self.domain, (self.coeffs[-1],))
        d_power = UniPoly.one(self.domain)
        for c in reversed(self.coeffs[:-1]):
            d_power = d_power * d
            acc = acc * n
            if c != zero:
                acc = acc + d_power.scale(c)
        return RationalFunction._coprime(acc, d_power)

    # -- protocol ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.domain == other.domain and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.domain, self.coeffs))

    def render(self, var="t"):
        if self.is_zero():
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == self.domain.zero:
                continue
            if i == 0:
                parts.append(str(c))
                continue
            power = var if i == 1 else f"{var}^{i}"
            if c == self.domain.one:
                parts.append(power)
            else:
                cs = str(c)
                if "+" in cs:
                    cs = f"({cs})"
                parts.append(f"{cs}*{power}")
        out = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                out += " - " + part[1:]
            else:
                out += " + " + part
        return out

    def __repr__(self):
        return self.render()


def unipoly_gcd(a, b):
    """Monic gcd; gcd(0, 0) = 0."""
    if a.domain is not b.domain and a.domain != b.domain:
        raise ContextMismatch("gcd across domains")
    return UniPoly._trusted(a.domain, a.domain.gcd(a.coeffs, b.coeffs))


# ---------------------------------------------------------------------------


def _nontrivial_gcd(a, b):
    """gcd(a, b) of two nonzero polynomials, or None when it is 1.  A
    constant on either side settles that without a Euclidean loop."""
    if a.degree == 0 or b.degree == 0:
        return None
    g = unipoly_gcd(a, b)
    return None if g.degree == 0 else g


class RationalFunction:
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
        if num.is_zero():
            den = UniPoly.one(num.domain)
        else:
            inv_lead = num.domain.one / den.leading
            if inv_lead != num.domain.one:
                num = num.scale(inv_lead)
                den = den.scale(inv_lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @property
    def domain(self):
        return self.num.domain

    @classmethod
    def constant(cls, domain, c):
        return cls._coprime(UniPoly(domain, (domain.coerce(c),)), UniPoly.one(domain))

    @classmethod
    def variable(cls, domain):
        """The rational function t."""
        return cls._coprime(UniPoly.variable(domain), UniPoly.one(domain))

    def is_zero(self):
        return self.num.is_zero()

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.domain != self.domain:
                raise ContextMismatch("rational functions over different domains")
            return other
        if isinstance(other, UniPoly):
            if other.domain != self.domain:
                raise ContextMismatch("rational functions over different domains")
            return RationalFunction._coprime(other, UniPoly.one(self.domain))
        try:
            return RationalFunction.constant(self.domain, other)
        except (TypeError, ContextMismatch):
            return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
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

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._coprime(-self.num, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
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

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RationalFunction._coprime(self.den, self.num)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, e):
        e = int(e)
        if e < 0:
            return self.inverse() ** (-e)
        return RationalFunction._coprime(self.num**e, self.den**e)

    def polynomial_part(self):
        """The quotient of num by den; constant exactly when the
        function lies in the valuation ring of the degree valuation."""
        return self.num // self.den

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        if self.den.degree == 0:
            return self.num.render()
        return f"({self.num.render()})/({self.den.render()})"


# ---------------------------------------------------------------------------


_DEFAULT_NAMES = ("x", "y")


class SparsePoly:
    """Sparse multivariate polynomial over a finite field context.

    terms maps exponent tuples (one entry per variable) to nonzero
    FqElement coefficients.  Immutable.  Display order is graded
    lexicographic, highest first.
    """

    __slots__ = ("ctx", "nvars", "terms")

    def __init__(self, ctx, nvars, terms=()):
        clean = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exps, coeff in items:
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise ValueError(f"exponent tuple {exps} needs {nvars} entries")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if isinstance(coeff, int):
                coeff = ctx.constant(coeff)
            elif coeff.ctx != ctx:
                raise ContextMismatch("coefficient from a different context")
            if exps in clean:
                coeff = clean[exps] + coeff
            if coeff.is_zero():
                clean.pop(exps, None)
            else:
                clean[exps] = coeff
        object.__setattr__(self, "ctx", ctx)
        object.__setattr__(self, "nvars", int(nvars))
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SparsePoly is immutable")

    @classmethod
    def zero(cls, ctx, nvars=2):
        return cls(ctx, nvars)

    @classmethod
    def constant(cls, ctx, value, nvars=2):
        return cls(ctx, nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, ctx, index, nvars=2):
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range")
        exps = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(ctx, nvars, {exps: ctx.one()})

    @property
    def total_degree(self):
        if not self.terms:
            return NEG_INF
        return max(sum(e) for e in self.terms)

    def degree_in(self, index):
        if not self.terms:
            return NEG_INF
        return max(e[index] for e in self.terms)

    def is_zero(self):
        return not self.terms

    def sorted_terms(self):
        """Terms in graded lexicographic order, highest first."""
        return sorted(
            self.terms.items(),
            key=lambda item: (sum(item[0]), item[0]),
            reverse=True,
        )

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, SparsePoly):
            raise TypeError("expected a SparsePoly")
        if other.ctx != self.ctx or other.nvars != self.nvars:
            raise ContextMismatch("polynomials over different contexts")

    def __add__(self, other):
        if isinstance(other, (int, FqElement)):
            other = SparsePoly.constant(self.ctx, other, self.nvars)
        self._check(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            acc = out.get(exps)
            acc = coeff if acc is None else acc + coeff
            if acc.is_zero():
                out.pop(exps, None)
            else:
                out[exps] = acc
        return SparsePoly(self.ctx, self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return SparsePoly(
            self.ctx, self.nvars, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        if isinstance(other, (int, FqElement)):
            other = SparsePoly.constant(self.ctx, other, self.nvars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, FqElement)):
            return self.scale(other)
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                acc = out.get(exps)
                acc = c if acc is None else acc + c
                if acc.is_zero():
                    out.pop(exps, None)
                else:
                    out[exps] = acc
        return SparsePoly(self.ctx, self.nvars, out)

    __rmul__ = __mul__

    def scale(self, c):
        if isinstance(c, int):
            c = self.ctx.constant(c)
        if c.is_zero():
            return SparsePoly.zero(self.ctx, self.nvars)
        return SparsePoly(
            self.ctx, self.nvars, {e: v * c for e, v in self.terms.items()}
        )

    def __pow__(self, e):
        e = int(e)
        if e < 0:
            raise ValueError("negative power of a polynomial")
        return _power(SparsePoly.constant(self.ctx, 1, self.nvars), self, e)

    # -- evaluation and calculus ----------------------------------------------

    def evaluate(self, values):
        values = tuple(values)
        if len(values) != self.nvars:
            raise ValueError(f"need {self.nvars} values, got {len(values)}")
        for v in values:
            if v.ctx != self.ctx:
                raise ContextMismatch("evaluation point from a different context")
        acc = self.ctx.zero()
        for exps, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, exps):
                if e:
                    term = term * v**e
            acc = acc + term
        return acc

    def substitute(self, index, value):
        """Plug a field element into one variable; one fewer variable."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range")
        if value.ctx != self.ctx:
            raise ContextMismatch("substituted value from a different context")
        out = {}
        for exps, coeff in self.terms.items():
            c = coeff * value ** exps[index] if exps[index] else coeff
            rest = exps[:index] + exps[index + 1 :]
            acc = out.get(rest)
            acc = c if acc is None else acc + c
            if acc.is_zero():
                out.pop(rest, None)
            else:
                out[rest] = acc
        return SparsePoly(self.ctx, self.nvars - 1, out)

    def partial(self, index):
        """Formal partial derivative; char-p annihilation applies."""
        if not 0 <= index < self.nvars:
            raise ValueError(f"variable index {index} out of range")
        out = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            c = coeff * e  # exponent reduced mod p by element arithmetic
            if c.is_zero():
                continue
            new = exps[:index] + (e - 1,) + exps[index + 1 :]
            out[new] = c
        return SparsePoly(self.ctx, self.nvars, out)

    def leading_form(self):
        """The top homogeneous part (terms of maximal total degree)."""
        if not self.terms:
            return self
        d = self.total_degree
        return SparsePoly(
            self.ctx,
            self.nvars,
            {e: c for e, c in self.terms.items() if sum(e) == d},
        )

    # -- protocol ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ctx, self.nvars, tuple(self.sorted_terms())))

    def render(self, names=None):
        """Canonical text in the expression grammar; reparses to self."""
        if names is None:
            names = _DEFAULT_NAMES[: self.nvars]
        if len(names) != self.nvars:
            raise ValueError(f"need {self.nvars} variable names")
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            cs = repr(coeff)
            if not factors:
                parts.append(cs)
            elif coeff == self.ctx.one():
                parts.append("*".join(factors))
            else:
                if "+" in cs:
                    cs = f"({cs})"
                parts.append("*".join([cs] + factors))
        return " + ".join(parts)

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


def _tokenize(text, names):
    allowed = set(names) | {"g"}
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
        if ch.isalpha():
            if ch in allowed:
                tokens.append(("name", ch, i))
                i += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", i)
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, text, ctx, names):
        self.ctx = ctx
        self.names = tuple(names)
        self.tokens = _tokenize(text, self.names)
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
        nvars = len(self.names)
        if kind == "int":
            return SparsePoly.constant(self.ctx, value, nvars)
        if kind == "name":
            if value == "g":
                if self.ctx.k == 1:
                    raise ParseError(
                        "generator 'g' needs an extension field (k >= 2)", pos
                    )
                return SparsePoly.constant(self.ctx, self.ctx.gen(), nvars)
            return SparsePoly.variable(self.ctx, self.names.index(value), nvars)
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


def parse_poly(text, ctx, names=("x", "y")):
    """Parse an expression in the grammar into a SparsePoly."""
    if not isinstance(text, str):
        raise TypeError("expected an expression string")
    return _Parser(text, ctx, names).parse()


def parse_bipoly(text, ctx):
    """Parse a curve-defining polynomial in x and y."""
    return parse_poly(text, ctx, ("x", "y"))
