"""UniPoly's element loops, kept as the reference for the kernels under
UniPoly over every domain.

UniPoly runs its arithmetic on plain int lists over Q and prime fields
(poly._RationalDomain, poly._PrimeFieldDomain) and on the digit
vectors of element codes over F_{p^k} (poly._FieldDomain).  The
functions here are the loops it ran before: one Fraction or FqElement
operation per coefficient step, every result built through the public,
coercing UniPoly constructor, and evaluation by Horner's rule.  The
kernels must return exactly the same polynomials and values, since
canonical forms are unique.
"""

from curvadd.poly import UniPoly


def add(a, b):
    n = max(len(a.coeffs), len(b.coeffs))
    return UniPoly(
        a.domain,
        [a.coeff(i) + b.coeff(i) for i in range(n)],
    )


def neg(a):
    return UniPoly(a.domain, [-c for c in a.coeffs])


def sub(a, b):
    n = max(len(a.coeffs), len(b.coeffs))
    return UniPoly(
        a.domain,
        [a.coeff(i) - b.coeff(i) for i in range(n)],
    )


def mul(a, b):
    if a.is_zero() or b.is_zero():
        return UniPoly.zero(a.domain)
    out = [a.domain.zero] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x == a.domain.zero:
            continue
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    return UniPoly(a.domain, out)


def scale(a, c):
    c = a.domain.coerce(c)
    return UniPoly(a.domain, [x * c for x in a.coeffs])


def poly_divmod(a, b):
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    zero = a.domain.zero
    rem = list(a.coeffs)
    db = len(b.coeffs) - 1
    inv_lead = a.domain.one / b.leading
    q = [zero] * max(len(rem) - db, 0)
    while len(rem) - 1 >= db and rem:
        factor = rem[-1] * inv_lead
        shift = len(rem) - 1 - db
        q[shift] = factor
        for i, y in enumerate(b.coeffs):
            rem[shift + i] = rem[shift + i] - factor * y
        while rem and rem[-1] == zero:
            rem.pop()
    return UniPoly(a.domain, q), UniPoly(a.domain, rem)


def monic(a):
    if a.is_zero():
        return a
    return scale(a, a.domain.one / a.leading)


def gcd(a, b):
    """Monic gcd; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, poly_divmod(a, b)[1]
    return monic(a) if not a.is_zero() else a


def evaluate(a, value):
    value = a.domain.coerce(value)
    acc = a.domain.zero
    for c in reversed(a.coeffs):
        acc = acc * value + c
    return acc
