"""The operand rule of the four arithmetic value types.

FqElement, UniPoly, RationalFunction and SparsePoly take the operand
of every binary operator through fields._coerced: an int is the
constant it names, an operand of an unrelated type is declined with
NotImplemented (so the operator itself raises TypeError), and an
operand of the same type over another context or domain raises
ContextMismatch.  The exponent of ** is an int, not an operand, so
__pow__ is not covered here.
"""

import operator

import pytest

from curvadd import (
    QQ,
    ContextMismatch,
    FqContext,
    RationalFunction,
    SparsePoly,
    UniPoly,
    field_domain,
    parse_bipoly,
)

from conftest import CUSTOM_MODULI

# Every binary arithmetic dunder Python dispatches to, with the call
# that reaches it through the operator: (name, operator, reflected).
OPERATORS = [
    (f"__{r}{name}__", op, bool(r))
    for name, op in [
        ("add", operator.add),
        ("sub", operator.sub),
        ("mul", operator.mul),
        ("matmul", operator.matmul),
        ("truediv", operator.truediv),
        ("floordiv", operator.floordiv),
        ("mod", operator.mod),
        ("divmod", divmod),
        ("lshift", operator.lshift),
        ("rshift", operator.rshift),
        ("and", operator.and_),
        ("xor", operator.xor),
        ("or", operator.or_),
    ]
    for r in ("", "r")
]

F5, F7, F9 = FqContext(5), FqContext(7), FqContext(3, 2)
F9_OTHER = FqContext(*CUSTOM_MODULI[0])


def _poly(domain):
    return UniPoly(domain, [domain.coerce(c) for c in (1, 3, 1)])


def _rational(domain):
    t = UniPoly.variable(domain)
    return RationalFunction(t + 1, t * t + 2)


# (label, value, the constant 2 built explicitly, operands of the same
# kind over another context or domain)
CASES = [
    ("FqElement F_5", F5.constant(3), F5.constant(2), [F7.one()]),
    ("FqElement F_9", F9.gen() + 1, F9.constant(2), [F7.one(), F9_OTHER.one()]),
    *[
        (
            f"UniPoly {label}",
            _poly(domain),
            UniPoly(domain, [domain.coerce(2)]),
            [UniPoly.variable(other)],
        )
        for label, domain, other in [
            ("QQ", QQ, field_domain(F5)),
            ("F_5", field_domain(F5), field_domain(F7)),
            ("F_9", field_domain(F9), field_domain(F9_OTHER)),
        ]
    ],
    *[
        (
            f"RationalFunction {label}",
            _rational(domain),
            RationalFunction.constant(domain, 2),
            [RationalFunction.variable(other), UniPoly.variable(other)],
        )
        for label, domain, other in [
            ("QQ", QQ, field_domain(F5)),
            ("F_5", field_domain(F5), QQ),
            ("F_9", field_domain(F9), field_domain(F9_OTHER)),
        ]
    ],
    *[
        (
            f"SparsePoly F_{ctx.order}",
            parse_bipoly("x*y + 2*x + 1", ctx),
            SparsePoly.constant(ctx, 2),
            [parse_bipoly("x + y", other), other.one()],
        )
        for ctx, other in [(F5, F7), (F9, F9_OTHER)]
    ],
]
IDS = [case[0] for case in CASES]


def _defined(value):
    # looked up on the class's own MRO: type itself defines __or__
    mro = type(value).__mro__
    defined = [entry for entry in OPERATORS if any(entry[0] in vars(c) for c in mro)]
    # each type has at least the ring operations, both ways round
    names = {entry[0] for entry in defined}
    assert {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"} <= names
    return defined


@pytest.mark.parametrize("label,value,const,others", CASES, ids=IDS)
def test_unrelated_operand_is_declined(label, value, const, others):
    stranger = object()
    for name, op, reflected in _defined(value):
        assert getattr(value, name)(stranger) is NotImplemented, name
        with pytest.raises(TypeError):
            op(stranger, value) if reflected else op(value, stranger)


@pytest.mark.parametrize("label,value,const,others", CASES, ids=IDS)
def test_int_operand_is_its_constant(label, value, const, others):
    for name, op, reflected in _defined(value):
        assert getattr(value, name)(2) == getattr(value, name)(const), name
        expected = op(const, value) if reflected else op(value, const)
        assert (op(2, value) if reflected else op(value, 2)) == expected, name


@pytest.mark.parametrize("label,value,const,others", CASES, ids=IDS)
def test_operand_over_another_context_raises(label, value, const, others):
    for name, op, reflected in _defined(value):
        for other in others:
            with pytest.raises(ContextMismatch):
                getattr(value, name)(other)
