"""The operand rule of the four arithmetic value types, and the one
rule for what belongs to a field.

FqElement, UniPoly, RationalFunction and SparsePoly take the operand
of every binary operator through fields._coerced: an int is the
constant it names, an operand of an unrelated type is declined with
NotImplemented (so the operator itself raises TypeError), and an
operand of the same type over another context or domain, or an element
of another field, raises ContextMismatch.  Their reflected sums and
products, differences and quotients come from the two bases in fields,
fields._RingOps and fields._FieldOps, so two of these types that
decline each other end in TypeError in either order, not in a
RecursionError of reflected calls.  The exponent of ** is an int, not
an operand, so __pow__ is not covered here.

FqContext.coerce decides what every field element the package takes
stands for, also the coefficients of SparsePoly and LinearizedMap and
the arguments they are evaluated at, and field_domain gives one
coefficient domain per field.
"""

import copy
import operator
import pickle

import pytest

from curvadd import (
    QQ,
    ContextMismatch,
    FqContext,
    LinearizedMap,
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

F5, F7, F9, F27 = FqContext(5), FqContext(7), FqContext(3, 2), FqContext(3, 3)
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
            [UniPoly.variable(other), *elements],
        )
        for label, domain, other, elements in [
            ("QQ", QQ, field_domain(F5), []),
            ("F_5", field_domain(F5), field_domain(F7), [F7.one()]),
            ("F_9", field_domain(F9), field_domain(F9_OTHER), [F27.gen()]),
        ]
    ],
    *[
        (
            f"RationalFunction {label}",
            _rational(domain),
            RationalFunction.constant(domain, 2),
            [RationalFunction.variable(other), UniPoly.variable(other), *elements],
        )
        for label, domain, other, elements in [
            ("QQ", QQ, field_domain(F5), []),
            ("F_5", field_domain(F5), QQ, [F7.one()]),
            ("F_9", field_domain(F9), field_domain(F9_OTHER), [F27.gen()]),
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


@pytest.mark.parametrize(
    "other",
    [UniPoly.variable(field_domain(F5)), RationalFunction.variable(field_domain(F5))],
    ids=["UniPoly", "RationalFunction"],
)
def test_types_that_decline_each_other_raise_type_error(other):
    sparse = parse_bipoly("x + y", F5)
    for name, op, reflected in OPERATORS:
        if not reflected:
            for left, right in ((sparse, other), (other, sparse)):
                with pytest.raises(TypeError):
                    op(left, right)


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


@pytest.mark.parametrize(
    "value",
    [UniPoly.variable(field_domain(F5)), RationalFunction.variable(field_domain(F9))],
    ids=["UniPoly F_5", "RationalFunction F_9"],
)
def test_element_of_another_field_raises_through_the_operators(value):
    for other in (F7.one(), F27.gen()):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv):
            with pytest.raises(ContextMismatch):
                op(value, other)
            with pytest.raises(ContextMismatch):
                op(other, value)


@pytest.mark.parametrize("ctx", [F5, F9], ids=["F_5", "F_9"])
def test_coerce_has_one_case_per_branch(ctx):
    twin = FqContext(ctx.p, ctx.k)
    assert twin is not ctx and twin == ctx
    # an int is the constant it names, reduced mod p
    assert ctx.coerce(-1) == -ctx.one()
    # an element of an equal context is itself
    element = twin.element([1] * ctx.k)
    assert ctx.coerce(element) is element
    # an element of another context is a mismatch, not an embedding
    with pytest.raises(ContextMismatch, match=r"^element of .* used in "):
        ctx.coerce(F7.one() if ctx is F5 else F27.gen())
    # anything else is a TypeError
    for stranger in ("a", 1.5, None, [1]):
        with pytest.raises(TypeError):
            ctx.coerce(stranger)


@pytest.mark.parametrize("ctx", [F5, F9], ids=["F_5", "F_9"])
def test_a_coefficient_that_is_no_element_is_a_type_error(ctx):
    with pytest.raises(TypeError):
        SparsePoly(ctx, {(1, 0): "a"})
    with pytest.raises(TypeError):
        LinearizedMap(ctx, ["a"] + [0] * (ctx.k - 1))


@pytest.mark.parametrize("ctx", [F5, F9], ids=["F_5", "F_9"])
def test_arguments_follow_the_field_rule(ctx):
    # an int argument is the constant it names
    two, three = ctx.constant(2), ctx.constant(3)
    f = LinearizedMap(ctx, [1] * ctx.k)
    assert f(3) == f(three)
    curve = parse_bipoly("x^2*y + 2*y + 1", ctx)
    assert curve.evaluate((2, 3)) == curve.evaluate((two, three))
    for index in (0, 1):
        assert curve.substitute(index, 2) == curve.substitute(index, two)
    other = F7.one() if ctx is F5 else F27.gen()
    for call in (f, lambda v: curve.evaluate((v, two)), lambda v: curve.substitute(0, v)):
        with pytest.raises(ContextMismatch):
            call(other)
        with pytest.raises(TypeError):
            call("a")


def test_one_domain_per_field():
    assert field_domain(FqContext(5)) is field_domain(FqContext(5))
    assert field_domain(FqContext(3, 2)) is field_domain(F9)
    assert field_domain(F9) is not field_domain(F9_OTHER)


@pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_keep_the_one_domain(round_trip):
    for domain in (QQ, field_domain(F5), field_domain(F9)):
        assert round_trip(domain) is domain
        value = _poly(domain)
        twin = round_trip(value)
        assert twin.domain is value.domain and twin == value
