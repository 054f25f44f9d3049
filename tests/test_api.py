"""The public API: every exported name is unique and resolves, the
value types, records, field contexts and coefficient domains copy,
pickle and stay immutable, and importing the package generates no
code."""

import copy
import itertools
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

import curvadd
from curvadd import (
    QQ,
    BoundReport,
    ContextMismatch,
    CoverVerdict,
    Curve,
    FqContext,
    HWWindow,
    LinearizedMap,
    PointSet,
    RationalFunction,
    SparsePoly,
    Subspace,
    UniPoly,
    affine_points,
    analyze,
    conjectural_by_count,
    decide_by_hyperplanes,
    ext2_family_check,
    field_domain,
    padic_valuation,
    parse_bipoly,
    singular_points,
    verify_valuation_axioms,
    zero_forcing_by_count,
    zero_forcing_inequality,
)
from curvadd import cli
from curvadd.claims import CURVE_CLAIMS
from curvadd.curve import fibre_scan
from curvadd.fields import code_tables
from conftest import CUSTOM_MODULI


def test_all_has_no_duplicates():
    assert len(curvadd.__all__) == len(set(curvadd.__all__))


def test_every_exported_name_resolves():
    missing = [name for name in curvadd.__all__ if not hasattr(curvadd, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from curvadd import *", namespace)
    assert set(curvadd.__all__) <= set(namespace)


def _values():
    """One of each value type, over several domains, then one of each
    record type."""
    f3, f5, f9 = FqContext(3), FqContext(5), FqContext(3, 2)
    g = f9.gen()
    over_q = UniPoly(QQ, (Fraction(1, 2), 0, 3))
    over_f3 = UniPoly(field_domain(f3), (1, 1))
    identity = LinearizedMap.identity(f9)
    circle = Curve(parse_bipoly("x^2 + y^2 - 1", f9))
    points = affine_points(circle)
    # over F_9 the circle has the trace map x + x^3 as a witness
    verdict = decide_by_hyperplanes(points, f9)
    assert verdict.exists_nonzero
    report = analyze(circle)
    t = UniPoly.variable(QQ)
    family = ext2_family_check(t, t, [RationalFunction(t + 1)])
    return [
        g + 1,
        over_q,
        UniPoly(field_domain(f5), (4, 0, 1)),
        UniPoly(field_domain(f9), (g, 1)),
        RationalFunction(over_q, UniPoly(QQ, (1, 1))),
        RationalFunction(over_f3, UniPoly(field_domain(f3), (2, 0, 1))),
        parse_bipoly("x^2 + g*y - 1", f9),
        identity,
        identity.kernel(),
        LinearizedMap(f9, [g, 1]).kernel(),
        points,
        verdict,
        report,
        circle,
        report.hw,
        report.inequality1,
        CURVE_CLAIMS[0],
        verify_valuation_axioms(sample_count=2, seed=1),
        family,
        fibre_scan(circle),
        code_tables(f9),
    ]


def _contexts():
    """Field contexts with k = 1, k = 2 and one custom modulus."""
    return [FqContext(5), FqContext(3, 2), FqContext(*CUSTOM_MODULI[0])]


def _domains():
    return [field_domain(ctx) for ctx in _contexts()]


ROUND_TRIPS = pytest.mark.parametrize(
    "round_trip",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)


@ROUND_TRIPS
def test_values_copy_and_pickle(round_trip):
    for value in _values() + _contexts():
        twin = round_trip(value)
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value), value


@ROUND_TRIPS
def test_domains_copy_and_pickle_to_the_cached_domain(round_trip):
    for domain in _domains() + [QQ]:
        assert round_trip(domain) is domain


def _assert_immutable(values):
    for value in values:
        for name in type(value)._fields:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert hash(value) == hash(copy.deepcopy(value))


def _assert_refuses_new_attributes(values):
    for value in values:
        before = copy.deepcopy(value)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert not hasattr(value, "extra")
        assert value == before and hash(value) == hash(before)


def test_six_value_types_stay_immutable():
    values = _values()[:10]
    assert {type(v).__name__ for v in values} == {
        "FqElement", "UniPoly", "RationalFunction", "SparsePoly",
        "LinearizedMap", "Subspace",
    }
    _assert_immutable(values)


def test_six_value_types_refuse_new_attributes():
    """Assigning a name that is not a field raises AttributeError, as
    assigning a field does, and changes nothing."""
    _assert_refuses_new_attributes(_values()[:10])


def test_eleven_record_types_stay_immutable():
    records = _values()[10:]
    assert [type(r).__name__ for r in records] == [
        "PointSet", "CoverVerdict", "AnalysisReport", "Curve", "HWWindow",
        "BoundReport", "CurveClaim", "AxiomCheckReport", "FamilyCheckReport",
        "FibreScan", "CodeTables",
    ]
    _assert_immutable(records)


def test_eleven_record_types_refuse_new_attributes():
    _assert_refuses_new_attributes(_values()[10:])


def test_contexts_and_domains_stay_immutable():
    """Assigning or deleting a field of a context or of the cached
    domain of a field raises AttributeError, and the elements and
    polynomials built before still compute."""
    contexts, domains = _contexts(), _domains()
    top = [ctx.decode(ctx.order - 1) for ctx in contexts]
    squares = [x * x for x in top]
    products = [UniPoly(d, (2, 1)) * UniPoly(d, (3, 1)) for d in domains]
    for ctx in contexts:
        for name in ("p", "k", "modulus", "order"):
            with pytest.raises(AttributeError, match="FqContext is immutable"):
                delattr(ctx, name)
        with pytest.raises(AttributeError, match="FqContext is immutable"):
            ctx.p = 5
    for domain in domains:
        with pytest.raises(AttributeError, match="Domain is immutable"):
            domain.ctx = FqContext(7)
        with pytest.raises(AttributeError, match="Domain is immutable"):
            del domain.one_form
    _assert_immutable(contexts + domains)
    _assert_refuses_new_attributes(contexts + domains)
    assert [x * x for x in top] == squares
    assert [UniPoly(d, (2, 1)) * UniPoly(d, (3, 1)) for d in domains] == products
    assert domains == _domains() and [d.ctx for d in domains] == contexts


def test_sparse_poly_terms_are_read_only():
    ctx = FqContext(5)
    f = parse_bipoly("x*y - 1", ctx)
    before = hash(f)
    with pytest.raises(TypeError):
        f.terms[(0, 0)] = ctx.one()
    with pytest.raises(TypeError):
        del f.terms[(1, 1)]
    assert f == parse_bipoly("x*y - 1", ctx) and hash(f) == before and f in {f}
    assert dict(f.terms) == {(1, 1): ctx.one(), (0, 0): ctx.constant(-1)}


def test_bound_report_exact_terms_are_read_only():
    report = analyze(_hyperbola_f7())
    b = report.inequality1
    before = hash(b)
    with pytest.raises(TypeError):
        b.exact_terms["A"] = 0
    assert dict(b.exact_terms)["A"] == 2 and hash(b) == before
    assert cli.report_json(report)["bounds"]["inequality1"]["exact_terms"]["A"] == 2


def test_records_print_their_fields():
    f9 = FqContext(3, 2)
    report = analyze(Curve(parse_bipoly("x^2 + y^2 - 1", f9)))
    assert repr(report.points) == (
        "PointSet(ctx=FqContext(p=3, k=2, modulus=[1, 0, 1]), codes=((0, 1), "
        "(0, 2), (1, 0), (2, 0), (3, 3), (3, 6), (6, 3), (6, 6)))"
    )
    assert repr(report.decision) == (
        "CoverVerdict(exists_nonzero=True, witness_map=LinearizedMap(x + x^3), "
        "method='hyperplane-search')"
    )
    assert repr(report.decision.witness_subspace) == "Subspace(dim=1, basis=[[0, 1]])"
    assert repr(report.hw) == (
        "HWWindow(q=9, n_points=10, affine_count=8, infinity_count=2, "
        "genus_bound=0, lower=10, upper=10, verdict='consistent')"
    )
    assert repr(report.inequality1) == (
        "BoundReport(name='inequality1', forced_zero=False, exact_terms=(('q', 9), "
        "('d', 2), ('A', -4), ('A_squared', 16), ('B', 0), ('B_squared_times_q', 0)), "
        "m=None, d=2, cover_lower_bound=None, claimed_by_statement=None)"
    )
    assert repr(CURVE_CLAIMS[0]) == (
        "CurveClaim(label='quadratic-over-F3', p=3, k=1, "
        "expression='y^2 + 2*x*y + 2*y + x', claimed_point_codes=((0, 0), "
        "(0, 1)), claimed_count=2, claims_identity_witness=True, "
        "claimed_smooth=False)"
    )
    t = UniPoly.variable(QQ)
    family = ext2_family_check(t, t, [RationalFunction(t + 1)])
    assert repr(family) == "FamilyCheckReport(p_expr='x', q_expr='x', checked=1)"
    assert repr(verify_valuation_axioms(sample_count=2, seed=1)) == (
        "AxiomCheckReport(sample_count=2, seed=1, domains=('degree valuation "
        "on Q(t)', 'degree valuation on F_3(t)', 'degree valuation on "
        "F_5(t)', '2-adic valuation on Q', '3-adic valuation on Q', "
        "'5-adic valuation on Q'), checks=81)"
    )
    assert repr(report).startswith(
        "AnalysisReport(curve=Curve(x^2 + y^2 + 2 = 0 over FqContext(p=3, k=2, "
        "modulus=[1, 0, 1])), points=PointSet("
    )
    assert repr(report).endswith(
        "oracle_agreement='agree', paper_flags=())"
    )


def test_cover_verdict_derives_its_kernel_from_the_map():
    assert CoverVerdict._fields == ("exists_nonzero", "witness_map", "method")
    verdict = analyze(Curve(parse_bipoly("x^2 + y^2 - 1", FqContext(3, 2)))).decision
    assert verdict.witness_subspace == verdict.witness_map.kernel()
    with pytest.raises(AttributeError):
        verdict.witness_subspace = None
    with pytest.raises(TypeError):
        CoverVerdict(True, verdict.witness_map, witness_subspace=None)


def test_records_construct_by_position_or_keyword_with_defaults():
    assert CoverVerdict(False) == CoverVerdict(
        exists_nonzero=False,
        witness_map=None,
        method="hyperplane-search",
    )
    assert CoverVerdict(False).witness_subspace is None
    verdict = CoverVerdict(True, 1, "exhaustive-oracle")
    assert (verdict.witness_map, verdict.method) == (1, "exhaustive-oracle")
    assert verdict == CoverVerdict(True, method="exhaustive-oracle", witness_map=1)
    assert PointSet() == PointSet(None, ()) and PointSet().count == 0
    bound = BoundReport("by_count", True, (), d=2)
    assert (bound.m, bound.d, bound.claimed_by_statement) == (None, 2, None)
    f9 = FqContext(3, 2)
    defining = parse_bipoly("x*y - 1", f9)
    curve = Curve(defining, True)
    assert curve.assert_smooth and not curve.assert_abs_irreducible
    assert curve == Curve(defining=defining, assert_smooth=True)
    assert curve != Curve(defining)


@pytest.mark.parametrize(
    "build",
    [
        lambda: CoverVerdict(),
        lambda: CoverVerdict(True, bogus=1),
        lambda: CoverVerdict(True, None, "hyperplane-search", 5),
        lambda: CoverVerdict(True, exists_nonzero=False),
        lambda: HWWindow(9, 10, 8, 2, 0, 10, 10),
        lambda: BoundReport("by_count", True),
        lambda: Curve(),
        lambda: Curve(parse_bipoly("x", FqContext(3)), smooth=True),
    ],
    ids=[
        "missing", "unknown", "too-many", "twice", "missing-last",
        "missing-no-default", "curve-missing", "curve-unknown",
    ],
)
def test_records_refuse_missing_or_unknown_arguments(build):
    with pytest.raises(TypeError):
        build()


def _cross_type_values():
    """Constants of each value type over Q, F_3, F_5 and F_9, the ints
    and Fractions they could be taken to stand for, the fields of a
    scan and of code tables as plain tuples, and one SparsePoly built
    from the same terms in two dict orders."""
    f9 = FqContext(3, 2)
    scan = fibre_scan(Curve(parse_bipoly("x^2 + y^2 - 1", f9)))
    tables = code_tables(f9)
    out = [0, 1, 2, -1, Fraction(1, 2), Fraction(2), True, False]
    out += [(scan.points, scan.singular, scan.lines), (tables.exp, tables.log, tables.zech)]
    terms = {(2, 0): 1, (0, 1): f9.gen(), (1, 1): 2, (0, 0): f9.decode(5)}
    out += [SparsePoly(f9, terms), SparsePoly(f9, dict(reversed(terms.items())))]
    for ctx in (FqContext(3), FqContext(5), FqContext(3, 2)):
        domain = field_domain(ctx)
        for c in (0, 1, 2):
            constant = UniPoly(domain, (c,))
            out += [
                ctx.constant(c), constant, RationalFunction(constant),
                SparsePoly.constant(ctx, c),
            ]
    for c in (0, 1, 2, Fraction(1, 2)):
        out += [UniPoly(QQ, (c,)), RationalFunction(UniPoly(QQ, (c,)))]
    return out


def _ours(value):
    return type(value).__module__.startswith("curvadd.")


def test_equal_values_hash_equal():
    """Any two equal values among the six value types, the eleven
    records, the field contexts and coefficient domains, their pickled
    twins and the cross-type constants hash equal.  No value of the
    package equals an int, a Fraction, a tuple or a value of another
    type."""
    values = _values() + _contexts() + _domains() + [QQ] + _cross_type_values()
    values += [pickle.loads(pickle.dumps(v)) for v in values]
    equal_pairs = 0
    for a, b in itertools.combinations(values, 2):
        if a == b:
            equal_pairs += 1
            assert hash(a) == hash(b), (a, b)
            assert type(a) is type(b) or not (_ours(a) or _ours(b)), (a, b)
    assert equal_pairs >= len(values) // 2


NON_INTEGRAL = {
    "FqElement ** 0.5": lambda: FqContext(7).constant(3) ** 0.5,
    "UniPoly ** 2.9": lambda: UniPoly.variable(QQ) ** 2.9,
    "RationalFunction ** 2.9": lambda: RationalFunction(UniPoly.variable(QQ)) ** 2.9,
    "SparsePoly ** '2'": lambda: parse_bipoly("x", FqContext(7)) ** "2",
    "FqContext(5, 2.5)": lambda: FqContext(5, 2.5),
    "FqContext(7.9)": lambda: FqContext(7.9),
    "FqContext modulus": lambda: FqContext(3, 2, (1.0, 0, 1)),
    "decode(2.7)": lambda: FqContext(7).decode(2.7),
    "element([1.5])": lambda: FqContext(7).element([1.5]),
    "constant(2.9)": lambda: FqContext(7).constant(2.9),
    "SparsePoly exponent 1.5": lambda: SparsePoly(FqContext(7), {(1.5, 0): 1}),
    "SparsePoly exponent '2'": lambda: SparsePoly(FqContext(7), {("2", 0): 1}),
    "padic_valuation p": lambda: padic_valuation(12, 2.9),
    "padic_valuation x 0.1": lambda: padic_valuation(0.1, 5),
    "padic_valuation x inf": lambda: padic_valuation(float("inf"), 2),
    "verify_valuation_axioms": lambda: verify_valuation_axioms(2.5),
    "zero_forcing_inequality d": lambda: zero_forcing_inequality(5, 1, 2.5),
    "zero_forcing_by_count m": lambda: zero_forcing_by_count(4.5, 2, 5, 1),
    "conjectural_by_count d": lambda: conjectural_by_count(4, 2.0, 5, 1),
    "singular_points ext": lambda: singular_points(_hyperbola_f7(), 2.5),
    "analyze singular_ext": lambda: analyze(_hyperbola_f7(), singular_ext=1.5),
}


def _hyperbola_f7():
    return Curve(parse_bipoly("x*y - 1", FqContext(7)))


_F9 = FqContext(3, 2)


@pytest.mark.parametrize("call", NON_INTEGRAL.values(), ids=NON_INTEGRAL)
def test_integer_arguments_refuse_non_integral_values(call):
    with pytest.raises(TypeError):
        call()


REFUSALS = {
    "decode out of range": (
        lambda: FqContext(7).decode(7), ValueError, "code 7 out of range [0, 7)"),
    "element past k": (
        lambda: FqContext(3, 2).element([1, 2, 0]), ValueError,
        "too many coefficients: 3 > k = 2"),
    "gen of F_p": (
        lambda: FqContext(3).gen(), ValueError,
        "F_p has no extension generator; g needs k >= 2"),
    "LinearizedMap length": (
        lambda: LinearizedMap(FqContext(3, 2), [1]), ValueError,
        "need k = 2 coefficients, got 1"),
    "SparsePoly negative exponent": (
        lambda: SparsePoly(FqContext(7), {(-1, 0): 1}), ValueError,
        "negative exponent in (-1, 0)"),
    "evaluate one value": (
        lambda: parse_bipoly("x", FqContext(7)).evaluate([1]), ValueError,
        "need 2 values, got 1"),
    "UniPoly ** -1": (
        lambda: UniPoly.variable(QQ) ** -1, ValueError, "negative power of a polynomial"),
    "SparsePoly ** -1": (
        lambda: parse_bipoly("x", FqContext(7)) ** -1, ValueError,
        "negative power of a polynomial"),
    "leading of zero": (
        lambda: UniPoly.zero(QQ).leading, ValueError,
        "zero polynomial has no leading coefficient"),
    "field_domain(3)": (
        lambda: field_domain(3), TypeError, "field_domain expects an FqContext"),
    "singular_points ext 0": (
        lambda: singular_points(_hyperbola_f7(), 0), ValueError,
        "ext_degree must be >= 1, got 0"),
    "analyze oracle": (
        lambda: analyze(_hyperbola_f7(), oracle="x"), ValueError,
        "oracle must be auto|on|off, got 'x'"),
    "zero_forcing_by_count d": (
        lambda: zero_forcing_by_count(4, 0, 3, 1), ValueError, "d must be >= 1, got 0"),
    "conjectural_by_count d": (
        lambda: conjectural_by_count(4, 0, 3, 1), ValueError, "d must be >= 1, got 0"),
    "conjectural_by_count m": (
        lambda: conjectural_by_count(-1, 2, 3, 1), ValueError, "m must be >= 0, got -1"),
    "points of another field": (
        lambda: decide_by_hyperplanes(affine_points(_hyperbola_f7()), FqContext(5)),
        ContextMismatch, "point from a different context"),
    # the deciders took these for points, and verify_witness read 99 as 0
    "PointSet code q": (
        lambda: PointSet(_F9, ((9, 0), (0, 10))), ValueError,
        "point code pair (9, 0) out of range [0, 9)"),
    "PointSet code -1": (
        lambda: PointSet(_F9, ((-1, -1),)), ValueError,
        "point code pair (-1, -1) out of range [0, 9)"),
    "PointSet code 99": (
        lambda: PointSet(_F9, ((1, 99),)), ValueError,
        "point code pair (1, 99) out of range [0, 9)"),
    "Subspace row width": (
        lambda: Subspace(_F9, [[1, 0, 0]]), ValueError, "need k = 2 coordinates per row, got 3"),
    "composition across domains": (
        lambda: UniPoly.variable(field_domain(FqContext(5)))(
            RationalFunction(UniPoly.variable(field_domain(FqContext(7))))),
        ContextMismatch, "composition across domains"),
    "numerator and denominator domains": (
        lambda: RationalFunction(
            UniPoly.variable(field_domain(FqContext(5))),
            UniPoly.variable(field_domain(FqContext(7)))),
        ContextMismatch, "numerator and denominator domains differ"),
    "parse a non-string": (
        lambda: parse_bipoly(3, FqContext(5)), TypeError, "expected an expression string"),
}


@pytest.mark.parametrize("call,error,message", REFUSALS.values(), ids=REFUSALS)
def test_refusals_name_their_cause(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def test_integer_arguments_take_ints_and_bools():
    f7 = FqContext(7)
    three = f7.constant(3)
    assert three ** True == three and three ** 2 == f7.constant(2)
    assert FqContext(5, True) == FqContext(5)
    assert f7.decode(True) == f7.one() == f7.element([8]) == f7.constant(-6)
    assert SparsePoly(f7, {(True, 0): 1}) == parse_bipoly("x", f7)
    assert padic_valuation(12, 2) == 2
    assert zero_forcing_inequality(5, 1, 2) == zero_forcing_inequality(5, True, 2)
    assert singular_points(_hyperbola_f7(), True).count == 0


def test_curve_refuses_zero_and_constant_polynomials():
    f9 = FqContext(3, 2)
    with pytest.raises(ValueError, match="zero polynomial"):
        Curve(SparsePoly.zero(f9))
    with pytest.raises(ValueError, match="constant polynomial"):
        Curve(SparsePoly.constant(f9, 2), assert_smooth=True)


def test_import_generates_no_code():
    """A fresh process importing the CLI loads none of the modules that
    generate classes at run time.  -S keeps site-packages' start-up
    hooks out, so the check sees only what the package imports.  No
    class of the package subclasses tuple: a namedtuple equals the
    plain tuple of its fields and builds its __new__ with eval."""
    src = os.path.dirname(os.path.dirname(curvadd.__file__))
    code = (
        "import sys; import curvadd.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[]\n"
    tuples = [
        f"{name}.{cls.__name__}"
        for name, module in list(sys.modules.items())
        if name.startswith("curvadd.")
        for cls in vars(module).values()
        if isinstance(cls, type) and cls.__module__ == name and issubclass(cls, tuple)
    ]
    assert tuples == []
