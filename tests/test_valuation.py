"""Degree valuation on rational function fields and the h construction."""

import random
from fractions import Fraction

import pytest

from curvadd import (
    INFINITY,
    QQ,
    ContextMismatch,
    FqContext,
    RationalFunction,
    UniPoly,
    check_x_or_inverse,
    degree_valuation,
    ext2_family_check,
    field_domain,
    h_additive,
    in_valuation_ring,
    padic_valuation,
    random_rational_function,
    verify_valuation_axioms,
)


def t_over(domain=QQ):
    return UniPoly.variable(domain)


def test_degree_valuation_worked_examples():
    t = t_over()
    assert degree_valuation(RationalFunction(t)) == -1
    assert degree_valuation(1 / t) == 1
    assert degree_valuation((t**2 + 1) / t**5) == 3
    assert degree_valuation(1 / t + 1 / t**2) == 1
    assert degree_valuation(RationalFunction(t * 0 + 7) / 3) == 0
    assert degree_valuation(RationalFunction(t) * 0) == INFINITY


def test_degree_valuation_multiplicative():
    t = t_over()
    x = (t**3 + t) / (t - 1)
    y = (t + 2) / (t**4 + 1)
    assert degree_valuation(x * y) == degree_valuation(x) + degree_valuation(y)
    assert degree_valuation(x) == -2
    assert degree_valuation(y) == 3


def test_ultrametric_and_ring_membership():
    t = t_over()
    x = 1 / t
    y = (t + 1) / t**2
    s = x + y
    assert degree_valuation(s) >= min(degree_valuation(x), degree_valuation(y))
    assert in_valuation_ring(x)
    assert in_valuation_ring(RationalFunction(t * 0 + 5))
    assert not in_valuation_ring(RationalFunction(t))
    assert in_valuation_ring(RationalFunction(t) * 0)


def test_h_additive_values():
    t = t_over()
    # h reads the t-coefficient of the polynomial part
    assert h_additive(RationalFunction(t)) == 1
    assert h_additive(3 * t + 1 + 1 / t) == 3
    assert h_additive(t**2 / (t + 1)) == 1  # poly part t - 1
    assert h_additive(1 / t) == 0
    assert h_additive(RationalFunction(t * 0 + 9)) == 0
    assert h_additive(RationalFunction(t) * 0) == 0


def test_h_additive_is_additive_and_linear():
    t = t_over()
    x = (t**3 + 2 * t + 1) / (t**2 - 1)
    y = (5 * t**2 + 1) / (t + 3)
    assert h_additive(x + y) == h_additive(x) + h_additive(y)
    assert h_additive(x * Fraction(7, 2)) == Fraction(7, 2) * h_additive(x)


def test_h_zero_on_valuation_ring():
    t = t_over()
    for x in (1 / t, (t + 1) / (t**2 + 1), RationalFunction(t * 0 + 4)):
        assert in_valuation_ring(x)
        assert h_additive(x) == 0


def test_x_or_inverse_dichotomy():
    t = t_over()
    cases = [RationalFunction(t), 1 / t, (t**2 + 1) / (t + 1),
             RationalFunction(t * 0 + 2)]
    for x in cases:
        assert check_x_or_inverse(x)
        assert in_valuation_ring(x) or in_valuation_ring(1 / x)
        # the defeat of the multiplicative condition on the real line:
        # h(x) * h(1/x) = 0 always
        assert h_additive(x) * h_additive(1 / x) == 0
    with pytest.raises(ValueError):
        check_x_or_inverse(RationalFunction(t) * 0)


def test_product_zero_over_finite_coefficients():
    ctx = FqContext(3)
    t = t_over(field_domain(ctx))
    x = (t**2 + 1) / (t + 2)
    assert degree_valuation(x) == -1
    assert h_additive(x) * h_additive(1 / x) == ctx.zero()


def test_verify_axioms_small_run():
    report = verify_valuation_axioms(sample_count=60, seed=7)
    assert report.sample_count == 60
    assert report.seed == 7
    labels = " | ".join(report.domains)
    for base in ("Q(t)", "F_3(t)", "F_5(t)", "2-adic", "3-adic", "5-adic"):
        assert base in labels
    assert report.checks > 0
    # deterministic given the seed
    again = verify_valuation_axioms(sample_count=60, seed=7)
    assert again.checks == report.checks


def test_verify_axioms_rejects_bad_args():
    with pytest.raises(ValueError):
        verify_valuation_axioms(sample_count=0)


def test_value_group_is_all_integers():
    t = t_over()
    for n in range(-6, 7):
        x = RationalFunction(t) ** n if n else RationalFunction(t * 0 + 1)
        assert degree_valuation(x) == -n


def ext2_samples(domain, count, seed=5):
    rng = random.Random(seed)
    return [
        random_rational_function(rng, domain, nonzero=True)
        for _ in range(count)
    ]


def test_ext2_family_qq():
    t = t_over()
    report = ext2_family_check(t**2 + 1, t**2 + t, ext2_samples(QQ, 25))
    assert report.checked == 25
    assert "x^2" in report.p_expr


def test_ext2_family_finite_field():
    for p in (3, 5):
        domain = field_domain(FqContext(p))
        t = t_over(domain)
        report = ext2_family_check(
            t**2 + 1, t**2 + 2 * t, ext2_samples(domain, 20)
        )
        assert report.checked == 20


def test_ext2_family_errors():
    t = t_over()
    dom3 = field_domain(FqContext(3))
    s = t_over(dom3)
    with pytest.raises(ContextMismatch):
        ext2_family_check(t**2, s**2, ext2_samples(QQ, 2))
    with pytest.raises(ContextMismatch):
        ext2_family_check(t**2, t**2 + 1, ext2_samples(dom3, 2))
    with pytest.raises(ValueError):
        ext2_family_check(t**2, t**2 + 1, [RationalFunction(t) * 0])
    with pytest.raises(TypeError):
        ext2_family_check("t^2", t**2, ext2_samples(QQ, 1))


def test_padic_valuation():
    assert padic_valuation(Fraction(12), 2) == 2
    assert padic_valuation(Fraction(12), 3) == 1
    assert padic_valuation(Fraction(1, 8), 2) == -3
    assert padic_valuation(Fraction(0), 5) == INFINITY
    assert padic_valuation(Fraction(7, 9), 3) == -2
    with pytest.raises(ValueError):
        padic_valuation(Fraction(1), 4)
    with pytest.raises(ValueError):
        padic_valuation(Fraction(1), 1)
    # 399165290221 * 798330580441: a strong pseudoprime to every
    # Miller-Rabin base is_prime uses, and larger than MAX_PRIME
    with pytest.raises(ValueError, match="too large"):
        padic_valuation(Fraction(5, 8), 318665857834031151167461)
    mersenne = 2**61 - 1
    assert padic_valuation(Fraction(5, 8), mersenne) == 0
    assert padic_valuation(Fraction(mersenne**2, 8), mersenne) == 2


def test_padic_axioms_spot():
    for x, y, p in ((Fraction(4), Fraction(6), 2),
                    (Fraction(9, 2), Fraction(3, 4), 3)):
        assert padic_valuation(x * y, p) == (
            padic_valuation(x, p) + padic_valuation(y, p)
        )
        assert padic_valuation(x + y, p) >= min(
            padic_valuation(x, p), padic_valuation(y, p)
        )
