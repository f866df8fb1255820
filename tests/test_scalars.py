"""Exact scalar tower: field arithmetic, trig ring, parameter polynomials."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hs

from g2cal.scalars import (
    AlgebraicScalar,
    ALG_ONE,
    ALG_ZERO,
    SQRT3,
    SQRT5,
    SQRT15,
    TrigScalar,
    TRIG_ONE,
    TRIG_ZERO,
    ParamPoly,
    LAM,
    A_UNK,
    B_UNK,
    MU,
    InexactDivision,
    alg,
    c_k,
    s_k,
    trig_div_exact,
    poly_div_exact,
)

fractions = hs.fractions(min_value=-8, max_value=8, max_denominator=12)
algebraics = hs.tuples(fractions, fractions, fractions, fractions).map(
    lambda q: alg(*q)
)


def test_surd_products():
    assert SQRT3 * SQRT3 == alg(3)
    assert SQRT5 * SQRT5 == alg(5)
    assert SQRT3 * SQRT5 == SQRT15
    assert SQRT15 * SQRT15 == alg(15)
    assert (ALG_ONE + SQRT3) * (ALG_ONE - SQRT3) == alg(-2)


@given(algebraics)
@settings(derandomize=True)
def test_inverse_roundtrip(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
    else:
        assert x * x.inverse() == ALG_ONE


@given(algebraics, algebraics)
@settings(derandomize=True)
def test_field_float_consistency(x, y):
    assert math.isclose(
        (x * y + x).to_float(), x.to_float() * y.to_float() + x.to_float(),
        rel_tol=1e-12, abs_tol=1e-12,
    )


def test_rationality_predicates():
    assert alg(Fraction(3, 7)).is_rational()
    assert alg(Fraction(3, 7)).rational_value() == Fraction(3, 7)
    assert not SQRT5.is_rational()


def test_phase_shift_sum():
    # cos(t) + cos(t + 2pi/3) + cos(t + 4pi/3) = 0, same for sin
    assert c_k(1) + c_k(2) + c_k(3) == TRIG_ZERO
    assert s_k(1) + s_k(2) + s_k(3) == TRIG_ZERO


def test_phase_pair_identity():
    minus_half = TrigScalar.const(Fraction(-1, 2))
    for j, k in ((1, 2), (2, 3), (3, 1)):
        assert c_k(j) * c_k(k) + s_k(j) * s_k(k) == minus_half


trigs = hs.lists(
    hs.tuples(hs.integers(min_value=0, max_value=4), fractions, fractions),
    max_size=4,
).map(
    lambda rows: sum(
        (TrigScalar.cos(n, c) + TrigScalar.sin(n, s) for n, c, s in rows),
        TRIG_ZERO,
    )
)


@given(trigs, trigs, trigs)
@settings(derandomize=True, max_examples=60)
def test_trig_ring_axioms(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * TRIG_ONE == x


@given(trigs, trigs)
@settings(derandomize=True, max_examples=60)
def test_trig_leibniz(x, y):
    assert (x * y).deriv() == x.deriv() * y + x * y.deriv()


@given(trigs, hs.floats(min_value=0.0, max_value=2.0))
@settings(derandomize=True, max_examples=60)
def test_trig_float_consistency(x, t):
    got = x.to_float(t)
    want = sum(
        c.to_float() * math.cos(n * t) + s.to_float() * math.sin(n * t)
        for n, (c, s) in x.terms.items()
    )
    assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)


def test_trig_division_exact_and_inexact():
    num = s_k(1) * c_k(2) * 4
    den = s_k(1)
    assert trig_div_exact(num, den) == c_k(2) * 4
    with pytest.raises(InexactDivision):
        trig_div_exact(TRIG_ONE, s_k(1))


def test_param_poly_bind_and_substitute():
    p = LAM * LAM * A_UNK + MU * ParamPoly.const(2)
    q = p.bind({"lam": alg(2), "a": alg(3)})
    assert q.degree_in("mu") == 1 and q.degree_in("lam") == 0
    full = p.substitute({"lam": alg(2), "a": alg(3), "mu": alg(-1)})
    assert full.const_value() == alg(10)


def test_param_poly_division_roundtrip():
    num = (LAM + A_UNK) * (LAM * LAM + B_UNK * ParamPoly.const(3))
    den = LAM + A_UNK
    assert poly_div_exact(num, den) == LAM * LAM + B_UNK * ParamPoly.const(3)
    with pytest.raises(InexactDivision):
        poly_div_exact(LAM * LAM + ParamPoly.const(1), LAM + ParamPoly.const(1))


def test_param_poly_t_derivative():
    p = LAM * ParamPoly.const(c_k(1))
    assert p.deriv_t() == LAM * ParamPoly.const(-s_k(1))


# -- AlgebraicScalar against a Fraction reference -------------------------------
#
# The reference keeps an element of Q(sqrt3, sqrt5) as the 4-tuple of
# Fractions over 1, sqrt3, sqrt5, sqrt15.  derandomize=True draws the same
# examples in every process.

_TAGS = ("", "sqrt3", "sqrt5", "sqrt15")
_ref_fracs = hs.fractions(min_value=-60, max_value=60, max_denominator=90)
_ref_elems = hs.tuples(_ref_fracs, _ref_fracs, _ref_fracs, _ref_fracs)


def _ref_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _ref_mul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 + 3 * a1 * b1 + 5 * a2 * b2 + 15 * a3 * b3,
        a0 * b1 + a1 * b0 + 5 * a2 * b3 + 5 * a3 * b2,
        a0 * b2 + a2 * b0 + 3 * a1 * b3 + 3 * a3 * b1,
        a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
    )


def _ref_render(q):
    parts = [
        "(%s)%s" % (c, "*" + tag if tag else "")
        for c, tag in zip(q, _TAGS)
        if c != 0
    ]
    return " + ".join(parts) if parts else "0"


def _ref_float(q):
    return sum(float(c) * r for c, r in zip(q, (1.0, math.sqrt(3.0), math.sqrt(5.0), math.sqrt(15.0))))


def _assert_canonical(x):
    *n, d = x._v
    assert all(type(v) is int for v in x._v)
    assert d > 0 and math.gcd(d, *n) == 1


@given(_ref_elems, _ref_elems)
@settings(derandomize=True, max_examples=300)
def test_algebraic_scalar_matches_fraction_reference(a, b):
    x, y = alg(*a), alg(*b)
    assert x.q == a and y.q == b
    assert (x + y).q == _ref_add(a, b)
    assert (x - y).q == _ref_add(a, tuple(-c for c in b))
    assert (-x).q == tuple(-c for c in a)
    assert (x * y).q == _ref_mul(a, b)
    assert (x == y) == (a == b)
    assert x.render() == _ref_render(a)
    assert x.to_float() == _ref_float(a)
    for z in (x + y, x - y, x * y, -x):
        _assert_canonical(z)
    if any(a):
        assert _ref_mul(x.inverse().q, a) == (1, 0, 0, 0)
        _assert_canonical(x.inverse())
    if not any(a[1:]):
        assert x.is_rational() and x.rational_value() == a[0]
        assert x == a[0]
    else:
        assert not x.is_rational()
        with pytest.raises(ValueError):
            x.rational_value()


@given(_ref_elems, _ref_elems, hs.integers(min_value=1, max_value=40))
@settings(derandomize=True, max_examples=200)
def test_equal_values_share_one_representation(a, b, k):
    x, y = alg(*a), alg(*b)
    # the same value reached three ways
    ways = [x, (x + y) - y, (x * k) * alg(Fraction(1, k))]
    if any(b):
        ways.append((x * y) / y)
    for w in ways:
        _assert_canonical(w)
        assert w == x and w._v == x._v and hash(w) == hash(x)


def test_algebraic_scalar_rejects_non_rationals():
    for bad in (0.5, "1", None):
        with pytest.raises(TypeError):
            alg(bad)
    with pytest.raises(TypeError):
        alg(1, 0.5)
