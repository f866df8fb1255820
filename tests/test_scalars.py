"""Exact scalar tower: field arithmetic, trig ring, parameter polynomials."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as hs

from g2cal import scalars
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
    POLY_ZERO,
    LAM,
    A_UNK,
    B_UNK,
    MU,
    UNKNOWNS,
    alg,
    c_k,
    s_k,
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
    assert alg(Fraction(3, 7)).q == (Fraction(3, 7), 0, 0, 0)
    assert SQRT5.q[1:] != (0, 0, 0)


def test_phase_shift_sum():
    # cos(t) + cos(t + 2pi/3) + cos(t + 4pi/3) = 0, same for sin
    assert c_k(1) + c_k(2) + c_k(3) == TRIG_ZERO
    assert s_k(1) + s_k(2) + s_k(3) == TRIG_ZERO


def test_phase_pair_identity():
    minus_half = TrigScalar.const(Fraction(-1, 2))
    for j, k in ((1, 2), (2, 3), (3, 1)):
        assert c_k(j) * c_k(k) + s_k(j) * s_k(k) == minus_half


# rows (n, c, s) stand for the sum of c cos(n t) + s sin(n t)
trig_rows = hs.lists(
    hs.tuples(hs.integers(min_value=0, max_value=4), fractions, fractions),
    max_size=4,
)


def _trig(rows):
    return sum(
        (TrigScalar.cos(n, c) + TrigScalar.sin(n, s) for n, c, s in rows),
        TRIG_ZERO,
    )


trigs = trig_rows.map(_trig)


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


@given(trig_rows, trig_rows, hs.floats(min_value=0.0, max_value=2.0))
@settings(derandomize=True, max_examples=60)
def test_trig_float_consistency(x_rows, y_rows, t):
    def value(rows):
        return sum(float(c) * math.cos(n * t) + float(s) * math.sin(n * t)
                   for n, c, s in rows)

    def slope(rows):
        return sum(n * (float(s) * math.cos(n * t) - float(c) * math.sin(n * t))
                   for n, c, s in rows)

    x, y = _trig(x_rows), _trig(y_rows)
    for got, want in (
        (x.to_float(t), value(x_rows)),
        ((x * y).to_float(t), value(x_rows) * value(y_rows)),
        (x.deriv().to_float(t), slope(x_rows)),
    ):
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9)


def test_param_poly_bind_and_substitute():
    p = LAM * LAM * A_UNK + MU * ParamPoly.const(2)
    q = p.bind({"lam": alg(2), "a": alg(3)})
    assert q.degree_in("mu") == 1 and q.degree_in("lam") == 0
    # binding every unknown substitutes: a constant ParamPoly remains
    full = p.bind({"lam": alg(2), "a": alg(3), "mu": alg(-1)})
    assert full.const_value().const_value() == alg(10)


def _ref_trig_mul(x, y):
    """Product to sum, one pair of modes at a time."""
    half = alg(Fraction(1, 2))
    out = TRIG_ZERO
    for j, u in x.terms.items():
        for k, v in y.terms.items():
            m, n, h = abs(j), abs(k), u * v * half
            if j >= 0 and k >= 0:   # cos m cos n
                part = TrigScalar.cos(m - n, h) + TrigScalar.cos(m + n, h)
            elif j < 0 and k < 0:   # sin m sin n
                part = TrigScalar.cos(m - n, h) - TrigScalar.cos(m + n, h)
            elif j < 0:             # sin m cos n
                part = TrigScalar.sin(m + n, h) + TrigScalar.sin(m - n, h)
            else:                   # cos m sin n
                part = TrigScalar.sin(m + n, h) - TrigScalar.sin(m - n, h)
            out = out + part
    return out


def _assert_no_zero_stored(x):
    if isinstance(x, ParamPoly):
        for c in x.terms.values():
            assert not c.is_zero()
            _assert_no_zero_stored(c)
    else:
        assert all(not c.is_zero() for c in x.terms.values())


def _assert_coefficients_canonical(p):
    """Every stored field coefficient of the ParamPoly p has the tuple the
    public constructor gives its value."""
    for trig in p.terms.values():
        for c in trig.terms.values():
            assert c._v == AlgebraicScalar(*c.q)._v


constants = hs.one_of(
    hs.sampled_from([0, 1, -1, ALG_ZERO, TRIG_ZERO, TRIG_ONE]), fractions, algebraics
)


@given(trigs, constants)
@settings(derandomize=True, max_examples=100)
def test_trig_product_with_constant(x, c):
    k = TrigScalar.coerce(c)
    want = _ref_trig_mul(x, k)
    assert _ref_trig_mul(k, x) == want
    for got in (x * c, x * k, k * x, c * x):
        assert got == want
        _assert_no_zero_stored(got)
    assert x * TRIG_ONE == x == TRIG_ONE * x
    assert (x * TRIG_ZERO).terms == {} == (TRIG_ZERO * x).terms


# -- ParamPoly.bind ---------------------------------------------------------------

_exponents = hs.tuples(*[hs.integers(min_value=0, max_value=2)] * 4)
param_polys = hs.dictionaries(_exponents, trigs, max_size=4).map(ParamPoly)
# coprime denominators (say 5 and 12) meet in one of bind's sums
_values = hs.one_of(
    hs.integers(min_value=-3, max_value=3),
    hs.fractions(min_value=-3, max_value=3, max_denominator=12),
    hs.tuples(*[hs.fractions(min_value=-2, max_value=2, max_denominator=6)] * 4).map(
        lambda q: alg(*q)
    ),
)
full_bindings = hs.fixed_dictionaries({name: _values for name in UNKNOWNS})


@given(param_polys, param_polys, full_bindings, hs.sets(hs.sampled_from(UNKNOWNS)),
       hs.sets(hs.sampled_from(UNKNOWNS)), hs.floats(min_value=0.0, max_value=2.0))
@settings(derandomize=True, max_examples=80, deadline=None)
def test_bind_is_exact_and_composes(p, q, full, names1, names2, t):
    b1 = {k: full[k] for k in names1}
    b2 = {k: full[k] for k in names2 - names1}
    both = {**b1, **b2}
    assert (p * q).bind(both) == p.bind(both) * q.bind(both)
    assert (p + q).bind(both) == p.bind(both) + q.bind(both)
    assert p.bind(both) == p.bind(b1).bind(b2)
    for got in (p.bind(b1), p.bind(both), (p * q).bind(both), p.bind(full)):
        _assert_no_zero_stored(got)
        _assert_coefficients_canonical(got)
    # a full binding leaves a constant whose value is the float evaluation
    floats = {k: AlgebraicScalar.coerce(v).to_float() for k, v in full.items()}
    got = p.bind(full).const_value().to_float(t)
    want = p.to_float(floats, t)
    scale = sum(
        sum(abs(c.to_float()) for c in coeff.terms.values())
        * math.prod(abs(floats[n]) ** e for n, e in zip(UNKNOWNS, exp))
        for exp, coeff in p.terms.items()
    )
    assert abs(got - want) <= 1e-9 * max(1.0, scale)


def test_bind_drops_cancelled_terms():
    assert (LAM - A_UNK).bind({"lam": 2, "a": 2}).terms == {}
    assert (LAM * MU - A_UNK * MU).bind({"lam": alg(0, 1), "a": SQRT3}).terms == {}
    # one mode cancels and another survives
    p = (LAM - A_UNK) * ParamPoly.const(c_k(1)) + B_UNK * ParamPoly.const(s_k(1))
    got = p.bind({"lam": Fraction(1, 2), "a": Fraction(1, 2), "b": 2})
    assert got == ParamPoly.const(s_k(1) * 2)
    _assert_no_zero_stored(got)
    # a binding for an absent unknown changes nothing
    assert (LAM * LAM).bind({"mu": 5}) == LAM * LAM


def test_bind_refuses_a_name_that_is_not_an_unknown():
    p = LAM * A_UNK + MU
    for bad in ({"lambda": alg(2)}, {"lam": 1, "x": 0}, {"mu": 1, "t": 0}):
        with pytest.raises(ValueError, match=repr(next(k for k in bad if k not in UNKNOWNS))):
            p.bind(bad)


def test_param_poly_refuses_an_exponent_that_is_not_an_int():
    # a float exponent would render as "lam" and equal LAM, then break bind
    for exp in ((1.0, 0, 0, 0), (0, 0, Fraction(1), 0), (0, 2, 0, 0.5)):
        with pytest.raises(ValueError, match=r"bad exponent vector"):
            ParamPoly({exp: TRIG_ONE})
    assert ParamPoly({(1, 0, 0, 0): TRIG_ONE}) == LAM


def test_param_poly_to_float_takes_exact_bindings():
    p = LAM * A_UNK * ParamPoly.const(c_k(1)) + MU
    exact = {"lam": alg(1), "a": alg(2), "b": alg(0), "mu": alg(0, Fraction(1, 2))}
    floats = {k: v.to_float() for k, v in exact.items()}
    assert (LAM * A_UNK).to_float({"lam": alg(1), "a": alg(2)}, 0.0) == 2.0
    assert p.to_float(exact, 0.7) == p.to_float(floats, 0.7)
    for x in (ALG_ZERO, SQRT3, alg(Fraction(-3, 7), 1, 0, Fraction(2, 5))):
        assert float(x) == x.to_float()


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
        # x.q == a above: a rational value, equal to its Fraction
        assert x == a[0]


# A random four-coordinate value is almost never rational, so the rational
# operands of the products and sums are drawn on their own.
_ref_rationals = _ref_fracs.map(lambda q: (q, Fraction(0), Fraction(0), Fraction(0)))


@given(_ref_rationals, _ref_elems, _ref_rationals)
@settings(derandomize=True, max_examples=300)
def test_rational_operands_match_fraction_reference(r, a, s):
    # a rational operand on the left, on the right and on both sides
    x, y, z = alg(*r), alg(*a), alg(*s)
    for (u, p), (v, q) in (((x, r), (y, a)), ((y, a), (x, r)), ((x, r), (z, s))):
        for got, want in ((u * v, _ref_mul(p, q)), (u + v, _ref_add(p, q)),
                          (u - v, _ref_add(p, tuple(-c for c in q)))):
            assert got.q == want
            _assert_canonical(got)
    assert (x * z)._v[1:4] == (x + z)._v[1:4] == (0, 0, 0)
    # an int or a Fraction enters the same paths
    assert (y * r[0]).q == (r[0] * y).q == _ref_mul(a, r)
    assert (x + s[0]).q == (s[0] + x).q == _ref_add(r, s)


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


def test_field_defers_to_the_rings_above():
    # AlgebraicScalar returns NotImplemented for what it cannot coerce, so
    # the reflected method of TrigScalar or ParamPoly answers
    two = alg(2)
    assert two * TRIG_ONE == TrigScalar.const(2) == TRIG_ONE * two
    assert two + LAM == LAM + 2
    assert two - c_k(1) == -(c_k(1) - 2)
    assert two - LAM == 2 - LAM
    # the same holds one ring up
    assert TRIG_ONE + LAM == LAM + 1
    assert TRIG_ONE * LAM == LAM
    assert c_k(1) - LAM == -(LAM - c_k(1))
    for bad in (
        lambda: alg(1) * 0.5, lambda: 0.5 * alg(1), lambda: alg(1) + 0.5,
        lambda: alg(1) - 0.5, lambda: 0.5 - alg(1), lambda: TRIG_ONE * 0.5,
        lambda: 0.5 - LAM,
    ):
        with pytest.raises(TypeError):
            bad()


_SHARED = [
    (TrigScalar, (c_k(2), s_k(3) + 1), 0, ALG_ZERO, []),
    (ParamPoly, (LAM * c_k(2) + A_UNK, MU - s_k(3)), (0, 0, 0, 0), TRIG_ZERO,
     [(1, 0, 0), (0, -1, 0, 0), (0, 0, 0, 0, 1)]),
]


@pytest.mark.parametrize("cls, xy, const_key, ring_zero, bad_keys", _SHARED,
                         ids=[row[0].__name__ for row in _SHARED])
def test_sparse_sum_shared_behaviour(cls, xy, const_key, ring_zero, bad_keys):
    x, y = xy
    with pytest.raises(AttributeError):
        x.terms = {}
    # equality with a constant of each lower type, from both sides
    for c in (3, Fraction(-2, 7), alg(1, 0, Fraction(1, 2))):
        k = cls.const(c)
        assert k == c and c == k
        assert not (k == c + 1) and not (c + 1 == k)
        assert x != c and c != x
    # equal values reached two ways hash alike
    for u, v in ((x + y, y + x), (x * y, y * x), ((x - y) + y, x), (x * (y + 1), x * y + x)):
        assert u == v and hash(u) == hash(v)
    for z in (cls({}), x - x, cls.const(0)):
        assert z.is_zero() and z.is_const()
        assert type(z.const_value()) is type(ring_zero) and z.const_value() == ring_zero
    with pytest.raises(ValueError):
        x.const_value()
    assert x ** 0 == 1 and x ** 1 == x and x ** 3 == x * x * x
    with pytest.raises(ValueError):
        x ** -1
    for entry in (cls.coerce, cls.const, lambda v: cls({const_key: v})):
        with pytest.raises(TypeError):
            entry(0.5)
    for key in bad_keys:
        with pytest.raises(ValueError):
            cls({key: 1})
    assert repr(x) == "%s(%s)" % (cls.__name__, x) and str(cls({})) == "0"


def test_arithmetic_skips_the_public_constructors(monkeypatch):
    p, q = LAM * c_k(2) + A_UNK * s_k(1), MU * LAM - c_k(3)
    x, y = c_k(1) * s_k(2), s_k(3) + 1

    def refuse(self, terms):
        raise AssertionError("an arithmetic result was re-coerced")

    monkeypatch.setattr(scalars._Terms, "__init__", refuse)
    monkeypatch.setattr(ParamPoly, "__init__", refuse)
    for got in (
        x + y, x - y, -x, x * y, x.deriv(),
        p + q, p - q, -p, p * q, p.deriv_t(), p.coefficient_of("lam", 1),
        p.bind({"lam": 2, "a": alg(0, 1)}),
    ):
        _assert_no_zero_stored(got)


def test_equal_values_hash_alike_across_the_tower():
    assert len({1, Fraction(1), alg(1), TRIG_ONE, ParamPoly.const(1)}) == 1
    assert {hash(x) for x in (0, ALG_ZERO, TRIG_ZERO, POLY_ZERO)} == {0}
    half = Fraction(-1, 2)
    assert len({half, alg(half), TrigScalar.const(half), ParamPoly.const(half)}) == 1
    # int and Fraction hashes do not depend on PYTHONHASHSEED, so neither
    # does the hash of a non-constant value built from them
    src = str(Path(scalars.__file__).resolve().parents[1])
    code = ("from g2cal.scalars import *; "
            "print(hash(SQRT3 + 1), hash(s_k(2)), hash(LAM * c_k(2) + MU))")
    outs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        outs.add(subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, check=True).stdout)
    assert len(outs) == 1
