"""Sparse exterior algebra: wedge, d, Hodge star, frames."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hs

from g2cal import exterior
from g2cal.liealg import E, bracket
from g2cal.scalars import LAM, c_k, s_k
from g2cal.exterior import (
    Form,
    CoframeSpec,
    OrthoFrame,
    ext_d,
    orbit_d,
    d_squared_check,
    hodge_star,
    wedge_all,
    dt_split,
    UnknownGenerator,
    DegreeError,
    SingularFrame,
    NotInFrameSpan,
)

GENS = ("g1", "g2", "g3", "g4", "g5", "g6", "g7")

coeffs = hs.fractions(min_value=-6, max_value=6, max_denominator=8)


def random_form(draw_pairs, degree, gens=GENS):
    total = Form.zero(gens, degree)
    for mono, c in draw_pairs:
        total = total + Form.monomial(gens, mono, c)
    return total


def forms(degree, max_terms=3, gens=GENS):
    monos = list(itertools.combinations(gens, degree))
    return hs.lists(
        hs.tuples(hs.sampled_from(monos), coeffs), max_size=max_terms
    ).map(lambda pairs: random_form(pairs, degree, gens))


@given(forms(1), forms(1), forms(2))
@settings(derandomize=True, max_examples=60)
def test_wedge_bilinear_and_anticommutative(x, y, z):
    assert x.wedge(y) == -(y.wedge(x))
    assert (x + y).wedge(z) == x.wedge(z) + y.wedge(z)


@given(forms(1), forms(2), forms(2))
@settings(derandomize=True, max_examples=60)
def test_wedge_associative_and_graded(x, y, z):
    assert x.wedge(y).wedge(z) == x.wedge(y.wedge(z))
    # 1-form vs 2-form commute, 2-form vs 2-form commute
    assert x.wedge(y) == y.wedge(x)
    assert y.wedge(z) == z.wedge(y)


@given(forms(1))
@settings(derandomize=True, max_examples=30)
def test_wedge_square_of_one_form_vanishes(x):
    assert x.wedge(x).is_zero()


def test_unknown_generator_rejected():
    with pytest.raises(UnknownGenerator):
        Form.monomial(GENS, ("g1", "nope"), 1)


def test_coefficient_of_unknown_generator_rejected():
    with pytest.raises(UnknownGenerator):
        Form.generator(GENS, "g1").coefficient(("g1", "nope"))


@pytest.mark.parametrize("degree, terms, error", [
    (2, {(1, 0): 1}, ValueError),          # unsorted
    (2, {(1, 1): 1}, ValueError),          # repeated
    (2, {(0,): 1}, ValueError),            # wrong length
    (1, {(7,): 1}, UnknownGenerator),      # out of range
    (1, {(-1,): 1}, UnknownGenerator),
    (1, {(0,): 0.5}, TypeError),           # float coefficient
    (2, {(1, 0): 0}, ValueError),          # checked even when its coefficient is zero
    (1, {(7,): 0}, UnknownGenerator),
])
def test_constructor_checks_forms_from_outside(degree, terms, error):
    with pytest.raises(error):
        Form(GENS, degree, terms)


def test_degree_mismatch_rejected():
    with pytest.raises(DegreeError):
        Form.generator(GENS, "g1") + Form.monomial(GENS, ("g1", "g2"), 1)


def _cyclic_coframe():
    st = {}
    for k, (i, j) in {1: (2, 3), 2: (3, 1), 3: (1, 2)}.items():
        st["g%d" % k] = Form.monomial(
            ("g1", "g2", "g3", "t"), ("g%d" % i, "g%d" % j), -2
        )
    return CoframeSpec(("g1", "g2", "g3", "t"), "t", st)


def test_d_squared_zero_cyclic():
    cf = _cyclic_coframe()
    assert d_squared_check(cf)
    f = cf.gen("g1", c_k(1)) + cf.gen("g2")
    assert ext_d(ext_d(f, cf), cf).is_zero()


def test_d_leibniz():
    cf = _cyclic_coframe()
    x = cf.gen("g1", s_k(2))
    y = cf.gen("g2", c_k(1)) + cf.gen("g3")
    lhs = ext_d(x.wedge(y), cf)
    rhs = ext_d(x, cf).wedge(y) - x.wedge(ext_d(y, cf))
    assert lhs == rhs


def test_d_catches_inconsistent_structure():
    # dg1 = -2 g23 with dg2 = dg3 = 0 has d(dg1) = 0; corrupt the cyclic
    # system with a mixing term instead
    gens = ("g1", "g2", "g3", "t")
    st = {
        "g1": Form.monomial(gens, ("g2", "g3"), -3)
        + Form.monomial(gens, ("g1", "g2"), -2),
        "g2": Form.monomial(gens, ("g3", "g1"), -2),
        "g3": Form.monomial(gens, ("g1", "g2"), -2),
    }
    # the constructor takes it; d_squared_check is where it is caught
    assert not d_squared_check(CoframeSpec(gens, "t", st))


def test_d_is_orbit_d_plus_dt_wedge_t_derivative():
    cf = _cyclic_coframe()
    x = (cf.mono(("g1", "g2"), s_k(1)) + cf.mono(("g2", "g3"), c_k(2) * 3)
         + cf.mono(("g1", "t"), s_k(3)))
    for f in (x, cf.gen("g1", c_k(1)) + cf.gen("g3", 5)):
        ddt = Form(f.gens, f.degree, {i: c.deriv_t() for i, c in f.terms.items()})
        assert not ddt.is_zero()
        assert ext_d(f, cf) == orbit_d(f, cf) + cf.gen("t").wedge(ddt)


def _plain_frame(n=7):
    forms = [Form.generator(GENS, g) for g in GENS[:n]]
    return OrthoFrame(tuple("X%d" % (i + 1) for i in range(n)), forms)


def test_hodge_star_involution_all_degrees():
    of = _plain_frame()
    rng = random.Random(3)
    frame_gens = of.names
    for degree in range(8):
        for _ in range(12):
            monos = list(itertools.combinations(frame_gens, degree))
            x = Form.zero(frame_gens, degree)
            for mono in rng.sample(monos, min(3, len(monos))):
                x = x + Form.monomial(
                    GENS[:0] + frame_gens, mono, Fraction(rng.randint(-5, 5))
                )
            # in odd dimension star is an involution on every degree
            assert hodge_star(hodge_star(x, of), of) == x


def test_hodge_star_volume_and_units():
    of = _plain_frame()
    one = Form.scalar(of.names, 1)
    vol = Form.monomial(of.names, of.names, 1)
    assert hodge_star(one, of) == vol
    assert hodge_star(vol, of) == one
    # X_I ^ *X_I == vol on every one of the 2^7 frame monomials
    count = 0
    for degree in range(8):
        for mono in itertools.combinations(of.names, degree):
            x = Form.monomial(of.names, mono, 1)
            assert x.wedge(hodge_star(x, of)) == vol
            count += 1
    assert count == 128


def test_singular_frame_rejected():
    cf = _cyclic_coframe()
    f1 = cf.gen("g1")
    with pytest.raises(SingularFrame):
        OrthoFrame(("X1", "X2", "X3", "X4"), (f1, f1, cf.gen("g3"), cf.gen("t")))
    # too few forms to span the coframe
    with pytest.raises(SingularFrame):
        OrthoFrame(("X1", "X2", "X3"), (f1, cf.gen("g2"), cf.gen("g3")))


def test_not_in_span_rejected():
    cf = _cyclic_coframe()
    of = OrthoFrame(
        ("X1", "X2", "X3", "X4"),
        (cf.gen("g1"), cf.gen("g2"), cf.gen("g3"), cf.gen("t")),
    )
    # hodge_star expects frame-basis input, not base-coframe input
    with pytest.raises(NotInFrameSpan):
        hodge_star(cf.gen("g3"), of)


def test_wedge_all_volume():
    cf = _cyclic_coframe()
    vol = wedge_all([cf.gen("g1"), cf.gen("g2"), cf.gen("g3"), cf.gen("t")])
    assert vol == cf.mono(("g1", "g2", "g3", "t"), 1)


# a sheared frame X_i = g_i + c g_(i+1): triangular with unit diagonal,
# so it spans the coframe, and its expansions mix generators
FRAME = tuple("X%d" % (i + 1) for i in range(7))
SHEAR = OrthoFrame(FRAME, [
    Form.generator(GENS, g) + (Form.generator(GENS, h, c) if h else Form.zero(GENS, 1))
    for g, h, c in zip(GENS, GENS[1:] + (None,), (1, c_k(2), -2, s_k(1), LAM, 3, 0))
])


@given(hs.integers(0, 3), hs.integers(0, 3), coeffs, hs.data())
@settings(derandomize=True, max_examples=40)
def test_expand_is_an_algebra_map(p, q, c, data):
    x, z = data.draw(forms(p, gens=FRAME)), data.draw(forms(p, gens=FRAME))
    y = data.draw(forms(q, gens=FRAME))
    e = SHEAR.expand
    assert e(x.wedge(y)) == e(x).wedge(e(y))
    assert e(x + z) == e(x) + e(z)
    assert e(Form.scalar(FRAME, c)) == Form.scalar(GENS, c)


def _assert_no_zero_stored(x):
    assert all(not c.is_zero() for c in x.terms.values())


def test_form_arithmetic_skips_the_public_constructor(monkeypatch):
    cf = _cyclic_coframe()
    u = cf.gen("g1", c_k(1)) + cf.gen("g2")
    v = cf.gen("g1", c_k(1)) - cf.gen("t", s_k(2))
    w = cf.mono(("g1", "t"), s_k(3)) + cf.mono(("g2", "g3"), 2)
    frame_x = Form.generator(FRAME, "X1") + Form.generator(FRAME, "X2", -c_k(2))
    so5, e24 = E(1, 2) + E(2, 3).scale(LAM), E(2, 4)

    def refuse(self, gens, degree, terms):
        raise AssertionError("a result of form arithmetic was re-checked")

    monkeypatch.setattr(exterior.Form, "__init__", refuse)
    # u ^ u, d(d(u)), u - u and [so5, so5] cancel every term they make
    for got in (
        u + v, u - v, u - u, -u, u.scale(c_k(3)), u.wedge(v), u.wedge(u), w.wedge(w),
        orbit_d(w, cf), ext_d(u, cf), ext_d(ext_d(u, cf), cf), *dt_split(w, cf),
        hodge_star(frame_x, SHEAR), SHEAR.expand(frame_x), SHEAR.expand(frame_x.wedge(frame_x)),
        bracket(so5, e24), bracket(so5, so5),
    ):
        _assert_no_zero_stored(got)
