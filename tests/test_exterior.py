"""Sparse exterior algebra: wedge, d, Hodge star, frames."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as hs

from g2cal.scalars import c_k, s_k
from g2cal.exterior import (
    Form,
    CoframeSpec,
    OrthoFrame,
    ext_d,
    d_squared_check,
    hodge_star,
    wedge_all,
    UnknownGenerator,
    DegreeError,
    SingularFrame,
    NotInFrameSpan,
)

GENS = ("g1", "g2", "g3", "g4", "g5", "g6", "g7")

coeffs = hs.fractions(min_value=-6, max_value=6, max_denominator=8)


def random_form(draw_pairs, degree):
    total = Form.zero(GENS, degree)
    for mono, c in draw_pairs:
        total = total + Form.monomial(GENS, mono, c)
    return total


def forms(degree, max_terms=3):
    monos = list(itertools.combinations(GENS, degree))
    return hs.lists(
        hs.tuples(hs.sampled_from(monos), coeffs), max_size=max_terms
    ).map(lambda pairs: random_form(pairs, degree))


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
    with pytest.raises(ValueError):
        CoframeSpec(gens, "t", st)
    assert not d_squared_check(CoframeSpec(gens, "t", st, check=False))


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
