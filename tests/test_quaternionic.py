"""Quaternion-valued forms and their wedge product."""

from g2cal.exterior import Form
from g2cal.quaternionic import QuatForm, quat_wedge

GENS = ("e1", "e2", "e3", "f1", "f2", "f3", "dt")


def test_quat_wedge_components():
    e1 = Form.generator(GENS, "e1")
    e2 = Form.generator(GENS, "e2")
    x = QuatForm.vector(e1, Form.zero(GENS, 1), Form.zero(GENS, 1))
    y = QuatForm.vector(Form.zero(GENS, 1), e2, Form.zero(GENS, 1))
    w = quat_wedge(x, y)
    # i * j = k: the product lands in the third imaginary slot
    assert w.components[3] == e1.wedge(e2)
    assert w.components[0].is_zero() and w.components[1].is_zero()


def test_quat_wedge_self_doubles_cross_terms():
    e1, e2, e3 = (Form.generator(GENS, g) for g in ("e1", "e2", "e3"))
    phi = QuatForm.vector(e1, e2, e3)
    sq = quat_wedge(phi, phi)
    # component k of phi ^ phi is 2 phi_i ^ phi_j for 1-forms
    assert sq.components[1] == e2.wedge(e3).scale(2)
    assert sq.components[2] == e3.wedge(e1).scale(2)
    assert sq.components[3] == e1.wedge(e2).scale(2)
    assert sq.components[0].is_zero()
