"""The wedge of Im H-valued forms, as (i, j, k) triples of Forms."""

import itertools

from g2cal.exterior import Form
from g2cal.quaternionic import quat_wedge

GENS = ("e1", "e2", "e3", "f1", "f2", "f3", "dt")

# The reference: multiplication of the units (1, i, j, k),
# UNIT_MUL[u][v] = (sign, unit) with unit_u unit_v = sign unit.
UNIT_MUL = (
    ((1, 0), (1, 1), (1, 2), (1, 3)),
    ((1, 1), (-1, 0), (1, 3), (-1, 2)),
    ((1, 2), (-1, 3), (-1, 0), (1, 1)),
    ((1, 3), (1, 2), (-1, 1), (-1, 0)),
)


def _unit_form(gen, unit):
    """The Im H-valued 1-form gen * unit, for unit 1, 2 or 3 (i, j, k)."""
    zero = Form.zero(GENS, 1)
    return tuple(Form.generator(GENS, gen) if u == unit else zero for u in (1, 2, 3))


def test_quat_wedge_matches_the_unit_table():
    # (e1 u) ^ (e2 v) = (e1 ^ e2) u v for every ordered pair of imaginary units
    e12 = Form.generator(GENS, "e1").wedge(Form.generator(GENS, "e2"))
    for u, v in itertools.product((1, 2, 3), repeat=2):
        sign, unit = UNIT_MUL[u][v]
        w = quat_wedge(_unit_form("e1", u), _unit_form("e2", v))
        for slot in range(4):
            want = e12.scale(sign) if slot == unit else Form.zero(GENS, 2)
            assert w[slot] == want, (u, v, slot)


def test_quat_wedge_components():
    e1 = Form.generator(GENS, "e1")
    e2 = Form.generator(GENS, "e2")
    w = quat_wedge(_unit_form("e1", 1), _unit_form("e2", 2))
    # i * j = k: the product lands in the third imaginary slot
    assert w[3] == e1.wedge(e2)
    assert w[0].is_zero() and w[1].is_zero() and w[2].is_zero()


def test_quat_wedge_self_doubles_cross_terms():
    e1, e2, e3 = (Form.generator(GENS, g) for g in ("e1", "e2", "e3"))
    phi = (e1, e2, e3)
    sq = quat_wedge(phi, phi)
    # component k of phi ^ phi is 2 phi_i ^ phi_j for 1-forms
    assert sq[1] == e2.wedge(e3).scale(2)
    assert sq[2] == e3.wedge(e1).scale(2)
    assert sq[3] == e1.wedge(e2).scale(2)
    assert sq[0].is_zero()
