"""so(5) as 2-forms on R^5: bases, pairings, cycling, frame pullback."""

import random
from fractions import Fraction

from g2cal.scalars import alg, ALG_ZERO, c_k, s_k, TrigScalar
from g2cal.exterior import Form
from g2cal.liealg import (
    E,
    bracket,
    trace_pairing,
    epsilon_basis,
    gamma_basis,
    invariant_three_form,
    rho_action_check,
    pullback_frame,
    ad_rho,
    B7_GENS,
    GAMMA_GENS,
    R5_GENS,
)


def _random_skew(rng):
    return Form(R5_GENS, 2, {
        (i, j): rng.randint(-3, 3) for i in range(5) for j in range(i + 1, 5)
    })


def _matrix(x):
    """The 5x5 skew matrix of a 2-form, rows of AlgebraicScalars."""
    m = [[ALG_ZERO] * 5 for _ in range(5)]
    for (i, j), c in x.terms.items():
        m[i][j] = c.const_value().const_value()
        m[j][i] = -m[i][j]
    return m


def _mat_mul(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(5)), ALG_ZERO)
             for j in range(5)] for i in range(5)]


def test_operations_match_matrix_reference():
    rng = random.Random(7)
    forms = [_random_skew(rng) for _ in range(100)]
    # R(2 pi/3), the rotation that the frame of ad_rho is built from
    c, s, o, z = alg(Fraction(-1, 2)), alg(0, Fraction(1, 2)), alg(1), ALG_ZERO
    rho = [[c, s, z, z, z], [-s, c, z, z, z], [z, z, z, o, z],
           [z, z, z, z, o], [z, z, o, z, z]]
    rho_t = [list(col) for col in zip(*rho)]
    for x, y in zip(forms, forms[1:] + forms[:1]):
        a, b = _matrix(x), _matrix(y)
        ab, ba = _mat_mul(a, b), _mat_mul(b, a)
        assert _matrix(bracket(x, y)) == [
            [ab[i][j] - ba[i][j] for j in range(5)] for i in range(5)
        ]
        assert trace_pairing(x, y) == sum((ab[i][i] for i in range(5)), ALG_ZERO)
        assert _matrix(ad_rho(x)) == _mat_mul(rho, _mat_mul(a, rho_t))


def test_jacobi_identity_100_triples():
    rng = random.Random(2)
    for _ in range(100):
        x, y, z = (_random_skew(rng) for _ in range(3))
        total = (
            bracket(bracket(x, y), z)
            + bracket(bracket(y, z), x)
            + bracket(bracket(z, x), y)
        )
        assert total.is_zero()


def test_bracket_antisymmetric_and_self_zero():
    rng = random.Random(4)
    for _ in range(20):
        x, y = _random_skew(rng), _random_skew(rng)
        assert bracket(x, y) == -bracket(y, x)
        assert bracket(x, x).is_zero()


def test_trace_pairings_block_diagonal():
    eps = epsilon_basis()
    gam = gamma_basis()
    minus_two = alg(-2)
    for i, x in enumerate(eps):
        for j, y in enumerate(eps):
            assert trace_pairing(x, y) == (minus_two if i == j else ALG_ZERO)
    for i, x in enumerate(gam):
        for j, y in enumerate(gam):
            assert trace_pairing(x, y) == (minus_two if i == j else ALG_ZERO)
    for x in gam:
        for y in eps:
            assert trace_pairing(x, y) == ALG_ZERO


def test_epsilon_bracket_closes_with_single_constant():
    e1, e2, e3 = epsilon_basis()
    # [e1, e2] = -kappa e3 and cyclic, for one positive constant kappa
    kappa = alg(0, 0, Fraction(1, 5))  # 1/sqrt5
    assert bracket(e1, e2) == e3.scale(-kappa)
    assert bracket(e2, e3) == e1.scale(-kappa)
    assert bracket(e3, e1) == e2.scale(-kappa)


def test_isotropy_representation_closes():
    eps = epsilon_basis()
    gam = gamma_basis()
    for e in eps:
        for g in gam:
            x = bracket(e, g)
            for e2 in eps:
                assert trace_pairing(x, e2).is_zero()


def test_invariant_three_form_pattern():
    want = {
        (0, 1, 6): alg(1),
        (0, 2, 4): alg(1),
        (0, 3, 5): alg(-1),
        (1, 2, 5): alg(-1),
        (1, 3, 4): alg(-1),
        (2, 3, 6): alg(1),
        (4, 5, 6): alg(1),
    }
    f = invariant_three_form()
    assert f.gens == GAMMA_GENS and f.degree == 3
    assert dict(f.terms) == want


def test_three_form_tracks_structure_constants():
    gam = gamma_basis()
    f = invariant_three_form()
    lead = trace_pairing(bracket(gam[0], gam[1]), gam[6])
    inv = lead.inverse()
    for (i, j, k), c in f.terms.items():
        assert trace_pairing(bracket(gam[i], gam[j]), gam[k]) * inv == c


def test_rho_action():
    checks = rho_action_check()
    assert all(checks.values()), checks
    # the gamma pairs cycle exactly under the adjoint action
    gam = gamma_basis()
    assert ad_rho(gam[0]) == gam[2]
    assert ad_rho(gam[1]) == gam[3]
    assert ad_rho(gam[6]) == gam[6]


def test_pullback_frame_matches_block_pattern():
    lam = alg(0, 0, Fraction(2, 5))
    ys = pullback_frame()
    cfgen = lambda name, coeff=1: Form.generator(B7_GENS, name, coeff)
    for k in (1, 2, 3):
        odd = cfgen("p%d" % k, lam * 2) + cfgen("n%d" % k, c_k(k) * lam)
        even = cfgen("n%d" % k, s_k(k) * 2)
        assert ys[2 * k - 2] == odd
        assert ys[2 * k - 1] == even
    assert ys[6] == cfgen("dt", 2)


def test_pullback_y3_y4_at_zero():
    # specializing the third pair at t = 0 gives the fixed constants
    # a = cos(2pi/3) = -1/2, b = sin(2pi/3) = sqrt3/2
    lam = alg(0, 0, Fraction(2, 5))
    a = alg(Fraction(-1, 2))
    b = alg(0, Fraction(1, 2))
    ys = pullback_frame()

    def at_zero(form):
        return {m: c.to_float({}, 0.0) for m, c in form.terms.items()}

    y3 = at_zero(ys[2])
    ip2 = B7_GENS.index("p2")
    in2 = B7_GENS.index("n2")
    assert abs(y3[(ip2,)] - (lam * 2).to_float()) < 1e-12
    assert abs(y3[(in2,)] - (lam * a).to_float()) < 1e-12
    y4 = at_zero(ys[3])
    assert abs(y4[(in2,)] - (b * 2).to_float()) < 1e-12
