"""Exact so(5) matrix algebra: the principal so(3), its 7-dimensional
complement, trace pairings, the invariant 3-form, and the pullback of
the Maurer-Cartan form along the cohomogeneity-one geodesic.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import (
    AlgebraicScalar,
    ALG_ZERO,
    TrigScalar,
    TRIG_ZERO,
    alg,
)
from .exterior import Form

_INV_SQRT5 = alg(0, 0, Fraction(1, 5))        # 1/sqrt5
_HALF_SQRT3 = alg(0, Fraction(1, 2))          # sin(2*pi/3)
_MINUS_HALF = alg(Fraction(-1, 2))            # cos(2*pi/3)


class So5Element:
    """Skew-symmetric 5x5 matrix over Q(sqrt3, sqrt5)."""

    __slots__ = ("m",)

    def __init__(self, rows):
        m = tuple(tuple(AlgebraicScalar.coerce(x) for x in row) for row in rows)
        if len(m) != 5 or any(len(r) != 5 for r in m):
            raise ValueError("expected a 5x5 matrix")
        for i in range(5):
            for j in range(5):
                if m[i][j] != -m[j][i]:
                    raise ValueError("matrix is not skew-symmetric")
        object.__setattr__(self, "m", m)

    def __setattr__(self, name, value):
        raise AttributeError("So5Element is immutable")

    def __eq__(self, other):
        if not isinstance(other, So5Element):
            return NotImplemented
        return self.m == other.m

    def __hash__(self):
        return hash(self.m)

    def __add__(self, other):
        return So5Element(
            [[self.m[i][j] + other.m[i][j] for j in range(5)] for i in range(5)]
        )

    def __neg__(self):
        return So5Element([[-x for x in row] for row in self.m])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = AlgebraicScalar.coerce(c)
        return So5Element([[x * c for x in row] for row in self.m])

    def is_zero(self):
        return all(x.is_zero() for row in self.m for x in row)


def mat_mul(x, y):
    """Plain 5x5 product (not skew in general); rows of scalars."""
    return [
        [
            sum((x[i][k] * y[k][j] for k in range(5)), ALG_ZERO)
            for j in range(5)
        ]
        for i in range(5)
    ]


def bracket(x, y):
    """Commutator xy - yx of skew matrices; Jacobi identity holds."""
    a, b = x.m, y.m
    ab = mat_mul(a, b)
    ba = mat_mul(b, a)
    return So5Element([[ab[i][j] - ba[i][j] for j in range(5)] for i in range(5)])


def trace_pairing(x, y):
    """tr(xy); symmetric bilinear, negative definite on so(5)."""
    a, b = x.m, y.m
    return sum(
        (a[i][k] * b[k][i] for i in range(5) for k in range(5)),
        ALG_ZERO,
    )


def E(i, j):
    """Skew matrix with +1 at (i, j) and -1 at (j, i); 1-based indices."""
    rows = [[0] * 5 for _ in range(5)]
    rows[i - 1][j - 1] = 1
    rows[j - 1][i - 1] = -1
    return So5Element(rows)


def _combo(*pairs):
    total = So5Element([[0] * 5 for _ in range(5)])
    for coeff, mat in pairs:
        total = total + mat.scale(coeff)
    return total


def epsilon_basis():
    """Basis of the principal so(3), normalized so tr(e_i e_j) = -2 d_ij."""
    return (
        _combo((_INV_SQRT5 * 2, E(2, 3)), (_INV_SQRT5, E(4, 5))),
        _combo((_INV_SQRT5, E(2, 4)), (_INV_SQRT5, E(3, 5)),
               (_INV_SQRT5 * alg(0, 1), E(1, 4))),
        _combo((-_INV_SQRT5, E(2, 5)), (_INV_SQRT5, E(3, 4)),
               (_INV_SQRT5 * alg(0, 1), E(1, 5))),
    )


def gamma_basis():
    """Basis of the trace-orthogonal complement, tr(g_i g_j) = -2 d_ij."""
    a, b = _MINUS_HALF, _HALF_SQRT3
    return (
        _combo((_INV_SQRT5, E(2, 3)), (_INV_SQRT5 * (-2), E(4, 5))),
        E(1, 3).scale(-1),
        _combo((_INV_SQRT5 * b, E(1, 5)), (_INV_SQRT5 * a, E(2, 5)),
               (_INV_SQRT5 * (-2), E(3, 4))),
        _combo((-a, E(1, 5)), (b, E(2, 5))),
        _combo((_INV_SQRT5 * (-b), E(1, 4)), (_INV_SQRT5 * a, E(2, 4)),
               (_INV_SQRT5 * 2, E(3, 5))),
        _combo((-a, E(1, 4)), (-b, E(2, 4))),
        E(1, 2),
    )


GAMMA_GENS = ("g1", "g2", "g3", "g4", "g5", "g6", "g7")


def invariant_three_form():
    """The invariant 3-form tr([g_i, g_j] g_k) g*_i ^ g*_j ^ g*_k.

    Normalized so the leading (g1, g2, g7) coefficient is +1; the
    remaining coefficients then come out exactly +-1.
    """
    gammas = gamma_basis()
    terms = {}
    for i in range(7):
        for j in range(i + 1, 7):
            bij = bracket(gammas[i], gammas[j])
            for k in range(j + 1, 7):
                c = trace_pairing(bij, gammas[k])
                if not c.is_zero():
                    terms[(i, j, k)] = c
    lead = terms[(0, 1, 6)]
    inv = lead.inverse()
    return Form(GAMMA_GENS, 3, {m: c * inv for m, c in terms.items()})


def rotation_curve_entries():
    """R(t) as a 5x5 TrigScalar matrix (lower block a permutation)."""
    c, s = TrigScalar.cos(1), TrigScalar.sin(1)
    one, zero = TrigScalar.const(1), TRIG_ZERO
    return (
        (c, s, zero, zero, zero),
        (-s, c, zero, zero, zero),
        (zero, zero, zero, one, zero),
        (zero, zero, zero, zero, one),
        (zero, zero, one, zero, zero),
    )


class FrameCurve:
    """t-parametrized orthogonal 5x5 matrix with TrigScalar entries."""

    __slots__ = ("m",)

    def __init__(self, rows):
        m = tuple(tuple(TrigScalar.coerce(x) for x in row) for row in rows)
        object.__setattr__(self, "m", m)

    def __setattr__(self, name, value):
        raise AttributeError("FrameCurve is immutable")

    def is_orthogonal(self):
        one = TrigScalar.const(1)
        for i in range(5):
            for j in range(5):
                dot = TRIG_ZERO
                for k in range(5):
                    dot = dot + self.m[k][i] * self.m[k][j]
                if dot != (one if i == j else TRIG_ZERO):
                    return False
        return True


def rotation_curve():
    return FrameCurve(rotation_curve_entries())


def rho_matrix():
    """R(2*pi/3), the order-3 rotation cycling the bases, as rows.

    It lies in SO(5), not in so(5), so it is no So5Element.
    """
    c, s = _MINUS_HALF, _HALF_SQRT3
    rows = [
        [c, s, 0, 0, 0],
        [-s, c, 0, 0, 0],
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
        [0, 0, 1, 0, 0],
    ]
    return [[AlgebraicScalar.coerce(x) for x in row] for row in rows]


def ad_rho(x):
    """Adjoint action rho x rho^-1 of the order-3 frame element."""
    rho = rho_matrix()
    rho_t = [[rho[j][i] for j in range(5)] for i in range(5)]  # rho^-1
    return So5Element(mat_mul(rho, mat_mul(x.m, rho_t)))


def rho_action_check():
    """Order-3 cycling of the gamma pairs and the epsilon triple.

    The adjoint action of rho maps (g1, g2) -> (g3, g4) -> (g5, g6)
    exactly and fixes g7.  On the principal so(3) it permutes the
    epsilon basis cyclically only up to sign (e1 -> e3 -> -e2 -> -e1);
    the signs are forced by the bracket normalization [e1, e2] = -k e3,
    which a sign-free 3-cycle would contradict.
    """
    eps = epsilon_basis()
    gam = gamma_basis()
    rho = rho_matrix()
    rho3 = mat_mul(rho, mat_mul(rho, rho))
    ident = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    eps_images = [ad_rho(x) for x in eps]
    return {
        "rho_cubed_is_identity": rho3 == ident,
        "epsilon_cycled_up_to_sign": (
            eps_images[0] == eps[2]
            and eps_images[1] == -eps[0]
            and eps_images[2] == -eps[1]
        ),
        "gamma_pairs_cycled": all(
            ad_rho(gam[2 * k + r]) == gam[2 * ((k + 1) % 3) + r]
            for k in range(3)
            for r in range(2)
        ),
        "gamma7_fixed": ad_rho(gam[6]) == gam[6],
    }


B7_GENS = ("p1", "p2", "p3", "n1", "n2", "n3", "dt")


def maurer_cartan_matrix():
    """The so(4) Maurer-Cartan matrix as a 5x5 array of one-forms."""
    p = [Form.generator(B7_GENS, "p%d" % k, 2) for k in (1, 2, 3)]
    n = [Form.generator(B7_GENS, "n%d" % k, 2) for k in (1, 2, 3)]
    z = Form.zero(B7_GENS, 1)
    return [
        [z, z, z, z, z],
        [z, z, n[2], n[1], n[0]],
        [z, -n[2], z, -p[0], p[1]],
        [z, -n[1], p[0], z, -p[2]],
        [z, -n[0], -p[1], p[2], z],
    ]


def pullback_frame():
    """Pull the Maurer-Cartan form back along the geodesic frame.

    Returns the seven 1-forms Y_i (pullbacks of 2 g*_i) over the
    (p, n, dt) coframe, extracted by trace pairing against the gammas.
    The conjugated matrix is kept at half the scale of the input, the
    normalization under which Y_7 = 2 dt and the 2x2 block pattern
    (Y_1, Y_2) = [[2L, L cos t], [0, 2 sin t]] (p_1, n_1) holds.
    """
    half = Fraction(1, 2)
    mc = [[f.scale(half) for f in row] for row in maurer_cartan_matrix()]
    r = rotation_curve_entries()
    z = Form.zero(B7_GENS, 1)
    # r^T * mc
    tmp = [
        [
            sum((mc[k][j].scale(r[k][i]) for k in range(5)), z)
            for j in range(5)
        ]
        for i in range(5)
    ]
    # ... * r, plus the dt E_12 block
    pulled = [
        [
            sum((tmp[i][k].scale(r[k][j]) for k in range(5)), z)
            for j in range(5)
        ]
        for i in range(5)
    ]
    dt = Form.generator(B7_GENS, "dt")
    pulled[0][1] = pulled[0][1] + dt
    pulled[1][0] = pulled[1][0] - dt
    out = []
    for g in gamma_basis():
        acc = z
        for r_i in range(5):
            for s_i in range(5):
                c = g.m[r_i][s_i]
                if not c.is_zero():
                    acc = acc + pulled[s_i][r_i].scale(-c)
        out.append(acc)
    return out
