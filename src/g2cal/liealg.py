"""so(5) as 2-forms on R^5: the principal so(3), its 7-dimensional
complement, trace pairings, the invariant 3-form, the order-3 rotation
rho, and the pullback of the Maurer-Cartan form along the
cohomogeneity-one geodesic R(t).

so(5) = Lambda^2(R^5): E_ij = x_i ^ x_j is the skew matrix with +1 at
(i, j) and -1 at (j, i), so skewness holds by construction and sums,
scalings and equality are those of `Form`.  Conjugation by an
orthogonal matrix is a frame expansion, R E_ij R^T = R e_i ^ R e_j, so
both ad rho and the pullback by R(t) expand in a frame of R^5.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .scalars import ParamPoly, TrigScalar, POLY_ZERO, alg
from .exterior import Form, OrthoFrame, _add_term

_INV_SQRT5 = alg(0, 0, Fraction(1, 5))        # 1/sqrt5
_HALF_SQRT3 = alg(0, Fraction(1, 2))          # sin(2*pi/3)
_MINUS_HALF = alg(Fraction(-1, 2))            # cos(2*pi/3)

R5_GENS = ("x1", "x2", "x3", "x4", "x5")


def E(i, j):
    """x_i ^ x_j, the skew matrix with +1 at (i, j); 1-based indices."""
    return Form.monomial(R5_GENS, ("x%d" % i, "x%d" % j))


def _bracket_terms(ij, kl):
    """[E_ij, E_kl] as ((sorted pair, sign), ...); 0-based pairs i < j."""
    (i, j), (k, l) = ij, kl
    out = []
    for delta, sign, p, q in ((j == k, 1, i, l), (j == l, -1, i, k),
                              (i == k, -1, j, l), (i == l, 1, j, k)):
        if delta and p != q:
            out.append(((p, q), sign) if p < q else ((q, p), -sign))
    return tuple(out)


def bracket(x, y):
    """[x, y] by [E_ij, E_kl] = d_jk E_il - d_jl E_ik - d_ik E_jl + d_il E_jk."""
    out = {}
    for ij, cx in x.terms.items():
        for kl, cy in y.terms.items():
            terms = _bracket_terms(ij, kl)
            if terms:
                c = cx * cy
                for pq, sign in terms:
                    _add_term(out, pq, c if sign > 0 else -c)
    return Form._made(R5_GENS, 2, out)


def _dot(x, y):
    """sum_m x_m y_m over the E_ij coefficients, as a ParamPoly."""
    return sum((c * y.terms[m] for m, c in x.terms.items() if m in y.terms),
               POLY_ZERO)


def trace_pairing(x, y):
    """tr(xy) = -2 sum_m x_m y_m; symmetric, negative definite on so(5)."""
    return (_dot(x, y) * -2).const_value().const_value()


def epsilon_basis():
    """Basis of the principal so(3), normalized so tr(e_i e_j) = -2 d_ij."""
    r = _INV_SQRT5
    return (
        E(2, 3).scale(r * 2) + E(4, 5).scale(r),
        E(2, 4).scale(r) + E(3, 5).scale(r) + E(1, 4).scale(r * alg(0, 1)),
        E(2, 5).scale(-r) + E(3, 4).scale(r) + E(1, 5).scale(r * alg(0, 1)),
    )


def gamma_basis():
    """Basis of the trace-orthogonal complement, tr(g_i g_j) = -2 d_ij."""
    a, b, r = _MINUS_HALF, _HALF_SQRT3, _INV_SQRT5
    return (
        E(2, 3).scale(r) + E(4, 5).scale(r * -2),
        E(1, 3).scale(-1),
        E(1, 5).scale(r * b) + E(2, 5).scale(r * a) + E(3, 4).scale(r * -2),
        E(1, 5).scale(-a) + E(2, 5).scale(b),
        E(1, 4).scale(-r * b) + E(2, 4).scale(r * a) + E(3, 5).scale(r * 2),
        E(1, 4).scale(-a) + E(2, 4).scale(-b),
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
    return Form._made(GAMMA_GENS, 3, {m: ParamPoly.const(c * inv) for m, c in terms.items()})


@functools.cache
def _rho():
    """R(2*pi/3), the order-3 rotation cycling the bases, as the frame
    of its columns rho e_1, ..., rho e_5."""
    c, s = _MINUS_HALF, _HALF_SQRT3
    x = [Form.generator(R5_GENS, g) for g in R5_GENS]
    return OrthoFrame(R5_GENS, (
        x[0].scale(c) - x[1].scale(s), x[0].scale(s) + x[1].scale(c),
        x[4], x[2], x[3],
    ))


def ad_rho(x):
    """rho x rho^-1 as the expansion of x in rho's frame, since
    rho E_ij rho^T = rho e_i ^ rho e_j."""
    return _rho().expand(x)


def rho_action_check():
    """Order-3 cycling of the gamma pairs and the epsilon triple.

    ad rho expands x in the frame of rho's columns; on a generator x_m it
    gives rho e_m, so rho^3 = 1 is checked on the five generators.  ad rho
    maps (g1, g2) -> (g3, g4) -> (g5, g6) exactly and fixes g7.  On the
    principal so(3) it permutes the epsilon basis cyclically only up to
    sign (e1 -> e3 -> -e2 -> -e1); the signs are forced by the bracket
    normalization [e1, e2] = -k e3, which a sign-free 3-cycle would
    contradict.
    """
    eps = epsilon_basis()
    gam = gamma_basis()
    gens = [Form.generator(R5_GENS, g) for g in R5_GENS]
    eps_images = [ad_rho(x) for x in eps]
    return {
        "rho_cubed_is_identity": all(
            ad_rho(ad_rho(ad_rho(x))) == x for x in gens
        ),
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


def pullback_frame():
    """Pull the Maurer-Cartan form back along the geodesic R(t).

    Returns the seven 1-forms Y_i (pullbacks of 2 g*_i) over the
    (p, n, dt) coframe.  The so(4) Maurer-Cartan form, at half scale,
    gives each generator h of the (p, n) coframe one so(5) element; its
    conjugate R(t)^T E_ij R(t) = u_i ^ u_j, u_i the rows of R(t), is its
    expansion in the frame of those rows.  With dt E_12 added, Y_g is
    sum_h 2 <g, pulled_h> h.  At this scale Y_7 = 2 dt and the 2x2
    block pattern (Y_1, Y_2) = [[2L, L cos t], [0, 2 sin t]] (p_1, n_1)
    holds.
    """
    c, s = TrigScalar.cos(1), TrigScalar.sin(1)
    x = [Form.generator(R5_GENS, g) for g in R5_GENS]
    rows = OrthoFrame(R5_GENS, (
        x[0].scale(c) + x[1].scale(s), x[1].scale(c) - x[0].scale(s),
        x[3], x[4], x[2],
    ))
    pulled = {
        h: rows.expand(E(i, j).scale(sign))
        for h, sign, (i, j) in (
            ("n3", 1, (2, 3)), ("n2", 1, (2, 4)), ("n1", 1, (2, 5)),
            ("p1", -1, (3, 4)), ("p2", 1, (3, 5)), ("p3", -1, (4, 5)),
        )
    }
    pulled["dt"] = E(1, 2)
    z = Form.zero(B7_GENS, 1)
    return [
        sum((Form.generator(B7_GENS, h, _dot(g, p) * 2) for h, p in pulled.items()), z)
        for g in gamma_basis()
    ]
