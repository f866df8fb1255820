"""Concrete geometric structures and the identity checks run on them.

Builds the two explicit coframes, the connection/curvature data living
on the first one, the two distinguished 3-forms with their orthonormal
frames, the parametric ansatz families, and the so(5) checks behind the
lie-checks space.  The nearly-parallel G2 equation d(phi) = mu star(phi)
is written once, in `np2_residual`: `verify_np2` solves it for mu on the
built structures, and a family's nearly-half-flat and flow systems are
the dt-free and dt parts of the same residual.
"""

from __future__ import annotations

import collections
import functools
from fractions import Fraction

from .scalars import (
    AlgebraicScalar,
    ALG_ZERO,
    POLY_ZERO,
    TrigScalar,
    ParamPoly,
    LAM,
    A_UNK,
    B_UNK,
    MU,
    alg,
    c_k,
    mode_order,
    s_k,
)
from .exterior import (
    Form,
    CoframeSpec,
    OrthoFrame,
    ext_d,
    dt_split,
    hodge_star,
    wedge_all,
    DegreeError,
)
from .quaternionic import quat_wedge
from .liealg import (
    B7_GENS,
    GAMMA_GENS,
    bracket,
    epsilon_basis,
    gamma_basis,
    invariant_three_form,
    pullback_frame,
    rho_action_check,
    trace_pairing,
)


class ClaimFails(AssertionError):
    """A claimed solution leaves some constraint nonzero."""


# lam = 2/sqrt5 = (2/5) sqrt5
LAMBDA_CANON = alg(0, 0, Fraction(2, 5))
# mu as computed under the -dt conormal orientation; |mu| = 6/sqrt5
MU_CANON = alg(0, 0, Fraction(-6, 5))

S7_GENS = ("e1", "e2", "e3", "f1", "f2", "f3", "dt")

# (i, j) with (i, j, k) a cyclic permutation of (1, 2, 3), indexed by k
_CYCLE = {1: (2, 3), 2: (3, 1), 3: (1, 2)}


def s7_coframe():
    """Two so(3) triples plus the transverse coordinate."""
    st = {}
    for k, (i, j) in _CYCLE.items():
        st["e%d" % k] = Form.monomial(S7_GENS, ("e%d" % i, "e%d" % j), -2)
        st["f%d" % k] = Form.monomial(S7_GENS, ("f%d" % i, "f%d" % j), -2)
    return CoframeSpec(S7_GENS, "dt", st)


def b7_coframe():
    """The mixed (p, n) coframe: dp_k = -2(p_ij + n_ij), dn_k = -2(p_i n_j - p_j n_i)."""
    st = {}
    for k, (i, j) in _CYCLE.items():
        st["p%d" % k] = (
            Form.monomial(B7_GENS, ("p%d" % i, "p%d" % j), -2)
            + Form.monomial(B7_GENS, ("n%d" % i, "n%d" % j), -2)
        )
        st["n%d" % k] = (
            Form.monomial(B7_GENS, ("p%d" % i, "n%d" % j), -2)
            + Form.monomial(B7_GENS, ("p%d" % j, "n%d" % i), 2)
        )
    return CoframeSpec(B7_GENS, "dt", st)


# -- data on the 4-sphere base, over the (e, f, dt) coframe -----------------

def asd_two_forms(cf):
    """omega_k = 4 s_k dt^e_k - 16 s_i s_j e_ij."""
    out = []
    for k, (i, j) in _CYCLE.items():
        out.append(
            cf.mono(("dt", "e%d" % k), s_k(k) * 4)
            + cf.mono(("e%d" % i, "e%d" % j), -(s_k(i) * s_k(j) * 16))
        )
    return tuple(out)


# Im H-valued forms are triples (i, j, k) of Forms; see `quat_wedge`.

def connection_form(cf):
    """The Im H-valued connection 1-form, component k = -(2c_k + 1) e_k."""
    return tuple(cf.gen("e%d" % k, -(c_k(k) * 2 + 1)) for k in (1, 2, 3))


def curvature_form(cf):
    """The Im H-valued curvature: component k = half of omega_k."""
    half = Fraction(1, 2)
    return tuple(w.scale(half) for w in asd_two_forms(cf))


def beta_forms(cf):
    """beta_k = (2c_k + 1) e_k + f_k."""
    return tuple(
        cf.gen("e%d" % k, c_k(k) * 2 + 1) + cf.gen("f%d" % k) for k in (1, 2, 3)
    )


# -- reports -----------------------------------------------------------------

class VerificationReport(
    collections.namedtuple("VerificationReport", "identity status mu residual",
                           defaults=(None, None))
):
    """status is "holds", "fails" or "holds-with-mu"; mu (an
    AlgebraicScalar) and residual (a str) are None unless given."""

    __slots__ = ()

    def ok(self):
        return self.status in ("holds", "holds-with-mu")


def _report(identity, failures, mu=None):
    if failures:
        return VerificationReport(identity, "fails", residual="; ".join(failures))
    if mu is not None:
        return VerificationReport(identity, "holds-with-mu", mu=mu)
    return VerificationReport(identity, "holds")


def verify_connection():
    """The curvature/connection identities on the explicit coframe."""
    cf = s7_coframe()
    omega = asd_two_forms(cf)
    phi = connection_form(cf)
    Phi = curvature_form(cf)
    failures = []

    # d(omega_1) against its closed-form coefficient
    s1, c2, s2, c3, s3 = s_k(1), c_k(2), s_k(2), c_k(3), s_k(3)
    want = cf.mono(("dt", "e2", "e3"), (s1 - (c2 * s3 + s2 * c3) * 2) * 8)
    if ext_d(omega[0], cf) != want:
        failures.append("d(omega_1) mismatch")

    # curvature from the connection: d(phi_k) + 2 phi_i^phi_j = (1/2) omega_k
    curv = [ext_d(p, cf) + w for p, w in zip(phi, quat_wedge(phi, phi)[1:])]
    for k in (1, 2, 3):
        if curv[k - 1] != Phi[k - 1]:
            failures.append("curvature component %d" % k)

    # Bianchi-type identity: d(Phi) + 2 Im(phi ^ Phi) = 0
    bianchi = [ext_d(P, cf) + w.scale(2) for P, w in zip(Phi, quat_wedge(phi, Phi)[1:])]
    if not all(b.is_zero() for b in bianchi):
        failures.append("d(Phi) + 2 Im(phi^Phi) != 0")

    # -Re(Phi ^ Phi), the sum of the squared curvature components, is
    # -3/2 times the base volume 64 s1 s2 s3 dt^e1^e2^e3
    vol = cf.mono(("dt", "e1", "e2", "e3"), s1 * s2 * s3 * 64)
    if -quat_wedge(Phi, Phi)[0] != vol.scale(Fraction(-3, 2)):
        failures.append("-Re(Phi^Phi) != -3/2 vol")

    return _report("connection", failures)


def verify_lemma_1_1():
    """d(beta) + beta^beta + 2 Im(phi^beta) + Phi vanishes componentwise."""
    cf = s7_coframe()
    phi = connection_form(cf)
    Phi = curvature_form(cf)
    beta = beta_forms(cf)
    beta_sq, phi_beta = quat_wedge(beta, beta), quat_wedge(phi, beta)
    failures = []
    for k in (1, 2, 3):
        res = ext_d(beta[k - 1], cf) + beta_sq[k] + phi_beta[k].scale(2) + Phi[k - 1]
        if not res.is_zero():
            failures.append("component %d: %s" % (k, res.render()))
    return _report("vertical-one-form-identity", failures)


# -- SU(3) structure on a 6-element subframe ----------------------------------

def su3_forms(six):
    """(xi, Re Xi, Im Xi) of six 1-forms x1..x6: xi = x12 + x34 + x56 and
    Xi = (x1 + i x2) ^ (x3 + i x4) ^ (x5 + i x6)."""
    x1, x2, x3, x4, x5, x6 = six
    x13, x14, x23, x24 = x1.wedge(x3), x1.wedge(x4), x2.wedge(x3), x2.wedge(x4)
    return (
        x1.wedge(x2) + x3.wedge(x4) + x5.wedge(x6),
        x13.wedge(x5) - x14.wedge(x6) - x23.wedge(x6) - x24.wedge(x5),
        x23.wedge(x5) + x14.wedge(x5) + x13.wedge(x6) - x24.wedge(x6),
    )


def su3_invariants_report(six, identity):
    """xi ^ Re Xi = 0, xi ^ Im Xi = 0 and Re Xi ^ Im Xi = 4 x1 ^ .. ^ x6;
    each that fails is named in the residual, in this order."""
    xi, re, im = su3_forms(six)
    checks = (
        ("xi_wedge_re_zero", xi.wedge(re).is_zero()),
        ("xi_wedge_im_zero", xi.wedge(im).is_zero()),
        ("re_im_is_four_volumes", re.wedge(im) == wedge_all(six).scale(4)),
    )
    return _report(identity, [name for name, ok in checks if not ok])


# -- the two distinguished structures -----------------------------------------

S7_FRAME_NAMES = ("X1", "X2", "X3", "X4", "X5", "X6", "X7")
B7_FRAME_NAMES = ("Y1", "Y2", "Y3", "Y4", "Y5", "Y6", "Y7")


def conormal_frame(names, six, cf):
    """Six orbit 1-forms plus X_7 = -dt, the unit conormal under which
    the structures are exactly nearly parallel with a single constant."""
    return OrthoFrame(names, tuple(six) + (cf.gen(cf.t_name, -1),))


def s7_frame(cf):
    """X_{2k-1} = lam beta_k, X_{2k} = 4 s_k e_k, X_7 = -dt."""
    betas = beta_forms(cf)
    forms = []
    for k in (1, 2, 3):
        forms.append(betas[k - 1].scale(LAMBDA_CANON))
        forms.append(cf.gen("e%d" % k, s_k(k) * 4))
    return conormal_frame(S7_FRAME_NAMES, forms, cf)


def build_s7_squashed():
    """The squashed 3-form 2 lam Theta + lam^3 Upsilon with its frame."""
    cf = s7_coframe()
    betas = beta_forms(cf)
    # Theta = sum Phi_k ^ beta_k
    theta = -quat_wedge(curvature_form(cf), betas)[0]
    upsilon = betas[0].wedge(betas[1]).wedge(betas[2])
    phi3 = theta.scale(LAMBDA_CANON * 2) + upsilon.scale(LAMBDA_CANON ** 3)
    return phi3, s7_frame(cf), cf


@functools.cache
def g2_frame_form(names):
    """X7 ^ xi + Re Xi over seven generator names: the seven signed
    monomials of the canonical G2 3-form, built once per name tuple."""
    xs = [Form.generator(names, n) for n in names]
    xi, re, _ = su3_forms(xs[:6])
    return xs[6].wedge(xi) + re


def canonical_g2_form(frame):
    """The canonical G2 3-form of a frame, over the base coframe."""
    return frame.expand(g2_frame_form(frame.names))


def build_b7():
    """X7 ^ xi + Re Xi over the (p, n, dt) coframe, on the pulled-back
    frame completed by the conormal -dt."""
    cf = b7_coframe()
    frame = conormal_frame(B7_FRAME_NAMES, pullback_frame()[:6], cf)
    return canonical_g2_form(frame), frame, cf


def np2_residual(phi, frame, cf):
    """d(phi) - mu star(phi), for phi the canonical G2 form of the frame
    over the base coframe (`canonical_g2_form(frame)`).

    The one place the nearly-parallel G2 equation is written.  The star
    is taken on phi's seven frame monomials, where it is a sign table,
    and expanded over the base coframe.
    """
    star = frame.expand(hodge_star(g2_frame_form(frame.names), frame))
    return ext_d(phi, cf) - star.scale(MU)


def verify_np2(phi, frame, cf, identity="np2"):
    """Check d(phi) = mu * star(phi) for a single exact constant mu.

    phi must be the canonical G2 form of the frame; the frame spans the
    base coframe, so this pins phi down and star(phi) is nonzero.  mu is
    solved, as for a claim binding nothing, from the constraints of
    `np2_residual`, which must all vanish at it.  A phi that is not the
    frame's G2 form, conflicting ratios or mu = 0 give a fails report.
    """
    if phi.degree != 3:
        raise DegreeError("expected a 3-form")
    if canonical_g2_form(frame) != phi:
        return _report(identity, ["phi is not the canonical G2 form of the frame"])
    try:
        mu = _check_claim(extract_constraints(np2_residual(phi, frame, cf)), {})
    except ClaimFails:
        return _report(identity, ["conflicting ratios"])
    return _report(identity, ["mu is zero"] if mu.is_zero() else [], mu=mu)


# -- Gram blocks ---------------------------------------------------------------

def _f1_e1_block(coframe):
    """The (f1, e1) block of the metric sum x (x) x over the given
    1-forms x: entry (u, v) is sum x_u x_v."""
    cols = [[x.coefficient((name,)) for x in coframe] for name in ("f1", "e1")]
    return [[sum((p * q for p, q in zip(u, v)), POLY_ZERO) for v in cols] for u in cols]


def s7_gram_block():
    """Round-metric block in the (f1, e1) plane: dt^2 + 4 sum beta_k^2 +
    sum (4 s_k e_k)^2, with 4 beta_k^2 = (2 beta_k)^2."""
    cf = s7_coframe()
    coframe = [cf.gen("dt")] + [b.scale(2) for b in beta_forms(cf)]
    coframe += [cf.gen("e%d" % k, s_k(k) * 4) for k in (1, 2, 3)]
    return _f1_e1_block(coframe)

def b7_gram_block():
    """Invariant-metric block in the (f1, e1) plane via the basis change.

    Uses the change-of-basis matrix rows (1, -1) and (1, 1) over 2, the
    normalization under which the closed-form block below is exact.
    """
    cf = s7_coframe()
    half = Fraction(1, 2)
    p1 = (cf.gen("f1") - cf.gen("e1")).scale(half)
    n1 = (cf.gen("f1") + cf.gen("e1")).scale(half)
    y1 = p1.scale(LAMBDA_CANON * 2) + n1.scale(c_k(1) * LAMBDA_CANON)
    y2 = n1.scale(s_k(1) * 2)
    return _f1_e1_block([y1, y2])


def half_angle_entry(const_part, cos_sq_coeff):
    """const + coeff cos^2(t/2) rewritten over integer frequencies."""
    half = Fraction(1, 2)
    base = Fraction(const_part) + Fraction(cos_sq_coeff) * half
    return TrigScalar.const(base) + TrigScalar.cos(1, Fraction(cos_sq_coeff) * half)


def gram_blocks_report():
    failures = []
    fifth = alg(Fraction(1, 5))

    g7 = s7_gram_block()
    want7 = [
        [half_angle_entry(4, 0), half_angle_entry(-4, 16)],
        [half_angle_entry(-4, 16), half_angle_entry(4, 32)],
    ]
    for i in range(2):
        for j in range(2):
            if g7[i][j] != ParamPoly.const(want7[i][j]):
                failures.append("round block (%d,%d)" % (i, j))

    # (1/5) [[5 + 4 sin^2 t + 4 cos t, 1 - 4 cos^2 t], [., 5 + 4 sin^2 t - 4 cos t]]
    sin_sq = TrigScalar.const(Fraction(1, 2)) - TrigScalar.cos(2, Fraction(1, 2))
    cos_sq = TrigScalar.const(Fraction(1, 2)) + TrigScalar.cos(2, Fraction(1, 2))
    wantb = [
        [
            (TrigScalar.const(5) + sin_sq * 4 + TrigScalar.cos(1, 4)) * fifth,
            (TrigScalar.const(1) - cos_sq * 4) * fifth,
        ],
        [
            (TrigScalar.const(1) - cos_sq * 4) * fifth,
            (TrigScalar.const(5) + sin_sq * 4 - TrigScalar.cos(1, 4)) * fifth,
        ],
    ]
    gb = b7_gram_block()
    for i in range(2):
        for j in range(2):
            if gb[i][j] != ParamPoly.const(wantb[i][j]):
                failures.append("invariant block (%d,%d)" % (i, j))

    return _report("gram-blocks", failures)


# -- so(5) and its principal so(3) ---------------------------------------------

def _trace_pairing_report():
    basis = epsilon_basis() + gamma_basis()
    failures = []
    minus_two = alg(-2)
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            want = minus_two if i == j else alg(0)
            if trace_pairing(x, y) != want:
                failures.append("tr pairing (%d,%d)" % (i, j))
    return _report("trace-pairings", failures)


def _rho_report():
    failures = [name for name, ok in rho_action_check().items() if not ok]
    return _report("rho-cycling", failures)


def _three_form_report():
    agree = invariant_three_form() == g2_frame_form(GAMMA_GENS)
    return _report(
        "invariant-three-form", [] if agree else ["not the seven-term G2 form"]
    )


def _bracket_closure_report():
    eps = epsilon_basis()
    gam = gamma_basis()
    failures = []
    for i, e in enumerate(eps):
        for j, g in enumerate(gam):
            x = bracket(e, g)
            # x must lie in span(gamma): trace-orthogonal to every epsilon
            if any(not trace_pairing(x, e2).is_zero() for e2 in eps):
                failures.append("bracket (%d,%d) leaves the complement" % (i, j))
    return _report("bracket-closure", failures)


def lie_check_reports():
    """Trace pairings, rho cycling, the invariant 3-form and bracket
    closure of so(5) = so(3) + complement, yielded in this order."""
    yield _trace_pairing_report()
    yield _rho_report()
    yield _three_form_report()
    yield _bracket_closure_report()


# -- parametric ansatz families ------------------------------------------------

class AnsatzFamily:
    """Six 1-forms with (lam, a, b) left symbolic.

    s7 style: X_{2k-1} = lam f_k + lam (a c_k + b) e_k, X_{2k} = 4 s_k e_k.
    b7 style: Y_{2k-1} = 2 lam p_k + 2 lam a c_k n_k, Y_{2k} = b p_k + 2 s_k n_k.
    """

    __slots__ = ("which",)

    S7_STYLE = "s7"
    B7_STYLE = "b7"

    def __init__(self, which):
        if which not in (self.S7_STYLE, self.B7_STYLE):
            raise ValueError("unknown family %r" % which)
        object.__setattr__(self, "which", which)

    def __setattr__(self, name, value):
        raise AttributeError("AnsatzFamily is immutable")

    def coframe(self):
        return s7_coframe() if self.which == self.S7_STYLE else b7_coframe()

    def frame_forms(self, cf=None):
        if cf is None:
            cf = self.coframe()
        forms = []
        for k in (1, 2, 3):
            ck = ParamPoly.const(c_k(k))
            sk = s_k(k)
            if self.which == self.S7_STYLE:
                odd = cf.gen("f%d" % k).scale(LAM) + cf.gen("e%d" % k).scale(
                    LAM * (A_UNK * ck + B_UNK)
                )
                even = cf.gen("e%d" % k, sk * 4)
            else:
                odd = cf.gen("p%d" % k).scale(LAM * 2) + cf.gen("n%d" % k).scale(
                    LAM * A_UNK * ck * 2
                )
                even = cf.gen("p%d" % k).scale(B_UNK) + cf.gen("n%d" % k, sk * 2)
            forms.append(odd)
            forms.append(even)
        return tuple(forms)

    def frame(self, cf):
        """The six frame forms completed by the conormal -dt."""
        names = S7_FRAME_NAMES if self.which == self.S7_STYLE else B7_FRAME_NAMES
        return conormal_frame(names, self.frame_forms(cf), cf)


@functools.cache
def _family_parts(which):
    """The dt-free part and the dt part of a family's NP2 residual, built
    once per family; forms are immutable, so callers share them."""
    family = AnsatzFamily(which)
    cf = family.coframe()
    frame = family.frame(cf)
    return dt_split(np2_residual(canonical_g2_form(frame), frame, cf), cf)


def nhf_residual(family):
    """The nearly-half-flat residual: the dt-free part of
    d(phi) - mu star(phi), polynomial in (lam, a, b, mu)."""
    return _family_parts(family.which)[0]


def flow_residual(family):
    """The evolution residual: the dt part of d(phi) - mu star(phi),
    contracted by dt.

    With phi = -dt ^ xi + Re Xi it reads orbit d(xi) + d/dt Re Xi -
    mu Im Xi; the sign of d/dt comes from `ext_d`, not from a choice here.
    """
    return _family_parts(family.which)[1]


def system_constraints(family, system):
    """The constraints of system "nhf", "flow" or "both" on a family:
    those of the nhf residual, then those of the flow residual."""
    if system not in ("nhf", "flow", "both"):
        raise ValueError("unknown system %r" % system)
    residuals = []
    if system != "flow":
        residuals.append(nhf_residual(family))
    if system != "nhf":
        residuals.append(flow_residual(family))
    return [p for r in residuals for p in extract_constraints(r)]


def _exp_order_key(exp):
    return (sum(exp), exp)


def normalize_constraint(p):
    """Scale so the graded-lex leading coefficient is 1."""
    if p.is_zero():
        return p
    lead = max(p.terms, key=_exp_order_key)
    lc = p.terms[lead].const_value()
    return p * ParamPoly.const(lc.inverse())


def extract_constraints(residual):
    """One polynomial in (lam, a, b, mu) per Fourier component per monomial.

    The residual vanishes for every t iff all returned polynomials do.
    Constraints are normalized to leading coefficient 1 and deduplicated.
    """
    out = []
    seen = set()
    for idx in sorted(residual.terms):
        buckets = {}
        for exp, trig in residual.terms[idx].terms.items():
            for k, c in trig.terms.items():
                buckets.setdefault(k, {})[exp] = TrigScalar.const(c)
        for k in sorted(buckets, key=mode_order):
            p = normalize_constraint(ParamPoly(buckets[k]))
            if p not in seen:
                seen.add(p)
                out.append(p)
    return out


def constraints_contain(constraints, target, bindings=None):
    """True if target lies in the linear span of the constraints.

    Bindings are applied to both sides first.  Published systems often
    divide through by lam, so target * lam^k for k = 0..2 is also
    accepted.
    """
    if bindings:
        constraints = [p.bind(bindings) for p in constraints]
        target = target.bind(bindings)

    def vec(p):
        return {e: t.const_value() for e, t in p.terms.items() if not t.is_zero()}

    basis = []

    def reduce(row):
        for pivot, pvec in basis:
            if pivot in row:
                f = row[pivot]
                row = {
                    e: c
                    for e in set(row) | set(pvec)
                    if not (c := row.get(e, ALG_ZERO) - f * pvec.get(e, ALG_ZERO)).is_zero()
                }
        return row

    # row-reduce the constraint vectors once
    for p in constraints:
        row = reduce(vec(p))
        if row:
            pivot = max(row, key=_exp_order_key)
            inv = row[pivot].inverse()
            basis.append((pivot, {e: c * inv for e, c in row.items()}))

    return any(
        not reduce(vec(target if k == 0 else target * LAM ** k))
        for k in range(3)
    )


def _check_claim(constraints, claim):
    """Raise ClaimFails unless the claim zeroes every constraint; return mu.

    claim maps some of lam, a, b and mu to exact values.  Each constraint
    is bound when it is reached, and the first survivor ends the check.
    A claim without mu gets mu = num/den from the first bound constraint
    q0 + mu q1 with q1 != 0: every later constraint must satisfy
    q0 den + q1 num = 0, and every earlier one q0 = 0.  The constraints
    have constant coefficients, so this is exact even when den depends
    on lam.  Returns the claimed mu, else num/den when both are constant,
    else None.
    """
    num = den = None
    for p in constraints:
        q = p.bind(claim)
        if q.degree_in("mu") > 1:
            raise ClaimFails("constraint not linear in mu: %s" % p.render())
        q0 = q.coefficient_of("mu", 0)
        q1 = q.coefficient_of("mu", 1)
        if num is None and not q1.is_zero():
            num, den = -q0, q1
        elif not (q0 if num is None else q0 * den + q1 * num).is_zero():
            raise ClaimFails("constraint survives: %s" % p.render())
    if "mu" in claim:
        return claim["mu"]
    if num is None:
        raise ClaimFails("no constraint determines mu")
    if num.is_const() and den.is_const():
        return num.const_value().const_value() / den.const_value().const_value()
    return None


def prop_5_1_claims():
    """The two published solution branches of the round-family system, as
    the (a, b) of each; lam is free and mu is solved as a function of it."""
    return [
        {"a": ALG_ZERO, "b": alg(-1)},
        {"a": ALG_ZERO, "b": ALG_ZERO},
        {"a": alg(2), "b": alg(1)},
        {"a": alg(-2), "b": alg(1)},
    ]


def joint_system_claims():
    """The unique joint-system triples (+-2/sqrt5, 1/2, 0)."""
    half = alg(Fraction(1, 2))
    return [
        {"lam": LAMBDA_CANON, "a": half, "b": ALG_ZERO},
        {"lam": -LAMBDA_CANON, "a": half, "b": ALG_ZERO},
    ]


def locus_claims():
    """Exact samples of lam^2 (4 - a^2) = 3, b = 0, plus the pair
    (1/2, 2, +-sqrt3), all zeroing the invariant-family system."""
    half = alg(Fraction(1, 2))
    sqrt3 = alg(0, 1)
    return [
        {"lam": alg(1), "a": alg(1), "b": ALG_ZERO},
        {"lam": alg(1), "a": alg(-1), "b": ALG_ZERO},
        {"lam": alg(0, Fraction(1, 2)), "a": ALG_ZERO, "b": ALG_ZERO},
        {"lam": LAMBDA_CANON, "a": half, "b": ALG_ZERO},
        {"lam": sqrt3, "a": sqrt3, "b": ALG_ZERO},
        {"lam": half, "a": alg(2), "b": sqrt3},
        {"lam": half, "a": alg(2), "b": -sqrt3},
    ]


def s7_canonical_claim():
    """The full structure's parameters, satisfying both systems."""
    return {"lam": LAMBDA_CANON, "a": alg(2), "b": alg(1), "mu": MU_CANON}


def verify_solution_set(family, system, claims, identity="solution-set"):
    """Check each claimed binding zeroes the extracted constraints.

    system is "nhf", "flow", or "both".  A rejection pass shifts each of
    lam, a and b that a claim fixes, one at a time, and demands that at
    least one constraint survives every shift.  A claim that leaves a
    constraint nonzero, or survives a shift, gives a "fails" report.
    """
    constraints = system_constraints(family, system)

    for claim in claims:
        try:
            _check_claim(constraints, claim)
        except ClaimFails as exc:
            return VerificationReport(identity, "fails", residual=str(exc))

    # rejection pass: shifting any one fixed parameter must break each claim
    shift = alg(Fraction(1, 7))
    for claim in claims:
        for name in ("lam", "a", "b"):
            if name not in claim:
                continue
            perturbed = {k: claim[k] for k in ("lam", "a", "b") if k in claim}
            perturbed[name] = claim[name] + shift
            perturbed.setdefault("lam", alg(1))
            try:
                _check_claim(constraints, perturbed)
            except ClaimFails:
                continue
            return VerificationReport(
                identity, "fails", residual="perturbed claim also passes"
            )

    return VerificationReport(identity, "holds")
