"""Concrete geometric structures and the identity checks run on them.

Builds the two explicit coframes, the connection/curvature data living
on the first one, the two distinguished 3-forms with their orthonormal
frames, the one-parameter hypersurface structures, the parametric
ansatz families whose residuals feed the constraint extraction, and
the so(5) checks behind the lie-checks space.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .scalars import (
    AlgebraicScalar,
    ALG_ZERO,
    TrigScalar,
    TRIG_ZERO,
    ParamPoly,
    POLY_ZERO,
    LAM,
    A_UNK,
    B_UNK,
    MU,
    alg,
    c_k,
    s_k,
    trig_div_exact,
    InexactDivision,
    _exp_order_key,
)
from .exterior import (
    Form,
    CoframeSpec,
    OrthoFrame,
    ext_d,
    hodge_star,
    gram_matrix,
    wedge_all,
    DegreeError,
)
from .quaternionic import QuatForm, quat_wedge
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


class NotProportional(ArithmeticError):
    """No single constant relates the two forms."""


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


def connection_form(cf):
    """Vector-valued connection 1-form, component k = -(2c_k + 1) e_k."""
    comps = [cf.gen("e%d" % k, -(c_k(k) * 2 + 1)) for k in (1, 2, 3)]
    return QuatForm.vector(*comps)


def curvature_form(cf):
    """Vector-valued curvature: component k = half of omega_k."""
    half = Fraction(1, 2)
    return QuatForm.vector(*(w.scale(half) for w in asd_two_forms(cf)))


def beta_forms(cf):
    """beta_k = (2c_k + 1) e_k + f_k."""
    return tuple(
        cf.gen("e%d" % k, c_k(k) * 2 + 1) + cf.gen("f%d" % k) for k in (1, 2, 3)
    )


# -- reports -----------------------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    identity: str
    status: str                      # "holds" | "fails" | "holds-with-mu"
    mu: AlgebraicScalar | None = None
    residual: str | None = None

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
    curv = phi.d(cf) + quat_wedge(phi, phi)
    for k in (1, 2, 3):
        if curv.components[k] != Phi.components[k]:
            failures.append("curvature component %d" % k)

    # kappa read off the first component
    got = curv.components[1].coefficient(("dt", "e1")).const_value()
    ref = omega[0].coefficient(("dt", "e1")).const_value()
    kappa = trig_div_exact(got * 2, ref)
    if not (kappa.is_const() and kappa.const_value() == 1):
        failures.append("kappa != 1")

    # Bianchi-type identity: d(Phi) + 2 Im(phi ^ Phi) = 0
    bianchi = Phi.d(cf) + quat_wedge(phi, Phi).imag().scale(2)
    if not bianchi.is_zero():
        failures.append("d(Phi) + 2 Im(phi^Phi) != 0")

    return _report("connection", failures)


def verify_lemma_1_1(perturb=False):
    """d(beta) + beta^beta + 2 Im(phi^beta) + Phi vanishes componentwise."""
    cf = s7_coframe()
    phi = connection_form(cf)
    Phi = curvature_form(cf)
    b1, b2, b3 = beta_forms(cf)
    if perturb:
        b1 = b1 + cf.gen("f1")
    beta = QuatForm.vector(b1, b2, b3)
    res = beta.d(cf) + quat_wedge(beta, beta) + quat_wedge(phi, beta).imag().scale(2) + Phi
    failures = [
        "component %d: %s" % (k, res.components[k].render())
        for k in (1, 2, 3)
        if not res.components[k].is_zero()
    ]
    return _report("vertical-one-form-identity", failures)


# -- SU(3) structure on a 6-element subframe ----------------------------------

class Su3Structure:
    """xi, Re Xi, Im Xi over the base coframe, from six 1-forms."""

    __slots__ = ("xi", "re", "im", "forms")

    def __init__(self, six):
        six = tuple(six)
        if len(six) != 6 or any(f.degree != 1 for f in six):
            raise DegreeError("expected six 1-forms")
        x1, x2, x3, x4, x5, x6 = six

        def w(*fs):
            return wedge_all(fs)

        object.__setattr__(self, "forms", six)
        object.__setattr__(self, "xi", w(x1, x2) + w(x3, x4) + w(x5, x6))
        object.__setattr__(
            self, "re", w(x1, x3, x5) - w(x1, x4, x6) - w(x2, x3, x6) - w(x2, x4, x5)
        )
        object.__setattr__(
            self, "im", w(x2, x3, x5) + w(x1, x4, x5) + w(x1, x3, x6) - w(x2, x4, x6)
        )

    def __setattr__(self, name, value):
        raise AttributeError("Su3Structure is immutable")

    def volume(self):
        return wedge_all(self.forms)

    def invariants_check(self):
        vol4 = self.volume().scale(4)
        report = {
            "xi_wedge_re_zero": self.xi.wedge(self.re).is_zero(),
            "xi_wedge_im_zero": self.xi.wedge(self.im).is_zero(),
            "re_im_is_four_volumes": self.re.wedge(self.im) == vol4,
        }
        report["all"] = all(report.values())
        return report


# -- the two distinguished structures -----------------------------------------

S7_FRAME_NAMES = ("X1", "X2", "X3", "X4", "X5", "X6", "X7")
B7_FRAME_NAMES = ("Y1", "Y2", "Y3", "Y4", "Y5", "Y6", "Y7")


def s7_frame(cf):
    """X_{2k-1} = lam beta_k, X_{2k} = 4 s_k e_k, X_7 = -dt."""
    betas = beta_forms(cf)
    forms = []
    for k in (1, 2, 3):
        forms.append(betas[k - 1].scale(LAMBDA_CANON))
        forms.append(cf.gen("e%d" % k, s_k(k) * 4))
    forms.append(cf.gen("dt", -1))
    return OrthoFrame(S7_FRAME_NAMES, forms)


def build_s7_squashed():
    """The squashed 3-form 2 lam Theta + lam^3 Upsilon with its frame."""
    cf = s7_coframe()
    betas = beta_forms(cf)
    Phi = curvature_form(cf)
    theta = cf.zero(3)
    for k in (1, 2, 3):
        theta = theta + Phi.components[k].wedge(betas[k - 1])
    upsilon = betas[0].wedge(betas[1]).wedge(betas[2])
    phi3 = theta.scale(LAMBDA_CANON * 2) + upsilon.scale(LAMBDA_CANON ** 3)
    return phi3, s7_frame(cf), cf


def g2_frame_form(names):
    """X7 ^ xi + Re Xi over seven generator names: the seven signed
    monomials of the canonical G2 3-form."""
    xs = [Form.generator(names, n) for n in names]
    su = Su3Structure(xs[:6])
    return xs[6].wedge(su.xi) + su.re


def canonical_g2_form(frame):
    """The canonical G2 3-form of a frame, over the base coframe."""
    return frame.expand(g2_frame_form(frame.names))


def chi_four_form(cf):
    """-Re[Phi ^ Phi] = sum of the squares of the curvature components."""
    Phi = curvature_form(cf)
    return -quat_wedge(Phi, Phi).real_part()


def build_b7():
    """X7 ^ xi + Re Xi over the (p, n, dt) coframe, on the pulled-back frame.

    The seventh frame element is -dt, the same unit-conormal convention
    as the round-sphere frame; this is the orientation under which the
    structure is exactly nearly parallel with a single constant.
    """
    cf = b7_coframe()
    ys = pullback_frame()
    x7 = cf.gen("dt").scale(Fraction(-1))
    frame = OrthoFrame(B7_FRAME_NAMES, tuple(ys[:6]) + (x7,))
    return canonical_g2_form(frame), frame, cf


def verify_np2(phi, frame, cf, identity="np2"):
    """Check d(phi) = mu * star(phi) for a single exact constant mu.

    phi must be the canonical G2 form of the frame.  The star is taken
    on its seven frame monomials, where it is a sign table; the frame
    spans the base coframe, so the expansion check pins phi down.
    """
    if phi.degree != 3:
        raise DegreeError("expected a 3-form")
    phi_frame = g2_frame_form(frame.names)
    if frame.expand(phi_frame) != phi:
        raise NotProportional("phi is not the canonical G2 form of the frame")
    dphi = ext_d(phi, cf)
    star = frame.expand(hodge_star(phi_frame, frame))
    mu = None
    for idx in sorted(set(dphi.terms) | set(star.terms)):
        a = dphi.terms.get(idx, POLY_ZERO).const_value()
        b = star.terms.get(idx, POLY_ZERO).const_value()
        if b.is_zero():
            if not a.is_zero():
                raise NotProportional("monomial %r present only in d(phi)" % (idx,))
            continue
        try:
            q = trig_div_exact(a, b)
        except InexactDivision:
            raise NotProportional("non-constant ratio at %r" % (idx,))
        if not q.is_const():
            raise NotProportional("t-dependent ratio at %r" % (idx,))
        qv = q.const_value()
        if mu is None:
            mu = qv
        elif mu != qv:
            raise NotProportional("conflicting ratios")
    if mu is None or mu.is_zero():
        return VerificationReport(identity, "fails", residual="mu is zero")
    return VerificationReport(identity, "holds-with-mu", mu=mu)


# -- Gram blocks ---------------------------------------------------------------

def s7_gram_block():
    """Round-metric block in the (f1, e1) plane."""
    cf = s7_coframe()
    betas = beta_forms(cf)
    terms = [(1, cf.gen("dt"))]
    terms += [(4, b) for b in betas]
    terms += [(1, cf.gen("e%d" % k, s_k(k) * 4)) for k in (1, 2, 3)]
    return gram_matrix(terms, ("f1", "e1"), S7_GENS)

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
    return gram_matrix([(1, y1), (1, y2)], ("f1", "e1"), S7_GENS)


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

    for g in (g7, gb):
        if g[0][1] != g[1][0]:
            failures.append("asymmetric block")

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
    checks = rho_action_check()
    failures = [name for name, ok in checks.items() if name != "all" and not ok]
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
    for e in eps:
        for g in gam:
            x = bracket(e, g)
            # x must lie in span(gamma): trace-orthogonal to every epsilon
            for e2 in eps:
                if not trace_pairing(x, e2).is_zero():
                    failures.append("bracket leaves the complement")
    # the complement's structure constants reproduce the 3-form coefficients
    three = invariant_three_form()
    lead = trace_pairing(bracket(gam[0], gam[1]), gam[6])
    for (i, j, k), c in three.terms.items():
        got = trace_pairing(bracket(gam[i], gam[j]), gam[k])
        if got * lead.inverse() != c:
            failures.append("structure constant (%d,%d,%d)" % (i, j, k))
    return _report("bracket-closure", failures)


def lie_check_reports():
    """Trace pairings, rho cycling, the invariant 3-form and bracket
    closure of so(5) = so(3) + complement, in this order."""
    return [
        _trace_pairing_report(),
        _rho_report(),
        _three_form_report(),
        _bracket_closure_report(),
    ]


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

    def su3(self, cf=None):
        return Su3Structure(self.frame_forms(cf))

    def canonical_bindings(self):
        """The specialization recovering the built-in structure's frame."""
        if self.which == self.S7_STYLE:
            return {"lam": LAMBDA_CANON, "a": alg(2), "b": alg(1)}
        return {"lam": LAMBDA_CANON, "a": alg(Fraction(1, 2)), "b": ALG_ZERO}


def _orbit_d(f, cf):
    """Exterior derivative along the orbit: the dt-free part of d.

    The coframe's structure equations are dt-free, so d splits into the
    orbit derivative plus dt ^ (coefficient t-derivative); the
    hypersurface systems use the former.
    """
    df = ext_d(f, cf)
    i_dt = cf.t_index()
    return Form(
        df.gens,
        df.degree,
        {m: c for m, c in df.terms.items() if i_dt not in m},
    )


def nhf_residual(family):
    """Orbit d(Re Xi) - mu (1/2) xi^2, polynomial in (lam, a, b, mu)."""
    cf = family.coframe()
    su = family.su3(cf)
    half = ParamPoly.const(Fraction(1, 2))
    return _orbit_d(su.re, cf) - su.xi.wedge(su.xi).scale(MU * half)


def flow_residual(family):
    """Orbit d(xi) + d/dt(Re Xi) - mu Im Xi, the evolution residual.

    The time derivative enters with the sign matching the -dt conormal
    orientation, under which this is the degree-3 dt-component of
    d(phi) - mu star(phi) for phi built by canonical_g2_form.
    """
    cf = family.coframe()
    su = family.su3(cf)
    ddt_re = su.re.map_coefficients(lambda c: c.deriv_t())
    return _orbit_d(su.xi, cf) + ddt_re - su.im.scale(MU)


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
            for n, (c, s) in trig.terms.items():
                if not c.is_zero():
                    buckets.setdefault((n, 0), {})[exp] = c
                if not s.is_zero():
                    buckets.setdefault((n, 1), {})[exp] = s
        for key in sorted(buckets):
            p = normalize_constraint(
                ParamPoly({e: TrigScalar.const(v) for e, v in buckets[key].items()})
            )
            marker = tuple(sorted(p.terms.items(), key=lambda kv: kv[0]))
            if marker not in seen:
                seen.add(marker)
                out.append(p)
    return out


def constraints_contain(constraints, target, bindings=None, max_shift=2):
    """True if target lies in the linear span of the constraints.

    Bindings are applied to both sides first.  Published systems often
    divide through by lam, so target * lam^k for k = 0..max_shift is
    also accepted.
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
        for k in range(max_shift + 1)
    )


def _check_claim(constraints, claim):
    """Raise ClaimFails unless the binding zeroes every constraint.

    claim maps a subset of {lam, a, b} to exact values, plus either
    "mu" (exact value), or "mu_num"/"mu_den" (polynomials in lam for a
    rational dependence), or no mu entry (solved from the first
    constraint that is linear in mu with a nonzero coefficient).
    """
    known = {k: claim[k] for k in ("lam", "a", "b") if k in claim}
    bound = [p.bind(known) for p in constraints]

    if "mu" in claim:
        num, den = ParamPoly.const(claim["mu"]), ParamPoly.const(1)
    elif "mu_num" in claim:
        num, den = claim["mu_num"], claim["mu_den"]
    else:
        num = None
        for q in bound:
            if q.degree_in("mu") == 1:
                q1 = q.coefficient_of("mu", 1)
                if q1.is_const() and not q1.is_zero():
                    num, den = -q.coefficient_of("mu", 0), q1
                    break
        if num is None:
            raise ClaimFails("no constraint determines mu")

    solved_mu = None
    if den.is_const() and num.is_const():
        solved_mu = num.const_value().const_value() / den.const_value().const_value()

    for p, q in zip(constraints, bound):
        d = q.degree_in("mu")
        if d > 1:
            raise ClaimFails("constraint not linear in mu: %s" % p.render())
        q0 = q.coefficient_of("mu", 0)
        q1 = q.coefficient_of("mu", 1)
        if not (q0 * den + q1 * num).is_zero():
            raise ClaimFails("constraint survives: %s" % p.render())
    return solved_mu


def prop_5_1_claims():
    """The two published solution branches of the round-family system."""
    p = ParamPoly.const
    mu_b1_num = -(LAM * LAM + p(4))
    mu_b1_den = LAM * p(2)
    return [
        {"a": ALG_ZERO, "b": alg(-1), "mu_num": p(-2), "mu_den": LAM},
        {"a": ALG_ZERO, "b": ALG_ZERO, "mu_num": p(-2), "mu_den": LAM},
        {"a": alg(2), "b": alg(1), "mu_num": mu_b1_num, "mu_den": mu_b1_den},
        {"a": alg(-2), "b": alg(1), "mu_num": mu_b1_num, "mu_den": mu_b1_den},
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
    least one constraint survives every shift.
    """
    residuals = []
    if system in ("nhf", "both"):
        residuals.append(nhf_residual(family))
    if system in ("flow", "both"):
        residuals.append(flow_residual(family))
    if not residuals:
        raise ValueError("unknown system %r" % system)
    constraints = []
    for r in residuals:
        constraints.extend(extract_constraints(r))

    mus = []
    for claim in claims:
        mus.append(_check_claim(constraints, claim))

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
            report = VerificationReport(
                identity, "fails", residual="perturbed claim also passes"
            )
            return report, mus

    return VerificationReport(identity, "holds"), mus
