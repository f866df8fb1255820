"""Structure builds, identity verifications, constraint extraction."""

from fractions import Fraction

import pytest

from g2cal.scalars import (
    ParamPoly,
    LAM,
    A_UNK,
    B_UNK,
    MU,
    alg,
    ALG_ZERO,
    c_k,
    s_k,
    TrigScalar,
)
from g2cal import structures
from g2cal.exterior import Form, OrthoFrame, ext_d, orbit_d, dt_split, d_squared_check
from g2cal.quaternionic import quat_wedge
from g2cal.structures import (
    LAMBDA_CANON,
    MU_CANON,
    S7_FRAME_NAMES,
    s7_coframe,
    b7_coframe,
    asd_two_forms,
    beta_forms,
    verify_connection,
    verify_lemma_1_1,
    su3_forms,
    su3_invariants_report,
    s7_frame,
    build_s7_squashed,
    build_b7,
    canonical_g2_form,
    g2_frame_form,
    curvature_form,
    verify_np2,
    np2_residual,
    gram_blocks_report,
    AnsatzFamily,
    nhf_residual,
    flow_residual,
    extract_constraints,
    normalize_constraint,
    constraints_contain,
    system_constraints,
    verify_solution_set,
    prop_5_1_claims,
    joint_system_claims,
    locus_claims,
    s7_canonical_claim,
    lie_check_reports,
)

P = ParamPoly.const


def test_coframes_integrate():
    assert d_squared_check(s7_coframe())
    assert d_squared_check(b7_coframe())


def test_connection_identities():
    assert verify_connection().status == "holds"


def test_curvature_proof_line():
    cf = s7_coframe()
    s1, c2, s2, c3, s3 = s_k(1), c_k(2), s_k(2), c_k(3), s_k(3)
    want = cf.mono(("dt", "e2", "e3"), (s1 - (c2 * s3 + s2 * c3) * 2) * 8)
    assert ext_d(asd_two_forms(cf)[0], cf) == want


def test_vertical_identity_and_perturbation(monkeypatch):
    assert verify_lemma_1_1().status == "holds"
    betas = beta_forms

    def perturbed(cf):
        b1, b2, b3 = betas(cf)
        return b1 + cf.gen("f1"), b2, b3

    monkeypatch.setattr(structures, "beta_forms", perturbed)
    assert verify_lemma_1_1().status == "fails"


def test_su3_invariants():
    cf = s7_coframe()
    rep = su3_invariants_report(s7_frame(cf).forms[:6], "su3")
    assert rep == ("su3", "holds", None, None)


def test_su3_invariants_hold_for_any_six_one_forms():
    # the invariants are identities of the exterior algebra, so a rescaled
    # frame still satisfies them: the report checks su3_forms' formulas
    cf = s7_coframe()
    x1, *rest = s7_frame(cf).forms[:6]
    assert su3_invariants_report((x1.scale(2), *rest), "su3").status == "holds"


@pytest.mark.parametrize("perturb, broken", [
    (lambda xi, re, im, x13: (xi + x13, re, im), ["xi_wedge_re_zero", "xi_wedge_im_zero"]),
    (lambda xi, re, im, x13: (xi, re.scale(2), im), ["re_im_is_four_volumes"]),
    (lambda xi, re, im, x13: (xi + x13, re.scale(2), im),
     ["xi_wedge_re_zero", "xi_wedge_im_zero", "re_im_is_four_volumes"]),
], ids=["xi", "re", "all"])
def test_su3_invariants_report_names_each_broken_invariant(monkeypatch, perturb, broken):
    forms = su3_forms

    def perturbed(six):
        return perturb(*forms(six), six[0].wedge(six[2]))

    monkeypatch.setattr(structures, "su3_forms", perturbed)
    cf = s7_coframe()
    rep = su3_invariants_report(s7_frame(cf).forms[:6], "su3")
    assert rep.status == "fails"
    assert rep.residual == "; ".join(broken)


def test_squashed_build_equals_frame_pattern():
    phi, frame, cf = build_s7_squashed()
    assert phi == canonical_g2_form(frame)


def test_seven_term_frame_pattern():
    want = {
        (0, 1, 6): P(1), (2, 3, 6): P(1), (4, 5, 6): P(1),
        (0, 2, 4): P(1), (0, 3, 5): P(-1), (1, 2, 5): P(-1),
        (1, 3, 4): P(-1),
    }
    for builder in (build_s7_squashed, build_b7):
        phi, frame, cf = builder()
        assert dict(g2_frame_form(frame.names).terms) == want
        assert frame.expand(Form(frame.names, 3, want)) == phi


def test_chi_is_minus_three_halves_base_volume():
    cf = s7_coframe()
    s1, s2, s3 = s_k(1), s_k(2), s_k(3)
    vol4 = cf.mono(("dt", "e1", "e2", "e3"), s1 * s2 * s3 * 64)
    Phi = curvature_form(cf)
    assert -quat_wedge(Phi, Phi)[0] == vol4.scale(Fraction(-3, 2))


def test_connection_report_checks_chi(monkeypatch):
    curvature = curvature_form
    monkeypatch.setattr(
        structures, "curvature_form", lambda cf: tuple(f.scale(2) for f in curvature(cf))
    )
    rep = verify_connection()
    assert rep.status == "fails"
    assert "-Re(Phi^Phi) != -3/2 vol" in rep.residual.split("; ")


def test_np2_squashed_sphere():
    phi, frame, cf = build_s7_squashed()
    rep = verify_np2(phi, frame, cf, "np2-s7")
    assert rep.status == "holds-with-mu"
    assert rep.mu == MU_CANON
    assert rep.mu * rep.mu == alg(Fraction(36, 5))


def test_np2_homogeneous_space():
    phi, frame, cf = build_b7()
    rep = verify_np2(phi, frame, cf, "np2-b7")
    assert rep.status == "holds-with-mu"
    assert rep.mu == MU_CANON


def test_np2_rejects_non_proportional():
    phi, frame, cf = build_s7_squashed()
    x123 = frame.forms[0].wedge(frame.forms[1]).wedge(frame.forms[2])
    rep = verify_np2(x123, frame, cf)
    assert rep.status == "fails"
    assert rep.residual == "phi is not the canonical G2 form of the frame"


@pytest.mark.parametrize(
    "lam", [alg(1), alg(Fraction(1, 2)), alg(0, 0, Fraction(1, 5))],
    ids=["1", "1/2", "1/sqrt5"],
)
def test_np2_rejects_wrong_squashing(lam):
    # the canonical form of a frame squashed by lam != 2/sqrt5 passes the
    # frame check but d(phi) and star(phi) disagree in their ratios
    cf = s7_coframe()
    forms = list(s7_frame(cf).forms)
    forms[0:6:2] = [b.scale(lam) for b in beta_forms(cf)]
    frame = OrthoFrame(S7_FRAME_NAMES, forms)
    rep = verify_np2(canonical_g2_form(frame), frame, cf)
    assert rep.status == "fails"
    assert rep.residual == "conflicting ratios"


def test_gram_blocks():
    assert gram_blocks_report().status == "holds"


def _map_coefficients(f, fn):
    return Form(f.gens, f.degree, {i: fn(c) for i, c in f.terms.items()})


def test_family_canonical_specializations():
    s7 = AnsatzFamily("s7")
    cf = s7_coframe()
    bind = {k: v for k, v in s7_canonical_claim().items() if k != "mu"}
    bound = [_map_coefficients(f, lambda c: c.bind(bind)) for f in s7.frame_forms(cf)]
    assert list(s7_frame(cf).forms[:6]) == bound

    b7 = AnsatzFamily("b7")
    _, frame, _ = build_b7()
    bind = joint_system_claims()[0]
    bound = [_map_coefficients(f, lambda c: c.bind(bind)) for f in b7.frame_forms()]
    assert list(frame.forms[:6]) == bound


def test_b7_family_even_leg_vanishes_at_zero():
    # at b = 0 the matrix is upper triangular and the second leg is
    # 2 s_1 n_1, vanishing at t = 0
    fam = AnsatzFamily("b7")
    even = _map_coefficients(
        fam.frame_forms()[1], lambda c: c.bind({"lam": alg(1), "a": alg(1), "b": ALG_ZERO})
    )
    vals = [c.to_float({}, 0.0) for c in even.terms.values()]
    assert max((abs(v) for v in vals), default=0.0) < 1e-15


def test_half_xi_squared_closed_form():
    fam = AnsatzFamily("s7")
    cf = s7_coframe()
    xi, _, _ = su3_forms(fam.frame_forms(cf))
    half_sq = xi.wedge(xi).scale(P(Fraction(1, 2)))
    lam_sq = LAM * LAM
    want = {}
    gens = cf.gens
    for k, (i, j) in {1: (2, 3), 2: (3, 1), 3: (1, 2)}.items():
        mono = tuple(sorted((
            gens.index("e%d" % i), gens.index("e%d" % j),
            gens.index("f%d" % i), gens.index("f%d" % j),
        )))
        want[mono] = lam_sq * P(s_k(i) * s_k(j) * -16)
    assert dict(half_sq.terms) == want


def test_residual_coefficient_closed_form():
    fam = AnsatzFamily("s7")
    res = nhf_residual(fam)
    c1, c2, c3 = c_k(1), c_k(2), c_k(3)
    gens = s7_coframe().gens
    mono = tuple(sorted(gens.index(g) for g in ("e2", "e3", "f2", "f3")))
    want = (
        LAM ** 3 * (B_UNK + B_UNK * B_UNK) * P(-2)
        + LAM * P(-16)
        + LAM * (P(16) + A_UNK * A_UNK * LAM * LAM) * P(c2 * c3) * P(-2)
        + LAM ** 3 * (A_UNK * B_UNK - A_UNK) * P(c1) * P(2)
        - MU * LAM * LAM * P((c2 * c3 * 2 + 1) * 8)
    )
    assert res.terms[mono] == want


def test_extracted_system_contains_published_branches():
    fam = AnsatzFamily("s7")
    cons = extract_constraints(nhf_residual(fam))
    # the a = 0 branch system
    assert constraints_contain(cons, LAM * P(-32) - LAM * LAM * MU * P(16),
                               {"a": ALG_ZERO})
    assert constraints_contain(
        cons,
        LAM ** 3 * B_UNK * (P(1) + B_UNK) * P(-2) - LAM * P(16) - LAM * LAM * MU * P(8),
        {"a": ALG_ZERO},
    )
    # the b = 1 branch system
    assert constraints_contain(cons, LAM * LAM + MU * LAM * P(2) + P(4),
                               {"b": alg(1)})
    assert constraints_contain(
        cons, A_UNK * A_UNK * LAM * LAM + MU * LAM * P(8) + P(16), {"b": alg(1)}
    )
    # junk is rejected
    assert not constraints_contain(cons, LAM + P(1), {"a": ALG_ZERO})


def test_zero_residual_gives_no_constraints():
    fam = AnsatzFamily("s7")
    zero = nhf_residual(fam) - nhf_residual(fam)
    assert extract_constraints(zero) == []


def test_round_family_solution_set():
    rep = verify_solution_set(
        AnsatzFamily("s7"), "nhf", prop_5_1_claims(), "round-family"
    )
    assert rep.status == "holds"


# Prop 5.1's published mu = N/D on each (a, b) branch
_PROP_5_1_MU = [
    (P(-2), LAM),
    (P(-2), LAM),
    (-(LAM * LAM + P(4)), LAM * P(2)),
    (-(LAM * LAM + P(4)), LAM * P(2)),
]


def test_prop_5_1_published_mu_formulas():
    cons = system_constraints(AnsatzFamily("s7"), "nhf")
    for claim, (num, den) in zip(prop_5_1_claims(), _PROP_5_1_MU):
        bound = [p.bind(claim) for p in cons]
        assert all(q.degree_in("mu") <= 1 for q in bound)

        def zeroes_all(n, d):
            return all(
                (q.coefficient_of("mu", 0) * d + q.coefficient_of("mu", 1) * n).is_zero()
                for q in bound
            )

        assert zeroes_all(num, den), claim
        assert not zeroes_all(P(-3), LAM), claim
        # mu depends on lam here, so the checker solves it but returns None
        assert structures._check_claim(cons, claim) is None


def test_round_family_rejects_wrong_claim(monkeypatch):
    claim = {"a": alg(1), "b": alg(1), "mu": alg(-1)}
    cons = system_constraints(AnsatzFamily("s7"), "nhf")
    first_survivor = next(i for i, p in enumerate(cons) if not p.bind(claim).is_zero())
    assert first_survivor < len(cons) - 1
    bind = ParamPoly.bind
    calls = []

    def counted(self, bindings):
        calls.append(self)
        return bind(self, bindings)

    monkeypatch.setattr(ParamPoly, "bind", counted)
    rep = verify_solution_set(AnsatzFamily("s7"), "nhf", [claim])
    assert rep.status == "fails"
    assert rep.residual == "constraint survives: " + cons[first_survivor].render()
    # each constraint up to the first survivor is bound once, none after it
    assert calls == cons[:first_survivor + 1]


@pytest.mark.parametrize("which", ["s7", "b7"])
def test_orbit_d_is_the_dt_free_part_of_d(which):
    fam = AnsatzFamily(which)
    cf = fam.coframe()
    xi, re, _ = su3_forms(fam.frame_forms(cf))
    i_dt = cf.gens.index("dt")
    for f in (xi, re):
        full = ext_d(f, cf)
        dt_free = Form(cf.gens, full.degree,
                       {m: c for m, c in full.terms.items() if i_dt not in m})
        assert not dt_free.is_zero()
        assert orbit_d(f, cf) == dt_free


@pytest.mark.parametrize("which", ["s7", "b7"])
def test_nhf_and_flow_are_the_parts_of_the_np2_residual(which):
    # the hand formulas of the nearly-half-flat and evolution systems for
    # phi = -dt ^ xi + Re Xi; the sign of d/dt Re Xi is checked here
    fam = AnsatzFamily(which)
    cf = fam.coframe()
    xi, re, im = su3_forms(fam.frame_forms(cf))
    ddt_re = _map_coefficients(re, lambda c: c.deriv_t())
    nhf = orbit_d(re, cf) - xi.wedge(xi).scale(MU * P(Fraction(1, 2)))
    flow = orbit_d(xi, cf) + ddt_re - im.scale(MU)
    assert nhf_residual(fam) == nhf
    assert flow_residual(fam) == flow
    frame = fam.frame(cf)
    residual = np2_residual(canonical_g2_form(frame), frame, cf)
    assert residual == nhf + cf.gen("dt").wedge(flow)


def test_dt_split_inverts_dt_wedge():
    cf = s7_coframe()
    x0 = cf.mono(("e1", "f2"), 3) + cf.mono(("e2", "e3"), -1)
    x1 = cf.gen("f1", 2) + cf.gen("e3")
    free, contracted = dt_split(x0 + cf.gen("dt").wedge(x1), cf)
    assert free == x0 and contracted == x1


def test_joint_system_triples():
    fam = AnsatzFamily("b7")
    rep = verify_solution_set(fam, "both", joint_system_claims(), "joint")
    assert rep.status == "holds"
    cons = system_constraints(fam, "both")
    mus = [structures._check_claim(cons, c) for c in joint_system_claims()]
    assert mus[0] == MU_CANON
    assert mus[1] == -MU_CANON


def test_invariant_family_locus():
    fam = AnsatzFamily("b7")
    rep = verify_solution_set(fam, "nhf", locus_claims(), "locus")
    assert rep.status == "holds"
    cons = system_constraints(fam, "nhf")
    mus = [structures._check_claim(cons, c) for c in locus_claims()]
    # mu is determined by lam in every case
    assert all(m is not None for m in mus)
    # the canonical point on the locus recovers the structure constant
    assert mus[3] == MU_CANON


def test_locus_consistency_at_a_half():
    # lam^2 (4 - a^2) = 3 at a = 1/2 forces lam^2 = 4/5
    a = Fraction(1, 2)
    lam_sq = Fraction(3) / (4 - a * a)
    assert lam_sq == Fraction(4, 5)
    assert LAMBDA_CANON * LAMBDA_CANON == alg(lam_sq)


def test_canonical_structure_solves_both_systems():
    rep = verify_solution_set(
        AnsatzFamily("s7"), "both", [s7_canonical_claim()], "s7-both"
    )
    assert rep.status == "holds"


def test_canonical_claim_mu_claimed_or_solved():
    cons = system_constraints(AnsatzFamily("s7"), "both")
    claim = s7_canonical_claim()
    assert structures._check_claim(cons, claim) == MU_CANON
    del claim["mu"]
    assert structures._check_claim(cons, claim) == MU_CANON


def test_generic_point_leaves_nonzero_residual():
    bind = {"lam": alg(1), "a": alg(1), "b": alg(1), "mu": alg(1)}
    res = flow_residual(AnsatzFamily("b7"))
    bound = [c.bind(bind) for c in res.terms.values()]
    assert any(not c.is_zero() for c in bound)


def test_rejection_pass_shifts_every_fixed_parameter():
    # lam is free on the a = b = 0 branch of Prop 5.1 (mu = -2/lam), so a
    # claim that fixes lam = 1 there survives the shift of lam
    rep = verify_solution_set(
        AnsatzFamily("s7"), "nhf", [{"lam": alg(1), "a": ALG_ZERO, "b": ALG_ZERO}]
    )
    assert rep.status == "fails"
    assert rep.residual == "perturbed claim also passes"


def test_lie_check_reports_in_order():
    reps = list(lie_check_reports())
    assert [r.identity for r in reps] == [
        "trace-pairings", "rho-cycling", "invariant-three-form", "bracket-closure",
    ]
    assert all(r.status == "holds" for r in reps)


def test_bracket_closure_names_each_failing_pair(monkeypatch):
    # with e1 in place of g1, [e2, g1] and [e3, g1] land in so(3)
    gam = structures.gamma_basis()
    eps = structures.epsilon_basis()
    monkeypatch.setattr(structures, "gamma_basis", lambda: (eps[0],) + gam[1:])
    rep = structures._bracket_closure_report()
    assert rep.status == "fails"
    assert rep.residual == (
        "bracket (1,0) leaves the complement; bracket (2,0) leaves the complement"
    )
