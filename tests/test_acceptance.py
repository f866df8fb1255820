"""Acceptance gate: ten end-to-end criteria, one pass/fail line each."""

import itertools
import math
import random
from fractions import Fraction

from g2cal.scalars import alg, ALG_ZERO, TrigScalar, TRIG_ZERO, c_k, s_k
from g2cal.exterior import (
    Form,
    OrthoFrame,
    d_squared_check,
    hodge_star,
)
from g2cal.liealg import (
    epsilon_basis,
    gamma_basis,
    trace_pairing,
    invariant_three_form,
    rho_action_check,
    pullback_frame,
    B7_GENS,
    GAMMA_GENS,
)
from g2cal import structures as st
from g2cal import numeric
from g2cal.scalars import LAM, A_UNK, B_UNK, MU, ParamPoly

P = ParamPoly.const


def _line(n, desc, ok):
    print("criterion %2d [%s]: %s" % (n, "PASS" if ok else "FAIL", desc))
    assert ok, "criterion %d failed: %s" % (n, desc)


def test_criterion_01_structure_equations_integrate():
    ok = d_squared_check(st.s7_coframe()) and d_squared_check(st.b7_coframe())
    _line(1, "d^2 = 0 for both coframes (exact)", ok)


def test_criterion_02_connection_identities():
    ok = st.verify_connection().status == "holds"
    _line(2, "connection / curvature identities componentwise (exact)", ok)


def test_criterion_03_vertical_structure_identity():
    ok = st.verify_lemma_1_1().status == "holds"
    _line(3, "pulled-back vertical identity residual is the zero form", ok)


def test_criterion_04_squashed_sphere_structure():
    phi, frame, cf = st.build_s7_squashed()
    rep = st.verify_np2(phi, frame, cf, "np2-s7")
    ok = (
        rep.status == "holds-with-mu"
        and rep.mu * rep.mu == alg(Fraction(36, 5))
        and phi == st.canonical_g2_form(frame)
    )
    _line(4, "squashed 7-sphere: mu^2 = 36/5 exactly; builds agree", ok)


def test_criterion_05_so5_checks():
    eps, gam = epsilon_basis(), gamma_basis()
    basis = eps + gam
    minus_two = alg(-2)
    ok = all(
        trace_pairing(x, y) == (minus_two if i == j else ALG_ZERO)
        for i, x in enumerate(basis)
        for j, y in enumerate(basis)
    )
    ok = ok and all(rho_action_check().values())
    want = {
        (0, 1, 6): alg(1), (0, 2, 4): alg(1), (0, 3, 5): alg(-1),
        (1, 2, 5): alg(-1), (1, 3, 4): alg(-1), (2, 3, 6): alg(1),
        (4, 5, 6): alg(1),
    }
    ok = ok and dict(invariant_three_form().terms) == want
    _line(5, "so(5) pairings, rotation cycling, 7-term invariant 3-form", ok)


def test_criterion_06_homogeneous_space_structure():
    lam = alg(0, 0, Fraction(2, 5))
    ys = pullback_frame()
    ok = True
    for k in (1, 2, 3):
        odd = (Form.generator(B7_GENS, "p%d" % k, lam * 2)
               + Form.generator(B7_GENS, "n%d" % k, c_k(k) * lam))
        even = Form.generator(B7_GENS, "n%d" % k, s_k(k) * 2)
        ok = ok and ys[2 * k - 2] == odd and ys[2 * k - 1] == even
    phi, frame, cf = st.build_b7()
    rep = st.verify_np2(phi, frame, cf, "np2-b7")
    ok = ok and rep.status == "holds-with-mu" and not rep.mu.is_zero()
    ok = ok and rep.mu == st.MU_CANON
    rows = numeric._residual_rows(
        "b7", "both",
        [(st.LAMBDA_CANON.to_float(), 0.5, 0.0, rep.mu.to_float())],
        numeric.default_t_samples(10),
    )
    ok = ok and abs(rows).max() < 1e-9
    _line(6, "homogeneous 7-space: frame blocks, exact mu, numeric cross-check", ok)


def test_criterion_07_gram_blocks():
    ok = st.gram_blocks_report().status == "holds"
    _line(7, "metric Gram blocks reproduced entry-exactly", ok)


def test_criterion_08_round_family_solutions():
    fam = st.AnsatzFamily("s7")
    cons = st.extract_constraints(st.nhf_residual(fam))
    ok = st.constraints_contain(cons, LAM * P(-32) - LAM * LAM * MU * P(16),
                                {"a": ALG_ZERO})
    ok = ok and st.constraints_contain(
        cons,
        LAM ** 3 * B_UNK * (P(1) + B_UNK) * P(-2) - LAM * P(16)
        - LAM * LAM * MU * P(8),
        {"a": ALG_ZERO},
    )
    ok = ok and st.constraints_contain(
        cons, LAM * LAM + MU * LAM * P(2) + P(4), {"b": alg(1)}
    )
    ok = ok and st.constraints_contain(
        cons, A_UNK * A_UNK * LAM * LAM + MU * LAM * P(8) + P(16), {"b": alg(1)}
    )
    rep = st.verify_solution_set(fam, "nhf", st.prop_5_1_claims(), "round-family")
    ok = ok and rep.status == "holds"
    hits = numeric.numeric_sweep("s7", "nhf", resolution=0.05, tolerance=1e-6)
    on_variety = all(
        (abs(h["a"]) < 1e-9 and min(abs(h["b"]), abs(h["b"] + 1)) < 1e-9)
        or (abs(h["b"] - 1) < 1e-9 and abs(abs(h["a"]) - 2) < 1e-9)
        for h in hits
    )
    ok = ok and hits and on_variety
    _line(8, "round-family solution set: published systems, claims, sweep", ok)


def test_criterion_09_joint_and_locus_solutions():
    fam = st.AnsatzFamily("b7")
    rep_i = st.verify_solution_set(fam, "both", st.joint_system_claims(), "joint")
    cons = st.system_constraints(fam, "both")
    mus = [st._check_claim(cons, c) for c in st.joint_system_claims()]
    ok = rep_i.status == "holds" and st.MU_CANON in mus
    rep_ii = st.verify_solution_set(fam, "nhf", st.locus_claims(), "locus")
    ok = ok and rep_ii.status == "holds"
    hits = numeric.numeric_sweep("b7", "both", resolution=0.05, tolerance=1e-6)
    lam0 = st.LAMBDA_CANON.to_float()
    near_claimed = all(
        abs(h["lam"] - lam0) < 1e-3
        and abs(h["a"] - 0.5) < 1e-3
        and abs(h["b"]) < 1e-3
        for h in hits
    )
    ok = ok and hits and near_claimed
    _line(9, "joint-system triple and invariant locus; sweep finds no others", ok)


def _random_alg(rng):
    return alg(*(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                 for _ in range(4)))


def _random_trig(rng):
    total = TRIG_ZERO
    for _ in range(3):
        n = rng.randint(0, 3)
        total = total + TrigScalar.cos(n, Fraction(rng.randint(-4, 4)))
        total = total + TrigScalar.sin(n, Fraction(rng.randint(-4, 4)))
    return total


def test_criterion_10_property_suites():
    rng = random.Random(10)
    gens = tuple("x%d" % i for i in range(7))
    frame = OrthoFrame(gens, tuple(Form.generator(gens, g) for g in gens))

    def rand_form(degree):
        monos = list(itertools.combinations(gens, degree))
        f = Form.zero(gens, degree)
        for mono in rng.sample(monos, min(3, len(monos))):
            f = f + Form.monomial(gens, mono, Fraction(rng.randint(-5, 5)))
        return f

    ok = all(
        hodge_star(hodge_star(x, frame), frame) == x
        for degree in range(8)
        for x in (rand_form(degree) for _ in range(8))
    )

    for _ in range(40):
        x, y, z = rand_form(1), rand_form(1), rand_form(2)
        ok = ok and x.wedge(y) == -(y.wedge(x))
        ok = ok and x.wedge(y).wedge(z) == x.wedge(y.wedge(z))
        ok = ok and x.wedge(z) == z.wedge(x)

    for _ in range(40):
        x, y, z = _random_trig(rng), _random_trig(rng), _random_trig(rng)
        ok = ok and (x + y) * z == x * z + y * z
        ok = ok and (x * y) * z == x * (y * z)
        ok = ok and (x * y).deriv() == x.deriv() * y + x * y.deriv()

    fam = st.AnsatzFamily("b7")
    res_exact = st.nhf_residual(fam)
    worst = 0.0
    for _ in range(100):
        bindings = {
            "lam": rng.uniform(0.2, 2.0), "a": rng.uniform(-2, 2),
            "b": rng.uniform(-2, 2), "mu": rng.uniform(-3, 3),
        }
        t = rng.uniform(0.05, math.pi / 3 - 0.05)
        exact = {m: c.to_float(bindings, t) for m, c in res_exact.terms.items()}
        r0, r1 = numeric.residual_parts(
            "b7", "nhf", bindings["lam"], bindings["a"], bindings["b"], t
        )
        approx = numeric.add(r0, numeric.scale(r1, -bindings["mu"]))
        for m in set(exact) | set(approx):
            worst = max(worst, abs(exact.get(m, 0.0) - approx.get(m, 0.0)))
    ok = ok and worst < 1e-9

    _line(10, "property suites: star, wedge, trig ring, float", ok)
