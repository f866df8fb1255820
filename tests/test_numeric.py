"""Cross-checks between the exact engine and the float evaluator."""

import math
import random
import zlib

import numpy as np
import pytest

from g2cal.scalars import alg
from g2cal.structures import (
    AnsatzFamily,
    LAMBDA_CANON,
    MU_CANON,
    nhf_residual,
    flow_residual,
)
from g2cal import numeric


def _exact_residual(which, system):
    fam = AnsatzFamily(which)
    return nhf_residual(fam) if system == "nhf" else flow_residual(fam)


def _exact_residual_values(res, bindings, t):
    """Evaluate an exact residual as {index-tuple: float} at a point."""
    return {m: c.to_float(bindings, t) for m, c in res.terms.items()}


def _numeric_residual_values(which, system, bindings, t):
    r0, r1 = numeric.residual_parts(
        which, system, bindings["lam"], bindings["a"], bindings["b"], t
    )
    return numeric.add(r0, numeric.scale(r1, -bindings["mu"]))


@pytest.mark.parametrize("which", ["s7", "b7"])
@pytest.mark.parametrize("system", ["nhf", "flow"])
def test_exact_matches_float_at_100_points(which, system):
    rng = random.Random(zlib.crc32(("%s-%s" % (which, system)).encode()))
    res = _exact_residual(which, system)
    worst = 0.0
    for _ in range(100):
        bindings = {
            "lam": rng.uniform(0.2, 2.0),
            "a": rng.uniform(-2.0, 2.0),
            "b": rng.uniform(-2.0, 2.0),
            "mu": rng.uniform(-3.0, 3.0),
        }
        t = rng.uniform(0.05, math.pi / 3 - 0.05)
        exact = _exact_residual_values(res, bindings, t)
        approx = _numeric_residual_values(which, system, bindings, t)
        for m in set(exact) | set(approx):
            diff = abs(exact.get(m, 0.0) - approx.get(m, 0.0))
            worst = max(worst, diff)
    assert worst < 1e-9


@pytest.mark.parametrize("which", ["s7", "b7"])
def test_numeric_d_squared_zero(which):
    rng = random.Random(7)
    for gen in range(7):
        f = {(gen,): 1.0}
        dd = numeric.d_form(numeric.d_form(f, which), which)
        assert all(abs(c) < 1e-14 for c in dd.values())
    f = {(0,): rng.uniform(-1, 1), (4,): rng.uniform(-1, 1)}
    dd = numeric.d_form(numeric.d_form(f, which), which)
    assert all(abs(c) < 1e-14 for c in dd.values())


def test_canonical_point_residual_ten_samples():
    lam = LAMBDA_CANON.to_float()
    mu = MU_CANON.to_float()
    samples = numeric.default_t_samples(10)
    assert len(samples) == 10
    worst = numeric.residual_max("b7", "both", lam, 0.5, 0.0, mu, samples)
    assert worst < 1e-9
    worst = numeric.residual_max("s7", "both", lam, 2.0, 1.0, mu, samples)
    assert worst < 1e-9


def test_fitted_mu_at_canonical_points():
    lam = LAMBDA_CANON.to_float()
    samples = numeric.default_t_samples()
    mu, res = numeric.best_mu_residual("b7", "both", lam, 0.5, 0.0, samples)
    assert res < 1e-12
    assert abs(mu - MU_CANON.to_float()) < 1e-12


def test_sweep_recovers_round_family_lines():
    # on the a = 0 slice the residual vanishes exactly on the lines
    # b = 0 and b = -1 for every lambda
    hits = numeric.numeric_sweep(
        "s7",
        "nhf",
        lambda_range=(0.5, 1.0),
        a_range=(0.0, 0.0),
        b_range=(-1.5, 0.5),
        resolution=0.1,
        refine=False,
    )
    assert hits
    for h in hits:
        assert min(abs(h["b"]), abs(h["b"] + 1.0)) < 1e-9
        assert abs(h["mu"] + 2.0 / h["lam"]) < 1e-6
        assert h["count"] == 1
    lams = {round(h["lam"], 6) for h in hits}
    assert len(lams) == 6  # every lambda value on the grid appears


def test_sweep_refines_isolated_joint_zero():
    hits = numeric.numeric_sweep(
        "b7",
        "both",
        lambda_range=(0.85, 0.95),
        a_range=(0.4, 0.6),
        b_range=(-0.1, 0.1),
        resolution=0.05,
        tolerance=1e-8,
    )
    assert hits
    best = min(hits, key=lambda h: h["residual"])
    assert abs(best["lam"] - LAMBDA_CANON.to_float()) < 1e-4
    assert abs(best["a"] - 0.5) < 1e-4
    assert abs(best["b"]) < 1e-4
    assert abs(best["mu"] - MU_CANON.to_float()) < 1e-4


def test_sweep_empty_region():
    # a region with no zeros and refinement off yields no hits
    hits = numeric.numeric_sweep(
        "s7",
        "nhf",
        lambda_range=(1.0, 1.1),
        a_range=(1.0, 1.2),
        b_range=(2.0, 2.2),
        resolution=0.1,
        refine=False,
    )
    assert hits == []


def _parts_by_system(which, lam, a, b, samples):
    """Per-sample nhf and flow parts, each from its own residual_parts call."""
    return [
        numeric.residual_parts(which, system, lam, a, b, t)
        for t in samples
        for system in ("nhf", "flow")
    ]


def _reference_best_mu(which, lam, a, b, samples):
    parts = _parts_by_system(which, lam, a, b, samples)
    num = den = 0.0
    for r0, r1 in parts:
        for m in set(r0) | set(r1):
            num = num + r0.get(m, 0.0) * r1.get(m, 0.0)
            den = den + r1.get(m, 0.0) ** 2
    mu = num / den
    return mu, _reference_max(parts, mu)


def _reference_max(parts, mu):
    worst = 0.0
    for r0, r1 in parts:
        for m in set(r0) | set(r1):
            worst = np.maximum(worst, np.abs(r0.get(m, 0.0) - mu * r1.get(m, 0.0)))
    return worst


@pytest.mark.parametrize("which", ["s7", "b7"])
@pytest.mark.parametrize(
    "lam, a, b",
    [
        (0.9, 0.4, -0.3),
        (1.3, np.array([[-1.0], [0.2], [1.5]]), np.array([[-0.7, 0.0, 0.3, 1.1]])),
    ],
    ids=["point", "mesh"],
)
def test_shared_frame_matches_residual_parts(which, lam, a, b):
    samples = numeric.default_t_samples(5)
    mu, res = numeric.best_mu_residual(which, "both", lam, a, b, samples)
    ref_mu, ref_res = _reference_best_mu(which, lam, a, b, samples)
    np.testing.assert_allclose(mu, ref_mu, rtol=0, atol=1e-12)
    np.testing.assert_allclose(res, ref_res, rtol=0, atol=1e-12)
    worst = numeric.residual_max(which, "both", lam, a, b, -1.7, samples)
    ref_worst = _reference_max(_parts_by_system(which, lam, a, b, samples), -1.7)
    np.testing.assert_allclose(worst, ref_worst, rtol=0, atol=1e-12)


@pytest.mark.parametrize("which", ["s7", "b7"])
def test_batched_points_match_scalar_calls(which):
    rng = np.random.default_rng(5)
    lam = rng.uniform(0.5, 1.5, 6)
    a = rng.uniform(-1.0, 1.0, 6)
    b = rng.uniform(-1.0, 1.0, 6)
    samples = numeric.default_t_samples()
    mu, res = numeric.best_mu_residual(which, "both", lam, a, b, samples)
    assert mu.shape == res.shape == (6,)
    for k in range(6):
        mu_k, res_k = numeric.best_mu_residual(
            which, "both", float(lam[k]), float(a[k]), float(b[k]), samples
        )
        assert abs(mu[k] - mu_k) < 1e-12
        assert abs(res[k] - res_k) < 1e-12


def test_polish_is_batched_and_hits_merge(monkeypatch):
    calls = []
    evaluate = numeric.best_mu_residual

    def counting(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(numeric, "best_mu_residual", counting)
    hits = numeric.numeric_sweep("b7", "both", lambda_range=(0.8, 1.0))
    assert len(calls) <= 150
    # the five polished grid minima all reach the joint zero: one hit
    assert len(hits) == 1
    (hit,) = hits
    assert hit["count"] == 5
    assert hit["residual"] < 1e-6
    assert abs(hit["lam"] - LAMBDA_CANON.to_float()) < 1e-6
    assert abs(hit["a"] - 0.5) < 1e-6
    assert abs(hit["b"]) < 1e-6
    assert abs(hit["mu"] - MU_CANON.to_float()) < 1e-6
