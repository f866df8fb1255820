"""Cross-checks between the exact engine and the float evaluator."""

import ast
import collections
import math
import os
import pathlib
import random
import subprocess
import sys
import tracemalloc
import zlib
from fractions import Fraction

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


def _seeded_rational_point(rng, den=64):
    """lam in [13/64, 2], a and b in [-2, 2], mu in [-3, 3], each a nonzero
    multiple of 1/64, as the benchmark's cross-check draws them."""
    def nonzero(lo, hi):
        n = 0
        while n == 0:
            n = rng.randint(lo * den, hi * den)
        return Fraction(n, den)

    return {
        "lam": Fraction(rng.randint(13, 2 * den), den),
        "a": nonzero(-2, 2),
        "b": nonzero(-2, 2),
        "mu": nonzero(-3, 3),
    }


@pytest.mark.parametrize("which", ["s7", "b7"])
@pytest.mark.parametrize("system", ["nhf", "flow"])
def test_exact_binding_matches_float_at_rational_points(which, system):
    rng = random.Random(zlib.crc32(("bind-%s-%s" % (which, system)).encode()))
    res = _exact_residual(which, system)
    for _ in range(40):
        point = _seeded_rational_point(rng)
        exact = {k: alg(v) for k, v in point.items()}
        t = rng.uniform(0.05, math.pi / 3 - 0.05)
        approx = _numeric_residual_values(which, system, {k: float(v) for k, v in point.items()}, t)
        for m in set(res.terms) | set(approx):
            got = res.terms[m].bind(exact).const_value().to_float(t) if m in res.terms else 0.0
            assert abs(got - approx.get(m, 0.0)) < 1e-9, (point, t, m)


@pytest.mark.parametrize("system", ["nhf", "flow"])
def test_exact_binding_vanishes_at_the_irrational_joint_triple(system):
    res = _exact_residual("b7", system)
    triple = {"lam": LAMBDA_CANON, "a": alg(Fraction(1, 2)), "b": alg(0), "mu": MU_CANON}
    assert MU_CANON == -3 * LAMBDA_CANON
    assert res.terms and all(c.bind(triple).is_zero() for c in res.terms.values())
    # off the triple some coefficient survives
    for name, shift in (("lam", alg(0, 0, Fraction(1, 5))), ("a", alg(Fraction(1, 64))),
                        ("b", alg(0, 1)), ("mu", alg(Fraction(1, 2)))):
        off = dict(triple, **{name: triple[name] + shift})
        assert any(not c.bind(off).is_zero() for c in res.terms.values()), name


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


def _residual_max(which, lam, a, b, mu, samples):
    """Max |residual coefficient| of the joint system at one point and mu."""
    return np.max(np.abs(numeric._residual_rows(which, "both", [(lam, a, b, mu)], samples)))


def test_canonical_point_residual_ten_samples():
    lam = LAMBDA_CANON.to_float()
    mu = MU_CANON.to_float()
    samples = numeric.default_t_samples(10)
    assert len(samples) == 10
    assert _residual_max("b7", lam, 0.5, 0.0, mu, samples) < 1e-9
    assert _residual_max("s7", lam, 2.0, 1.0, mu, samples) < 1e-9


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


def test_sweep_skips_degenerate_lambda_zero():
    # at lam = 0 every residual vanishes for scaling reasons alone; that
    # slice must neither be reported nor stop the polish, which finds both
    # joint zeros (+-2/sqrt5, 1/2, 0) with mu = -3 lam
    hits = numeric.numeric_sweep(
        "b7",
        "both",
        lambda_range=(-1.0, 1.0),
        a_range=(0.0, 1.0),
        b_range=(-0.5, 0.5),
        resolution=0.25,
    )
    lam = LAMBDA_CANON.to_float()
    assert len(hits) == 2
    for sign, hit in zip((-1, 1), sorted(hits, key=lambda h: h["lam"])):
        assert abs(hit["lam"] - sign * lam) < 1e-6
        assert abs(hit["a"] - 0.5) < 1e-6
        assert abs(hit["b"]) < 1e-6
        assert abs(hit["mu"] - sign * MU_CANON.to_float()) < 1e-6


def test_sweep_empty_region():
    # a region with no zeros yields no hits, the polish included
    hits = numeric.numeric_sweep(
        "s7",
        "nhf",
        lambda_range=(1.0, 1.1),
        a_range=(1.0, 1.2),
        b_range=(2.0, 2.2),
        resolution=0.1,
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


_BATCH = np.random.default_rng(11).uniform(-1.5, 1.5, (3, 40))


@pytest.mark.parametrize("which", ["s7", "b7"])
@pytest.mark.parametrize(
    "lam, a, b",
    [
        (0.9, 0.4, -0.3),
        (1.3, np.array([[-1.0], [0.2], [1.5]]), np.array([[-0.7, 0.0, 0.3, 1.1]])),
        tuple(_BATCH[:, :7]),
        tuple(_BATCH),
    ],
    ids=["point", "mesh", "batch7", "batch40"],
)
def test_shared_frame_matches_residual_parts(which, lam, a, b):
    # every case takes its samples in runs on a leading axis and both
    # systems from one shared frame; the reference takes one residual_parts
    # call per sample and system, and lists the coefficients in the same
    # order as the rows of the runs' (c0, c1) one after the other: sample,
    # then system, then monomial
    samples = numeric.default_t_samples()
    shape = np.broadcast(lam, a, b).shape
    runs = numeric._coefficients(which, "both", lam, a, b, samples)
    ref = [
        (r0.get(m, 0.0), r1.get(m, 0.0))
        for r0, r1 in _parts_by_system(which, lam, a, b, samples)
        for m in set(r0) | set(r1)
    ]
    for run in runs:
        for c in run:
            assert c.shape[1:] == shape
            assert c.flags.c_contiguous
    for got, want in zip(zip(*runs), zip(*ref)):
        got = np.concatenate(got)
        assert got.shape == (len(ref),) + shape
        want = np.stack([np.broadcast_to(w, shape) for w in want])
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    mu, res = numeric.best_mu_residual(which, "both", lam, a, b, samples)
    ref_mu, ref_res = _reference_best_mu(which, lam, a, b, samples)
    np.testing.assert_allclose(mu, ref_mu, rtol=0, atol=1e-12)
    np.testing.assert_allclose(res, ref_res, rtol=0, atol=1e-12)
    worst = numeric._max_norm(runs, -1.7)
    ref_worst = _reference_max(_parts_by_system(which, lam, a, b, samples), -1.7)
    np.testing.assert_allclose(worst, ref_worst, rtol=0, atol=1e-12)


@pytest.mark.parametrize("which", ["s7", "b7"])
@pytest.mark.parametrize(
    "lam, a, b, t",
    [(0.9, 0.4, -0.3, 0.6),
     (*_BATCH[:, :7], np.reshape(numeric.default_t_samples(), (-1, 1)))],
    ids=["point", "batch"],
)
def test_one_system_builds_the_parts_of_both(which, lam, a, b, t):
    # nhf builds only Re Xi and flow only Im Xi, each as the joint call
    # builds it
    both = numeric._system_parts(which, ("nhf", "flow"), lam, a, b, t)
    for system, want in zip(("nhf", "flow"), both):
        (got,) = numeric._system_parts(which, (system,), lam, a, b, t)
        for g, w in zip(got, want):
            assert list(g) == list(w)
            for m in w:
                assert type(g[m]) is type(w[m])
                np.testing.assert_array_equal(g[m], w[m])


_SYSTEM_TUPLES = [("nhf",), ("flow",), ("nhf", "flow")]
_NODES5 = 2.0 * np.cos(np.pi * (np.arange(5) + 0.5) / 5)


@pytest.mark.parametrize("which", ["s7", "b7"])
@pytest.mark.parametrize("systems", _SYSTEM_TUPLES)
@pytest.mark.parametrize("lam, a, b, t", [
    (0.9, 0.4, -0.3, 0.6),
    # a broadcast batch: lam (5, 1, 1), a (5, 1), b (5,) and t (run, 1, 1, 1)
    (_NODES5[:, None, None], _NODES5[:, None], _NODES5,
     np.reshape(numeric.default_t_samples(), (-1, 1, 1, 1))),
    tuple(np.complex128(z) for z in (0.9 + 0.3j, 0.4 - 0.2j, -0.3 + 0.5j, 0.6 + 0.1j)),
], ids=["floats", "broadcast", "complex"])
def test_kernel_matches_the_dict_algebra_bit_for_bit(which, systems, lam, a, b, t):
    # the kernel records the float operations of _system_forms, so it gives
    # the same values, types, keys and key order, bit for bit
    got = numeric._system_parts(which, systems, lam, a, b, t)
    want = numeric._system_forms(which, systems, lam, a, b, *numeric._angles(t))
    assert type(got) is list and len(got) == len(want) == len(systems)
    for got_pair, want_pair in zip(got, want):
        assert type(got_pair) is tuple and len(got_pair) == 2
        for g, w in zip(got_pair, want_pair):
            assert list(g) == list(w)
            for m in w:
                assert type(g[m]) is type(w[m])
                np.testing.assert_array_equal(g[m], w[m])
                assert np.asarray(g[m]).tobytes() == np.asarray(w[m]).tobytes()


@pytest.mark.parametrize("which", ["s7", "b7"])
@pytest.mark.parametrize("systems", _SYSTEM_TUPLES)
def test_kernel_computes_each_expression_once_from_its_arguments(which, systems):
    # no two statements share a right-hand side, and the kernel reads no
    # name but its arguments: its scope holds only itself and the builtins
    source = numeric._kernel_source(which, systems)
    statements = [line.split(" = ", 1)[1] for line in source.splitlines() if " = " in line]
    assert statements and len(set(statements)) == len(statements)
    kernel = numeric._kernel(which, systems)
    assert set(kernel.__globals__) == {"__builtins__", "kernel"}


class _Dual:
    """x + dx e with e^2 = 0: forward-mode derivatives by plain +, - and *."""

    __slots__ = ("x", "dx")

    def __init__(self, x, dx=0.0):
        self.x, self.dx = x, dx

    def __add__(self, other):
        other = _dual(other)
        return _Dual(self.x + other.x, self.dx + other.dx)

    __radd__ = __add__

    def __sub__(self, other):
        other = _dual(other)
        return _Dual(self.x - other.x, self.dx - other.dx)

    def __rsub__(self, other):
        return _dual(other) - self

    def __mul__(self, other):
        other = _dual(other)
        return _Dual(self.x * other.x, self.dx * other.x + self.x * other.dx)

    __rmul__ = __mul__

    def __neg__(self):
        return _Dual(-self.x, -self.dx)


def _dual(x):
    return x if isinstance(x, _Dual) else _Dual(x)


@pytest.mark.parametrize("which", ["s7", "b7"])
@pytest.mark.parametrize("systems", _SYSTEM_TUPLES)
def test_kernel_runs_on_a_number_type_it_does_not_know(which, systems):
    # dual numbers as the angle values, (cos x, -sin x) and (sin x, cos x),
    # carry d/dt through the same compiled code; the complex step of
    # Squire and Trapp gives the same derivative from the complex path
    rng = random.Random(zlib.crc32(("dual-%s-%s" % (which, " ".join(systems))).encode()))
    for _ in range(5):
        lam, a, b = rng.uniform(0.2, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        t = rng.uniform(0.05, math.pi / 3 - 0.05)
        angles = []
        for k in (1, 2, 3):
            x = t + (k - 1) * 2.0 * math.pi / 3.0
            angles += (_Dual(math.cos(x), -math.sin(x)), _Dual(math.sin(x), math.cos(x)))
        got = numeric._kernel(which, systems)(lam, a, b, *angles)
        step = numeric._system_parts(which, systems, lam, a, b, np.complex128(t + 1e-30j))
        assert len(got) == len(step) == len(systems)
        for got_pair, step_pair in zip(got, step):
            for g, w in zip(got_pair, step_pair):
                assert list(g) == list(w)
                for m in w:
                    dt = g[m].dx if isinstance(g[m], _Dual) else 0.0
                    assert abs(dt - w[m].imag / 1e-30) <= 1e-12


def test_building_kernels_rebinds_no_numeric_attribute(fresh_models):
    before = dict(vars(numeric))
    for which in ("s7", "b7"):
        for systems in _SYSTEM_TUPLES:
            numeric._kernel(which, systems)
    assert numeric._kernel.cache_info().currsize == 6
    after = vars(numeric)
    assert after.keys() == before.keys()
    assert [name for name, value in before.items() if after[name] is not value] == []


@pytest.mark.parametrize("which, systems, message", [
    ("x7", ("nhf",), "unknown family 'x7'"),
    ("s7", ("nhf", "x"), "unknown system 'x'"),
    ("b7", ("flow", "nhf"), "systems must be one of"),
    ("b7", (), "systems must be one of"),
])
def test_unknown_family_or_systems_refused_before_recording(monkeypatch, fresh_models,
                                                             which, systems, message):
    def never(*args):
        raise AssertionError("recorded")

    monkeypatch.setattr(numeric, "_system_forms", never)
    with pytest.raises(ValueError, match=message):
        numeric._system_parts(which, systems, 0.9, 0.4, -0.3, 0.6)
    if len(systems) == 1:
        with pytest.raises(ValueError, match=message):
            numeric.residual_parts(which, systems[0], 0.9, 0.4, -0.3, 0.6)
    assert numeric._kernel.cache_info().currsize == 0


@pytest.mark.parametrize("which", ["s7", "b7"])
@pytest.mark.parametrize("system", ["nhf", "flow"])
def test_python_float_point_matches_the_array_path(which, system):
    rng = random.Random(zlib.crc32(("floats-%s-%s" % (which, system)).encode()))
    points = [(rng.uniform(0.2, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
               rng.uniform(0.05, math.pi / 3 - 0.05)) for _ in range(20)]
    batch = numeric.residual_parts(which, system, *map(np.array, zip(*points)))
    for j, point in enumerate(points):
        for got, want in zip(numeric.residual_parts(which, system, *point), batch):
            assert got.keys() == want.keys()
            for m, v in got.items():
                assert type(v) is float
                assert abs(v - np.broadcast_to(want[m], (len(points),))[j]) <= 1e-12


@pytest.mark.parametrize(
    "lam, a, b",
    [(0.9, 0.4, -0.3), (1.3, np.array([[-1.0], [0.2], [1.5]]), np.array([[-0.7, 0.0, 0.3, 1.1]])),
     tuple(_BATCH[:, :7])],
    ids=["point", "mesh", "batch7"],
)
@pytest.mark.parametrize("elements", [1, 14, 20, 2**14])
def test_runs_hold_at_most_the_run_budget(monkeypatch, lam, a, b, elements):
    # a batch of `points` points takes max(1, elements // points) samples
    # per run, in sample order: every run but the last is full
    samples = numeric.default_t_samples()
    per_sample = len(numeric._coefficients("b7", "both", lam, a, b, samples[:1])[0][0])
    monkeypatch.setattr(numeric, "_RUN_ELEMENTS", elements)
    most = max(1, elements // np.broadcast(lam, a, b).size)
    runs = numeric._coefficients("b7", "both", lam, a, b, samples)
    sizes = [len(c0) // per_sample for c0, _ in runs]
    assert all(len(c0) == size * per_sample for (c0, _), size in zip(runs, sizes))
    assert sum(sizes) == len(samples)
    assert all(size == most for size in sizes[:-1]) and 1 <= sizes[-1] <= most


@pytest.mark.parametrize("which", ["s7", "b7"])
@pytest.mark.parametrize("elements", [1, 14, 20])
def test_sample_runs_leave_sums_bit_exact(monkeypatch, which, elements):
    # 7 points take 1, 2 or 2 samples per run here and all 9 by default;
    # the sums are added sample by sample, so every run length and every
    # single point give the same bits
    lam, a, b = _BATCH[:, :7]
    samples = numeric.default_t_samples()
    want = numeric.best_mu_residual(which, "both", lam, a, b, samples)
    monkeypatch.setattr(numeric, "_RUN_ELEMENTS", elements)
    got = numeric.best_mu_residual(which, "both", lam, a, b, samples)
    np.testing.assert_array_equal(got, want)
    for k in range(7):
        point = numeric.best_mu_residual(which, "both", lam[k], a[k], b[k], samples)
        np.testing.assert_array_equal(point, (want[0][k], want[1][k]))


@pytest.mark.parametrize("which", ["s7", "b7"])
@pytest.mark.parametrize("system", ["nhf", "flow"])
def test_residual_is_polynomial_over_c(which, system):
    # a polynomial is holomorphic, so at a complex point the central
    # differences along h and along i·h agree, for each of lam, a, b, mu
    point = np.array([0.9 + 0.3j, 0.4 - 0.2j, -0.3 + 0.5j, -1.7 + 0.4j])
    t, h = 0.4, 1e-5

    def residual(x):
        r0, r1 = numeric.residual_parts(which, system, x[0], x[1], x[2], t)
        return numeric.add(r0, numeric.scale(r1, -x[3]))

    for k in range(4):
        step = np.zeros(4, dtype=complex)
        step[k] = h
        plus, minus = residual(point + step), residual(point - step)
        iplus, iminus = residual(point + 1j * step), residual(point - 1j * step)
        monos = set(plus) | set(minus) | set(iplus) | set(iminus)
        along_h = np.array([plus.get(m, 0) - minus.get(m, 0) for m in monos]) / (2 * h)
        along_ih = np.array([iplus.get(m, 0) - iminus.get(m, 0) for m in monos]) / (2j * h)
        gap = np.max(np.abs(along_h - along_ih)) / np.max(np.abs(along_h))
        assert gap < 1e-8, (k, gap)


def test_numeric_imports_only_stdlib_and_numpy():
    # the float evaluator is the independent cross-check of the exact
    # engine, so it may not import any of it
    tree = ast.parse(pathlib.Path(numeric.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, ast.dump(node)
            roots = [node.module.split(".")[0]]
        elif isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        else:
            continue
        for root in roots:
            assert root == "numpy" or root in sys.stdlib_module_names, root


def test_numeric_builds_no_model_at_import():
    src = pathlib.Path(numeric.__file__).resolve().parents[1]
    code = "import g2cal.numeric as n; print(n._model.cache_info().currsize)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True).stdout
    assert out == "0\n"


_PAIRS = [(which, system) for which in ("s7", "b7") for system in ("nhf", "flow", "both")]


@pytest.mark.parametrize("which, system", _PAIRS)
def test_model_polynomials_are_the_exact_constraints(which, system):
    # at each default t, each row of the model, monomial by monomial in
    # (lam, a, b, mu), is the exact residual's coefficient with its Fourier
    # series summed by TrigScalar.to_float(t): r0 for mu^0 and -r1 for mu^1
    family = AnsatzFamily(which)
    systems = ("nhf", "flow") if system == "both" else (system,)
    exact = [nhf_residual(family) if s == "nhf" else flow_residual(family) for s in systems]
    # each row's (system index, monomial): the model's row walk, run on
    # forms whose values are their own labels
    parts = numeric._system_parts(which, systems, 0.9, 0.4, -0.3, 0.6)
    labels = [next(v for v in pair if v != 0.0) for pair in numeric._rows(
        [tuple({m: (k, m) for m in r} for r in pair) for k, pair in enumerate(parts)]
    )]
    samples = numeric.default_t_samples()
    exps, terms = numeric._model_rows(which, system, samples)
    terms = terms.reshape(2, len(samples), len(labels), len(exps))
    for s, t in enumerate(samples):
        for row, (k, m) in enumerate(labels):
            want = {e: c.to_float(t) for e, c in exact[k].terms[m].terms.items()}
            got = {(*e, part): sign * c
                   for part, sign in ((0, 1.0), (1, -1.0))
                   for e, c in zip(exps.tolist(), terms[part, s, row].tolist()) if c}
            for e in set(got) | set(want):
                assert abs(got.get(e, 0.0) - want.get(e, 0.0)) <= 1e-12, (t, m, e)


def _model_gap(which, system):
    """max |model rows - direct rows| over max |direct rows|, at 100 points
    (lam, a, b, mu) of the default box and the default t samples."""
    rng = np.random.default_rng(zlib.crc32(("%s-%s" % (which, system)).encode()))
    points = rng.uniform((0.1, -3.0, -2.0, -3.0), (2.0, 3.0, 2.0, 3.0), (100, 4))
    samples = numeric.default_t_samples()
    want = numeric._residual_rows(which, system, points, samples)
    lam, a, b, mu = points.T
    model_rows = numeric._model_rows(which, system, samples)
    runs = numeric._model_coefficients(model_rows, lam, a, b, samples)
    got = np.concatenate([c0 - mu * c1 for c0, c1 in runs]).T
    assert got.shape == want.shape
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@pytest.mark.parametrize("which, system", _PAIRS)
def test_model_matches_direct_rows(which, system):
    assert _model_gap(which, system) <= 1e-13


@pytest.fixture
def fresh_models():
    # the kernels go with the models, so that a patched frame_z is
    # recorded into new ones
    caches = (numeric._model, numeric._kernel)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.mark.parametrize("which, system", [("s7", "nhf"), ("b7", "both")])
def test_model_follows_a_changed_frame_past_degree_three(monkeypatch, fresh_models, which, system):
    # lam f_1 becomes lam^2 f_1 on s7, 2 lam p_1 becomes 2 lam^2 p_1 on b7:
    # the model is read off the kernel, so it assumes no degree bound
    frame_z = numeric.frame_z

    def changed(which, lam, a, b, *angles):
        zs, dzs = frame_z(which, lam, a, b, *angles)
        u, v = zs[0]
        first = next(iter(u))
        zs[0] = ({**u, first: u[first] * lam}, v)
        return zs, dzs

    monkeypatch.setattr(numeric, "frame_z", changed)
    exps, _, _ = numeric._model(which, system)
    assert exps[:, 0].max() > 3
    assert _model_gap(which, system) <= 1e-13


def test_grid_mesh_keeps_per_sample_sums():
    # best_mu_residual on the default box's 121 x 81 mesh, the direct path
    # that the sweep's screen must reproduce, sums its samples in the
    # reference's order, bit for bit
    a = np.linspace(-3.0, 3.0, 121)[:, None]
    b = np.linspace(-2.0, 2.0, 81)[None, :]
    samples = numeric.default_t_samples()
    mu, res = numeric.best_mu_residual("s7", "both", 0.7, a, b, samples)
    ref_mu, ref_res = _reference_best_mu("s7", 0.7, a, b, samples)
    np.testing.assert_array_equal(mu, ref_mu)
    np.testing.assert_array_equal(res, ref_res)


@pytest.mark.parametrize("which", ["s7", "b7"])
def test_batched_points_match_scalar_calls(which):
    # the sweep's screen packs slices with lam on an array axis: for each
    # system, each point's fitted mu and max-norm must be the bits of a
    # call on the point alone, whatever else shares its batch
    rng = np.random.default_rng(5)
    lam, a, b = rng.uniform(0.5, 1.5, 6), rng.uniform(-1.0, 1.0, 6), rng.uniform(-1.0, 1.0, 6)
    # the six points are also shuffled among six others in a 3 x 4 batch
    others = rng.uniform((0.5, -1.0, -1.0), (1.5, 1.0, 1.0), (6, 3)).T
    order = rng.permutation(12)
    mixed = [np.concatenate([x, y])[order].reshape(3, 4) for x, y in zip((lam, a, b), others)]
    samples = numeric.default_t_samples()
    for system in ("nhf", "flow", "both"):
        mu, res = numeric.best_mu_residual(which, system, lam, a, b, samples)
        assert mu.shape == res.shape == (6,)
        mixed_mu, mixed_res = numeric.best_mu_residual(which, system, *mixed, samples)
        for k in range(6):
            alone = numeric.best_mu_residual(
                which, system, float(lam[k]), float(a[k]), float(b[k]), samples
            )
            assert (mu[k], res[k]) == alone, system
            at = np.unravel_index(np.argsort(order)[k], (3, 4))
            assert (mixed_mu[at], mixed_res[at]) == alone, system
            # a batch of one has rows of one element, like a lone point
            one_mu, one_res = numeric.best_mu_residual(
                which, system, lam[k : k + 1], a[k : k + 1], b[k : k + 1], samples
            )
            assert one_mu.shape == one_res.shape == (1,)
            assert (one_mu[0], one_res[0]) == alone, system


def test_polish_is_batched_and_hits_merge(monkeypatch):
    rows = _record(monkeypatch, "_residual_rows")
    refines = _record(monkeypatch, "_refine")
    hits = numeric.numeric_sweep("b7", "both", lambda_range=(0.8, 1.0))
    # the steps follow the model; each polish evaluates directly once, at
    # the point it returns
    assert refines
    assert len(rows) == len(refines)
    assert all(len(args[2]) == 1 for args in rows)
    # the five polished grid minima all reach the joint zero: one hit
    assert len(hits) == 1
    (hit,) = hits
    assert hit["count"] == 5
    assert hit["residual"] < 1e-10
    assert abs(hit["lam"] - LAMBDA_CANON.to_float()) < 1e-6
    assert abs(hit["a"] - 0.5) < 1e-6
    assert abs(hit["b"]) < 1e-6
    assert abs(hit["mu"] - MU_CANON.to_float()) < 1e-6


_S7_CANONICAL_BOX = dict(lambda_range=(0.85, 0.95), a_range=(1.9, 2.1), b_range=(0.9, 1.1))


def test_sweep_recovers_certified_s7_canonical_point():
    # the grid misses (2/sqrt5, 2, 1), which s7-canonical-systems
    # certifies; the polish must reach it
    hits = numeric.numeric_sweep("s7", "both", **_S7_CANONICAL_BOX)
    assert len(hits) == 1
    (hit,) = hits
    want = (LAMBDA_CANON.to_float(), 2.0, 1.0)
    assert max(abs(hit[k] - w) for k, w in zip(("lam", "a", "b"), want)) < 1e-6
    assert abs(hit["mu"] - MU_CANON.to_float()) < 1e-6


@pytest.mark.parametrize(
    "which, box",
    [("b7", dict(lambda_range=(0.8, 1.0))), ("s7", _S7_CANONICAL_BOX), ("b7", {})],
    ids=["b7-bench", "s7-canonical", "b7-default"],
)
def test_polished_hit_mu_and_residual_belong_together(which, box):
    # the polish steps by the model, but reports the direct residual max at
    # its point and mu
    samples = numeric.default_t_samples()
    hits = numeric.numeric_sweep(which, "both", **box)
    assert hits
    for h in hits:
        assert h["residual"] == _residual_max(which, h["lam"], h["a"], h["b"], h["mu"], samples)


@pytest.mark.parametrize("start", [(math.nan, 0.5, 0.0, -2.7), (0.9, 0.5, 0.0, math.nan)])
def test_refine_stops_on_non_finite_residual(start):
    bounds = ((0.8, 1.0), (-3.0, 3.0), (-2.0, 2.0))
    samples = numeric.default_t_samples()
    model_rows = numeric._model_rows("b7", "both", samples)
    _, _, res = numeric._refine("b7", "both", start, samples, 1e-6, bounds, model_rows)
    assert not res < 1e-6


def _record(monkeypatch, name):
    """The argument tuples of every later call of numeric.<name>."""
    calls = []
    function = getattr(numeric, name)

    def recording(*args):
        calls.append(args)
        return function(*args)

    monkeypatch.setattr(numeric, name, recording)
    return calls


def _points_per_slice(calls):
    """{lam: points} over best_mu_residual calls, whose lam is per point."""
    count = collections.Counter()
    for _, _, lam, a, b, _ in calls:
        count.update(np.broadcast_to(lam, np.broadcast(lam, a, b).shape).ravel().tolist())
    return count


def _direct_slice(which, system, lam, avals, bvals, samples, tolerance):
    """Hits and minimum of one slice from best_mu_residual on the whole mesh."""
    mu, res = numeric.best_mu_residual(
        which, system, lam, avals[:, None], bvals[None, :], samples
    )
    mu = np.broadcast_to(mu, res.shape)
    hits = [
        {"lam": lam, "a": float(avals[i]), "b": float(bvals[j]),
         "mu": float(mu[i, j]), "residual": float(res[i, j]), "count": 1}
        for i, j in zip(*np.nonzero(res < tolerance))
    ]
    i, j = np.unravel_index(int(np.argmin(res)), res.shape)
    return hits, (float(res[i, j]), lam, float(avals[i]), float(bvals[j]), float(mu[i, j]))


@pytest.mark.parametrize(
    "which, system, lams, a_range, b_range, res",
    [
        ("s7", "nhf", (0.5, 0.9), (-1.0, 1.0), (-1.5, 0.5), 0.1),
        ("s7", "nhf", (0.5, 1.0), (0.0, 0.0), (-1.5, 0.5), 0.1),
        ("s7", "both", (0.85, 0.95), (1.5, 2.5), (0.5, 1.5), 0.05),
        ("b7", "nhf", (0.9, 1.1), (-1.5, 1.5), (-0.5, 0.5), 0.1),
        ("b7", "both", (0.8, 1.0), (0.0, 1.0), (-0.5, 0.5), 0.05),
        ("s7", "flow", (0.2, 0.4), (-3.0, 3.0), (-2.0, 2.0), 0.1),
        ("b7", "flow", (0.2, 0.4), (-3.0, 3.0), (-2.0, 2.0), 0.1),
        ("s7", "both", (0.9, 1.0), (-3.0, 3.0), (-2.0, 2.0), 0.05),
    ],
    ids=["s7-nhf", "s7-nhf-a0", "s7-both", "b7-nhf", "b7-both", "s7-flow", "b7-flow",
         "s7-both-default-mesh"],
)
def test_screened_slices_match_direct_mesh(which, system, lams, a_range, b_range, res):
    # the screen takes the direct max-norm only where a hit or the slice
    # minimum can be, yet returns exactly the full mesh's hits and minimum.
    # On the flow boxes the row floors keep every row of two slices and two
    # bands of rows of the third; on the default 121 x 81 mesh, bands of 2
    # to 22 rows
    samples = numeric.default_t_samples()
    avals = numeric._grid(*a_range, res)
    bvals = numeric._grid(*b_range, res)
    lams = numeric._grid(*lams, res)
    model_rows = numeric._model_rows(which, system, samples)
    got = numeric._screen(which, system, lams, avals, bvals, samples, 1e-6, model_rows)
    assert got == [
        _direct_slice(which, system, float(lam), avals, bvals, samples, 1e-6) for lam in lams
    ]


@pytest.mark.parametrize(
    "which, system, lam",
    [
        ("s7", "nhf", 1e40),
        ("s7", "nhf", 8.9e50),
        ("s7", "nhf", 1e150),
        ("b7", "both", 4.72e50),
        ("b7", "both", 1e150),
    ],
)
def test_overflowing_slice_matches_direct_mesh(which, system, lam):
    # sums near or past overflow take the direct mesh path; at 8.9e50 and
    # 4.72e50 the node sums are finite but the interpolated ones are not
    samples = numeric.default_t_samples()
    avals = numeric._grid(-1.0, 1.0, 0.1)
    bvals = numeric._grid(-1.5, 0.5, 0.1)
    model_rows = numeric._model_rows(which, system, samples)
    with np.errstate(over="ignore", invalid="ignore"):
        got = numeric._screen(which, system, np.array([lam]), avals, bvals, samples, 1e-6,
                              model_rows)
        want = _direct_slice(which, system, lam, avals, bvals, samples, 1e-6)
    np.testing.assert_equal(got, [want])  # NaN equals NaN here


@pytest.mark.parametrize("which, system", [("s7", "nhf"), ("b7", "both")])
@pytest.mark.parametrize("res, calls", [(0.1, 3), (0.2, 1)], ids=["alone", "shared"])
def test_overflowing_slice_in_a_pack_matches_direct_mesh(monkeypatch, which, system, res, calls):
    # an overflowing slice between ordinary ones shares their node-sum
    # pack; its whole mesh is evaluated alone on the 21 x 21 mesh, and with
    # both neighbours' candidates on the 11 x 11 one, without touching
    # their bits
    samples = numeric.default_t_samples()
    avals = numeric._grid(-1.0, 1.0, res)
    bvals = numeric._grid(-1.5, 0.5, res)
    lams = np.array([0.9, 1e150, 1.1])
    model_rows = numeric._model_rows(which, system, samples)
    evaluated = _record(monkeypatch, "best_mu_residual")
    with np.errstate(over="ignore", invalid="ignore"):
        got = numeric._screen(which, system, lams, avals, bvals, samples, 1e-6, model_rows)
        want = [_direct_slice(which, system, lam, avals, bvals, samples, 1e-6) for lam in lams]
    np.testing.assert_equal(got, want)
    assert len(evaluated) == calls + len(lams)  # the screen's, then the reference's


def test_refine_keeps_far_starts_in_the_box_and_the_sign_of_lam():
    # b7 lam in [-1, 1]: full Gauss-Newton steps from these grid minima
    # leave the box or cross lam = 0; halved steps do neither
    samples = numeric.default_t_samples()
    bounds = ((-1.0, 1.0), (-3.0, 3.0), (-2.0, 2.0))
    model_rows = numeric._model_rows("b7", "both", samples)
    ends = []
    for lam, a, b in ((0.65, 0.2, 0.0), (-0.1, 1.3, 0.0)):
        mu, _ = numeric.best_mu_residual("b7", "both", lam, a, b, samples)
        start = (lam, a, b, float(mu))
        ends.append(numeric._refine("b7", "both", start, samples, 1e-6, bounds, model_rows))
    (point, mu, res), (far_point, _, _) = ends
    assert res < 1e-10
    assert max(abs(x - w) for x, w in zip(point, (LAMBDA_CANON.to_float(), 0.5, 0.0))) < 1e-6
    assert abs(mu - MU_CANON.to_float()) < 1e-6
    assert -1.0 <= far_point[0] < -numeric._LAM_FLOOR


def test_screen_evaluates_few_points_where_zeros_are_lines(monkeypatch):
    # each s7 nhf slice of the default mesh holds four zeros, (0, 0),
    # (0, -1) and (+-2, 1); the direct evaluation covers only a few of
    # its 121 x 81 points, however the slices are packed
    evaluated = _record(monkeypatch, "best_mu_residual")
    hits = numeric.numeric_sweep("s7", "nhf", lambda_range=(0.5, 0.6))
    assert len(hits) == 3 * 4
    per_slice = _points_per_slice(evaluated)
    assert len(per_slice) == 3
    assert max(per_slice.values()) <= 10


@pytest.mark.parametrize(
    "which, system, box",
    [
        ("s7", "nhf", dict(lambda_range=(0.5, 0.7))),
        ("b7", "both", dict(lambda_range=(0.85, 0.95), a_range=(0.0, 1.0), b_range=(-0.5, 0.5))),
    ],
    ids=["s7-grid", "b7-polish"],
)
def test_slices_past_the_budget_match_one_slice_per_pack(monkeypatch, which, system, box):
    # with 300 samples one slice's 7 x 7 nodes hold 14700 point-samples,
    # more than the budget, so each is evaluated alone; the ss-argmins
    # still share packs.  A budget of 0 puts every slice in a pack of its own
    assert numeric._NODES**2 * 300 > numeric._PACK_SAMPLES
    hits = numeric.numeric_sweep(which, system, t_samples=300, **box)
    assert hits
    monkeypatch.setattr(numeric, "_PACK_SAMPLES", 0)
    assert numeric.numeric_sweep(which, system, t_samples=300, **box) == hits


@pytest.mark.parametrize(
    "which, system, box, most_calls",
    [("s7", "nhf", {}, 30), ("b7", "both", dict(lambda_range=(0.8, 1.0)), None)],
    ids=["s7-squashed", "b7-bench"],
)
def test_packs_bound_each_evaluation(monkeypatch, which, system, box, most_calls):
    # no evaluation is larger than the budget or than the largest slice's
    # own candidates, and the s7 box's 39 slices take few evaluations
    samples = numeric.default_t_samples()
    parts = _record(monkeypatch, "_system_parts")
    evaluated = _record(monkeypatch, "best_mu_residual")
    assert numeric.numeric_sweep(which, system, **box)
    sizes = [np.broadcast(*args[2:]).size for args in parts]  # lam, a, b, t
    largest_slice = max(_points_per_slice(evaluated).values()) * len(samples)
    assert sizes and max(sizes) <= max(numeric._PACK_SAMPLES, largest_slice)
    assert most_calls is None or len(sizes) <= most_calls


def test_screen_interpolates_each_mesh_once_and_candidate_rows_again(monkeypatch):
    # the default s7-squashed box has 39 slices of 121 x 81 points: each
    # mesh is interpolated in full once, and the candidate pass takes only
    # the few rows whose floor does not rule them out
    interpolated = _record(monkeypatch, "_interpolate")
    assert numeric.numeric_sweep("s7", "nhf")
    rows = [len(args[0]) for args in interpolated]
    assert rows[:39] == [121] * 39
    assert len(rows) == 2 * 39
    assert max(rows[39:]) <= 6


def test_sweep_builds_the_model_rows_once(monkeypatch):
    # one build per call, for the node sums of every pack and each of the
    # five polishes; a polish at the hit with rows built alone stays there
    built = _record(monkeypatch, "_model_rows")
    (hit,) = numeric.numeric_sweep("b7", "both", lambda_range=(0.8, 1.0))
    assert len(built) == 1
    assert numeric.numeric_sweep("b7", "both", lambda_range=(0.8, 1.0)) == [hit]
    assert len(built) == 2
    bounds = ((0.8, 1.0), (-3.0, 3.0), (-2.0, 2.0))
    start = (hit["lam"], hit["a"], hit["b"], hit["mu"])
    samples = numeric.default_t_samples()
    model_rows = numeric._model_rows("b7", "both", samples)
    point, mu, res = numeric._refine("b7", "both", start, samples, 1e-6, bounds, model_rows)
    assert (*point, mu, res) == (*start, hit["residual"])


def test_sweep_keeps_no_model_rows():
    # the rows of 4000 samples take megabytes; once the sweep returns, only
    # the cached kernels and models may stay, which the first sweep builds
    box = dict(lambda_range=(0.8, 1.0), a_range=(0, 1), b_range=(-0.5, 0.5), resolution=0.25)
    numeric.numeric_sweep("b7", "both", **box)
    tracemalloc.start()
    try:
        numeric.numeric_sweep("b7", "both", **box, t_samples=4000)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < 2**20


def test_wrong_degree_bound_raises(monkeypatch):
    # 3 nodes per axis are exact only to degree 2 < 6: the gate at each
    # slice's ss-argmin must refuse the interpolant instead of returning hits
    monkeypatch.setattr(numeric, "_NODES", 3)
    with pytest.raises(ArithmeticError, match="degree 2"):
        numeric.numeric_sweep("s7", "nhf", lambda_range=(0.5, 0.6))


def test_b7_nhf_default_hits_lie_on_certified_components():
    # the three components of the b7 nhf variety; mu·lam = -2 on (ii) and
    # +2 on (iii)
    hits = numeric.numeric_sweep("b7", "nhf")
    assert hits
    for h in hits:
        lam, a, b, mu = h["lam"], h["a"], h["b"], h["mu"]
        on_i = abs(b) < 1e-6 and abs(lam**2 * (4 - a**2) - 3) < 1e-6
        on_ii = (
            abs(a) < 1e-6
            and abs(4 * lam**2 - 3 * (1 + b**2)) < 1e-6
            and abs(mu * lam + 2) < 1e-6
        )
        on_iii = (
            abs(3 * a**4 * b**2 - 8 * a**2 * b**2 - 4 * a**2 - 32) < 1e-6
            and abs(16 * lam**2 - 4 - 12 * b**2 + 3 * a**2 * b**2) < 1e-6
            and abs(mu * lam - 2) < 1e-6
        )
        assert on_i or on_ii or on_iii, h


@pytest.mark.parametrize("box, message", [
    ({"a_range": (-1e300, 1e300)}, "a_range spans 1000000 or more resolution steps"),
    # the span overflows to inf
    ({"a_range": (-1e308, 1e308)}, "a_range spans 1000000 or more resolution steps"),
    ({"lambda_range": (0.1, 2.0), "resolution": 1e-6},
     "lambda_range spans 1000000 or more resolution steps"),
    ({"resolution": 0.002},
     "resolution 0.002 meshes a_range x b_range with %d points, over 1000000" % (3001 * 2001)),
], ids=["a-span-huge", "a-span-overflows", "lambda-span-huge", "slice-too-large"])
def test_sweep_rejects_unbuildable_box(monkeypatch, box, message):
    # the library call refuses the box by name before any evaluation
    def never(*args):
        raise AssertionError("a slice was scanned")

    monkeypatch.setattr(numeric, "_screen", never)
    with pytest.raises(numeric.MeshTooLarge) as exc:
        numeric.numeric_sweep("b7", "both", **box)
    assert isinstance(exc.value, numeric.SweepInputError)
    assert str(exc.value) == message


@pytest.mark.parametrize("box, message", [
    ({"a_range": (3.0, -3.0)}, "a_range is empty"),
    ({"a_range": (0.0, -0.05)}, "a_range is empty"),
    ({"resolution": 0.0}, "resolution must be positive"),
    ({"resolution": -0.1}, "resolution must be positive"),
    ({"resolution": math.nan}, "resolution must be positive"),
    ({"b_range": (math.nan, 1.0)}, "b_range bounds must be finite"),
    ({"lambda_range": (0.1, math.inf)}, "lambda_range bounds must be finite"),
    # _grid would collapse lambda's range to its lower bound
    ({"resolution": 5.0}, "lambda_range (0.1, 2.0) spans at most half of resolution 5.0"),
    ({"resolution": math.inf}, "lambda_range (0.1, 2.0) spans at most half of resolution inf"),
    ({"tolerance": math.nan}, "tolerance must be positive"),
    ({"tolerance": 0.0}, "tolerance must be positive"),
    ({"tolerance": -1.0}, "tolerance must be positive"),
    ({"t_samples": 0}, "t_samples must hold 1 to 20408 samples, got 0"),
    ({"t_samples": 20409}, "t_samples must hold 1 to 20408 samples, got 20409"),
    # t_samples counts the samples of default_t_samples; it is not a list
    # of samples, which could sit on a singular orbit or be NaN
    ({"t_samples": [0.0]}, "t_samples must be a count of samples, got [0.0]"),
    ({"t_samples": [math.nan]}, "t_samples must be a count of samples, got [nan]"),
    ({"t_samples": 2.5}, "t_samples must be a count of samples, got 2.5"),
    # a bool is an Integral, but True is no count of samples
    ({"t_samples": True}, "t_samples must be a count of samples, got True"),
    ({"which": "s9"}, "which must be 's7' or 'b7', got 's9'"),
    ({"system": "foo"}, "system must be 'nhf', 'flow' or 'both', got 'foo'"),
], ids=["a-inverted", "a-inverted-narrow", "resolution-zero", "resolution-negative",
        "resolution-nan", "b-nan", "lambda-inf", "resolution-coarse", "resolution-inf",
        "tolerance-nan", "tolerance-zero", "tolerance-negative", "t-samples-empty",
        "t-samples-too-many", "t-samples-list", "t-samples-nan-list", "t-samples-float",
        "t-samples-bool", "which-unknown", "system-unknown"])
def test_sweep_rejects_malformed_box(monkeypatch, box, message):
    # the library call names the bad argument before building any grid
    def never(*args):
        raise AssertionError("the mesh was built")

    monkeypatch.setattr(numeric, "_grid", never)
    monkeypatch.setattr(numeric, "_screen", never)
    with pytest.raises(numeric.SweepInputError) as exc:
        numeric.numeric_sweep(**{"which": "b7", "system": "nhf", **box})
    assert not isinstance(exc.value, numeric.MeshTooLarge)
    assert str(exc.value).startswith(message)


def test_sweep_keeps_zero_width_ranges_at_any_resolution():
    # a range with lo == hi is one grid point, whatever the resolution
    hits = numeric.numeric_sweep(
        "s7", "nhf", lambda_range=(0.5, 0.5), a_range=(0.0, 0.0), b_range=(0.0, 0.0),
        resolution=math.inf, t_samples=5,
    )
    assert [(h["lam"], h["a"], h["b"]) for h in hits] == [(0.5, 0.0, 0.0)]


def test_polished_zeros_merge_within_the_grid_step(monkeypatch):
    # resolution 2.5 grids lambda_range (0.1, 2.0) with step 1.9, a_range
    # (-3, 3) with step 3 and b_range (-2, 2) with step 2: zeros 2.0 apart
    # in b lie a full cell apart and stay two hits, zeros 1e-9 apart merge
    zeros = [(1.0, 0.0, -1.0, 3e-12), (1.0, 0.0, 1.0, 1e-12), (1.0, 0.0, 1.0 + 1e-9, 2e-12)]
    grids = []

    def screen(which, system, lams, avals, bvals, t_samples, tolerance, model_rows):
        grids.append((list(lams), list(avals), list(bvals)))
        return [([], (1e-3, lam, a, b, 0.5)) for lam, a, b, _ in zeros]

    def refine(which, system, start, t_samples, tolerance, bounds, model_rows):
        lam, a, b, mu = start
        res = next(r for z in zeros if z[:3] == (lam, a, b) for r in z[3:])
        return (lam, a, b), mu, res

    monkeypatch.setattr(numeric, "_screen", screen)
    monkeypatch.setattr(numeric, "_refine", refine)
    hits = numeric.numeric_sweep("b7", "both", lambda_range=(0.1, 2.0), resolution=2.5)
    assert grids == [([0.1, 2.0], [-3.0, 0.0, 3.0], [-2.0, 0.0, 2.0])]
    kept = [(h["b"], h["residual"], h["count"]) for h in hits]
    assert kept == [(1.0, 1e-12, 2), (-1.0, 3e-12, 1)]


def test_merge_cell_is_the_step_the_grid_took():
    # the coarse box's steps, and no limit on an axis of one point
    ranges = ((0.1, 2.0), (-3.0, 3.0), (-2.0, 2.0), (0.5, 0.5))
    steps = [numeric._step(numeric._grid(lo, hi, 2.5)) for lo, hi in ranges]
    assert steps == [pytest.approx(1.9), 3.0, 2.0, math.inf]
