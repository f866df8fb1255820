"""Independent floating-point evaluator and grid sweep.

Reimplements the two ansatz families and their hypersurface residuals
directly over float/complex coefficients (no exact-engine code paths),
for cross-checking exact results and for the numeric parameter sweep.
Coefficients may be numpy arrays, so a whole (lam, a, b) grid is
evaluated at once per time sample.  The sweep polishes its best grid
minima by Gauss-Newton in (lam, a, b, mu), evaluating a point and its
Jacobian neighbours at once for all their time samples.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_TWO_THIRDS_PI = 2.0 * math.pi / 3.0


def c_k(k, t):
    return np.cos(t + (k - 1) * _TWO_THIRDS_PI)


def s_k(k, t):
    return np.sin(t + (k - 1) * _TWO_THIRDS_PI)


# _merge and _d_monomial are memoised: their keys are index tuples over
# the seven generators, so the caches stay small, and both return tuples.
@functools.cache
def _merge(m1, m2):
    """Sorted merge of two disjoint index tuples with sign; None if clash."""
    out = []
    sign = 1
    i = j = 0
    while i < len(m1) and j < len(m2):
        if m1[i] == m2[j]:
            return None, 0
        if m1[i] < m2[j]:
            out.append(m1[i])
            i += 1
        else:
            # m2[j] jumps over the remaining len(m1) - i entries of m1
            if (len(m1) - i) % 2:
                sign = -sign
            out.append(m2[j])
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out), sign


def wedge(x, y):
    out = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            m, sign = _merge(m1, m2)
            if m is None:
                continue
            c = c1 * c2 if sign > 0 else -(c1 * c2)
            if m in out:
                out[m] = out[m] + c
            else:
                out[m] = c
    return out


def add(*forms):
    out = {}
    for f in forms:
        for m, c in f.items():
            out[m] = out[m] + c if m in out else c
    return out


def scale(f, c):
    return {m: c * v for m, v in f.items()}


# structure tables: generator index -> 2-form d(generator)
# s7 generators: e1 e2 e3 f1 f2 f3 dt;  b7 generators: p1 p2 p3 n1 n2 n3 dt
_CYC = ((1, 2), (2, 0), (0, 1))


def _pair(i, j, c):
    return ((i, j), c) if i < j else ((j, i), -c)


def _s7_structure():
    d = {}
    for k in range(3):
        i, j = _CYC[k]
        d[k] = dict([_pair(i, j, -2.0)])
        d[3 + k] = dict([_pair(3 + i, 3 + j, -2.0)])
    d[6] = {}
    return d


def _b7_structure():
    d = {}
    for k in range(3):
        i, j = _CYC[k]
        d[k] = dict([_pair(i, j, -2.0), _pair(3 + i, 3 + j, -2.0)])
        d[3 + k] = dict([_pair(i, 3 + j, -2.0), _pair(j, 3 + i, 2.0)])
    d[6] = {}
    return d


_STRUCTURE = {"s7": _s7_structure(), "b7": _b7_structure()}


@functools.cache
def _d_monomial(which, m):
    """d of the monomial m as [(monomial, coefficient)], one entry per term."""
    table = _STRUCTURE[which]
    out = []
    for pos, g in enumerate(m):
        sign = 1 if pos % 2 == 0 else -1
        out.extend(wedge(table[g], {m[:pos] + m[pos + 1 :]: float(sign)}).items())
    return tuple(out)


def d_form(f, which):
    """Exterior derivative along the orbit (coefficients held fixed)."""
    out = {}
    for m, c in f.items():
        for mono, v in _d_monomial(which, m):
            cv = c * v
            out[mono] = out[mono] + cv if mono in out else cv
    return out


def frame_z(which, lam, a, b, t):
    """The three complex 1-forms Z_k and their t-derivatives."""
    zs, dzs = [], []
    for k in (1, 2, 3):
        ck, sk = c_k(k, t), s_k(k, t)
        if which == "s7":
            # Z_k = lam f_k + (lam (a c_k + b) + 4 i s_k) e_k
            zs.append({(3 + k - 1,): lam + 0j, (k - 1,): lam * (a * ck + b) + 4j * sk})
            dzs.append({(k - 1,): -lam * a * sk + 4j * ck})
        else:
            # Z_k = (2 lam + i b) p_k + (2 lam a c_k + 2 i s_k) n_k
            zs.append({(k - 1,): 2 * lam + 1j * b, (3 + k - 1,): 2 * lam * a * ck + 2j * sk})
            dzs.append({(3 + k - 1,): -2 * lam * a * sk + 2j * ck})
    return zs, dzs


def _re(f):
    return {m: np.real(c) for m, c in f.items()}


def _im(f):
    return {m: np.imag(c) for m, c in f.items()}


def _system_parts(which, systems, lam, a, b, t):
    """[(r0, r1)] per system at t, sharing one frame.

    t is one sample, or an array of samples on a leading axis in front of
    the batch axes of (lam, a, b).  Builds Z_k, xi and Xi once; d/dt Re Xi
    only when "flow" is asked for.
    """
    zs, dzs = frame_z(which, lam, a, b, t)
    z1, z2, z3 = zs
    xi = {}
    for z in zs:
        # X_{2k-1} ^ X_{2k} = (i/2) Z_k ^ conj(Z_k)
        zbar = {m: np.conj(c) for m, c in z.items()}
        for m, c in wedge(z, zbar).items():
            v = np.real(0.5j * c)
            xi[m] = xi[m] + v if m in xi else v
    big = wedge(wedge(z1, z2), z3)
    out = []
    for system in systems:
        if system == "nhf":
            out.append((d_form(_re(big), which), scale(wedge(xi, xi), 0.5)))
        elif system == "flow":
            dbig = add(
                wedge(wedge(dzs[0], z2), z3),
                wedge(wedge(z1, dzs[1]), z3),
                wedge(wedge(z1, z2), dzs[2]),
            )
            out.append((add(d_form(xi, which), _re(dbig)), _im(big)))
        else:
            raise ValueError("unknown system %r" % system)
    return out


def residual_parts(which, system, lam, a, b, t):
    """(r0, r1) with residual = r0 - mu * r1, per base monomial."""
    return _system_parts(which, (system,), lam, a, b, t)[0]


def _systems(system):
    return ("nhf", "flow") if system == "both" else (system,)


def _abs_max(parts, mu):
    worst = 0.0
    for r0, r1 in parts:
        for m in set(r0) | set(r1):
            worst = np.maximum(worst, np.abs(r0.get(m, 0.0) - mu * r1.get(m, 0.0)))
    return worst


def residual_max(which, system, lam, a, b, mu, t_samples):
    """Max |residual coefficient| over systems, monomials and samples."""
    worst = 0.0
    for t in t_samples:
        parts = _system_parts(which, _systems(system), lam, a, b, t)
        worst = np.maximum(worst, _abs_max(parts, mu))
    return worst


def best_mu_residual(which, system, lam, a, b, t_samples):
    """Least-squares mu over all samples, and the residual max with it."""
    num = 0.0
    den = 0.0
    samples = [_system_parts(which, _systems(system), lam, a, b, t) for t in t_samples]
    for parts in samples:
        for r0, r1 in parts:
            for m in set(r0) | set(r1):
                c0 = r0.get(m, 0.0)
                c1 = r1.get(m, 0.0)
                num = num + c0 * c1
                den = den + c1 * c1
    mu = np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)
    worst = 0.0
    for parts in samples:
        worst = np.maximum(worst, _abs_max(parts, mu))
    return mu, worst


def default_t_samples(count=9):
    """Samples strictly inside (0, pi/3), away from the singular orbits."""
    step = math.pi / 3.0 / (count + 1)
    return [step * (j + 1) for j in range(count)]


def _grid(lo, hi, res):
    n = int(round((hi - lo) / res))
    return np.linspace(lo, hi, n + 1)


# Slices and polish steps with |lam| at or below this are skipped: there
# every residual collapses for scaling reasons alone, so the whole slice
# would read as hits.
_LAM_FLOOR = 1e-3


def _residual_rows(which, system, points, t_samples):
    """Residual coefficients r0 - mu * r1 of k points, one row per point.

    points has the columns (lam, a, b, mu); a row runs over systems,
    monomials and samples.  One _system_parts call takes the samples on a
    leading axis.
    """
    lam, a, b, mu = np.asarray(points, dtype=float).T
    t = np.reshape(t_samples, (-1, 1))
    shape = (t.shape[0], lam.shape[0])
    rows = []
    for r0, r1 in _system_parts(which, _systems(system), lam, a, b, t):
        for m in set(r0) | set(r1):
            rows.append(np.broadcast_to(r0.get(m, 0.0) - mu * r1.get(m, 0.0), shape))
    return np.concatenate(rows).T


# Gauss-Newton steps per polish, and the forward-difference step of its
# Jacobian.  Near a zero the polish converges in a few steps; the cap
# ends those that start far from one.
_STEPS = 20
_JAC_STEP = 1e-7


def _refine(which, system, point, t_samples, tolerance, bounds):
    """Gauss-Newton polish of a candidate zero; returns (point, mu, res).

    point is (lam, a, b, mu).  The residual coefficients are polynomial in
    all four, so each step solves the linearised system in the least-squares
    sense, with a forward-difference Jacobian from one batched evaluation
    of the point and its four neighbours.  The polish stops below
    `tolerance`, after _STEPS steps, or before a step that would leave
    `bounds` (the sweep box) or reach |lam| <= _LAM_FLOOR.  res is
    max |residual| at the returned point and mu, or inf where the residual
    is not finite.
    """
    x = np.array(point, dtype=float)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    stencil = np.vstack([np.zeros(4), _JAC_STEP * np.eye(4)])
    for step in range(_STEPS + 1):
        rows = _residual_rows(which, system, x + stencil, t_samples)
        r = rows[0]
        res = float(np.max(np.abs(r))) if np.all(np.isfinite(r)) else math.inf
        if res < tolerance or step == _STEPS or not np.all(np.isfinite(rows)):
            break
        jac = (rows[1:] - r).T / _JAC_STEP
        nxt = x + np.linalg.lstsq(jac, -r, rcond=None)[0]
        inside = np.all((lo <= nxt[:3]) & (nxt[:3] <= hi)) and abs(nxt[0]) > _LAM_FLOOR
        if not (inside and np.isfinite(nxt[3])):
            break
        x = nxt
    return tuple(float(v) for v in x[:3]), float(x[3]), res


def numeric_sweep(
    which,
    system,
    lambda_range=(0.1, 2.0),
    a_range=(-3.0, 3.0),
    b_range=(-2.0, 2.0),
    resolution=0.05,
    tolerance=1e-6,
    t_samples=None,
):
    """Grid search for residual zeros, chunked over lambda.

    Returns a list of dicts {lam, a, b, mu, residual, count}: every grid
    point whose fitted residual is below tolerance (count 1).  When no
    grid point hits, the per-slice minima are polished instead and those
    that converge below tolerance are kept, so isolated zeros lying
    between grid points are still recovered within a cell.  Polished
    zeros closer than one cell are one hit: the lowest-residual point,
    with count the number of polishes that met it.
    Lambda slices with |lam| <= _LAM_FLOOR are skipped.
    """
    if t_samples is None:
        t_samples = default_t_samples()
    lams = _grid(*lambda_range, resolution)
    avals = _grid(*a_range, resolution)
    bvals = _grid(*b_range, resolution)
    if lams.size == 0 or avals.size == 0 or bvals.size == 0:
        return []
    a_mesh = avals[:, None]
    b_mesh = bvals[None, :]
    hits = []
    minima = []
    for lam in lams[np.abs(lams) > _LAM_FLOOR]:
        mu, res = best_mu_residual(which, system, float(lam), a_mesh, b_mesh, t_samples)
        mu = np.broadcast_to(mu, res.shape)
        for i, j in zip(*np.nonzero(res < tolerance)):
            hits.append(
                {
                    "lam": float(lam),
                    "a": float(avals[i]),
                    "b": float(bvals[j]),
                    "mu": float(mu[i, j]),
                    "residual": float(res[i, j]),
                    "count": 1,
                }
            )
        k = int(np.argmin(res))
        i, j = np.unravel_index(k, res.shape)
        minima.append(
            (float(res[i, j]), float(lam), float(avals[i]), float(bvals[j]), float(mu[i, j]))
        )
    if not hits and minima:
        minima.sort()
        best = minima[0][0]
        bounds = (lambda_range, a_range, b_range)
        polished = []
        for res0, *start in minima:
            if res0 > max(100 * best, 1e3 * tolerance):
                continue
            point, mu, res = _refine(which, system, start, t_samples, tolerance, bounds)
            if res < tolerance:
                polished.append(
                    {
                        "lam": point[0],
                        "a": point[1],
                        "b": point[2],
                        "mu": mu,
                        "residual": res,
                        "count": 1,
                    }
                )
        hits = _merge_hits(polished, resolution)
    return hits


def _merge_hits(hits, resolution):
    """One hit per cluster closer than `resolution` in (lam, a, b).

    Hits are taken in order of residual; each joins the first kept hit
    within one cell, whose count it raises, or else is kept itself.
    """
    kept = []
    for h in sorted(hits, key=lambda h: h["residual"]):
        for k in kept:
            if max(abs(h[v] - k[v]) for v in ("lam", "a", "b")) < resolution:
                k["count"] += 1
                break
        else:
            kept.append(h)
    return kept
