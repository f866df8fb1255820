"""Independent floating-point evaluator and grid sweep.

Reimplements the two ansatz families and their hypersurface residuals
over real floats, with no exact-engine code paths, to cross-check exact
results and drive the parameter sweep.  Each Z_k is a pair (U_k, V_k) of
real 1-forms, Z_k = U_k + i V_k, so every residual coefficient is a real
polynomial in (lam, a, b, mu), and one over C too.  t enters only
through the six angle values (c1, s1, c2, s2, c3, s3) that _angles gives,
the cos and sin of t + (k - 1) 2 pi/3: math's for a Python-float t, so
that a point of Python floats is evaluated in Python floats, and numpy's
otherwise.  Coefficients may be numpy arrays, so many points are
evaluated at once.  _system_forms builds, from lam, a, b and the angle
values, of Xi = Z_1 ^ Z_2 ^ Z_3 only the halves its systems read: Re Xi
for nhf, Im Xi for flow.  Its dict algebra does the same float operations
at every input, so _system_parts runs it through a kernel (_kernel):
_system_forms recorded once per process and (which, systems) on _Var
placeholders, one statement per distinct expression, and compiled into
one straight-line function of the same nine arguments, with the same
bits, keys and key order and no dict work.  The kernel reads nothing but
its arguments, so floats, arrays, complex values and any other number
type with +, - and * run the same code; it deletes each temporary after
its last use.  _coefficients is the one walk of the residual forms: it
takes the t samples in runs of max(1, 2**14 // points), and gives each
run a pair of arrays (c0, c1) of r0 and r1 coefficients, one row per
sample, system and monomial.  The least-squares sums, fitted mu and
max-norm are whole-array operations on a run's rows, and the sums add the
rows strictly left to right, run after run, so that a point's sums do not
depend on the rest of its batch.

_model reads each system off its kernel once per process: run on _Poly
variables, polynomials over its nine arguments, the kernel gives every r0
and r1 coefficient as a polynomial in lam, a, b and the angle values, with
no fit and no degree bound.  The model only steers the sweep: it gives the
screen's node sums and each Gauss-Newton step with its exact Jacobian,
from its rows at the sweep's t samples, built once per numeric_sweep call
(_model_rows) and not kept.  Every number the sweep reports (hits, minima,
residuals) is the direct evaluator's.

The sweep screens every lambda slice with least-squares sums interpolated
from Chebyshev nodes in (a, b), exact since they have low degree there,
and evaluates directly only where a hit or the slice minimum can be.  It
interpolates each slice's whole mesh once, for the sums' argmin and a
lower bound per mesh row, and then again only the rows whose bound lets
them hold a candidate.  Consecutive slices share each evaluation, lam
an array axis, up to _PACK_SAMPLES point-samples at a time.  It polishes
the best grid minima by Gauss-Newton in (lam, a, b, mu).  numeric_sweep
takes the number of t samples, not the samples, checks every argument
first, in _check_inputs, and refuses a bad one with SweepInputError, a
ValueError naming it.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

_TWO_THIRDS_PI = 2.0 * math.pi / 3.0
_SHIFTS = tuple((k - 1) * _TWO_THIRDS_PI for k in (1, 2, 3))


def _angles(t):
    """(c1, s1, c2, s2, c3, s3): cos and sin of t + (k - 1) 2 pi/3, by
    math for a Python float t and by numpy otherwise."""
    cos, sin = (math.cos, math.sin) if t.__class__ is float else (np.cos, np.sin)
    x1, x2, x3 = t + _SHIFTS[0], t + _SHIFTS[1], t + _SHIFTS[2]
    return cos(x1), sin(x1), cos(x2), sin(x2), cos(x3), sin(x3)


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


def wedge(x, y, out=None, sign=1):
    """sign * (x ^ y) for sign 1 or -1, added into the dict `out` when one
    is given: a negative term is subtracted, not negated and then added."""
    out = {} if out is None else out
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            m, s = _merge(m1, m2)
            if m is None:
                continue
            c = c1 * c2
            if m in out:
                out[m] = out[m] + c if s == sign else out[m] - c
            else:
                out[m] = c if s == sign else -c
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


def frame_z(which, lam, a, b, c1, s1, c2, s2, c3, s3):
    """Z_k and dZ_k/dt as pairs (U, V) of real 1-forms, Z = U + i V, from
    the angle values of _angles."""
    zs, dzs = [], []
    for k, (ck, sk) in enumerate(((c1, s1), (c2, s2), (c3, s3)), 1):
        e, f = k - 1, 3 + k - 1
        if which == "s7":
            # Z_k = lam f_k + (lam (a ck + b) + 4 i sk) e_k
            zs.append(({(f,): lam, (e,): lam * (a * ck + b)}, {(e,): 4 * sk}))
            dzs.append(({(e,): -lam * a * sk}, {(e,): 4 * ck}))
        else:
            # Z_k = (2 lam + i b) p_k + (2 lam a ck + 2 i sk) n_k
            zs.append(({(e,): 2 * lam, (f,): 2 * lam * a * ck}, {(e,): b, (f,): 2 * sk}))
            dzs.append(({(f,): -2 * lam * a * sk}, {(f,): 2 * ck}))
    return zs, dzs


# Complex forms are (real part, imaginary part) pairs of real forms.
# _re_wedge gives Re(x ^ y), _im_wedge Im(x ^ y) and _cwedge the pair
# x ^ y; each adds into `out` (a form, or a pair of forms) when it is given.
def _re_wedge(x, y, out=None):
    (x_re, x_im), (y_re, y_im) = x, y
    return wedge(x_im, y_im, wedge(x_re, y_re, out), sign=-1)


def _im_wedge(x, y, out=None):
    (x_re, x_im), (y_re, y_im) = x, y
    return wedge(x_im, y_re, wedge(x_re, y_im, out))


def _cwedge(x, y, out=(None, None)):
    return _re_wedge(x, y, out[0]), _im_wedge(x, y, out[1])


def _system_forms(which, systems, lam, a, b, c1, s1, c2, s2, c3, s3):
    """[(r0, r1)] per system at the angle values of one t, sharing one
    frame: the definition of _system_parts, in the dict algebra above.

    The angle values are those of one sample, or of an array of samples
    on a leading axis in front of the batch axes of (lam, a, b).  Builds
    xi = sum U_k ^ V_k and Z_1 ^ Z_2 once, and of Xi = Z_1 ^ Z_2 ^ Z_3
    only the halves the systems read: Re Xi for "nhf", Im Xi for "flow",
    both (Re Xi first, as _cwedge takes them) for the two.  d/dt Re Xi,
    which shares Z_1 ^ Z_2 with Xi, is built only for "flow".
    """
    zs, dzs = frame_z(which, lam, a, b, c1, s1, c2, s2, c3, s3)
    xi = add(*(wedge(u, v) for u, v in zs))
    z12 = _cwedge(zs[0], zs[1])
    re_xi = _re_wedge(z12, zs[2]) if "nhf" in systems else None
    im_xi = _im_wedge(z12, zs[2]) if "flow" in systems else None
    out = []
    for system in systems:
        if system == "nhf":
            out.append((d_form(re_xi, which), scale(wedge(xi, xi), 0.5)))
        elif system == "flow":
            # d/dt Xi = d/dt(Z_1 ^ Z_2) ^ Z_3 + Z_1 ^ Z_2 ^ dZ_3/dt
            dz12 = _cwedge(dzs[0], zs[1], _cwedge(zs[0], dzs[1]))
            dt_re_xi = _re_wedge(dz12, zs[2], _re_wedge(z12, dzs[2]))
            out.append((add(d_form(xi, which), dt_re_xi), im_xi))
        else:
            raise ValueError("unknown system %r" % system)
    return out


class _Var:
    """A placeholder value of the kernel recorder.

    Each +, -, * and unary - on a _Var, and a constant times a _Var (as
    in 2 * lam), records one statement on its tape, a dict shared by the
    placeholders of one recording and keyed by the statement's right-hand
    side, and returns the _Var that names the result.  A statement already
    on the tape returns the _Var it made, so each distinct expression is
    computed once.  A constant operand must be a finite int or float: it
    is written by repr.
    """

    __slots__ = ("tape", "name", "op", "args")

    def __init__(self, tape, name, op=None, args=()):
        self.tape, self.name, self.op, self.args = tape, name, op, args

    def _record(self, op, *args):
        for x in args:
            if not isinstance(x, _Var) and not (type(x) in (int, float) and math.isfinite(x)):
                raise TypeError("a kernel takes no constant %r" % (x,))
        key = (op, *map(_operand, args))
        var = self.tape.get(key)
        if var is None:
            var = self.tape[key] = _Var(self.tape, "v%d" % len(self.tape), op, args)
        return var

    def __add__(self, other):
        return self._record("+", self, other)

    def __sub__(self, other):
        return self._record("-", self, other)

    def __mul__(self, other):
        return self._record("*", self, other)

    def __rmul__(self, other):
        return self._record("*", other, self)

    def __neg__(self):
        return self._record("neg", self)

    def source(self):
        """The statement's right-hand side."""
        if self.op == "neg":
            return "-" + self.args[0].name
        return "%s %s %s" % (_operand(self.args[0]), self.op, _operand(self.args[1]))


def _operand(x):
    return x.name if isinstance(x, _Var) else repr(x)


# The arguments of every kernel: the point and the angle values of _angles.
_ARGUMENTS = ("lam", "a", "b", "c1", "s1", "c2", "s2", "c3", "s3")


def _kernel_source(which, systems):
    """The source of `kernel(lam, a, b, c1, s1, c2, s2, c3, s3)`: the
    statements that _system_forms(which, systems, ...) records on _Var
    placeholders and that its forms `parts` read, in order, each temporary
    deleted after its last use, and a return of `parts` with the same keys
    in the same order."""
    tape = {}
    parts = _system_forms(which, systems, *(_Var(tape, name) for name in _ARGUMENTS))
    outputs = {v.name for pair in parts for form in pair for v in form.values() if isinstance(v, _Var)}
    live = set(outputs)
    for var in reversed(tape.values()):
        if var.name in live:
            live.update(x.name for x in var.args if isinstance(x, _Var))
    statements = [var for var in tape.values() if var.name in live]
    last = {}  # temporary -> the statement that reads it last
    for i, var in enumerate(statements):
        for x in var.args:
            if isinstance(x, _Var) and x.op is not None and x.name not in outputs:
                last[x.name] = i
    dead = [[] for _ in statements]
    for name, i in last.items():
        dead[i].append(name)
    lines = ["def kernel(%s):" % ", ".join(_ARGUMENTS)]
    for var, names in zip(statements, dead):
        lines.append("    %s = %s" % (var.name, var.source()))
        if names:
            lines.append("    del " + ", ".join(names))

    def form(f):
        return "{%s}" % ", ".join("%r: %s" % (m, _operand(v)) for m, v in f.items())

    pairs = ("(%s, %s)" % (form(r0), form(r1)) for r0, r1 in parts)
    lines.append("    return [%s]" % ", ".join(pairs))
    return "\n".join(lines) + "\n"


# The three tuples of systems a kernel is built for.
_SYSTEMS = (("nhf",), ("flow",), ("nhf", "flow"))


@functools.cache
def _kernel(which, systems):
    """_system_forms(which, systems, ...) compiled into one straight-line
    function of (lam, a, b, c1, s1, c2, s2, c3, s3).

    Records _system_forms once on _Var placeholders and compiles the
    statements it made, each distinct expression once, into a scope of
    its own.  So a kernel performs the same float operations in the same
    order as the dict algebra, and gives the same bits and the same keys
    in the same order, with none of the dict work.  which and systems are
    checked before recording: at most 2 x 3 kernels are built in a
    process.
    """
    if which not in _STRUCTURE:
        raise ValueError("unknown family %r" % (which,))
    for system in systems:
        if system not in ("nhf", "flow"):
            raise ValueError("unknown system %r" % (system,))
    if systems not in _SYSTEMS:
        raise ValueError("systems must be one of %s, got %r" % (", ".join(map(repr, _SYSTEMS)), systems))
    source = _kernel_source(which, systems)
    scope = {}
    exec(compile(source, "<%s %s kernel>" % (which, " ".join(systems)), "exec"), scope)
    return scope["kernel"]


def _system_parts(which, systems, lam, a, b, t):
    """[(r0, r1)] per system at t, sharing one frame: _system_forms, run by
    the kernel of (which, systems) on the angle values of t."""
    return _kernel(which, systems)(lam, a, b, *_angles(t))


def residual_parts(which, system, lam, a, b, t):
    """(r0, r1) with residual = r0 - mu * r1, per base monomial."""
    return _system_parts(which, (system,), lam, a, b, t)[0]


# Array elements per run of _coefficients and _model_coefficients: a batch
# of `points` points takes max(1, _RUN_ELEMENTS // points) samples per run,
# and the sums over the rows take one run at a time.
_RUN_ELEMENTS = 2**14


def _rows(parts):
    """[(v0, v1)] per row of one sample, the one home of the row order: per
    (r0, r1) of parts, their values at each monomial of either, or 0.0."""
    return [(r0.get(m, 0.0), r1.get(m, 0.0)) for r0, r1 in parts for m in set(r0) | set(r1)]


def _coefficients(which, system, lam, a, b, t_samples):
    """[(c0, c1)] per run of samples, in sample order: the coefficients of
    r0 and r1, one row per sample, system and monomial, in that order.

    system is "nhf", "flow" or "both".  Each run is one _system_parts call,
    its samples on a leading axis.  c0 and c1 are C-contiguous, of shape
    (rows, *shape) with shape the broadcast shape of (lam, a, b), with
    zeros where one of r0, r1 lacks the monomial.  Consumers add over the
    rows in order, run after run, so sums at one point depend neither on
    the runs nor on the other points of the batch.
    """
    shape = np.broadcast(lam, a, b).shape
    run = max(1, _RUN_ELEMENTS // math.prod(shape))
    systems = ("nhf", "flow") if system == "both" else (system,)
    runs = []
    for start in range(0, len(t_samples), run):
        t = np.reshape(t_samples[start : start + run], (-1,) + (1,) * len(shape))
        parts = _rows(_system_parts(which, systems, lam, a, b, t))
        rows = (t.shape[0] * len(parts),) + shape
        dtype = np.result_type(lam, a, b, t)
        c0, c1 = np.empty(rows, dtype), np.empty(rows, dtype)
        for j, (v0, v1) in enumerate(parts):
            c0[j :: len(parts)] = v0  # row j of every sample
            c1[j :: len(parts)] = v1
        del parts  # released before the next run is built
        runs.append((c0, c1))
    return runs


class _Poly(dict):
    """{exponents: coefficient}, a polynomial over the kernel's arguments, one
    exponent per name of _ARGUMENTS; an int or float operand is a constant."""

    def __add__(self, other):
        out = _Poly(self)
        for e, c in _poly(other).items():
            out[e] = out.get(e, 0.0) + c
        return out

    def __mul__(self, other):
        out, other = _Poly(), _poly(other)
        for e1, c1 in self.items():
            for e2, c2 in other.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                out[e] = out.get(e, 0.0) + c1 * c2
        return out

    def __neg__(self):
        return _Poly({e: -c for e, c in self.items()})

    def __sub__(self, other):
        return self + -_poly(other)

    def __rsub__(self, other):
        return -self + other

    __radd__, __rmul__ = __add__, __mul__


def _poly(x):
    return x if isinstance(x, _Poly) else _Poly({(0,) * len(_ARGUMENTS): float(x)})


@functools.cache
def _model(which, system):
    """(exps, angles, coef): the r0 and r1 coefficients of `system` as
    polynomials, read off its kernel run once on _Poly variables.

    exps (M, 3) holds the exponents of lam, a and b of the M monomials that
    occur, angles (K, 6) those of (c1, s1, c2, s2, c3, s3) of the K angle
    monomials that occur, and coef (K, 2, rows, M) their coefficients per
    angle monomial, part (r0, r1) and row of one sample of _coefficients.
    """
    variables = [_Poly({tuple(e): 1.0}) for e in np.eye(len(_ARGUMENTS), dtype=int).tolist()]
    systems = ("nhf", "flow") if system == "both" else (system,)
    rows = _rows(_kernel(which, systems)(*variables))
    exponents, part, row, c = zip(*((e, part, row, c) for row, pair in enumerate(rows)
                                    for part, v in enumerate(pair) for e, c in _poly(v).items() if c))
    exps, at = np.unique(np.array(exponents)[:, :3], axis=0, return_inverse=True)
    angles, wave = np.unique(np.array(exponents)[:, 3:], axis=0, return_inverse=True)
    coef = np.zeros((len(angles), 2, len(rows), len(exps)))
    coef[wave, part, row, at] = c
    return exps, angles, coef


def _model_rows(which, system, t_samples):
    """(exps, terms): the monomials of _model and, per part, the rows of
    _coefficients at the samples t_samples as coefficients of those
    monomials, (2, len(t_samples)·rows, M).  numeric_sweep builds them once
    per call, for the node sums of every pack and every polish."""
    exps, angles, coef = _model(which, system)
    waves = _monomials(angles, *_angles(np.asarray(t_samples)))  # angle monomial, sample
    terms = np.tensordot(waves, coef, axes=(0, 0))  # sample, part, row, monomial
    return exps, terms.transpose(1, 0, 2, 3).reshape(2, -1, coef.shape[-1])


def _powers(x, degree):
    """(degree + 1, *x.shape): x**0, x**1, ..., x**degree."""
    powers = [np.ones_like(x)]
    for _ in range(degree):
        powers.append(powers[-1] * x)
    return np.stack(powers)


def _monomials(exps, *xs):
    """(M, points): the monomials exps (M, len(xs)) at the points xs,
    broadcast and flattened."""
    zero = np.zeros(np.broadcast(*xs).shape)
    powers = _powers(np.stack([np.ravel(x + zero) for x in xs]), exps.max())
    return powers[exps, np.arange(len(xs))].prod(axis=1)


def _model_coefficients(model_rows, lam, a, b, t_samples):
    """_coefficients from the model_rows of _model_rows at t_samples: the
    same runs, rows and shapes, to rounding."""
    exps, terms = model_rows
    rows = terms.shape[1] // len(t_samples)  # per sample
    shape = np.broadcast(lam, a, b).shape
    monomials = _monomials(exps, lam, a, b)
    run = max(1, _RUN_ELEMENTS // math.prod(shape))
    runs = []
    for start in range(0, len(t_samples), run):
        c = terms[:, start * rows : (start + run) * rows] @ monomials
        runs.append(tuple(c.reshape((2, -1) + shape)))
    return runs


def _row_sum(terms, total):
    """total + terms[0] + terms[1] + ..., added strictly left to right.

    terms is a fresh array and is overwritten.  numpy adds rows of two or
    more elements one after the other, but sums rows of one element (a
    lone point, a batch of one) pairwise, so those are accumulated.
    """
    if len(terms) == 1:
        return total + terms[0]
    np.add(terms[:1], total, out=terms[:1])
    if terms[0].size > 1:
        return np.add.reduce(terms, axis=0)
    return np.add.accumulate(terms, axis=0)[-1]


def _lsq(runs, squares=False):
    """(num, den[, s00]): sums of c0·c1, c1^2 [and c0^2] over the rows."""
    sums = [0.0] * (3 if squares else 2)
    for x, y in runs:
        sums[0] = _row_sum(x * y, sums[0])
        sums[1] = _row_sum(y * y, sums[1])
        if squares:
            sums[2] = _row_sum(x * x, sums[2])
    return tuple(sums)


def _fit_mu(num, den):
    return np.where(den > 0, num / np.maximum(den, 1e-300), 0.0)


def _max_norm(runs, mu):
    """max |c0 - mu·c1| over the rows."""
    out = None
    for c0, c1 in runs:
        d = mu * c1
        np.abs(np.subtract(c0, d, out=d), out=d)
        d = d.max(axis=0) if len(d) > 1 else d[0]
        out = d if out is None else np.maximum(out, d)
    return out


def best_mu_residual(which, system, lam, a, b, t_samples):
    """Least-squares mu over all samples, and the residual max with it."""
    runs = _coefficients(which, system, lam, a, b, t_samples)
    mu = _fit_mu(*_lsq(runs))
    return mu, _max_norm(runs, mu)


def default_t_samples(count=9):
    """count samples strictly inside (0, pi/3), away from the singular orbits."""
    step = math.pi / 3.0 / (count + 1)
    return [step * (j + 1) for j in range(count)]


# Most resolution steps along one axis, and most mesh points in one lambda
# slice, that numeric_sweep accepts; the default box has 121 x 81 = 9801
# per slice.
MAX_MESH = 10**6


class SweepInputError(ValueError):
    """An argument that numeric_sweep refuses; the message names it."""


class MeshTooLarge(SweepInputError):
    """A sweep box whose mesh is too large to build."""


def _check_inputs(which, system, ranges, resolution, tolerance, t_samples):
    """Raise SweepInputError naming the argument unless numeric_sweep can run:
    which and system known, tolerance and resolution positive, t_samples a
    count from 1 to MAX_MESH // _NODES**2 (one slice's _NODES**2 node points
    are never split, so at most MAX_MESH point-samples), each range finite
    with lo <= hi and, when lo < hi, more than half a resolution step wide,
    and the mesh not too large (MeshTooLarge)."""
    if which not in ("s7", "b7"):
        raise SweepInputError("which must be 's7' or 'b7', got %r" % (which,))
    if system not in ("nhf", "flow", "both"):
        raise SweepInputError("system must be 'nhf', 'flow' or 'both', got %r" % (system,))
    for name, value in (("tolerance", tolerance), ("resolution", resolution)):
        if not value > 0:  # also NaN
            raise SweepInputError("%s must be positive, got %r" % (name, value))
    most = MAX_MESH // _NODES**2
    if isinstance(t_samples, bool) or not isinstance(t_samples, numbers.Integral):
        raise SweepInputError("t_samples must be a count of samples, got %r" % (t_samples,))
    if not 1 <= t_samples <= most:
        raise SweepInputError("t_samples must hold 1 to %d samples, got %d" % (most, t_samples))
    points = []
    for axis, (lo, hi) in zip(("lambda", "a", "b"), ranges):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise SweepInputError("%s_range bounds must be finite, got %r" % (axis, (lo, hi)))
        if lo > hi:
            raise SweepInputError("%s_range is empty: %r exceeds %r" % (axis, lo, hi))
        steps = (hi - lo) / resolution
        if not steps < MAX_MESH:  # inf when the span overflows
            raise MeshTooLarge("%s_range spans %d or more resolution steps" % (axis, MAX_MESH))
        if lo < hi and round(steps) == 0:  # _grid would keep lo alone
            raise SweepInputError("%s_range %r spans at most half of resolution %r"
                                  % (axis, (lo, hi), resolution))
        points.append(round(steps) + 1)
    if points[1] * points[2] > MAX_MESH:
        raise MeshTooLarge("resolution %r meshes a_range x b_range with %d points, over %d"
                           % (resolution, points[1] * points[2], MAX_MESH))


def _grid(lo, hi, res):
    n = int(round((hi - lo) / res))
    return np.linspace(lo, hi, n + 1)


# Slices and polish steps with |lam| at or below this are skipped: there
# every residual collapses for scaling reasons alone, so the whole slice
# would read as hits.
_LAM_FLOOR = 1e-3

# Interpolation nodes per mesh axis.  At fixed (lam, t) each Z_k is affine
# in a and in b, so every r0 and r1 coefficient has degree <= 3 in each,
# and the least-squares sums of two of them degree <= 6: 7 nodes per axis
# give those sums exactly.  _screen checks this on every slice.
_NODES = 7
# Sums beyond this take the direct mesh path: near overflow a direct
# residual may be inf or NaN where its interpolated sums are not.
_SUM_CEILING = 1e250
# Relative agreement of interpolated and direct sums, and the rounding
# allowance of the screen, both on the scale of the slice's node sums.
_SUM_RTOL = 1e-9


def _interpolator(grid):
    """(nodes, L): nodes on the grid's span, and L with L @ f(nodes) = f(grid).

    L is exact for polynomials of degree < _NODES; a grid of at most
    _NODES points is its own node set, with L the identity.
    """
    if grid.size <= _NODES:
        return grid, np.eye(grid.size)
    lo, hi = grid[0], grid[-1]
    x = np.cos(np.pi * (np.arange(_NODES) + 0.5) / _NODES)
    u = (2.0 * grid - (lo + hi)) / (hi - lo)
    vander = np.polynomial.chebyshev.chebvander
    lt = np.linalg.solve(vander(x, _NODES - 1).T, vander(u, _NODES - 1).T)
    return lo + (hi - lo) * (x + 1.0) / 2.0, lt.T


def _hit(lam, a, b, mu, res):
    return dict(lam=float(lam), a=float(a), b=float(b), mu=float(mu), residual=float(res), count=1)


# Point-samples per evaluation of the screen: consecutive lambda slices
# share one evaluation until the next slice would pass this budget, and a
# larger slice (a whole-mesh fallback, say) is evaluated alone.
_PACK_SAMPLES = 2048


def _packs(items, size):
    """Consecutive items in lists of total size at most _PACK_SAMPLES; an
    item larger than that makes a list of its own."""
    pack, total = [], 0
    for item in items:
        n = size(item)
        if pack and total + n > _PACK_SAMPLES:
            yield pack
            pack, total = [], 0
        pack.append(item)
        total += n
    if pack:
        yield pack


def _interpolate(la, lb, node_sums):
    """(num, den, s00, mu, ss) on one slice's mesh from its node sums."""
    num, den, s00 = (la @ s @ lb.T for s in node_sums)
    mu = _fit_mu(num, den)
    return num, den, s00, mu, s00 - mu * num


def _slack(scales, mu):
    """Rounding allowance of an interpolated ss at mu, to first order in each
    sum, each off by _SUM_RTOL times its scale; it grows with |mu|."""
    return _SUM_RTOL * (scales[2] + 2.0 * np.abs(mu) * scales[0] + mu * mu * scales[1])


def _screen(which, system, lams, avals, bvals, t_samples, tolerance, model_rows):
    """Grid hits and the max-norm minimum of each lam slice avals x bvals.

    lams is an array.  Returns [(hits, (res, lam, a, b, mu))], one entry
    per lam, each the same as best_mu_residual on that slice's whole mesh
    with ties taken in row-major order.  The least-squares sums are taken
    from model_rows, the model's rows at t_samples (_model_rows), at
    _NODES x _NODES nodes and interpolated to the mesh, giving
    ss = sum (r0 - mu·r1)^2 at the fitted mu.  With n coefficients
    max^2 <= ss <= n·max^2, so once the ss-argmin's max-norm M0 is known,
    only points with exact ss <= limit = n·max(M0, tolerance)^2 can be a
    hit or the minimum.  The interpolated ss = s00 - num^2/den is off from
    the exact one by at most _slack(scales, mu): each sum is off by at
    most _SUM_RTOL times its scale, the largest |node sum|, and to first
    order d ss = d s00 - 2 mu d num + mu^2 d den.  So the candidates, the
    points evaluated directly, are those with ss <= limit + _slack (all
    points when the sums near overflow, see _SUM_CEILING).

    Each slice's mesh is interpolated in full once, for its ss-argmin and
    one floor per mesh row i, floor_i = min_j ss(i, j) - _slack(scales,
    max_j |mu(i, j)|).  As _slack grows with |mu|, every point of row i
    has ss - _slack >= floor_i, so a row with floor_i > limit holds no
    candidate, by the same first-order argument; a NaN floor keeps its
    row.  The candidate pass interpolates again only the rows kept, which
    may round differently from the full pass but within the same slack.
    Each of the three evaluations (node sums, ss-argmins, candidates)
    takes the slices in _packs, lam an array axis.  The last two are
    direct, and their sums at one point do not depend on the batch, so
    every slice gets the bits it would alone.  Raises ArithmeticError at
    the first slice whose sums interpolated at the ss-argmin disagree with
    a direct evaluation there, since then the degree bound behind _NODES,
    or the model, is wrong.
    """
    a_nodes, la = _interpolator(avals)
    b_nodes, lb = _interpolator(bvals)
    samples = len(t_samples)
    node_sums, n = [], 0
    for pack in _packs(range(lams.size), lambda k: a_nodes.size * b_nodes.size * samples):
        runs = _model_coefficients(
            model_rows, lams[pack][:, None, None], a_nodes[:, None], b_nodes[None, :], t_samples
        )
        node_sums.extend(zip(*_lsq(runs, squares=True)))
        n = sum(len(c0) for c0, _ in runs)  # the row count
        del runs  # released before the next pack is built
    # per slice: None for the whole mesh, else the scales of its node sums,
    # its ss-argmin, the interpolated sums there and its row floors
    screens = []
    for sums in node_sums:
        scales = [np.max(np.abs(s)) for s in sums]
        if not max(scales) < _SUM_CEILING:
            screens.append(None)
            continue
        num, den, s00, mu, ss = _interpolate(la, lb, sums)
        at = np.unravel_index(np.argmin(ss), ss.shape)
        floors = ss.min(axis=1) - _slack(scales, np.abs(mu).max(axis=1))
        screens.append((scales, at, (num[at], den[at], s00[at]), floors))
    limits = {}  # n·max(M0, tolerance)^2 per screened slice
    for pack in _packs([k for k, screen in enumerate(screens) if screen], lambda k: samples):
        i0, j0 = np.transpose([screens[k][1] for k in pack])
        at_min = _coefficients(which, system, lams[pack], avals[i0], bvals[j0], t_samples)
        direct = _lsq(at_min, squares=True)
        m0 = _max_norm(at_min, _fit_mu(*direct[:2]))
        del at_min  # and not held through the candidates
        for p, k in enumerate(pack):
            scales, _, interpolated, _ = screens[k]
            for name, s, d, scale in zip(("num", "den", "s00"), interpolated, direct, scales):
                if not abs(s - d[p]) <= _SUM_RTOL * max(scale, abs(d[p])):
                    raise ArithmeticError(
                        "interpolated %s = %.17g but direct %.17g at lam=%g a=%g b=%g:"
                        " the mesh sums exceed degree %d"
                        % (name, s, d[p], lams[k], avals[i0[p]], bvals[j0[p]], _NODES - 1)
                    )
            limits[k] = n * max(m0[p], tolerance) ** 2

    def candidates(k):
        """(ia, ib): the mesh points of slice k to evaluate directly, in
        row-major order."""
        if screens[k] is None:
            return np.indices((avals.size, bvals.size)).reshape(2, -1)
        scales, _, _, floors = screens[k]
        rows = np.flatnonzero(~(floors > limits[k]))  # NaN floors too
        _, _, _, mu, ss = _interpolate(la[rows], lb, node_sums[k])
        ia, ib = np.nonzero(ss <= limits[k] + _slack(scales, mu))
        return rows[ia], ib

    out = []
    slices = ((k, *candidates(k)) for k in range(lams.size))
    for pack in _packs(slices, lambda c: c[1].size * samples):
        if len(pack) > 1:
            ks, ias, ibs = zip(*pack)
            lam = np.repeat(lams[list(ks)], [ia.size for ia in ias])
            ia, ib = np.concatenate(ias), np.concatenate(ibs)
        else:
            # a slice alone keeps lam a scalar, and with it the coefficients
            # that depend on lam only, which a per-point lam makes arrays
            ((k, ia, ib),) = pack
            lam = float(lams[k])
        a, b = avals[ia], bvals[ib]
        mu, res = best_mu_residual(which, system, lam, a, b, t_samples)
        stop = 0
        for k, ia, _ in pack:
            part = slice(stop, stop + ia.size)
            out.append(_slice_result(float(lams[k]), a[part], b[part], mu[part], res[part], tolerance))
            stop = part.stop
    return out


def _slice_result(lam, a, b, mu, res, tolerance):
    """(hits, minimum) of one slice from its directly evaluated points."""
    hits = [_hit(lam, a[q], b[q], mu[q], res[q]) for q in np.flatnonzero(res < tolerance)]
    q = int(np.argmin(res))
    return hits, (float(res[q]), lam, float(a[q]), float(b[q]), float(mu[q]))


def _residual_rows(which, system, points, t_samples):
    """Residual coefficients r0 - mu * r1 of k points, one row per point.

    points has the columns (lam, a, b, mu); a row runs over samples,
    systems and monomials, in the order of _coefficients.
    """
    lam, a, b, mu = np.asarray(points, dtype=float).T
    runs = _coefficients(which, system, lam, a, b, t_samples)
    return np.concatenate([c0 - mu * c1 for c0, c1 in runs]).T


# Gauss-Newton steps per polish, and the halvings of a step that leaves
# the box.  Near a zero the polish converges in a few steps; the cap ends
# those that start far from one.
_STEPS = 20
_HALVINGS = 8


def _monomial_jacobian(exps, point):
    """(M, 4): the monomials exps at point (lam, a, b), and their
    derivatives in lam, a and b."""
    powers = _powers(point, exps.max())
    slopes = np.zeros_like(powers)
    slopes[1:] = np.arange(1, len(powers))[:, None] * powers[:-1]
    axes = np.arange(3)
    f, df = powers[exps, axes], slopes[exps, axes]  # (M, 3), one factor per variable
    return np.stack([f.prod(1)] + [np.where(axes == v, df, f).prod(1) for v in axes], axis=-1)


def _max_abs(r):
    """max |r|, or inf where r is not finite."""
    return float(np.max(np.abs(r))) if np.all(np.isfinite(r)) else math.inf


def _refine(which, system, point, t_samples, tolerance, bounds, model_rows):
    """Gauss-Newton polish of a candidate zero; returns (point, mu, res).

    point is (lam, a, b, mu).  The residual coefficients r0 - mu r1 are
    polynomial in all four, so each step solves the linearised system in
    the least-squares sense.  The steps follow model_rows, the model's
    rows at t_samples (_model_rows): one evaluation at the point gives the
    residual and its exact Jacobian, the derivatives of the monomials in
    lam, a and b, and -r1 for mu.  A step that would leave `bounds` (the
    sweep box), change the sign of lam or reach |lam| <= _LAM_FLOOR is
    halved up to _HALVINGS times.  The polish stops where the model's
    residual is below `tolerance`, after _STEPS steps, or when no halving
    of a step stays inside.  res is max |residual| of one direct
    evaluation at the returned point and mu, or inf where that residual is
    not finite.
    """
    x = np.array(point, dtype=float)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    exps, terms = model_rows
    for step in range(_STEPS + 1):
        c0, c1 = terms @ _monomial_jacobian(exps, x[:3])
        r = c0[:, 0] - x[3] * c1[:, 0]
        jac = np.column_stack([c0[:, 1:] - x[3] * c1[:, 1:], -c1[:, 0]])
        res = _max_abs(r)
        if res < tolerance or step == _STEPS or not (res < math.inf and np.all(np.isfinite(jac))):
            break
        delta = np.linalg.lstsq(jac, -r, rcond=None)[0]
        for _ in range(_HALVINGS + 1):
            nxt = x + delta
            if (
                np.all((lo <= nxt[:3]) & (nxt[:3] <= hi))
                and nxt[0] * np.sign(x[0]) > _LAM_FLOOR
                and np.isfinite(nxt[3])
            ):
                break
            delta = delta / 2
        else:
            break
        x = nxt
    res = _max_abs(_residual_rows(which, system, [x], t_samples)[0])
    return tuple(float(v) for v in x[:3]), float(x[3]), res


def numeric_sweep(
    which,
    system,
    lambda_range=(0.1, 2.0),
    a_range=(-3.0, 3.0),
    b_range=(-2.0, 2.0),
    resolution=0.05,
    tolerance=1e-6,
    t_samples=9,
):
    """Grid search for residual zeros, chunked over lambda.

    Residuals are fitted over the t_samples samples of default_t_samples.
    Returns a list of dicts {lam, a, b, mu, residual, count}: every grid
    point whose fitted residual is below tolerance (count 1).  When no
    grid point hits, the per-slice minima are polished instead and those
    that converge below tolerance are kept, so isolated zeros lying
    between grid points are still recovered within a cell.  Polished
    zeros closer than one grid cell, on the steps the grid took, are one
    hit: the lowest-residual point,
    with count the number of polishes that met it.
    Lambda slices with |lam| <= _LAM_FLOOR are skipped.  The slices are
    screened together by _screen, which evaluates directly only the mesh
    points that can be a hit or a slice's minimum, in packs of consecutive
    slices of at most _PACK_SAMPLES point-samples, so hits and minima are
    those of best_mu_residual on each slice's whole mesh.
    Arguments it refuses raise SweepInputError, a ValueError naming the
    argument (MeshTooLarge when the mesh is too large), before any work.
    """
    _check_inputs(which, system, (lambda_range, a_range, b_range), resolution, tolerance, t_samples)
    t_samples = default_t_samples(t_samples)
    lams = _grid(*lambda_range, resolution)
    avals = _grid(*a_range, resolution)
    bvals = _grid(*b_range, resolution)
    model_rows = _model_rows(which, system, t_samples)
    hits = []
    minima = []
    for slice_hits, minimum in _screen(
        which, system, lams[np.abs(lams) > _LAM_FLOOR], avals, bvals, t_samples, tolerance,
        model_rows,
    ):
        hits.extend(slice_hits)
        minima.append(minimum)
    if not hits and minima:
        minima.sort()
        best = minima[0][0]
        bounds = (lambda_range, a_range, b_range)
        polished = []
        for res0, *start in minima:
            if res0 > max(100 * best, 1e3 * tolerance):
                continue
            point, mu, res = _refine(which, system, start, t_samples, tolerance, bounds, model_rows)
            if res < tolerance:
                polished.append(_hit(*point, mu, res))
        hits = _merge_hits(polished, [_step(g) for g in (lams, avals, bvals)])
    return hits


def _step(grid):
    """The step a grid took; a one-point axis sets no limit."""
    return (grid[-1] - grid[0]) / (len(grid) - 1) if len(grid) > 1 else math.inf


def _merge_hits(hits, steps):
    """One hit per cluster closer than one grid cell in (lam, a, b), the
    cell's sides being `steps`, the steps the grid took on each axis.

    Hits are taken in order of residual; each joins the first kept hit
    within one cell, whose count it raises, or else is kept itself.
    """
    kept = []
    for h in sorted(hits, key=lambda h: h["residual"]):
        for k in kept:
            if all(abs(h[v] - k[v]) < d for v, d in zip(("lam", "a", "b"), steps)):
                k["count"] += 1
                break
        else:
            kept.append(h)
    return kept
