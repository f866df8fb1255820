"""Graded exterior algebra over a named coframe.

Forms are sparse sums of wedge monomials with ParamPoly coefficients.
A CoframeSpec supplies the structure equations that drive the orbit
derivative `orbit_d`; the exterior derivative is d = orbit_d + dt ^ d/dt,
the transverse coordinate t entering only through coefficient
derivatives paired with the dt generator, and `dt_split` takes a form
apart the same way.  The Hodge star is taken combinatorially in a
declared orthonormal frame.
"""

from __future__ import annotations

from .scalars import ParamPoly, POLY_ZERO


class UnknownGenerator(KeyError):
    """A form mentions a generator outside its coframe."""


class DegreeError(ValueError):
    """An operation received a form of the wrong degree."""


class SingularFrame(ArithmeticError):
    """The frame forms do not span the base coframe."""


class NotInFrameSpan(ValueError):
    """A form cannot be expressed over the declared frame."""


def _merge_sorted(idx, extra):
    """Insert the indices of `extra`, in the order given, into sorted
    tuple `idx`: the sorted tuple of both and the sign of the shuffle.

    Returns (None, 0) when an index repeats.
    """
    merged = list(idx)
    sign = 1
    for k in extra:
        # insertion position and parity of transpositions
        pos = 0
        while pos < len(merged) and merged[pos] < k:
            pos += 1
        if pos < len(merged) and merged[pos] == k:
            return None, 0
        if (len(merged) - pos) % 2 == 1:
            sign = -sign
        merged.insert(pos, k)
    return tuple(merged), sign


def _add_term(terms, idx, coeff):
    """terms[idx] += coeff; `Form._made` drops the entries that cancel."""
    terms[idx] = terms[idx] + coeff if idx in terms else coeff


def _wedge_terms(x, y, out):
    """Add the terms of x ^ y, for term dicts x and y, into `out`."""
    for i1, c1 in x.items():
        for i2, c2 in y.items():
            merged, sign = _merge_sorted(i1, i2)
            if merged is not None:
                c = c1 * c2
                _add_term(out, merged, c if sign > 0 else -c)
    return out


def _indices(gens, names):
    try:
        return tuple(gens.index(n) for n in names)
    except ValueError as exc:
        raise UnknownGenerator(str(exc))


class Form:
    """Sparse exterior form over an ordered generator tuple.

    The constructor checks the forms that come from outside; results of
    form arithmetic come from `_made`, which only drops zero coefficients.
    """

    __slots__ = ("gens", "degree", "terms")

    def __init__(self, gens, degree, terms):
        gens = tuple(gens)
        clean = {}
        for idx, coeff in terms.items():
            coeff = ParamPoly.coerce(coeff)
            idx = tuple(idx)
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise ValueError("bad monomial %r for degree %d" % (idx, degree))
            if idx and (idx[0] < 0 or idx[-1] >= len(gens)):
                raise UnknownGenerator(str(idx))
            if not coeff.is_zero():
                clean[idx] = coeff
        self._set(gens, degree, clean)

    @staticmethod
    def _made(gens, degree, terms):
        return _new(Form)._set(gens, degree, {i: c for i, c in terms.items() if not c.is_zero()})

    def _set(self, gens, degree, terms):
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("Form is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(gens, degree=0):
        return Form(gens, degree, {})

    @staticmethod
    def scalar(gens, coeff):
        return Form(gens, 0, {(): coeff})

    @staticmethod
    def monomial(gens, names, coeff=1):
        """Wedge monomial from generator names (order as given, signed)."""
        gens = tuple(gens)
        out, sign = _merge_sorted((), _indices(gens, names))
        if out is None:
            return Form(gens, len(names), {})
        return Form(gens, len(names), {out: coeff if sign > 0 else -ParamPoly.coerce(coeff)})

    @staticmethod
    def generator(gens, name, coeff=1):
        return Form.monomial(gens, (name,), coeff)

    # -- predicates --------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        if self.gens != other.gens:
            return False
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.terms == other.terms

    # -- ring operations ---------------------------------------------------

    def _check_compatible(self, other):
        if self.gens != other.gens:
            raise ValueError("forms over different coframes")

    def __add__(self, other):
        if not isinstance(other, Form):
            return NotImplemented
        self._check_compatible(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.degree != other.degree:
            raise DegreeError("adding degree %d to %d" % (self.degree, other.degree))
        out = dict(self.terms)
        for idx, coeff in other.terms.items():
            _add_term(out, idx, coeff)
        return Form._made(self.gens, self.degree, out)

    def __neg__(self):
        return Form._made(self.gens, self.degree, {i: -c for i, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = ParamPoly.coerce(c)
        return Form._made(self.gens, self.degree, {i: c * v for i, v in self.terms.items()})

    def wedge(self, other):
        self._check_compatible(other)
        deg = min(self.degree + other.degree, len(self.gens))
        return Form._made(self.gens, deg, _wedge_terms(self.terms, other.terms, {}))

    # -- helpers -----------------------------------------------------------

    def coefficient(self, names):
        """Coefficient of the (canonically ordered) monomial of `names`."""
        return self.terms.get(tuple(sorted(_indices(self.gens, names))), POLY_ZERO)

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for idx in sorted(self.terms):
            mono = "^".join(self.gens[i] for i in idx) if idx else "1"
            parts.append("+ (%s) %s" % (self.terms[idx].render(), mono))
        return " ".join(parts)

    def __repr__(self):
        return "Form<deg %d>(%s)" % (self.degree, self.render())


_new = object.__new__


def wedge_all(forms):
    out = None
    for f in forms:
        out = f if out is None else out.wedge(f)
    return out


class CoframeSpec:
    """Named 1-form generators plus structure equations for d.

    `structure` maps generator name -> degree-2 Form giving its
    exterior derivative.  d(dt) = 0 is implied for `t_name`.  Whether
    d(d(g)) = 0 holds is left to `d_squared_check`.
    """

    __slots__ = ("gens", "t_name", "structure")

    def __init__(self, gens, t_name, structure):
        gens = tuple(gens)
        if t_name not in gens:
            raise ValueError("t generator %r not among generators" % t_name)
        full = {}
        for g in gens:
            d = structure.get(g)
            if d is None or (g == t_name):
                d = Form.zero(gens, 2)
            if d.gens != gens:
                raise ValueError("structure form for %r over wrong coframe" % g)
            if not d.is_zero() and d.degree != 2:
                raise DegreeError("structure form for %r must be degree 2" % g)
            full[g] = d
        if t_name in structure and not structure[t_name].is_zero():
            raise ValueError("d(dt) must be zero")
        object.__setattr__(self, "gens", gens)
        object.__setattr__(self, "t_name", t_name)
        object.__setattr__(self, "structure", full)

    def __setattr__(self, name, value):
        raise AttributeError("CoframeSpec is immutable")

    def zero(self, degree=0):
        return Form.zero(self.gens, degree)

    def gen(self, name, coeff=1):
        return Form.generator(self.gens, name, coeff)

    def mono(self, names, coeff=1):
        return Form.monomial(self.gens, names, coeff)


def orbit_d(x, cf):
    """Exterior derivative along the orbits, coefficients held fixed.

    The Leibniz rule over the structure table:
    d(X_I) = sum_m (-1)^m d(X_{I_m}) ^ X_{I without I_m}, each d(X_g)
    being a 2-form that moves to the front with no sign of its own.
    """
    if x.gens != cf.gens:
        raise UnknownGenerator("form is over %r, coframe over %r" % (x.gens, cf.gens))
    struct = [cf.structure[g].terms for g in cf.gens]
    out = {}
    for idx, coeff in x.terms.items():
        for m, gi in enumerate(idx):
            rest = {idx[:m] + idx[m + 1:]: -coeff if m % 2 else coeff}
            _wedge_terms(struct[gi], rest, out)
    return Form._made(cf.gens, min(x.degree + 1, len(cf.gens)), out)


def ext_d(x, cf):
    """d = orbit_d + dt ^ d/dt: each coefficient's t-derivative pairs with dt."""
    dx = orbit_d(x, cf)
    out = dict(dx.terms)
    dt = (cf.gens.index(cf.t_name),)
    for idx, coeff in x.terms.items():
        merged, sign = _merge_sorted(dt, idx)
        if merged is not None:
            dc = coeff.deriv_t()
            _add_term(out, merged, dc if sign > 0 else -dc)
    return Form._made(cf.gens, dx.degree, out)


def dt_split(x, cf):
    """(x0, x1) with x = x0 + dt ^ x1 and neither part containing dt:
    the dt-free part and the contraction by d/dt, pairing with dt as
    `ext_d` does."""
    i_dt = cf.gens.index(cf.t_name)
    free, contracted = {}, {}
    for idx, coeff in x.terms.items():
        if i_dt not in idx:
            free[idx] = coeff
            continue
        rest = tuple(i for i in idx if i != i_dt)
        _, sign = _merge_sorted((i_dt,), rest)
        contracted[rest] = coeff if sign > 0 else -coeff
    return Form._made(cf.gens, x.degree, free), Form._made(cf.gens, x.degree - 1, contracted)


def d_squared_check(cf):
    """True iff d(d(g)) vanishes for every generator."""
    return all(ext_d(cf.structure[g], cf).is_zero() for g in cf.gens)


class OrthoFrame:
    """Declared orthonormal coframe of n one-forms over a base coframe.

    The orientation is frame[0] ^ ... ^ frame[n-1].  Frame-basis forms
    live over the abstract generator names in `names`.  The forms must
    span the base coframe (their top wedge is not identically zero), so
    `expand` is injective.
    """

    __slots__ = ("names", "forms")

    def __init__(self, names, forms):
        names = tuple(names)
        forms = tuple(forms)
        if len(names) != len(forms):
            raise ValueError("names/forms length mismatch")
        for f in forms:
            if f.degree != 1:
                raise DegreeError("frame elements must be degree 1")
            if f.gens != forms[0].gens:
                raise ValueError("frame elements over different coframes")
        if len(forms) != len(forms[0].gens):
            raise SingularFrame("frame does not span the base coframe")
        if wedge_all(forms).is_zero():
            raise SingularFrame("wedge of the frame forms vanishes")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "forms", forms)

    def __setattr__(self, name, value):
        raise AttributeError("OrthoFrame is immutable")

    @property
    def dim(self):
        return len(self.names)

    def expand(self, x):
        """Rewrite a frame-basis form over the base coframe."""
        if x.gens != self.names:
            raise UnknownGenerator("form is not in the frame basis")
        frame = [f.terms for f in self.forms]
        out = {}
        for idx, coeff in x.terms.items():
            term = {(): coeff}
            for i in idx:
                term = _wedge_terms(term, frame[i], {})
            for k, c in term.items():
                _add_term(out, k, c)
        return Form._made(self.forms[0].gens, x.degree, out)


def hodge_star(x, of):
    """Combinatorial Hodge star in the declared orthonormal frame.

    On a frame monomial X_I returns sign * X_{I^c}, the sign being the
    parity of the permutation (I, I^c) of (0..n-1).  Its inversions are
    the pairs i in I, j in I^c with j < i; the i-th smallest index of I
    has I[i] - i of them, so they number sum(I) - k(k-1)/2 for k = |I|.
    Involution for n=7.
    """
    if x.gens != of.names:
        raise NotInFrameSpan("form is not expressed over the frame basis")
    n = of.dim
    out = {}
    for idx, coeff in x.terms.items():
        comp = tuple(i for i in range(n) if i not in idx)
        k = len(idx)
        odd = (sum(idx) - k * (k - 1) // 2) % 2
        out[comp] = -coeff if odd else coeff
    return Form._made(of.names, n - x.degree, out)

