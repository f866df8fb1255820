"""Exact coefficient arithmetic.

Three rings, stacked:

  AlgebraicScalar -- the real field Q(sqrt3, sqrt5), stored as four
      integers over one positive common denominator,
      (n0 + n1*sqrt3 + n2*sqrt5 + n3*sqrt15) / d.
  TrigScalar      -- finite Fourier series in t with AlgebraicScalar
      coefficients, canonical sparse form.
  ParamPoly       -- polynomials in the formal unknowns (lam, a, b, mu)
      with TrigScalar coefficients.

All values are immutable.
"""

from __future__ import annotations

import math
from fractions import Fraction


_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)
_SQRT15 = math.sqrt(15.0)

# The exact numbers every ring of the tower takes as constants.
_RATIONALS = (int, Fraction)


class AlgebraicScalar:
    """Element (n0 + n1*sqrt3 + n2*sqrt5 + n3*sqrt15) / d of Q(sqrt3, sqrt5).

    Stored as the int tuple (n0, n1, n2, n3, d) with d > 0 and
    gcd(n0, n1, n2, n3, d) == 1, so each value has one representation
    and equality compares the tuples; a rational value hashes as the
    Fraction it equals.  This is the integer numerator-plus-common-
    denominator form of FLINT's fmpq_poly; all arithmetic stays in
    Python ints.
    """

    __slots__ = ("_v",)

    def __init__(self, q0=0, q1=0, q2=0, q3=0):
        q = (q0, q1, q2, q3)
        for x in q:
            if not isinstance(x, _RATIONALS):
                raise TypeError("expected int or Fraction, got %r" % (x,))
        d = math.lcm(*(x.denominator for x in q))
        _set_v(self, _reduced(*(x.numerator * (d // x.denominator) for x in q), d)._v)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraicScalar is immutable")

    @staticmethod
    def coerce(x):
        if isinstance(x, AlgebraicScalar):
            return x
        if isinstance(x, _RATIONALS):
            return _raw((x.numerator, 0, 0, 0, x.denominator))
        raise TypeError("cannot coerce %r to AlgebraicScalar" % (x,))

    @property
    def q(self):
        """The four rational coordinates over 1, sqrt3, sqrt5, sqrt15."""
        n0, n1, n2, n3, d = self._v
        return (Fraction(n0, d), Fraction(n1, d), Fraction(n2, d), Fraction(n3, d))

    def is_zero(self):
        return self._v == _ZERO_V

    def __eq__(self, other):
        if isinstance(other, _RATIONALS):
            other = AlgebraicScalar.coerce(other)
        elif not isinstance(other, AlgebraicScalar):
            return NotImplemented
        return self._v == other._v

    def __hash__(self):
        n0, n1, n2, n3, d = self._v
        return hash(Fraction(n0, d)) if n1 == n2 == n3 == 0 else hash(self._v)

    def __add__(self, other):
        if other.__class__ is not AlgebraicScalar:
            if not isinstance(other, _RATIONALS):
                return NotImplemented
            other = AlgebraicScalar.coerce(other)
        return _reduced(*_add_v(self._v, other._v))

    __radd__ = __add__

    def __neg__(self):
        a0, a1, a2, a3, d = self._v
        return _raw((-a0, -a1, -a2, -a3, d))

    def __sub__(self, other):
        if not isinstance(other, (AlgebraicScalar, *_RATIONALS)):
            return NotImplemented
        return self + -other

    def __rsub__(self, other):
        return -self + other if isinstance(other, _RATIONALS) else NotImplemented

    def __mul__(self, other):
        if other.__class__ is not AlgebraicScalar:
            if not isinstance(other, _RATIONALS):
                return NotImplemented
            other = AlgebraicScalar.coerce(other)
        return _reduced(*_mul_v(self._v, other._v))

    __rmul__ = __mul__

    def conj3(self):
        a0, a1, a2, a3, d = self._v
        return _raw((a0, -a1, a2, -a3, d))

    def conj5(self):
        a0, a1, a2, a3, d = self._v
        return _raw((a0, a1, -a2, -a3, d))

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError("division by zero AlgebraicScalar")
        # multiply by the three Galois conjugates; the full product is rational
        c = self.conj3()
        u = self * c            # lies in Q(sqrt5)
        v = u.conj5()
        norm = u * v            # rational, n / nd
        i0, i1, i2, i3, d = (c * v)._v
        n, nd = norm._v[0], norm._v[4]
        if n < 0:
            n, nd = -n, -nd
        return _reduced(i0 * nd, i1 * nd, i2 * nd, i3 * nd, d * n)

    def __truediv__(self, other):
        return self * AlgebraicScalar.coerce(other).inverse()

    def __rtruediv__(self, other):
        return AlgebraicScalar.coerce(other) * self.inverse()

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = ALG_ONE
        for _ in range(n):
            out = out * self
        return out

    def to_float(self):
        # n / d on ints is correctly rounded, as float(Fraction(n, d)) is
        n0, n1, n2, n3, d = self._v
        return n0 / d + (n1 / d) * _SQRT3 + (n2 / d) * _SQRT5 + (n3 / d) * _SQRT15

    __float__ = to_float

    def render(self):
        """Canonical text form, e.g. "(2/5)*sqrt5" or "(1/2) + (-1)*sqrt3"."""
        parts = []
        for coeff, tag in zip(self.q, ("", "sqrt3", "sqrt5", "sqrt15")):
            if coeff == 0:
                continue
            s = "(%s)" % coeff
            if tag:
                s += "*" + tag
            parts.append(s)
        if not parts:
            return "0"
        return " + ".join(parts)

    def __repr__(self):
        return "AlgebraicScalar(%s)" % self.render()

    def __str__(self):
        return self.render()


_ZERO_V = (0, 0, 0, 0, 1)
_ONE_V = (1, 0, 0, 0, 1)
_set_v = AlgebraicScalar._v.__set__
_new = object.__new__


def _raw(v):
    """AlgebraicScalar with the already normalised tuple v; no checks."""
    x = _new(AlgebraicScalar)
    _set_v(x, v)
    return x


def _mul_v(a, b):
    """Product of two (n0, n1, n2, n3, d) tuples, as one such tuple; not
    normalised, so a caller can go on multiplying or adding ints."""
    a0, a1, a2, a3, ad = a
    b0, b1, b2, b3, bd = b
    # a rational factor scales each coordinate of the other one
    if not (b1 or b2 or b3):
        return (a0 * b0, a1 * b0, a2 * b0, a3 * b0, ad * bd)
    if not (a1 or a2 or a3):
        return (a0 * b0, a0 * b1, a0 * b2, a0 * b3, ad * bd)
    # sqrt3^2 = 3, sqrt5^2 = 5, sqrt3*sqrt5 = sqrt15, sqrt15^2 = 15
    return (
        a0 * b0 + 3 * a1 * b1 + 5 * a2 * b2 + 15 * a3 * b3,
        a0 * b1 + a1 * b0 + 5 * (a2 * b3 + a3 * b2),
        a0 * b2 + a2 * b0 + 3 * (a1 * b3 + a3 * b1),
        a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
        ad * bd,
    )


def _add_v(a, b):
    """Sum of two (n0, n1, n2, n3, d) tuples, as one such tuple; not
    normalised.  When one denominator divides the other, only the side
    with the smaller one is rescaled."""
    a0, a1, a2, a3, ad = a
    b0, b1, b2, b3, bd = b
    if ad == bd:
        pass
    elif ad % bd == 0:
        s = ad // bd
        b0, b1, b2, b3 = b0 * s, b1 * s, b2 * s, b3 * s
    elif bd % ad == 0:
        s = bd // ad
        a0, a1, a2, a3, ad = a0 * s, a1 * s, a2 * s, a3 * s, bd
    else:
        a0, a1, a2, a3 = a0 * bd, a1 * bd, a2 * bd, a3 * bd
        b0, b1, b2, b3 = b0 * ad, b1 * ad, b2 * ad, b3 * ad
        ad *= bd
    return (a0 + b0, a1 + b1, a2 + b2, a3 + b3, ad)


def _reduced(n0, n1, n2, n3, d):
    """AlgebraicScalar (n0 + ... + n3*sqrt15) / d, for d > 0."""
    g = math.gcd(d, n0, n1, n2, n3)
    x = _new(AlgebraicScalar)
    if g == 1:
        _set_v(x, (n0, n1, n2, n3, d))
    else:
        _set_v(x, (n0 // g, n1 // g, n2 // g, n3 // g, d // g))
    return x


ALG_ZERO = AlgebraicScalar(0)
ALG_ONE = AlgebraicScalar(1)
SQRT3 = AlgebraicScalar(0, 1)
SQRT5 = AlgebraicScalar(0, 0, 1)
SQRT15 = AlgebraicScalar(0, 0, 0, 1)


def alg(q0, q1=0, q2=0, q3=0):
    return AlgebraicScalar(q0, q1, q2, q3)


def mode_order(k):
    """Sort key of a TrigScalar mode key: by frequency, cosine first."""
    return (abs(k), k < 0)


class _Terms:
    """Sparse sum {key: coefficient in `_ring`}; no stored coefficient is
    zero, so equal values have equal term dicts.

    Only the public constructor, which `coerce` and `const` reach, coerces
    coefficients.  Arithmetic results come from `_made`, which trusts its
    ring-typed coefficients and only drops zeros, as `_reduced` does.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        coerce = self._ring.coerce
        _set_terms(self, {k: v for k, c in terms.items() if not (v := coerce(c)).is_zero()})

    @classmethod
    def _made(cls, terms):
        x = _new(cls)
        _set_terms(x, {k: c for k, c in terms.items() if not c.is_zero()})
        return x

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    @classmethod
    def _lift(cls, x):
        """x as a value of this class; None when x lies outside the tower."""
        if x.__class__ is cls:
            return x
        if isinstance(x, cls._scalars):
            return cls.const(x)
        return None

    @classmethod
    def coerce(cls, x):
        if (y := cls._lift(x)) is None:
            raise TypeError("cannot coerce %r to %s" % (x, cls.__name__))
        return y

    @classmethod
    def const(cls, x):
        return cls({cls._const_key: x})

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return self.terms.keys() <= {self._const_key}

    def const_value(self):
        """The coefficient of the constant term, when no other term occurs."""
        if not self.is_const():
            raise ValueError("not constant: %s" % self)
        return self.terms.get(self._const_key, self._zero)

    def __eq__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else self.terms == other.terms

    def __hash__(self):
        # a constant hashes as its value, which it equals
        return hash(self.const_value()) if self.is_const() else hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if (other := self._lift(other)) is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return self._made(out)

    __radd__ = __add__

    def __neg__(self):
        return self._made({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        other = self._lift(other)
        return NotImplemented if other is None else other + -self

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = self.const(1)
        for _ in range(n):
            out = out * self
        return out

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, self.render())

    def __str__(self):
        return self.render()


_set_terms = _Terms.terms.__set__


class TrigScalar(_Terms):
    """Finite Fourier series in t, one coefficient per mode.

    terms maps k >= 0 to the coefficient of cos(k t) and -k < 0 to the
    coefficient of sin(k t).
    """

    __slots__ = ()
    # coefficient ring and its zero, other types taken as constants, constant key
    _ring, _zero, _const_key = AlgebraicScalar, ALG_ZERO, 0
    _scalars = (*_RATIONALS, AlgebraicScalar)

    @staticmethod
    def cos(n, coeff=1):
        return TrigScalar({abs(n): coeff})

    @staticmethod
    def sin(n, coeff=1):
        if n < 0:
            return -TrigScalar.sin(-n, coeff)
        return TrigScalar({-n: coeff} if n else {})

    def __mul__(self, other):
        if (other := self._lift(other)) is None:
            return NotImplemented
        x, y = self.terms, other.terms
        # a constant factor scales the other operand mode by mode
        if len(y) == 1 and 0 in y:
            x, y = y, x
        if len(x) == 1 and 0 in x:
            c = x[0]
            return TrigScalar._made({k: v * c for k, v in y.items()})
        # product to sum: with m = |j|, n = |k| and h = u*v/2,
        #   cos m cos n = h cos(m-n) + h cos(m+n)
        #   sin m sin n = h cos(m-n) - h cos(m+n)
        #   sin m cos n = h sin(m+n) + h sin(m-n)
        acc = {}
        for j, u in x.items():
            m = abs(j)
            for k, v in y.items():
                n = abs(k)
                h0, h1, h2, h3, hd = _mul_v(u._v, v._v)
                h = _reduced(h0, h1, h2, h3, 2 * hd)
                if (j < 0) == (k < 0):
                    parts = ((abs(m - n), h), (m + n, -h if j < 0 else h))
                else:
                    d = m - n if j < 0 else n - m   # sine minus cosine frequency
                    parts = ((-(m + n), h), (-abs(d), h if d > 0 else -h)) if d else ((-(m + n), h),)
                for key, c in parts:
                    acc[key] = acc[key] + c if key in acc else c
        return TrigScalar._made(acc)

    __rmul__ = __mul__

    def deriv(self):
        """d/dt of the represented function."""
        return TrigScalar._made({-k: c * -k for k, c in self.terms.items() if k})

    def to_float(self, t):
        total = 0
        for k, c in self.terms.items():
            total += c.to_float() * (math.cos(k * t) if k >= 0 else math.sin(-k * t))
        return total

    def render(self):
        parts = []
        for k in sorted(self.terms, key=mode_order):
            part = "(%s)" % self.terms[k].render()
            if k:
                part += "*%s(%st)" % ("cos" if k > 0 else "sin", "" if abs(k) == 1 else abs(k))
            parts.append(part)
        return " + ".join(parts) or "0"


TRIG_ZERO = TrigScalar({})
TRIG_ONE = TrigScalar.const(1)

# theta_k = 2*pi*(k-1)/3; cos(theta_k) and sin(theta_k) lie in Q(sqrt3)
_COS_THETA = {1: ALG_ONE, 2: alg(Fraction(-1, 2)), 3: alg(Fraction(-1, 2))}
_SIN_THETA = {
    1: ALG_ZERO,
    2: alg(0, Fraction(1, 2)),
    3: alg(0, Fraction(-1, 2)),
}


def c_k(k):
    """cos(t + 2*pi*(k-1)/3) expanded over cos t, sin t."""
    return TrigScalar({1: _COS_THETA[k], -1: -_SIN_THETA[k]})


def s_k(k):
    """sin(t + 2*pi*(k-1)/3) expanded over cos t, sin t."""
    return TrigScalar({1: _SIN_THETA[k], -1: _COS_THETA[k]})


# ---------------------------------------------------------------------------
# Polynomials in the ansatz unknowns.

UNKNOWNS = ("lam", "a", "b", "mu")
_UNKNOWN_INDEX = {name: i for i, name in enumerate(UNKNOWNS)}


def _unknown_index(name):
    """The position of name in UNKNOWNS; ValueError naming it otherwise."""
    i = _UNKNOWN_INDEX.get(name)
    if i is None:
        raise ValueError("%r is not an unknown: the unknowns are %s" % (name, ", ".join(UNKNOWNS)))
    return i
_ZERO_EXP = (0, 0, 0, 0)


class ParamPoly(_Terms):
    """Polynomial in (lam, a, b, mu) with TrigScalar coefficients, keyed
    by exponent vectors."""

    __slots__ = ()
    _ring, _zero, _const_key = TrigScalar, TRIG_ZERO, _ZERO_EXP
    _scalars = (*TrigScalar._scalars, TrigScalar)

    def __init__(self, terms):
        super().__init__(terms)
        for exp in self.terms:
            if len(exp) != 4 or any(not isinstance(e, int) or e < 0 for e in exp):
                raise ValueError("bad exponent vector %r" % (exp,))

    @staticmethod
    def unknown(name):
        exp = [0, 0, 0, 0]
        exp[_unknown_index(name)] = 1
        return ParamPoly({tuple(exp): TRIG_ONE})

    def __mul__(self, other):
        if (other := self._lift(other)) is None:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                c = c1 * c2
                out[exp] = out[exp] + c if exp in out else c
        return ParamPoly._made(out)

    __rmul__ = __mul__

    def deriv_t(self):
        return ParamPoly._made({e: c.deriv() for e, c in self.terms.items()})

    def bind(self, bindings):
        """Partially specialize; returns a ParamPoly over the rest.

        The bound unknowns are resolved once per call, and a name that is
        not one of UNKNOWNS raises ValueError.  The work is done on the
        int tuples (n0, n1, n2, n3, d) under AlgebraicScalar, as FLINT's
        fmpq_poly keeps an integer numerator over a common denominator:
        each bound value's powers are grown by one product each, a
        monomial's bound factors make one tuple, and each (remaining
        exponent, mode) sum is one such tuple, an int accumulator.  Nothing is normalised
        on the way; `_reduced` makes each accumulator an AlgebraicScalar
        once, at the end, so a result coefficient costs one gcd.
        """
        bound = []          # (unknown index, [1, val, val**2, ...] as tuples)
        keep = [1, 1, 1, 1]
        for name, value in bindings.items():
            i = _unknown_index(name)
            bound.append((i, [_ONE_V, AlgebraicScalar.coerce(value)._v]))
            keep[i] = 0
        k0, k1, k2, k3 = keep
        out = {}
        for exp, coeff in self.terms.items():
            factor = None
            for i, pw in bound:
                e = exp[i]
                if e:
                    while len(pw) <= e:
                        pw.append(_mul_v(pw[-1], pw[1]))
                    factor = pw[e] if factor is None else _mul_v(factor, pw[e])
            modes = out.setdefault((exp[0] * k0, exp[1] * k1, exp[2] * k2, exp[3] * k3), {})
            for k, c in coeff.terms.items():
                v = c._v if factor is None else _mul_v(c._v, factor)
                modes[k] = _add_v(modes[k], v) if k in modes else v
        return ParamPoly._made({
            exp: TrigScalar._made({k: _reduced(*acc) for k, acc in modes.items()})
            for exp, modes in out.items()
        })

    def degree_in(self, name):
        i = _unknown_index(name)
        return max((exp[i] for exp in self.terms), default=0)

    def coefficient_of(self, name, power):
        """Coefficient ParamPoly of name**power."""
        i = _unknown_index(name)
        return ParamPoly._made({
            exp[:i] + (0,) + exp[i + 1:]: c for exp, c in self.terms.items() if exp[i] == power
        })

    def to_float(self, bindings, t):
        total = 0.0
        for exp, coeff in self.terms.items():
            val = coeff.to_float(t)
            for i, e in enumerate(exp):
                if e:
                    val *= float(bindings[UNKNOWNS[i]]) ** e
            total += val
        return total

    def render(self):
        parts = []
        for exp in sorted(self.terms, key=lambda e: (sum(e), e)):
            coeff = self.terms[exp]
            mono = "*".join(
                name if e == 1 else "%s^%d" % (name, e)
                for name, e in zip(UNKNOWNS, exp)
                if e
            )
            cs = "[%s]" % coeff.render()
            parts.append(cs + "*" + mono if mono else cs)
        return " + ".join(parts) or "0"


POLY_ZERO = ParamPoly({})
LAM = ParamPoly.unknown("lam")
A_UNK = ParamPoly.unknown("a")
B_UNK = ParamPoly.unknown("b")
MU = ParamPoly.unknown("mu")
