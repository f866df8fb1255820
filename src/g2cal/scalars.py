"""Exact coefficient arithmetic.

Three rings, stacked:

  AlgebraicScalar -- the real field Q(sqrt3, sqrt5), stored as four
      integers over one positive common denominator,
      (n0 + n1*sqrt3 + n2*sqrt5 + n3*sqrt15) / d.
  TrigScalar      -- finite Fourier series in t with AlgebraicScalar
      coefficients, canonical sparse form.
  ParamPoly       -- polynomials in the formal unknowns (lam, a, b, mu)
      with TrigScalar coefficients.

All values are immutable.  Division is only ever attempted exactly;
an InexactDivision is raised when the quotient leaves the ring.
"""

from __future__ import annotations

import math
from fractions import Fraction


class MissingBinding(KeyError):
    """An occurring unknown was left unbound in a substitution."""


class InexactDivision(ArithmeticError):
    """Exact division failed (quotient not in the ring)."""


_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)
_SQRT15 = math.sqrt(15.0)


class AlgebraicScalar:
    """Element (n0 + n1*sqrt3 + n2*sqrt5 + n3*sqrt15) / d of Q(sqrt3, sqrt5).

    Stored as the int tuple (n0, n1, n2, n3, d) with d > 0 and
    gcd(n0, n1, n2, n3, d) == 1, so each value has one representation
    and equality and hashing compare the tuples.  This is the integer
    numerator-plus-common-denominator form of FLINT's fmpq_poly; all
    arithmetic stays in Python ints.
    """

    __slots__ = ("_v",)

    def __init__(self, q0=0, q1=0, q2=0, q3=0):
        q = (q0, q1, q2, q3)
        for x in q:
            if not isinstance(x, (int, Fraction)):
                raise TypeError("expected int or Fraction, got %r" % (x,))
        d = math.lcm(*(x.denominator for x in q))
        _set_v(self, _reduced(*(x.numerator * (d // x.denominator) for x in q), d)._v)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraicScalar is immutable")

    @staticmethod
    def coerce(x):
        if isinstance(x, AlgebraicScalar):
            return x
        if isinstance(x, (int, Fraction)):
            return _raw((x.numerator, 0, 0, 0, x.denominator))
        raise TypeError("cannot coerce %r to AlgebraicScalar" % (x,))

    @property
    def q(self):
        """The four rational coordinates over 1, sqrt3, sqrt5, sqrt15."""
        n0, n1, n2, n3, d = self._v
        return (Fraction(n0, d), Fraction(n1, d), Fraction(n2, d), Fraction(n3, d))

    def is_zero(self):
        return self._v == _ZERO_V

    def is_rational(self):
        v = self._v
        return not (v[1] or v[2] or v[3])

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("not rational: %s" % self)
        return Fraction(self._v[0], self._v[4])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = AlgebraicScalar.coerce(other)
        elif not isinstance(other, AlgebraicScalar):
            return NotImplemented
        return self._v == other._v

    def __hash__(self):
        return hash(self._v)

    def __add__(self, other):
        if other.__class__ is not AlgebraicScalar:
            other = AlgebraicScalar.coerce(other)
        a0, a1, a2, a3, ad = self._v
        b0, b1, b2, b3, bd = other._v
        if ad == bd:
            return _reduced(a0 + b0, a1 + b1, a2 + b2, a3 + b3, ad)
        return _reduced(
            a0 * bd + b0 * ad, a1 * bd + b1 * ad, a2 * bd + b2 * ad, a3 * bd + b3 * ad,
            ad * bd,
        )

    __radd__ = __add__

    def __neg__(self):
        a0, a1, a2, a3, d = self._v
        return _raw((-a0, -a1, -a2, -a3, d))

    def __sub__(self, other):
        return self + (-AlgebraicScalar.coerce(other))

    def __rsub__(self, other):
        return AlgebraicScalar.coerce(other) + (-self)

    def __mul__(self, other):
        if other.__class__ is not AlgebraicScalar:
            other = AlgebraicScalar.coerce(other)
        a0, a1, a2, a3, ad = self._v
        b0, b1, b2, b3, bd = other._v
        # sqrt3^2 = 3, sqrt5^2 = 5, sqrt3*sqrt5 = sqrt15, sqrt15^2 = 15
        return _reduced(
            a0 * b0 + 3 * a1 * b1 + 5 * a2 * b2 + 15 * a3 * b3,
            a0 * b1 + a1 * b0 + 5 * (a2 * b3 + a3 * b2),
            a0 * b2 + a2 * b0 + 3 * (a1 * b3 + a3 * b1),
            a0 * b3 + a3 * b0 + a1 * b2 + a2 * b1,
            ad * bd,
        )

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
_set_v = AlgebraicScalar._v.__set__
_new = object.__new__


def _raw(v):
    """AlgebraicScalar with the already normalised tuple v; no checks."""
    x = _new(AlgebraicScalar)
    _set_v(x, v)
    return x


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
_HALF = AlgebraicScalar(Fraction(1, 2))


def alg(q0, q1=0, q2=0, q3=0):
    return AlgebraicScalar(q0, q1, q2, q3)


class TrigScalar:
    """Finite sum over n >= 0 of cos(n t) and sin(n t) terms.

    Canonical sparse form: no stored frequency has both coefficients
    zero, and frequency 0 carries no sine part.  Canonical forms are
    unique, so __eq__ decides equality of the represented functions.
    """

    __slots__ = ("terms",)

    def __init__(self, terms):
        clean = {}
        for n, (c, s) in terms.items():
            if n < 0:
                raise ValueError("negative frequency in TrigScalar")
            c = AlgebraicScalar.coerce(c)
            s = AlgebraicScalar.coerce(s)
            if n == 0 and not s.is_zero():
                raise ValueError("sin(0t) coefficient must be zero")
            if c.is_zero() and s.is_zero():
                continue
            clean[n] = (c, s)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TrigScalar is immutable")

    @staticmethod
    def coerce(x):
        if isinstance(x, TrigScalar):
            return x
        if isinstance(x, (int, Fraction, AlgebraicScalar)):
            return TrigScalar.const(x)
        raise TypeError("cannot coerce %r to TrigScalar" % (x,))

    @staticmethod
    def const(a):
        return TrigScalar({0: (AlgebraicScalar.coerce(a), ALG_ZERO)})

    @staticmethod
    def cos(n, coeff=1):
        if n == 0:
            return TrigScalar.const(coeff)
        return TrigScalar({n: (AlgebraicScalar.coerce(coeff), ALG_ZERO)})

    @staticmethod
    def sin(n, coeff=1):
        if n == 0:
            return TrigScalar.const(0)
        return TrigScalar({n: (ALG_ZERO, AlgebraicScalar.coerce(coeff))})

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def const_value(self):
        if self.is_zero():
            return ALG_ZERO
        if not self.is_const():
            raise ValueError("not constant: %s" % self)
        return self.terms[0][0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, AlgebraicScalar)):
            other = TrigScalar.const(other)
        if not isinstance(other, TrigScalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(("trig", tuple(sorted(self.terms.items()))))

    def __add__(self, other):
        other = TrigScalar.coerce(other)
        out = dict(self.terms)
        for n, (c, s) in other.terms.items():
            oc, os = out.get(n, (ALG_ZERO, ALG_ZERO))
            out[n] = (oc + c, os + s)
        return TrigScalar(out)

    __radd__ = __add__

    def __neg__(self):
        return TrigScalar({n: (-c, -s) for n, (c, s) in self.terms.items()})

    def __sub__(self, other):
        return self + (-TrigScalar.coerce(other))

    def __rsub__(self, other):
        return TrigScalar.coerce(other) + (-self)

    def __mul__(self, other):
        other = TrigScalar.coerce(other)
        acc = {}

        def put_cos(n, coeff):
            if n < 0:
                n = -n
            c, s = acc.get(n, (ALG_ZERO, ALG_ZERO))
            acc[n] = (c + coeff, s)

        def put_sin(n, coeff):
            if n < 0:
                n, coeff = -n, -coeff
            if n == 0:
                return
            c, s = acc.get(n, (ALG_ZERO, ALG_ZERO))
            acc[n] = (c, s + coeff)

        for m, (a1, b1) in self.terms.items():
            for n, (a2, b2) in other.terms.items():
                cc = a1 * a2
                if not cc.is_zero():
                    put_cos(m - n, cc * _HALF)
                    put_cos(m + n, cc * _HALF)
                ss = b1 * b2
                if not ss.is_zero():
                    put_cos(m - n, ss * _HALF)
                    put_cos(m + n, -(ss * _HALF))
                cs = a1 * b2
                if not cs.is_zero():
                    put_sin(m + n, cs * _HALF)
                    put_sin(n - m, cs * _HALF)
                sc = b1 * a2
                if not sc.is_zero():
                    put_sin(m + n, sc * _HALF)
                    put_sin(m - n, sc * _HALF)
        return TrigScalar(acc)

    __rmul__ = __mul__

    def deriv(self):
        """d/dt of the represented function."""
        out = {}
        for n, (c, s) in self.terms.items():
            if n == 0:
                continue
            out[n] = (s * n, -(c * n))
        return TrigScalar(out)

    def to_float(self, t):
        total = 0.0
        for n, (c, s) in self.terms.items():
            total += c.to_float() * math.cos(n * t) + s.to_float() * math.sin(n * t)
        return total

    def max_freq(self):
        return max(self.terms) if self.terms else 0

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for n in sorted(self.terms):
            c, s = self.terms[n]
            if not c.is_zero():
                if n == 0:
                    parts.append("(%s)" % c.render())
                else:
                    parts.append("(%s)*cos(%st)" % (c.render(), "" if n == 1 else n))
            if not s.is_zero():
                parts.append("(%s)*sin(%st)" % (s.render(), "" if n == 1 else n))
        return " + ".join(parts)

    def __repr__(self):
        return "TrigScalar(%s)" % self.render()

    def __str__(self):
        return self.render()


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
    return TrigScalar({1: (_COS_THETA[k], -_SIN_THETA[k])})


def s_k(k):
    """sin(t + 2*pi*(k-1)/3) expanded over cos t, sin t."""
    return TrigScalar({1: (_SIN_THETA[k], _COS_THETA[k])})


# ---------------------------------------------------------------------------
# Exact division of trigonometric polynomials, via the Laurent model
# z = exp(i t) over the complexified field.

def _k_add(x, y):
    return (x[0] + y[0], x[1] + y[1])

def _k_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])

def _k_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])

def _k_div(x, y):
    nrm = y[0] * y[0] + y[1] * y[1]
    if nrm.is_zero():
        raise ZeroDivisionError
    inv = nrm.inverse()
    re = (x[0] * y[0] + x[1] * y[1]) * inv
    im = (x[1] * y[0] - x[0] * y[1]) * inv
    return (re, im)

def _k_is_zero(x):
    return x[0].is_zero() and x[1].is_zero()


def _to_laurent(x):
    out = {}
    for n, (c, s) in x.terms.items():
        if n == 0:
            out[0] = _k_add(out.get(0, (ALG_ZERO, ALG_ZERO)), (c, ALG_ZERO))
        else:
            out[n] = _k_add(out.get(n, (ALG_ZERO, ALG_ZERO)), (c * _HALF, -(s * _HALF)))
            out[-n] = _k_add(out.get(-n, (ALG_ZERO, ALG_ZERO)), (c * _HALF, s * _HALF))
    return {m: v for m, v in out.items() if not _k_is_zero(v)}


def _from_laurent(lau):
    terms = {}
    for m, v in lau.items():
        if m < 0:
            continue
        if m == 0:
            if not v[1].is_zero():
                raise InexactDivision("non-real constant term after division")
            terms[0] = (v[0], ALG_ZERO)
        else:
            conj = lau.get(-m, (ALG_ZERO, ALG_ZERO))
            if conj != (v[0], -v[1]):
                raise InexactDivision("non-real quotient after division")
            terms[m] = (v[0] * 2, -(v[1] * 2))
    return TrigScalar(terms)


def trig_div_exact(num, den):
    """Return num/den when den divides num in the trig-polynomial ring."""
    num = TrigScalar.coerce(num)
    den = TrigScalar.coerce(den)
    if den.is_zero():
        raise ZeroDivisionError("division by zero TrigScalar")
    if num.is_zero():
        return TRIG_ZERO
    nl, dl = _to_laurent(num), _to_laurent(den)
    # shift both to ordinary polynomials in z
    nmin, dmin = min(nl), min(dl)
    npoly = {m - nmin: v for m, v in nl.items()}
    dpoly = {m - dmin: v for m, v in dl.items()}
    ndeg, ddeg = max(npoly), max(dpoly)
    if ndeg < ddeg:
        raise InexactDivision("degree too small")
    quot = {}
    rem = dict(npoly)
    lead = dpoly[ddeg]
    while rem:
        rdeg = max(rem)
        if rdeg < ddeg:
            raise InexactDivision("nonzero remainder")
        q = _k_div(rem[rdeg], lead)
        quot[rdeg - ddeg] = q
        for e, v in dpoly.items():
            k = e + rdeg - ddeg
            nv = _k_sub(rem.get(k, (ALG_ZERO, ALG_ZERO)), _k_mul(q, v))
            if _k_is_zero(nv):
                rem.pop(k, None)
            else:
                rem[k] = nv
    shift = nmin - dmin
    return _from_laurent({e + shift: v for e, v in quot.items()})


# ---------------------------------------------------------------------------
# Polynomials in the ansatz unknowns.

UNKNOWNS = ("lam", "a", "b", "mu")
_UNKNOWN_INDEX = {name: i for i, name in enumerate(UNKNOWNS)}
_ZERO_EXP = (0, 0, 0, 0)


class ParamPoly:
    """Polynomial in (lam, a, b, mu) with TrigScalar coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        clean = {}
        for exp, coeff in terms.items():
            coeff = TrigScalar.coerce(coeff)
            if coeff.is_zero():
                continue
            if len(exp) != 4 or any(e < 0 for e in exp):
                raise ValueError("bad exponent vector %r" % (exp,))
            clean[tuple(exp)] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("ParamPoly is immutable")

    @staticmethod
    def coerce(x):
        if isinstance(x, ParamPoly):
            return x
        if isinstance(x, (int, Fraction, AlgebraicScalar, TrigScalar)):
            return ParamPoly.const(x)
        raise TypeError("cannot coerce %r to ParamPoly" % (x,))

    @staticmethod
    def const(x):
        return ParamPoly({_ZERO_EXP: TrigScalar.coerce(x)})

    @staticmethod
    def unknown(name):
        exp = [0, 0, 0, 0]
        exp[_UNKNOWN_INDEX[name]] = 1
        return ParamPoly({tuple(exp): TRIG_ONE})

    def is_zero(self):
        return not self.terms

    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and _ZERO_EXP in self.terms)

    def const_value(self):
        """The TrigScalar value when no unknowns occur."""
        if self.is_zero():
            return TRIG_ZERO
        if not self.is_const():
            raise ValueError("unknowns occur in %s" % self)
        return self.terms[_ZERO_EXP]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, AlgebraicScalar, TrigScalar)):
            other = ParamPoly.const(other)
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(("poly", tuple(sorted(self.terms.items(), key=lambda kv: kv[0]))))

    def __add__(self, other):
        other = ParamPoly.coerce(other)
        out = dict(self.terms)
        for exp, coeff in other.terms.items():
            cur = out.get(exp, TRIG_ZERO) + coeff
            if cur.is_zero():
                out.pop(exp, None)
            else:
                out[exp] = cur
        return ParamPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-ParamPoly.coerce(other))

    def __rsub__(self, other):
        return ParamPoly.coerce(other) + (-self)

    def __mul__(self, other):
        other = ParamPoly.coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2], e1[3] + e2[3])
                cur = out.get(exp, TRIG_ZERO) + c1 * c2
                if cur.is_zero():
                    out.pop(exp, None)
                else:
                    out[exp] = cur
        return ParamPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only non-negative integer powers")
        out = ParamPoly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def deriv_t(self):
        return ParamPoly({e: c.deriv() for e, c in self.terms.items()})

    def occurring_unknowns(self):
        occ = set()
        for exp in self.terms:
            for i, e in enumerate(exp):
                if e:
                    occ.add(UNKNOWNS[i])
        return occ

    def substitute(self, bindings):
        """Specialize every unknown; returns a TrigScalar.

        Raises MissingBinding if an occurring unknown is unbound.
        """
        missing = self.occurring_unknowns() - set(bindings)
        if missing:
            raise MissingBinding(sorted(missing)[0])
        total = TRIG_ZERO
        for exp, coeff in self.terms.items():
            factor = TrigScalar.coerce(coeff)
            for i, e in enumerate(exp):
                if e:
                    val = AlgebraicScalar.coerce(bindings[UNKNOWNS[i]])
                    factor = factor * TrigScalar.const(val ** e)
            total = total + factor
        return total

    def bind(self, bindings):
        """Partially specialize; returns a ParamPoly over the rest."""
        out = {}
        for exp, coeff in self.terms.items():
            factor = coeff
            new_exp = list(exp)
            for i, e in enumerate(exp):
                name = UNKNOWNS[i]
                if e and name in bindings:
                    val = AlgebraicScalar.coerce(bindings[name])
                    factor = factor * TrigScalar.const(val ** e)
                    new_exp[i] = 0
            key = tuple(new_exp)
            cur = out.get(key, TRIG_ZERO) + factor
            if cur.is_zero():
                out.pop(key, None)
            else:
                out[key] = cur
        return ParamPoly(out)

    def degree_in(self, name):
        i = _UNKNOWN_INDEX[name]
        return max((exp[i] for exp in self.terms), default=0)

    def coefficient_of(self, name, power):
        """Coefficient ParamPoly of name**power."""
        i = _UNKNOWN_INDEX[name]
        out = {}
        for exp, coeff in self.terms.items():
            if exp[i] == power:
                e = list(exp)
                e[i] = 0
                out[tuple(e)] = coeff
        return ParamPoly(out)

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
        if not self.terms:
            return "0"
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
        return " + ".join(parts)

    def __repr__(self):
        return "ParamPoly(%s)" % self.render()

    def __str__(self):
        return self.render()


POLY_ZERO = ParamPoly({})
POLY_ONE = ParamPoly.const(1)
LAM = ParamPoly.unknown("lam")
A_UNK = ParamPoly.unknown("a")
B_UNK = ParamPoly.unknown("b")
MU = ParamPoly.unknown("mu")


def _exp_order_key(exp):
    return (sum(exp), exp)


def poly_div_exact(num, den):
    """Exact division in ParamPoly; raises InexactDivision on failure.

    Long division against the leading term in graded-lex order.  The
    trig coefficient ring is an integral domain, so when an exact
    quotient exists every leading-coefficient division is exact too.
    """
    num = ParamPoly.coerce(num)
    den = ParamPoly.coerce(den)
    if den.is_zero():
        raise ZeroDivisionError("division by zero ParamPoly")
    if num.is_zero():
        return POLY_ZERO
    den_lead = max(den.terms, key=_exp_order_key)
    den_lc = den.terms[den_lead]
    quot = {}
    rem = dict(num.terms)
    while rem:
        lead = max(rem, key=_exp_order_key)
        diff = tuple(a - b for a, b in zip(lead, den_lead))
        if any(d < 0 for d in diff):
            raise InexactDivision("monomial %r not divisible" % (lead,))
        qc = trig_div_exact(rem[lead], den_lc)
        quot[diff] = quot.get(diff, TRIG_ZERO) + qc
        for e, c in den.terms.items():
            k = tuple(a + b for a, b in zip(e, diff))
            cur = rem.get(k, TRIG_ZERO) - qc * c
            if cur.is_zero():
                rem.pop(k, None)
            else:
                rem[k] = cur
    return ParamPoly(quot)
