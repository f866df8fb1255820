"""Quaternions over the exact field, quaternion-valued forms, and the
unit-quaternion conjugation matrix realizing the double cover of SO(3).
"""

from __future__ import annotations

from .scalars import AlgebraicScalar, ALG_ZERO, ALG_ONE
from .exterior import Form, ext_d


class NotUnit(ValueError):
    """A unit quaternion was required."""


class Quaternion:
    """q0 + q1 i + q2 j + q3 k with AlgebraicScalar components."""

    __slots__ = ("c",)

    def __init__(self, q0=0, q1=0, q2=0, q3=0):
        object.__setattr__(
            self,
            "c",
            tuple(AlgebraicScalar.coerce(x) for x in (q0, q1, q2, q3)),
        )

    def __setattr__(self, name, value):
        raise AttributeError("Quaternion is immutable")

    def __eq__(self, other):
        if not isinstance(other, Quaternion):
            return NotImplemented
        return self.c == other.c

    def __hash__(self):
        return hash(("quat", self.c))

    def __add__(self, other):
        a, b = self.c, other.c
        return Quaternion(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])

    def __neg__(self):
        a = self.c
        return Quaternion(-a[0], -a[1], -a[2], -a[3])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, AlgebraicScalar)):
            s = AlgebraicScalar.coerce(other)
            return Quaternion(*(x * s for x in self.c))
        a0, a1, a2, a3 = self.c
        b0, b1, b2, b3 = other.c
        return Quaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    __rmul__ = __mul__

    def conjugate(self):
        a = self.c
        return Quaternion(a[0], -a[1], -a[2], -a[3])

    def norm_sq(self):
        return sum((x * x for x in self.c), ALG_ZERO)

    def __repr__(self):
        return "Quaternion(%s, %s, %s, %s)" % tuple(x.render() for x in self.c)


# multiplication table on units (1, i, j, k): _UNIT_MUL[u][v] = (sign, unit)
_UNIT_MUL = (
    ((1, 0), (1, 1), (1, 2), (1, 3)),
    ((1, 1), (-1, 0), (1, 3), (-1, 2)),
    ((1, 2), (-1, 3), (-1, 0), (1, 1)),
    ((1, 3), (1, 2), (-1, 1), (-1, 0)),
)


class QuatForm:
    """Quaternion-valued form: four Forms (real, i, j, k components)."""

    __slots__ = ("components",)

    def __init__(self, real, x, y, z):
        comps = (real, x, y, z)
        for f in comps:
            if f.gens != comps[0].gens:
                raise ValueError("components over different coframes")
        object.__setattr__(self, "components", comps)

    def __setattr__(self, name, value):
        raise AttributeError("QuatForm is immutable")

    @staticmethod
    def vector(x, y, z):
        """Vector-valued (imaginary) form: real component is zero."""
        return QuatForm(Form.zero(x.gens, x.degree), x, y, z)

    @property
    def gens(self):
        return self.components[0].gens

    def real_part(self):
        return self.components[0]

    def imag(self):
        """The vector part as a QuatForm with zero real component."""
        r, x, y, z = self.components
        return QuatForm(Form.zero(r.gens, r.degree), x, y, z)

    def is_zero(self):
        return all(f.is_zero() for f in self.components)

    def is_vector_valued(self):
        return self.components[0].is_zero()

    def __eq__(self, other):
        if not isinstance(other, QuatForm):
            return NotImplemented
        return all(a == b for a, b in zip(self.components, other.components))

    def __add__(self, other):
        return QuatForm(*(a + b for a, b in zip(self.components, other.components)))

    def __neg__(self):
        return QuatForm(*(-a for a in self.components))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return QuatForm(*(f.scale(c) for f in self.components))

    def d(self, cf):
        return QuatForm(*(ext_d(f, cf) for f in self.components))


def quat_wedge(x, y):
    """Wedge combined with quaternion multiplication of the values."""
    zero_by_degree = {}
    gens = x.gens

    def zero(deg):
        if deg not in zero_by_degree:
            zero_by_degree[deg] = Form.zero(gens, deg)
        return zero_by_degree[deg]

    acc = [None, None, None, None]
    for u, fu in enumerate(x.components):
        if fu.is_zero():
            continue
        for v, fv in enumerate(y.components):
            if fv.is_zero():
                continue
            sign, unit = _UNIT_MUL[u][v]
            w = fu.wedge(fv)
            if sign < 0:
                w = -w
            acc[unit] = w if acc[unit] is None else acc[unit] + w
    deg = x.components[0].degree + y.components[0].degree
    return QuatForm(*(zero(deg) if f is None else f for f in acc))


def so3_matrix(a):
    """Matrix of v -> a v conj(a) on Im(H), for a unit quaternion.

    Orthogonal with determinant 1; a group homomorphism realizing the
    double cover of SO(3) by unit quaternions.
    """
    if a.norm_sq() != ALG_ONE:
        raise NotUnit("quaternion must have unit norm, got |a|^2 = %s" % a.norm_sq())
    units = (
        Quaternion(0, 1, 0, 0),
        Quaternion(0, 0, 1, 0),
        Quaternion(0, 0, 0, 1),
    )
    abar = a.conjugate()
    cols = [a * u * abar for u in units]
    # entry (i, j): i-th imaginary component of a e_j conj(a)
    return [[cols[j].c[i + 1] for j in range(3)] for i in range(3)]

