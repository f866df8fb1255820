"""Quaternion-valued forms and their wedge product."""

from __future__ import annotations

from .exterior import Form, ext_d


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
    return QuatForm(*(Form.zero(x.gens, deg) if f is None else f for f in acc))

