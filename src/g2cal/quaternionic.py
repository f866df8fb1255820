"""The wedge product of Im H-valued forms.

An Im H-valued form is the triple (i, j, k) of its Forms.  Wedging two of
them multiplies the values as quaternions, u v = -u.v + u x v, so the
product has a real part as well.
"""

from __future__ import annotations


def quat_wedge(x, y):
    """(real, i, j, k) of x ^ y for Im H-valued forms x and y:
    real = -sum x_k ^ y_k, and component k = x_i ^ y_j - x_j ^ y_i for
    (i, j, k) a cyclic permutation of the units."""
    x1, x2, x3 = x
    y1, y2, y3 = y
    return (
        -(x1.wedge(y1) + x2.wedge(y2) + x3.wedge(y3)),
        x2.wedge(y3) - x3.wedge(y2),
        x3.wedge(y1) - x1.wedge(y3),
        x1.wedge(y2) - x2.wedge(y1),
    )
