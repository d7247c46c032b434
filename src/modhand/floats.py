"""The package's one float sum (left to right, the same on every interpreter),
its one normalizer, its one Gaussian elimination and its cross product, shared
by the modules that compute on floats."""

import math
import sys
from functools import reduce
from operator import add


def _total(values) -> float:
    """Float sum left to right from 0.0, as ``sum`` adds before Python 3.12."""
    return reduce(add, values, 0.0)


def unit_vector(v) -> tuple | None:
    """``v`` over its length, the square root of its left-to-right sum of
    squares, as a float tuple; None when it is zero or not finite.  A vector
    whose squared norm overflows, underflows or is subnormal is first divided
    by max |v_i|, so every finite nonzero vector has a direction."""
    v = tuple(map(float, v))
    scale = max(map(abs, v))
    if not (scale > 0.0 and all(map(math.isfinite, v))):
        return None
    if not sys.float_info.min <= _total(x * x for x in v) < math.inf:
        v = tuple(x / scale for x in v)
    norm = math.sqrt(_total(x * x for x in v))
    return tuple(x / norm for x in v)


def _cross(u, v) -> tuple:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


def _gauss(aug):
    """Solution of the square system with augmented rows ``aug`` (changed in
    place) by Gaussian elimination with partial pivoting; None when a pivot is
    exactly zero, where an LU factorization reports the matrix singular."""
    n = len(aug)
    for col in range(n):
        best, size = col, abs(aug[col][col])
        for r in range(col + 1, n):
            if abs(aug[r][col]) > size:
                best, size = r, abs(aug[r][col])
        if size == 0.0:
            return None
        pivot_row = aug[best]
        aug[best], aug[col] = aug[col], pivot_row
        pivot, cols = pivot_row[col], range(col + 1, n + 1)
        for row in aug[col + 1:]:
            f = row[col] / pivot
            if f != 0.0:
                for j in cols:
                    row[j] -= f * pivot_row[j]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        row = aug[r]
        s = row[n]
        for j in range(r + 1, n):
            s -= row[j] * x[j]
        x[r] = s / row[r]
    return x
