"""Independent references the benchmark checks the program's outputs against.

Nothing here calls into modhand's kinematics: the splitmix64 stream is
evaluated in counter form (the state after k steps is seed + k * gamma mod
2^64, so any row of a workspace cloud can be regenerated on its own), and the
fingertip comes from the closed-form planar chain plus swing that the README
documents, not from the link-transform product the program uses.
"""

from __future__ import annotations

import math

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def splitmix64(seed: int, k: int) -> int:
    """The k-th output word (1-based) of the splitmix64 stream from ``seed``."""
    z = (seed + k * _GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def uniform(seed: int, k: int, lo: float, hi: float) -> float:
    """The k-th draw on [lo, hi), from the top 53 bits of the k-th word."""
    u = splitmix64(seed, k) >> 11
    return lo + (hi - lo) * (u * (1.0 / (1 << 53)))


def subseed(seed: int, index: int) -> int:
    """Seed of finger ``index`` in a hand workspace: word index + 1."""
    return splitmix64(seed, index + 1)


def workspace_joints(seed: int, row: int, limits, coupled_line=None):
    """Joint vector (aa, q1, q2, q3) of cloud row ``row``.

    ``coupled_line`` is None for free sampling (four draws a row) or
    ``(lo, hi, r0, r1, r2)`` for sampling on the rigid coupling line (two
    draws a row: swing, then the MCP angle).
    """
    if coupled_line is None:
        base = 4 * row
        return tuple(
            uniform(seed, base + j + 1, limits[j][0], limits[j][1]) for j in range(4)
        )
    lo, hi, r0, r1, r2 = coupled_line
    aa = uniform(seed, 2 * row + 1, limits[0][0], limits[0][1])
    q1 = uniform(seed, 2 * row + 2, lo, hi)
    return aa, q1, q1 * r1 / r0, q1 * r2 / r0


def fingertip(joints, links) -> tuple:
    """Fingertip (x, y, z) in the finger base frame, mm.

    The flexion joints form a planar chain in the swing frame; the swing
    turns that plane about base +y, positive swing toward -z.
    """
    aa, q1, q2, q3 = joints
    c1, c2, c3 = q1, q1 + q2, q1 + q2 + q3
    u = links[0] * math.cos(c1) + links[1] * math.cos(c2) + links[2] * math.cos(c3)
    v = links[0] * math.sin(c1) + links[1] * math.sin(c2) + links[2] * math.sin(c3)
    return u * math.cos(aa), v, -u * math.sin(aa)


def matches_9_digits(got: float, want: float) -> bool:
    """True when ``got`` is ``want`` printed to 9 significant digits.

    Rounding to 9 digits moves a value by at most half a unit in the ninth
    digit; the absolute floor covers the last-ulp difference between the two
    FK formulas on coordinates that are nearly zero.
    """
    return abs(got - want) <= 5.000001e-9 * abs(want) + 1e-12
