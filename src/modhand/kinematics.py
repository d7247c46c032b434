"""Forward kinematics and Monte Carlo workspace analysis.

Frame convention (documented so independent implementations can reproduce
the clouds exactly):

* base x: distal direction of the straight finger
* base y: palmar curl direction; positive flexion moves the tip toward +y
* base z: lateral axis completing the right-handed frame

The composite proximal joint rotates first about the palm normal (+y at the
joint, positive swing toward -z), then three parallel-axis flexion joints
follow.  The chain is evaluated with standard four-parameter link transforms:
a 90 degree twist takes the swing axis into the flexion axes, and each
flexion link carries its phalanx length.  That product defines every frame
and tip.

Workspace clouds evaluate the same tips in closed form (planar chain, then
the swing), which costs a fraction of the 4 x 4 products.  The two agree to a
few ulp, not bit for bit, so a cloud row whose 9-significant-digit text
could differ between them (a coordinate near a rounding midpoint or a
decade boundary) takes the DH product instead: cloud CSVs are byte for byte
the DH chain's.

One tie rule (``_rounding_ties``) serves tips and text.  CSV text is
``'%.9g'`` value by value: off the ties the digits come from integer
arithmetic and digit tables, and only the values at a tie go through
``'%.9g'`` itself.

The pose chains returned here are built final, their frames made read-only
where they are computed, and clouds are read-only (n, 3) arrays: nothing
copies or checks them again.
"""

from __future__ import annotations

import functools
import os
import threading
from dataclasses import dataclass

import numpy as np

from .drive import coupled_flexion_range, rigid_coupled_flexion
from .errors import ValidationError
from .params import FingerParams, JointState

# Fixed alignment from the first link frame to the base convention above.
_BASE_ALIGN = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)

_PLANES = {"xoy": (0, 1), "xoz": (0, 2), "yoz": (1, 2)}


@dataclass(frozen=True)
class FingerPoseChain:
    """Rigid frames of one finger at a given joint state.

    ``frames`` holds the world pose after each joint in order (composite
    joint after the swing, then each flexion link with its origin at the far
    end of the phalanx), so consecutive origins span the phalanx segments.
    """

    frames: tuple  # 4 world transforms: swing, proximal, middle, distal
    joint_state: JointState

    @property
    def tip(self) -> np.ndarray:
        return self.frames[3][:3, 3]

    def joint_positions(self) -> np.ndarray:
        """Stacked positions of the composite joint, the two inter-phalanx
        joints, and the fingertip (4 x 3, mm)."""
        return np.stack(
            [self.frames[0][:3, 3]] + [f[:3, 3] for f in self.frames[1:]]
        )

    def segments(self):
        """Phalanx axis segments proximal to distal: ((p0, p1), ...)."""
        pts = self.joint_positions()
        return ((pts[0], pts[1]), (pts[1], pts[2]), (pts[2], pts[3]))


def _chain(qs: np.ndarray, params: FingerParams, base: np.ndarray | None):
    """World transforms after each joint for an (n, 4) array of joint states:
    four (n, 4, 4) stacks (swing, proximal, middle, distal).

    Each link multiplies the stack by its standard four-parameter transform:
    rotate theta about z, length a along x, twist alpha about x.
    """
    n = qs.shape[0]
    chain = np.broadcast_to(
        (_BASE_ALIGN if base is None else np.asarray(base) @ _BASE_ALIGN), (n, 4, 4)
    )
    specs = [
        (qs[:, 0], 0.0, np.pi / 2),
        (qs[:, 1], params.link_lengths[0], 0.0),
        (qs[:, 2], params.link_lengths[1], 0.0),
        (qs[:, 3], params.link_lengths[2], 0.0),
    ]
    stacks = []
    for theta, a, alpha in specs:
        ct, st = np.cos(theta), np.sin(theta)
        ca, sa = np.cos(alpha), np.sin(alpha)
        step = np.zeros((n, 4, 4))
        step[:, 0, 0] = ct
        step[:, 0, 1] = -st * ca
        step[:, 0, 2] = st * sa
        step[:, 0, 3] = a * ct
        step[:, 1, 0] = st
        step[:, 1, 1] = ct * ca
        step[:, 1, 2] = -ct * sa
        step[:, 1, 3] = a * st
        step[:, 2, 1] = sa
        step[:, 2, 2] = ca
        step[:, 3, 3] = 1.0
        chain = chain @ step
        stacks.append(chain)
    return stacks


def forward_kinematics(
    q: JointState, params: FingerParams, base: np.ndarray | None = None
) -> FingerPoseChain:
    """Pose chain of the 4-DoF finger at joint state ``q``: the one-row case
    of the stacked chain.

    ``base`` is an optional world transform of the finger root (4 x 4).
    """
    stacks = _chain(np.array([q.as_array()]), params, base)
    for stack in stacks:
        stack.setflags(write=False)
    return FingerPoseChain(tuple(stack[0] for stack in stacks), q)


def batch_fingertips(
    qs: np.ndarray, params: FingerParams, base: np.ndarray | None = None
) -> np.ndarray:
    """Fingertip positions for an (n, 4) array of joint states, (n, 3) mm."""
    return _chain(np.asarray(qs, dtype=float), params, base)[-1][:, :3, 3]


def _closed_form_tips(qs: np.ndarray, params: FingerParams) -> tuple:
    """Fingertips of an (n, 4) block of joint rows in closed form, and per
    row a slack that bounds their distance from ``batch_fingertips``'s.

    The tip is ``(u cos q_aa, v, -u sin q_aa)`` with ``u`` and ``v`` the
    sums of ``L_i cos c_i`` and ``L_i sin c_i`` over the cumulative flexion
    angles ``c_i``.  Forward error bound, to first order in the unit
    roundoff ``e = 2**-53``, with ``R = L_1 + L_2 + L_3``, ``S = |q1| + |q2|
    + |q3|`` and each libm cosine or sine within ``t = 2e`` (2 ulp of a
    value at most 1):

    * closed form: rounding the angle sums moves ``c_i`` by at most ``2eS``;
      with the cosines, three products and two sums ``u`` and ``v`` are off
      by at most ``R (t + 2eS + 3e)``, and the swing factor adds ``R (t +
      e)``: at most ``R (2t + 2eS + 4e)`` per coordinate;
    * DH product: each link transform's rotation is off by ``2t + 2e`` in
      Frobenius norm (its cosines, sines and the rounded 90 degree twist),
      and each 4 x 4 product adds ``9e`` to the rotation (``gamma_3`` times
      entries of orthonormal rows and columns), so the rotation that carries
      flexion link ``j`` is off by ``j (2t + 11e)``.  Link ``j`` then moves
      the tip by its length ``L_j`` along a direction off by that much, plus
      ``sqrt(2) L_j (t + e)`` from its rounded offset and ``3e (sqrt(3) L_j
      + |p_j|)`` from the product's sums, with ``p_j`` the position it
      starts from (``p_1 = 0``, ``|p_2| + |p_3| <= 2R``).  Summed over the
      three links: at most ``R (7.42 t + 45.6 e)``.

    Together ``R e (2S + 68.5)`` with ``t = 2e``.  The slack returned is
    ``R e (2S + 80)``, which also covers the ``4 e |w|`` that
    ``_rounding_ties`` may lose on a coordinate ``w`` and the second-order
    terms, plus ``64`` of the smallest subnormal for the absolute rounding
    of underflowing products.
    """
    swing, q1, q2, q3 = qs.T
    c2 = q1 + q2
    flexion = np.stack([q1, c2, c2 + q3])
    cos, sin = np.cos(flexion), np.sin(flexion)
    l1, l2, l3 = params.link_lengths
    u = l1 * cos[0] + l2 * cos[1] + l3 * cos[2]
    v = l1 * sin[0] + l2 * sin[1] + l3 * sin[2]
    tips = np.column_stack([u * np.cos(swing), v, -(u * np.sin(swing))])
    spread = np.abs(q1) + np.abs(q2) + np.abs(q3)
    slack = (l1 + l2 + l3) * 2.0**-53 * (2.0 * spread + 80.0) + 64 * 5e-324
    return tips, slack


def _rounding_ties(values: np.ndarray, slack) -> tuple:
    """Per coordinate ``w`` of ``values``: whether its ``'%.9g'`` text may
    change within ``slack`` of ``w`` (a number or an array that broadcasts
    against ``values``), with the decade ``e`` of ``|w|`` and ``r = |w| / 10**(e -
    8)``, its quotient by the 9-digit grid.

    A tie is a coordinate whose interval holds a rounding midpoint of 9
    significant digits or a decade boundary, or whose test is not finite.
    ``r`` lies in ``[1e8, 1e9)`` and the midpoints sit at half-integers
    there; a decade misjudged by ``log10`` falls outside that range and
    counts as a tie.  Every ``|w|`` below ``2e8 * slack`` (about 2e-4 mm on
    the stock finger) has grid steps finer than twice the slack, so zero and
    the sign of zero always count as ties.  The distance to a midpoint,
    computed through the rounded grid and quotient, may come out up to ``4 e
    |w|`` too long (``e = 2**-53``), so a coordinate is clear only when that
    distance exceeds the slack by ``4 e |w|``: every value within the slack,
    not just ``w``, then prints as ``w`` does, and ``rint(r)`` is the 9-digit
    mantissa of ``w``.  The one rule serves tips and text: ``_cloud_tips``
    takes the DH product for the rows with a tie, and ``points_to_csv``, at
    zero slack, hands the tie values alone to ``'%.9g'``."""
    a = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(a))
        grid = 10.0 ** (e - 8.0)
        r = a / grid
        steps = np.minimum(np.abs(r - np.floor(r) - 0.5), np.minimum(r - 1e8, 1e9 - r))
        clear = steps * grid > slack + 2.0**-51 * a
    return ~clear, e, r


def _cloud_tips(qs: np.ndarray, params: FingerParams) -> np.ndarray:
    """Fingertips of a block of joint rows whose ``'%.9g'`` text equals that
    of ``batch_fingertips``: the closed form, except the rows at a 9-digit
    rounding tie (``_rounding_ties``), which take the DH product.  Each row
    depends only on itself, not on the block around it."""
    tips, slack = _closed_form_tips(qs, params)
    ties = _rounding_ties(tips, slack[:, None])[0]
    ties = ties[:, 0] | ties[:, 1] | ties[:, 2]
    if ties.any():
        tips[ties] = batch_fingertips(qs[ties], params)
    return tips


_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MASK = (1 << 64) - 1

# Rows per block of the workspace path.  Each row's tip and CSV text do not
# depend on the stack they sit in, so the block size and the worker that runs
# a block change memory and time, not bytes.
_BLOCK_ROWS = 4096

_pool = None  # the block pool, built by ``_block_pool`` on first use
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """Drop the pool in a forked child, which has none of its threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _block_pool():
    """The module's block pool: one worker thread per CPU this process may
    use.  numpy's ufuncs release the interpreter lock, so blocks on different
    workers overlap.  Built on first use, since importing
    ``concurrent.futures`` alone costs several milliseconds."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            try:
                workers = len(os.sched_getaffinity(0))
            except AttributeError:  # a platform without CPU affinity
                workers = os.cpu_count() or 1
            _pool = ThreadPoolExecutor(workers, thread_name_prefix="modhand-block")
        return _pool


def _map_blocks(fn, n: int):
    """``fn(first, rows)`` on each ``_BLOCK_ROWS``-row block of ``n`` rows:
    an iterator of the results in row order.  One block runs in the calling
    thread; more run on the block pool, and each result is yielded once it
    and every block before it are done."""
    firsts = range(0, n, _BLOCK_ROWS)
    rows = [min(_BLOCK_ROWS, n - first) for first in firsts]
    if len(rows) <= 1:
        return map(fn, firsts, rows)
    return _block_pool().map(fn, firsts, rows)


def splitmix64_words(seed: int, start: int, count: int) -> np.ndarray:
    """Words ``start + 1`` .. ``start + count`` of the splitmix64 stream from
    ``seed`` (uint64; the first word of the stream is word 1).

    The splitmix64 state after k steps is ``seed + k * gamma mod 2**64``, so
    the stream is evaluated in counter form and any range of it stands alone.
    """
    k = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(int(seed) & _MASK) + k * _GAMMA
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def derive_subseed(seed: int, index: int) -> int:
    """Sub-seed of finger ``index`` of a hand cloud: word ``index + 1`` of
    the master seed's stream, computed in O(1)."""
    return int(splitmix64_words(seed, index, 1)[0])


def sample_workspace(
    params: FingerParams, n: int, seed: int = 0, coupled: bool = False
) -> np.ndarray:
    """Fingertip cloud from ``n`` i.i.d. uniform joint samples: a read-only
    (n, 3) float array, mm.

    Per sample the stream is consumed in a fixed order: swing angle, then
    each flexion angle (free mode), or swing angle then the single coupled
    flexion parameter (coupled mode).  Each draw is ``lo + (hi - lo) * u``
    with ``u`` the top 53 bits of one word over 2**53.  The stream is
    evaluated in counter form, so row i depends only on the seed and i: the
    first m points of a run are exactly the m-point run with the same seed,
    and any row range can be regenerated on its own.

    Tips come from ``_cloud_tips``: the closed form, with the DH product of
    ``batch_fingertips`` for the rows at a 9-digit rounding tie (a few per
    thousand on the stock finger).  So the points print with ``'%.9g'``
    exactly as the DH tips do, while their bits may differ from them by a
    few ulp.  Blocks of ``_BLOCK_ROWS`` rows run on the block pool
    (``_map_blocks``), each writing only its own rows.
    """
    if n < 1:
        raise ValidationError("sample count n must be >= 1")
    limits = params.joint_limits
    if coupled:
        coupling = params.coupling_model()
        bounds = np.array([limits[0], coupled_flexion_range(params)])
    else:
        bounds = np.array(limits)
    lo, span = bounds[:, 0], bounds[:, 1] - bounds[:, 0]
    draws = len(bounds)
    points = np.empty((n, 3))

    def block(first, rows):
        words = splitmix64_words(seed, first * draws, rows * draws)
        u = (words >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
        qs = lo + span * u.reshape(rows, draws)
        if coupled:
            q1 = qs[:, 1]
            qs = np.column_stack([qs[:, 0], q1, *rigid_coupled_flexion(q1, coupling)])
        points[first:first + rows] = _cloud_tips(qs, params)

    for _ in _map_blocks(block, n):
        pass
    points.setflags(write=False)
    return points


def project_workspace(points: np.ndarray, plane: str) -> np.ndarray:
    """Orthogonal projection of an (n, 3) cloud onto a coordinate plane,
    (n, 2)."""
    key = plane.lower()
    if key not in _PLANES:
        raise ValidationError(f"plane must be one of xoy/xoz/yoz, got {plane!r}")
    i, j = _PLANES[key]
    return points[:, (i, j)]


@functools.cache
def _digit_words() -> tuple:
    """The 4-digit chunks 0000 .. 9999 as ASCII words, one ``uint32`` each,
    in four tables: all digits, leading zeros blanked to NUL, leading zeros
    blanked except the units digit, and trailing zeros blanked."""
    digits = np.arange(10_000)[:, None] // 10 ** np.arange(3, -1, -1) % 10
    chars = (digits + ord("0")).astype(np.uint8)
    leading = np.cumsum(digits, axis=1) == 0
    trailing = np.cumsum(digits[:, ::-1], axis=1)[:, ::-1] == 0

    def words(blank):
        return np.where(blank, np.uint8(0), chars).view(np.uint32)[:, 0]

    return words(False), words(leading), words(leading & [True, True, True, False]), words(trailing)


_POWERS_OF_TEN = 10 ** np.arange(10, dtype=np.int64)

# The text slot of one CSV value: sign, integer part in two 4-digit chunks,
# point, fraction in three, separator.  The NUL bytes are dropped from the
# text, and a value that goes through ``'%.9g'`` has that text written over
# everything but the separator.
_TEXT_SLOT = np.dtype({
    "names": ["sign", "int_hi", "int_lo", "point", "frac_1", "frac_2", "frac_3", "sep", "text"],
    "formats": ["u1", "u4", "u4", "u1", "u4", "u4", "u4", "u1", "S22"],
    "offsets": [0, 1, 5, 9, 10, 14, 18, 22, 0],
    "itemsize": 23,
})


def _csv_block(block: np.ndarray) -> bytes:
    """CSV lines of the rows of ``block``, as ``points_to_csv`` writes them."""
    digits, leading, units, trailing = _digit_words()
    ties, e, r = _rounding_ties(block, 0.0)
    fast = ~ties & (e >= -4.0) & (e <= 5.0)
    shift = np.where(fast, e + 4.0, 0.0).astype(np.intp)
    fixed = np.where(fast, np.rint(r), 0.0).astype(np.int64) * _POWERS_OF_TEN[shift]
    whole, frac = np.divmod(fixed, 10**12)
    hi, lo = np.divmod(whole, 10**4)
    frac_12, frac_3 = np.divmod(frac, 10**4)
    frac_1, frac_2 = np.divmod(frac_12, 10**4)
    slots = np.empty(block.shape, _TEXT_SLOT)
    slots["sign"] = np.signbit(block) * np.uint8(ord("-"))
    slots["int_hi"] = leading[hi]
    slots["int_lo"] = np.where(hi > 0, digits[lo], units[lo])
    slots["point"] = (frac > 0) * np.uint8(ord("."))
    slots["frac_1"] = np.where(frac_2 | frac_3, digits[frac_1], trailing[frac_1])
    slots["frac_2"] = np.where(frac_3, digits[frac_2], trailing[frac_2])
    slots["frac_3"] = trailing[frac_3]
    slots["sep"] = ord(",")
    slots["sep"][:, -1] = ord("\n")
    if not fast.all():
        slots["text"][~fast] = ["%.9g" % w for w in block[~fast].tolist()]
    return slots.tobytes().translate(None, b"\0")


def points_to_csv(points: np.ndarray, header: tuple, out) -> None:
    """Write the CSV text of ``points`` with 9 significant digits, ``'%.9g'``
    of each value, stable across platforms, to the binary stream ``out``.

    A value clear of every 9-digit rounding tie (``_rounding_ties`` at zero
    slack) with ``1e-4 <= |w| < 1e6`` is written from integer digits: its
    9-digit mantissa ``rint(r)`` times ``10**(e + 4)`` is ``|w|``, rounded to
    9 digits, times ``10**12`` on int64, whose 4-digit chunks are looked up
    in ``_digit_words``.  The
    other values, the ties, zero, the other decades and the non-finite,
    go through ``'%.9g'``.

    Blocks of ``_BLOCK_ROWS`` rows are formatted on the block pool
    (``_map_blocks``), and each block's bytes are written in row order as
    soon as they are ready, so the whole text is never held.
    """
    points = np.asarray(points, dtype=float)
    out.write((",".join(header) + "\n").encode())
    for text in _map_blocks(lambda first, rows: _csv_block(points[first:first + rows]),
                            len(points)):
        out.write(text)
