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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .drive import coupled_flexion_range, rigid_coupled_flexion
from .errors import PreconditionError, ValidationError
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

    base: np.ndarray
    frames: tuple  # 4 world transforms: swing, proximal, middle, distal
    joint_state: JointState

    def __post_init__(self):
        base = np.array(self.base, dtype=float)
        base.setflags(write=False)
        frames = tuple(np.array(f, dtype=float) for f in self.frames)
        for f in frames:
            f.setflags(write=False)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "frames", frames)

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
    return FingerPoseChain(
        base=np.eye(4) if base is None else base,
        frames=tuple(stack[0] for stack in stacks),
        joint_state=q,
    )


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


def _rounding_ties(tips: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """Rows of ``tips`` with a coordinate ``w`` whose ``'%.9g'`` text may
    change within ``slack`` of ``w``: the interval holds a rounding midpoint
    of 9 significant digits or a decade boundary, or the test itself is not
    finite.  The 9-digit grid of ``|w|`` is ``10**(e - 8)`` with ``e`` its
    decade, so ``|w|`` over the grid lies in ``[1e8, 1e9)`` and the midpoints
    sit at half-integers there; a decade misjudged by ``log10`` falls outside
    that range and counts as a tie.  Every ``|w|`` below ``2e8 * slack``
    (about 2e-4 mm on the stock finger) has grid steps finer than twice the
    slack, so zero and the sign of zero always count as ties.  The distance
    to a midpoint, computed through the rounded grid and quotient, may come
    out up to ``4 e |w|`` too long (``e = 2**-53``), so a coordinate is clear
    only when that distance exceeds the slack by ``4 e |w|``: every value
    within the slack, not just the DH tip, then prints as ``w`` does."""
    a = np.abs(tips)
    with np.errstate(divide="ignore", invalid="ignore"):
        grid = 10.0 ** (np.floor(np.log10(a)) - 8.0)
        r = a / grid
        steps = np.minimum(np.abs(r - np.floor(r) - 0.5), np.minimum(r - 1e8, 1e9 - r))
        clear = steps * grid > slack[:, None] + 2.0**-51 * a
    return ~(clear[:, 0] & clear[:, 1] & clear[:, 2])


def _cloud_tips(qs: np.ndarray, params: FingerParams) -> np.ndarray:
    """Fingertips of a block of joint rows whose ``'%.9g'`` text equals that
    of ``batch_fingertips``: the closed form, except the rows at a 9-digit
    rounding tie (``_rounding_ties``), which take the DH product.  Each row
    depends only on itself, not on the block around it."""
    tips, slack = _closed_form_tips(qs, params)
    ties = _rounding_ties(tips, slack)
    if ties.any():
        tips[ties] = batch_fingertips(qs[ties], params)
    return tips


_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MASK = (1 << 64) - 1

# Rows per block of the workspace path.  Each row's tip and CSV text do not
# depend on the stack they sit in, so the block size changes memory, not bytes.
_BLOCK_ROWS = 4096


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


@dataclass(frozen=True)
class WorkspaceCloud:
    """Monte Carlo fingertip cloud with enough metadata to reproduce it."""

    points: np.ndarray  # (n, 3) mm
    seed: int
    coupled: bool
    joint_limits: tuple

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def count(self) -> int:
        return self.points.shape[0]


def sample_workspace(
    params: FingerParams, n: int, seed: int = 0, coupled: bool = False
) -> WorkspaceCloud:
    """Fingertip cloud from ``n`` i.i.d. uniform joint samples.

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
    few ulp.
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
    for first in range(0, n, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, n - first)
        words = splitmix64_words(seed, first * draws, rows * draws)
        u = (words >> np.uint64(11)).astype(np.float64) * (1.0 / (1 << 53))
        qs = lo + span * u.reshape(rows, draws)
        if coupled:
            q1 = qs[:, 1]
            qs = np.column_stack([qs[:, 0], q1, *rigid_coupled_flexion(q1, coupling)])
        points[first:first + rows] = _cloud_tips(qs, params)
    return WorkspaceCloud(
        points=points, seed=seed, coupled=coupled, joint_limits=limits
    )


def project_workspace(cloud: WorkspaceCloud, plane: str) -> np.ndarray:
    """Orthogonal projection of the cloud onto a coordinate plane, (n, 2)."""
    key = plane.lower()
    if key not in _PLANES:
        raise ValidationError(f"plane must be one of xoy/xoz/yoz, got {plane!r}")
    if cloud.count == 0:
        raise PreconditionError("cannot project an empty workspace cloud")
    i, j = _PLANES[key]
    return cloud.points[:, (i, j)]


def points_to_csv(points: np.ndarray, header: tuple) -> str:
    """CSV text with 9 significant digits, stable across platforms."""
    points = np.asarray(points)
    row = ",".join(["%.9g"] * points.shape[1]) + "\n"
    parts = [",".join(header) + "\n"]
    for first in range(0, len(points), _BLOCK_ROWS):
        block = points[first:first + _BLOCK_ROWS]
        parts.append(row * len(block) % tuple(block.ravel().tolist()))
    return "".join(parts)
