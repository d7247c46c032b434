"""Quasi-static adaptive enveloping against rigid objects.

Equilibrium model: the flexion joints settle where the elastic energy of the
transmission (one serial element, three parallel elements) is minimal subject
to non-penetration against the object and the joint limits.  The energy is a
convex quadratic in the joint angles.  Each outer step detects and linearizes
the contacts at the iterate and solves one small QP exactly by active-set
enumeration, until a point meets the stationarity and complementarity
tolerances on the true (curved) gaps.  The QP's Hessian carries the
Lagrangian curvature of the rows the previous QP rested on, weighted by its
multipliers (a sweep step's first QP takes those that certified the step
before), so a contact sliding on a curved surface does not stall.  No outer
step lets a phalanx pass through the object: conservative advancement bounds
the phalanges not yet near it, a trust radius the linearized ones.

The drive coordinate ``a`` is the serial coordinate of the flexion chain (the
flexion mode of the knuckle differential); the swing angle is held fixed
during a sweep.  So the chain is planar in the swing frame, which a sweep
builds once with the object in its coordinates and the stiffness blocks.  One
pass of closed forms in the cumulative flexion angles (``_kernel``) gives
every gap with its gradient and Hessian; the Hessians enter only the QP
model, and the certification that accepts a point is first-order.  Each
iterate is evaluated once, into a record (``_Hits``) whose one scan also finds
the candidates and the least gap; it travels with the iterate to the QP, the
certification, the reported contacts and the next sweep step.  Contacts are
mapped to world coordinates only when reported.

The solver runs on float triples and row tuples, as the kernel does: its
matrices are at most 6x6, so a numpy call would cost more than its few dozen
flops, and its 3-vector arithmetic is written out on local floats.  H is
ill-conditioned, so each KKT system is solved in full space by Gaussian
elimination with partial pivoting; the QP tries the rows its last solve
rested on first, then the subsets nearest them.  One Gram-Schmidt pass
decides which of those rows are independent, for certification's fit and the
curved model alike, whose eigenproblems (at most 2x2, on the active rows'
null space) are closed forms.  The stiffness blocks arrive as float tuples
and the swing frame is built on floats; this module imports no numpy and no
``kinematics`` (the package loader ``_lazy`` binds ``forward_kinematics``).

Input records validate (``RigidObject``); the result records (``Contact``,
``TraceStep``, ``EquilibriumTrace``) are built final, with tuple fields.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from itertools import chain, combinations
from operator import add, mul, neg, sub
from typing import NamedTuple

from . import _lazy
from .errors import (
    InfeasibleStartError,
    ModhandError,
    NonConvergedError,
    PreconditionError,
    SweepError,
    ValidationError,
)
from .floats import _cross, _gauss, _total, unit_vector
from .params import FingerParams, JointState
from .ucm import TransmissionState, stiffness_matrices, transmission_state

ACTIVATION_THRESHOLD = 0.5   # mm, gap below which a contact becomes a candidate
PENETRATION_TOL = 1e-6       # mm, deepest acceptable penetration at a solution
COMPLEMENTARITY_TOL = 1e-6   # N*mm, |force * gap| bound per contact
RECOVERY_TOL = 0.1           # mm, initial penetration the solver will push out
TOUCH_TOL = 1e-7             # mm, gap at or below which surfaces touch
KKT_REL_TOL = 1e-8
QP_TOL = 1e-9                # slack of the QP's feasibility and multiplier-sign tests
QP_REFINE_RATIO = 16.0       # a KKT row's multiplier to x-and-c terms that refines its solve
MAX_OUTER = 20
ADVANCE_FRACTION = 0.9       # share of a free phalanx's gap one advance may close
ADVANCE_STEPS = 64           # advances per outer step, each re-measuring the gaps

# Hessian entries (k, l), k <= l <= i, that phalanx i's gap depends on.
_PAIRS = tuple(tuple((k, l) for k in range(i + 1) for l in range(k, i + 1)) for i in range(3))
# Joint-limit rows of the QP by key: x_j >= lo_j (0-2), then -x_j >= -hi_j (3-5).
_BOX_ROWS = dict(enumerate(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                            (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0))))


# Loaded on first access for bench/tracer.py's wrap point; grasp never calls it.
__getattr__ = _lazy(globals(), {"forward_kinematics": "kinematics"})


@dataclass(frozen=True)
class RigidObject:
    """Rigid obstacle: a sphere or a half-space.  A half-space occupies the
    side opposite its outward normal, which must be nonzero and is stored
    normalized."""

    shape: str
    center: tuple = (0.0, 0.0, 0.0)
    radius: float = 0.0
    point: tuple = (0.0, 0.0, 0.0)
    normal: tuple = (0.0, 1.0, 0.0)

    def __post_init__(self):
        if self.shape not in ("sphere", "half_space"):
            raise ValidationError(f"unknown object shape {self.shape!r}")
        if self.shape == "sphere":
            if not (math.isfinite(self.radius) and self.radius > 0):
                raise ValidationError("sphere radius must be strictly positive")
            center = tuple(float(c) for c in self.center)
            if not all(map(math.isfinite, center)):
                raise ValidationError("sphere center must be finite")
            object.__setattr__(self, "center", center)
        else:
            n = [float(v) for v in self.normal]
            if not all(map(math.isfinite, n)):
                raise ValidationError(f"half-space normal {n} must be finite")
            u = unit_vector(n)
            if u is None:
                raise ValidationError("half-space normal must be nonzero")
            object.__setattr__(self, "normal", u)
            point = tuple(float(c) for c in self.point)
            if not all(map(math.isfinite, point)):
                raise ValidationError("half-space point must be finite")
            object.__setattr__(self, "point", point)

    @classmethod
    def sphere(cls, center, radius: float) -> "RigidObject":
        return cls(shape="sphere", center=tuple(center), radius=float(radius))

    @classmethod
    def half_space(cls, point, outward_normal) -> "RigidObject":
        return cls(shape="half_space", point=tuple(point), normal=tuple(outward_normal))


@dataclass(frozen=True)
class Contact:
    """One phalanx/object contact candidate.  ``normal`` is the unit
    direction from the object surface toward the phalanx axis, the direction
    the contact force pushes the phalanx; ``gap`` is the signed surface
    separation (negative = penetration)."""

    phalanx: int
    point: tuple
    normal: tuple
    gap: float
    force: float = 0.0


# --------------------------------------------------------------------------
# Swing-frame contact kernel
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Frame:
    """The swing frame of a sweep and what every solve in it shares, as
    float tuples.  The flexion chain lies in the frame's x-y plane: joint k
    sits at J_k = sum_{j<k} L_j (cos c_j, sin c_j), c_j the cumulative
    flexion angle, and the flexion axes are the z axis.  ``obj`` is the
    object in frame coordinates (None when absent), ``lo``/``hi`` the flexion
    limits (``h_box`` the limit rows' bounds by key), H (rows ``H_rows``,
    Frobenius norm ``H_fro``, the scale of its curvature floor) and
    ``joint_drive`` the energy's stiffness blocks."""

    rotation: tuple  # rows of the matrix whose columns are the frame axes
    origin: tuple
    params: FingerParams
    obj: RigidObject | None
    lo: tuple
    hi: tuple
    h_box: dict
    H_rows: tuple
    H_fro: float
    joint_drive: tuple

    def contact(self, hit, force: float = 0.0) -> Contact:
        """World-coordinate contact of a kernel hit."""
        point = tuple(_dot(r, hit.point) + o for r, o in zip(self.rotation, self.origin))
        normal = tuple(_dot(r, hit.normal) for r in self.rotation)
        return Contact(hit.phalanx, point, normal, hit.gap, force)


def _frame(pose, params: FingerParams, obj: RigidObject | None) -> _Frame:
    """Frame of the swing pose ``pose`` (a chain's first world transform, rows
    of floats) with the object moved into it: a sphere keeps its out-of-plane
    centre offset, a half-space its normal and a point of its boundary plane.
    The stiffness blocks are evaluated here, once per frame."""
    rot, origin = tuple(tuple(r[:3]) for r in pose[:3]), tuple(r[3] for r in pose[:3])
    axes = tuple(zip(*rot))  # rot's columns, so _dot(axis, v) is rot' v
    if obj is not None and obj.shape == "sphere":
        centre = [*map(sub, obj.center, origin)]
        obj = RigidObject.sphere([_dot(e, centre) for e in axes], obj.radius)
    elif obj is not None:
        point = [*map(sub, obj.point, origin)]
        obj = RigidObject.half_space([_dot(e, point) for e in axes],
                                     [_dot(e, obj.normal) for e in axes])
    lo, hi = zip(*params.joint_limits[1:])
    h_box = dict(enumerate(lo + tuple(-v for v in hi)))
    stiff = stiffness_matrices(params)
    H = stiff.joint
    return _Frame(rot, origin, params, obj, lo, hi, h_box, H,
                  math.sqrt(_total(h * h for row in H for h in row)), stiff.joint_drive)


def _solve_frame(q_aa: float, params: FingerParams, obj: RigidObject | None) -> _Frame:
    """Frame for the solves at swing ``q_aa``: the DH chain's first pose on
    floats, each entry + 0.0 as the chain's matrix product turns -0 into +0."""
    ct, st, ca, sa = math.cos(q_aa), math.sin(q_aa), math.cos(math.pi / 2), math.sin(math.pi / 2)
    rows = ((ct, -st * ca, st * sa, 0.0 * ct), (0.0, sa, ca, 0.0),
            (-st, -(ct * ca), ct * sa, -(0.0 * st)))
    return _frame([[v + 0.0 for v in row] for row in rows], params, obj)


class _Hits(list):
    """One kernel evaluation: its hits, proximal to distal, with what the solver
    reads of them found in the same scan: ``rows`` the candidates keyed by
    their QP row (``6 + i`` for phalanx ``i + 1``, after the stops' 0-5) and
    ``least`` the least gap (0.0 without an object)."""

    __slots__ = ("rows", "least")


class _Hit(NamedTuple):
    """One phalanx against the object, in frame coordinates."""

    phalanx: int    # 1 proximal .. 3 distal
    t: float        # closest-point parameter along the phalanx axis
    gap: float      # signed surface separation, mm
    normal: tuple   # unit direction from the object toward the axis
    point: tuple    # contact point on the capsule surface
    grad: tuple     # d gap / d (q1, q2, q3)
    hess: tuple     # d2 gap / d (q1, q2, q3)^2, three rows; None beyond ACTIVATION_THRESHOLD


def _kernel(x, frame: _Frame) -> _Hits:
    """Gap, normal, contact point and gradient of every phalanx at flexion
    ``x`` in one pass of closed forms, proximal to distal, and the Hessian of
    each candidate (gap at most ``ACTIVATION_THRESHOLD``, the only hits a QP
    row or the curved model reads); none if no object.  A body-fixed point
    P of phalanx i moves with joint k <= i as dP/dq_k = z x (P - J_k), so a
    gap with normal n has the gradient row g_k = -n_x (P_y - J_k,y) +
    n_y (P_x - J_k,x).  The Hessian follows from d2P/dq_k dq_l =
    -(P - J_max(k,l)):

    * sphere, interior closest point: the gap is the distance to the axis
      line, d = sqrt(s^2 + c_z^2) with s = (C - J_i) . u_i^perp, where
      ds/dq_k = -(C - J_k) . u_i and d2s/dq_k dq_l = -(C - J_min(k,l)) .
      u_i^perp;
    * sphere, endpoint: the distance to that joint;
    * half-space: linear in the closest endpoint.

    A sphere centre on the axis leaves the normal undefined; the in-plane
    perpendicular of the axis keeps deep penetrations detectable."""
    params, obj = frame.params, frame.obj
    hits = _Hits()
    hits.rows, hits.least = {}, 0.0
    if obj is None:
        return hits
    lengths, radii = params.link_lengths, params.link_radii
    q1, q2, q3 = map(float, x)
    c2, c3 = q1 + q2, q1 + q2 + q3
    ux = (math.cos(q1), math.cos(c2), math.cos(c3))
    uy = (math.sin(q1), math.sin(c2), math.sin(c3))
    jx, jy = [0.0], [0.0]
    for length, co, si in zip(lengths, ux, uy):
        jx.append(jx[-1] + length * co)
        jy.append(jy[-1] + length * si)
    sphere = obj.shape == "sphere"
    if sphere:
        (cx, cy, cz), r_obj = obj.center, obj.radius
    else:
        nx, ny, nz = obj.normal
        px0, py0, pz0 = obj.point
    for i, pairs in enumerate(_PAIRS):
        length, radius, ui, vi, jxi, jyi = lengths[i], radii[i], ux[i], uy[i], jx[i], jy[i]
        if sphere:
            ex, ey = cx - jxi, cy - jyi
            t = min(1.0, max(0.0, (ex * ui + ey * vi) / length))
            px = jxi + t * length * ui
            py = jyi + t * length * vi
            dx, dy = px - cx, py - cy
            dist = math.sqrt(dx * dx + dy * dy + cz * cz)
            if dist < 1e-12:
                normal = (vi, -ui, 0.0)
                gap = -radius - r_obj
            else:
                normal = (dx / dist, dy / dist, -cz / dist)
                gap = dist - radius - r_obj
        else:
            g0 = nx * (jxi - px0) + ny * (jyi - py0) - nz * pz0
            g1 = nx * (jx[i + 1] - px0) + ny * (jy[i + 1] - py0) - nz * pz0
            t = 0.5 if abs(g0 - g1) <= 1e-12 else (0.0 if g0 < g1 else 1.0)
            px = jxi + t * (jx[i + 1] - jxi)
            py = jyi + t * (jy[i + 1] - jyi)
            normal = obj.normal
            gap = min(g0, g1) - radius
        n0, n1, n2 = normal
        grad = [-n0 * (py - jy[k]) + n1 * (px - jx[k]) if k <= i else 0.0 for k in range(3)]
        hess = None
        if gap <= ACTIVATION_THRESHOLD:  # only a candidate's curvature is ever read
            hess = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
            if interior := sphere and dist >= 1e-12 and 0.0 < t < 1.0:  # s, ds/dq_k, d2s/dq_k dq_l
                s, ds, dds, dist2 = -ex * vi + ey * ui, [], [], dist * dist
                for k in range(i + 1):
                    ds.append(-((cx - jx[k]) * ui + (cy - jy[k]) * vi))
                    dds.append((cx - jx[k]) * vi - (cy - jy[k]) * ui)
            for k, l in pairs:
                if not sphere:
                    value = -(n0 * (px - jx[l]) + n1 * (py - jy[l]))
                elif dist < 1e-12:
                    value = 0.0
                elif interior:
                    value = (ds[k] * ds[l] * cz * cz / dist2 + s * dds[k]) / dist
                else:
                    value = (
                        (px - jx[k]) * (px - jx[l]) + (py - jy[k]) * (py - jy[l])
                        - dx * (px - jx[l]) - dy * (py - jy[l])
                        - grad[k] * grad[l]
                    ) / dist
                hess[k][l] = hess[l][k] = value
            hess = tuple(map(tuple, hess))
        point = (px - radius * n0, py - radius * n1, -radius * n2)
        hits.append(_Hit(i + 1, t, gap, normal, point, tuple(grad), hess))
        if hess is not None:
            hits.rows[6 + i] = hits[-1]
    hits.least = min(hits[0].gap, hits[1].gap, hits[2].gap)
    return hits


def detect_contacts(chain, params: FingerParams, obj: RigidObject,
                    threshold: float = ACTIVATION_THRESHOLD):
    """Per-phalanx closest-point candidates of a ``FingerPoseChain`` with gap
    at most ``threshold``, sorted proximal to distal."""
    frame = _frame(chain.frames[0].tolist(), params, obj)
    hits = _kernel(chain.joint_state.flexion(), frame)
    return [frame.contact(hit) for hit in hits if hit.gap <= threshold]


# --------------------------------------------------------------------------
# Elastic energy
# --------------------------------------------------------------------------

def elastic_energy(q_fe, a: float, params: FingerParams) -> float:
    """Total stored elastic energy at flexion q_fe and drive a."""
    return _stored_energy(transmission_state(q_fe, a, params), params)


def _stored_energy(state: TransmissionState, params: FingerParams) -> float:
    """Elastic energy of the deflections ``state``."""
    parallel = _total(k * t**2 for k, t in zip(params.spring_parallel, state.parallel))
    return 0.5 * params.spring_serial * state.serial**2 + 0.5 * parallel


def elastic_energy_gradient(q_fe, a: float, params: FingerParams) -> tuple:
    """Analytic gradient of elastic_energy with respect to the flexion angles."""
    stiff = stiffness_matrices(params)
    c = tuple(d * float(a) for d in stiff.joint_drive)
    return _gradient(stiff.joint, c, tuple(map(float, q_fe)))


def _gradient(H, c, x) -> tuple:
    """The energy's gradient H x + c, c the joint-drive block times the drive,
    each row summed left to right."""
    x0, x1, x2 = x
    return tuple(h0 * x0 + h1 * x1 + h2 * x2 + ci for (h0, h1, h2), ci in zip(H, c))


# --------------------------------------------------------------------------
# Exact QP by active-set enumeration, on floats
# --------------------------------------------------------------------------

def _dot(u, v) -> float:
    """Dot product of two 3-vectors."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _solve_qp(H, c, G, h, warm=None):
    """Minimize 1/2 x'Hx + c'x subject to G_k x >= h_k for every key k of the
    dicts ``G`` (rows) and ``h`` (floats), H positive definite; x is a
    3-vector, H a sequence of rows and c of floats.

    Exhaustive KKT search over active subsets of at most dim(x) keys, each
    tried once: ``warm`` first, then the rest by their symmetric difference
    from it, ties by size, then lexicographic in the sorted keys.  A subset's
    full KKT system [[H, -G_s'], [G_s, 0]] is solved by Gaussian elimination
    (None on a zero pivot, as for two opposite rows), refined by ``_refined``
    where its multipliers cancel, and accepted when,
    within ``QP_TOL``, its multipliers are nonnegative, its own rows hold as
    equalities (dependent rows can yield a point that misses them) and every
    row holds.  Returns (x, {active key: multiplier clipped at 0}), or None
    when no subset yields a feasible KKT point."""
    n = len(c)

    def attempt(subset):
        rows, zeros = [G[k] for k in subset], [0.0] * len(subset)
        cols = [*zip(*rows)] or [(), (), ()]  # G_s', whose negation borders H
        kkt = ([[*Hr, *map(neg, col), -cr] for Hr, col, cr in zip(H, cols, c)]
               + [[*g, *zeros, h[k]] for g, k in zip(rows, subset)])
        sol = _gauss([row[:] for row in kkt])
        if sol is None or not all(map(math.isfinite, sol)):
            return None
        x0, x1, x2, *lam = _refined(kkt, sol)
        for v in lam:
            if v < -QP_TOL:
                return None
        for k, (g0, g1, g2) in G.items():
            v = g0 * x0 + g1 * x1 + g2 * x2
            if v < h[k] - QP_TOL or k in subset and abs(v - h[k]) > QP_TOL:
                return None
        return (x0, x1, x2), {k: max(v, 0.0) for k, v in zip(subset, lam)}

    first = tuple(sorted(warm or ()))
    if len(first) <= n and (sol := attempt(first)):
        return sol
    every = chain.from_iterable(combinations(sorted(G), k) for k in range(n + 1))
    near = set(first)
    rest = sorted((s for s in every if s != first), key=lambda s: len(near ^ set(s)))
    return next(filter(None, map(attempt, rest)), None)


def _refined(kkt, sol):
    """``sol``, the elimination's solution of the KKT system with augmented
    rows ``kkt`` (three stationarity rows over x and the multipliers, then the
    active rows), after one step of iterative refinement when a stationarity
    row cancels: when its multiplier terms outweigh its terms in x and c by
    more than ``QP_REFINE_RATIO``.  Elimination then loses the digits of x
    that the multipliers' forces cancel, as when an active row is nearly
    parallel to another, and x can miss its own rows by thousands of ulps;
    the correction solved from the residual restores them.  Otherwise ``sol``
    is returned unchanged."""
    x0, x1, x2, *lam = sol
    for row in kkt[:3]:
        if (_total(map(abs, map(mul, row[3:], lam))) > QP_REFINE_RATIO
                * (abs(row[0] * x0) + abs(row[1] * x1) + abs(row[2] * x2) + abs(row[-1]))):
            break
    else:
        return sol
    res = [row[-1] - math.fsum(map(mul, row, sol)) for row in kkt]
    step = _gauss([[*row[:-1], r] for row, r in zip(kkt, res)])
    return [*map(add, sol, step)] if step and all(map(math.isfinite, step)) else sol


def _gram_schmidt(cols):
    """Modified Gram-Schmidt over 3-vectors: the indices of the ``cols`` it
    keeps, and each column's coordinates on the unit vectors of the kept ones
    before it, then, if kept, its remainder's norm.  It keeps a column whose
    remainder exceeds 1e-12 of its norm, an angle of 1e-12 rad: the one rank
    rule for resting rows (Golub and Van Loan, Matrix Computations, 5.4)."""
    qs, coords, kept = [], [], []
    for j, a in enumerate(cols):
        (v0, v1, v2), r = a, []
        for q0, q1, q2 in qs:
            d = q0 * v0 + q1 * v1 + q2 * v2
            r.append(d)
            v0, v1, v2 = v0 - d * q0, v1 - d * q1, v2 - d * q2
        norm = math.hypot(v0, v1, v2)
        if norm > 1e-12 * math.hypot(*a):
            qs.append((v0 / norm, v1 / norm, v2 / norm))
            r.append(norm)  # r is now a column of the triangular factor
            kept.append(j)
        coords.append(r)
    return kept, coords


def _lstsq(cols, b):
    """Coefficients f minimizing |b - sum_i f_i cols_i| over 3-vectors: back
    substitution on ``_gram_schmidt``'s factor, b its last column; a column
    that its rank rule drops gets 0."""
    kept, R = _gram_schmidt([*cols, b])
    kept, f = [j for j in kept if j < len(cols)], [0.0] * len(cols)
    for i in range(len(kept) - 1, -1, -1):
        value = R[-1][i]  # b's coordinates
        for j in kept[i + 1:]:
            value -= R[j][i] * f[j]
        f[kept[i]] = value / R[kept[i]][i]
    return f


# --------------------------------------------------------------------------
# Equilibrium
# --------------------------------------------------------------------------

class _Solution(NamedTuple):
    """One solved step: the reported (joints, transmission, contacts) triple,
    the multipliers that certified it keyed by QP row (a stop's 0-5, a
    candidate's key in ``hits.rows``; empty when none did), and the frame and
    kernel evaluation of the joints, which the next sweep step starts from."""

    joints: JointState
    transmission: TransmissionState
    contacts: list
    mult: dict
    frame: _Frame
    hits: _Hits

    @property
    def triple(self):
        return self.joints, self.transmission, self.contacts


def _solution(x, a, q_aa, frame, hits, mult):
    """Record of flexion ``x`` at drive ``a`` with its kernel ``hits``, whose
    candidates it reports with their forces in the multiplier map ``mult``."""
    return _Solution(
        JointState(q_aa, *x),
        transmission_state(x, a, frame.params),
        [frame.contact(hit, mult.get(k, 0.0)) for k, hit in hits.rows.items()],
        mult, frame, hits,
    )


def _advance(x, target, frame, hits):
    """Farthest point on the straight joint-space path from ``x`` toward
    ``target`` that no phalanx without a QP row can reach the object by
    (conservative advancement), and its kernel hits.

    Along the path a point of phalanx i moves at most sum_k |step_k| *
    (L_k + ... + L_i) per unit of path, and a gap is 1-Lipschitz in the
    points of the capsule axis.  So the path advances until that bound has
    used ``ADVANCE_FRACTION`` of each such phalanx's gap, the gaps are
    measured again, and so on until the target is reached, a phalanx comes
    within ``ACTIVATION_THRESHOLD`` (it gets a row at the next outer step)
    or ``ADVANCE_STEPS`` advances are used.  Without this bound a phalanx
    farther than the threshold has no constraint and one outer step can
    carry it through the object."""
    (x0, x1, x2), (b0, b1, b2), (l0, l1, l2) = x, target, frame.params.link_lengths
    s0, s1, s2 = b0 - x0, b1 - x1, b2 - x2
    a0, a1, a2 = abs(s0), abs(s1), abs(s2)
    reach = (a0 * l0, a0 * (l0 + l1) + a1 * l1, a0 * (l0 + l1 + l2) + a1 * (l1 + l2) + a2 * l2)
    free = [(i, reach[i]) for i, hit in enumerate(hits) if hit.gap > ACTIVATION_THRESHOLD]
    t = 0.0
    for _ in range(ADVANCE_STEPS):
        t_next = 1.0
        for i, r in free:
            if r > 0 and (v := t + ADVANCE_FRACTION * hits[i].gap / r) < t_next:
                t_next = v
        t = t_next
        if t >= 1.0:
            return target, hits if target == x else _kernel(target, frame)
        point = (x0 + t * s0, x1 + t * s1, x2 + t * s2)
        hits = _kernel(point, frame)
        if min(hits[i].gap for i, _ in free) <= ACTIVATION_THRESHOLD:
            break
    return point, hits


def equilibrium_solve(a: float, q_init: JointState, params: FingerParams,
                      obj: RigidObject | None = None):
    """Flexion equilibrium at drive ``a`` from ``q_init``, the swing angle
    carried through: (JointState, TransmissionState, contacts), the contact
    forces being the multipliers the certification fits at that point, by
    least squares on the rows the last QP rested on that still hold there."""
    return _solve(a, q_init, _solve_frame(q_init.q_aa, params, obj)).triple


def _solve(a: float, q_init: JointState, frame: _Frame, prev=None) -> _Solution:
    """equilibrium_solve in the swing frame ``frame`` (built at
    ``q_init.q_aa``) after the sweep step ``prev``: the multipliers that
    certified it start the first QP and curve it, and its hits serve if it
    ended in ``frame`` at this start."""
    if not q_init.within_limits(frame.params):
        raise PreconditionError("q_init violates the joint limits")
    x = _clip((q_init.q1, q_init.q2, q_init.q3), frame)
    q_aa = q_init.q_aa
    hits = None if prev is None or prev.frame is not frame else prev.hits
    if hits is None or (prev.joints.q1, prev.joints.q2, prev.joints.q3) != x:
        hits = _kernel(x, frame)

    if hits.least < -RECOVERY_TOL:
        raise InfeasibleStartError("initial configuration penetrates the object "
                                   "beyond the recovery tolerance")

    c = tuple(d * float(a) for d in frame.joint_drive)
    # Multipliers of the rows the last QP rested on, keyed by QP row; the first
    # QP takes those that certified the sweep step before.
    carry = {} if prev is None else {k: f for k, f in prev.mult.items() if f > 0.0}

    best = None
    # Trust region on the outer steps: large jumps make the frozen contact
    # gradients stale and the iteration can two-cycle, so the radius halves
    # whenever the step reverses.  Until the first reversal it doubles after
    # each step it cut, so a long slide takes a few steps, not dozens.
    trust = 0.15
    prev_step = None
    cut = False      # the trust radius cut the previous step
    grow = True      # no step has reversed yet
    for _ in range(MAX_OUTER):
        # QP rows, the stops then the candidates at x; the carried ones start and curve it
        x0, x1, x2 = x
        G, h = dict(_BOX_ROWS), dict(frame.h_box)
        for k, hit in hits.rows.items():
            g0, g1, g2 = G[k] = hit.grad
            h[k] = g0 * x0 + g1 * x1 + g2 * x2 - hit.gap
        warm = sorted(k for k in carry if k in G)
        curv = [(carry[k], hit.hess) for k, hit in hits.rows.items() if carry.get(k, 0.0) > 0.0]
        B = _reduced_curvature(frame, [G[k] for k in warm], curv)
        # the model's gradient at x is the energy's: c + (H - B) x
        cq = c if B is frame.H_rows else tuple(
            ci + ((h0 - b0) * x0 + (h1 - b1) * x1 + (h2 - b2) * x2)
            for ci, (h0, h1, h2), (b0, b1, b2) in zip(c, frame.H_rows, B))
        sol = _solve_qp(B, cq, G, h, warm=warm)
        if sol is None:
            reason = "constraint system admits no feasible equilibrium"
            break
        x_new, carry = sol
        if not all(map(math.isfinite, x_new)):
            reason = "QP returned a non-finite iterate"
            break
        step = [u - v for u, v in zip(x_new, x)]
        step_norm = math.hypot(*step)
        if hits.rows and step_norm > 1e-12:
            if prev_step is not None and _dot(step, prev_step) < 0.0:
                trust = max(trust * 0.5, 1e-6)
                grow = False
            elif grow and cut:
                trust = min(trust * 2.0, 1.0)
            cut = step_norm > trust
            if cut:
                x_new = tuple(v + s * (trust / step_norm) for v, s in zip(x, step))
            prev_step = [u - v for u, v in zip(x_new, x)]
        # clipped: the QP accepts points up to QP_TOL outside the box
        x_new, new_hits = _advance(x, _clip(x_new, frame), frame, hits)

        fit = _certify_kkt(x_new, frame, c, new_hits, carry)
        if fit is not None:
            return _solution(x_new, a, q_aa, frame, new_hits, fit)

        best, x, hits = x_new, x_new, new_hits
    else:
        reason = "equilibrium iteration cap reached"
    best = None if best is None else _solution(best, a, q_aa, frame, hits, {}).triple
    raise NonConvergedError(reason, best=best)


def _clip(x, frame):
    """``x`` moved into the joint box; a coordinate inside keeps its bits."""
    return tuple(map(min, map(max, x, frame.lo), frame.hi))


# math.hypot, not floats.unit_vector: its bits reach the null-space vectors and so the traces.
def _unit(v) -> tuple:
    norm = math.hypot(*v)
    return tuple(x / norm for x in v)


def _active_span(rows):
    """Rank of at most three ``rows`` by ``_gram_schmidt``'s rule, and a unit
    vector spanning the kept rows (rank 1) or their null space (rank 2), else None."""
    kept = [rows[j] for j in _gram_schmidt(rows)[0]]
    v = _unit(kept[0]) if len(kept) == 1 else _unit(_cross(*kept)) if len(kept) == 2 else None
    return len(kept), v


def _reduced_curvature(frame, rows, curv):
    """Hessian of the QP model, B = W + P F P: F = sum f_k Hess g_k over
    ``curv``'s (force, Hessian) pairs, W = H - F the Lagrangian Hessian and P
    the projector onto the span of the active ``rows``.  B holds H across the
    rows, which their linearization pins, and W along them and on the cross
    block: a contact pressing on a curved surface cancels much of H along it,
    and without the cross block a sliding contact converges only linearly
    (Nocedal and Wright, Numerical Optimization, ch. 18).  If B - 1e-6 |H|_F I
    fails Sylvester's test, the model is P H P plus W on the null space with
    its eigenvalues floored at 1e-6 |H|_F (|H|_F lies between H's largest
    eigenvalue and sqrt(3) times it); H's own rows without force or at rank
    0 or 3."""
    H = frame.H_rows
    rank, v = _active_span(rows) if curv else (0, None)
    if v is None:
        return H
    (f, hess), *rest = curv
    F = [[f * w0, f * w1, f * w2] for w0, w1, w2 in hess]
    for f, hess in rest:
        F = [[u0 + f * w0, u1 + f * w1, u2 + f * w2]
             for (u0, u1, u2), (w0, w1, w2) in zip(F, hess)]
    v0, v1, v2 = v
    Fv = [r0 * v0 + r1 * v1 + r2 * v2 for r0, r1, r2 in F]
    vFv = _dot(v, Fv)
    B = []
    for (h0, h1, h2), (f0, f1, f2), vi, fi in zip(H, F, v, Fv):
        w = vFv * vi
        if rank == 1:  # B = H - F + (y'Fy) y y', y = v
            B.append([h0 - f0 + w * v0, h1 - f1 + w * v1, h2 - f2 + w * v2])
        else:  # B = H - z (Fz)' - (Fz) z' + (z'Fz) z z', z = v
            B.append([h0 - (vi * Fv[0] + fi * v0) + w * v0, h1 - (vi * Fv[1] + fi * v1) + w * v1,
                      h2 - (vi * Fv[2] + fi * v2) + w * v2])
    floor = 1e-6 * frame.H_fro
    (d0, d1, d2), (d3, d4, d5), (d6, d7, d8) = B
    d0, d4, d8 = d0 - floor, d4 - floor, d8 - floor
    if d0 > 0.0 and d0 * d4 > d1 * d3 and (
            d0 * (d4 * d8 - d5 * d7) - d1 * (d3 * d8 - d5 * d6) + d2 * (d3 * d7 - d4 * d6) > 0.0):
        return B
    # The floored model on an orthonormal basis Z of the null space that
    # diagonalizes W there: z itself at rank 2, one Jacobi rotation at rank 1.
    W = [[h - f for h, f in zip(hr, fr)] for hr, fr in zip(H, F)]
    Z = [v]
    if rank == 1:
        u = _unit(_cross(v, _BOX_ROWS[min(range(3), key=lambda i: abs(v[i]))]))
        w = _cross(v, u)
        Wu, Ww = [_dot(row, u) for row in W], [_dot(row, w) for row in W]
        theta = 0.5 * math.atan2(2.0 * _dot(u, Ww), _dot(u, Wu) - _dot(w, Ww))
        co, si = math.cos(theta), math.sin(theta)
        Z = [[co * a + si * b for a, b in zip(u, w)], [co * b - si * a for a, b in zip(u, w)]]
    P = [[float(i == j) - _total(z[i] * z[j] for z in Z) for j in range(3)] for i in range(3)]
    PH = [[_dot(pi, hj) for hj in H] for pi in P]  # H is symmetric
    curvature = [(max(_dot(z, [_dot(row, z) for row in W]), floor), z) for z in Z]
    return [[_dot(ri, pj) + _total(mu * z[i] * z[j] for mu, z in curvature)
             for j, pj in enumerate(P)] for i, ri in enumerate(PH)]


def _certify_kkt(x, frame, c, hits, rested):
    """Stationarity, complementarity and feasibility of the true (curved-gap)
    problem at ``x`` with its ``hits``, on those of the rows the last QP
    rested on (``rested``, keyed by QP row: a stop's 0-5, a candidate's key
    in ``hits.rows``) that still hold at ``x``: a stop within 1e-9 of its
    bound, a contact whose gap is at most ``TOUCH_TOL``.  Their multipliers
    are fitted fresh by least squares; returns their map, keyed like
    ``rested``, when the point certifies, else None, as when a multiplier is
    negative.  The stationarity test carries a floor for the rounding of
    H @ x + c, of order eps |H| |x|, which dominates when the gradient
    vanishes and the stiffnesses are large."""
    if hits.least < -PENETRATION_TOL:
        return None
    rows, grad = hits.rows, _gradient(frame.H_rows, c, x)

    # The fit's columns: the stops by joint, then the contacts proximal to distal.
    keys = [k for j, v, lo, hi in zip(range(3), x, frame.lo, frame.hi)
            for k, slack in ((j, v - lo), (3 + j, hi - v)) if k in rested and slack <= 1e-9]
    A = [_BOX_ROWS[k] for k in keys]
    for k, hit in rows.items():
        if k in rested and hit.gap <= TOUCH_TOL:
            keys.append(k)
            A.append(hit.grad)
    f = _lstsq(A, grad)
    if not all(v >= 0.0 for v in f):
        return None
    r0, r1, r2 = grad
    s0 = s1 = s2 = 0.0  # A^T f; the residual is grad - A^T f
    for v, (a0, a1, a2) in zip(f, A):
        s0, s1, s2 = s0 + v * a0, s1 + v * a1, s2 + v * a2

    noise_floor = 64.0 * sys.float_info.epsilon * (frame.H_fro * math.hypot(*x) + math.hypot(*c))
    bound = KKT_REL_TOL * (1.0 + math.hypot(*grad)) + noise_floor
    if math.hypot(r0 - s0, r1 - s1, r2 - s2) > bound:
        return None

    mult = dict(zip(keys, f))
    if any(abs(mult.get(k, 0.0) * hit.gap) > COMPLEMENTARITY_TOL for k, hit in rows.items()):
        return None
    return mult


# --------------------------------------------------------------------------
# Drive sweeps
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceStep:
    a: float
    joints: JointState
    transmission: TransmissionState
    contacts: tuple
    energy: float
    object_present: bool


@dataclass(frozen=True)
class EquilibriumTrace:
    steps: tuple
    status: str  # completed | ejected | limit-saturated | non-converged
    error: SweepError | None = None  # non-converged: the step that failed and why

    @property
    def final(self) -> TraceStep:
        return self.steps[-1]


def envelop_sweep(a_schedule, params: FingerParams, obj: RigidObject,
                  q_init: JointState | None = None,
                  remove_object_at: int | None = None) -> EquilibriumTrace:
    """Warm-started equilibrium along a nondecreasing drive schedule.

    ``remove_object_at`` drops the object from that step index onward, which
    models releasing the grasped object mid-sweep.  Termination:

    * ``completed``: every step converged
    * ``ejected``: the object, once held by at least two touching contacts
      (see ``touches``), touches no phalanx while it is still present and
      the drive still advances (the finger swept past).  The finger usually
      lets go one phalanx at a time, so this is the first such step after
      any step with two or more, not necessarily the next one.
    * ``limit-saturated``: the drive presses every flexion joint into a stop
    * ``non-converged``: the solver gave up; the partial trace is kept
    """
    schedule = [float(v) for v in a_schedule]
    if len(schedule) == 0:
        raise ValidationError("drive schedule must not be empty")
    if not all(map(math.isfinite, schedule)):
        raise ValidationError("drive schedule must be finite")
    if any(b < a for a, b in zip(schedule, schedule[1:])):
        raise ValidationError("drive schedule must be nondecreasing")

    q = q_init if q_init is not None else JointState()
    frame = _solve_frame(q.q_aa, params, obj)
    released = replace(frame, obj=None)
    steps = []
    held = False  # some step so far had >= 2 touching contacts
    sol = None
    for i, a in enumerate(schedule):
        present = remove_object_at is None or i < remove_object_at
        try:
            sol = _solve(a, q, frame if present else released, sol)
        except NonConvergedError as exc:
            return EquilibriumTrace(tuple(steps), "non-converged", SweepError(i, exc))
        except ModhandError as exc:
            raise SweepError(i, exc) from exc

        steps.append(TraceStep(a, sol.joints, sol.transmission, tuple(sol.contacts),
                               _stored_energy(sol.transmission, params), present))
        touching = sum(map(touches, sol.contacts))
        if present and held and touching == 0 and a > schedule[i - 1]:
            return EquilibriumTrace(steps=tuple(steps), status="ejected")
        # Saturated only when the drive presses every joint into a stop (its
        # multiplier engaged), not merely resting on one, with no contact load.
        if all(sol.mult.get(j, 0.0) > 1e-9 or sol.mult.get(3 + j, 0.0) > 1e-9 for j in range(3)):
            return EquilibriumTrace(steps=tuple(steps), status="limit-saturated")
        held = held or (present and touching >= 2)
        q = sol.joints
    return EquilibriumTrace(steps=tuple(steps), status="completed")


def touches(contact: Contact) -> bool:
    """Whether a contact's surfaces touch: its gap is at most ``TOUCH_TOL``
    or it carries force.  A candidate with a visible gap does not."""
    return contact.gap <= TOUCH_TOL or contact.force > 0.0
