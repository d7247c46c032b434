"""Compliant underactuated transmission analysis.

The flexion chain is a three-joint transmission with one elastic element in
series with the drive and three in parallel across the coupling gears.  Every
quantity here is linear in the joint angles and the drive coordinate, so the
Jacobians, stiffness matrices, and motion subspaces depend only on the
structural parameters.  The matrices are at most 4x3, so they are computed
on floats and held in float tuples; nothing here imports numpy.

The records returned here are built final, with float-tuple fields, and do
not check or convert them again; their input, ``FingerParams``, validates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import SingularStiffnessError, ValidationError
from .floats import _cross, _gauss, _total, unit_vector
from .params import FingerParams


@dataclass(frozen=True)
class TransmissionState:
    """Elastic deflection coordinates: one serial, three parallel."""

    serial: float
    parallel: tuple  # 3 floats

    def as_array(self) -> tuple:
        return self.serial, *self.parallel


@dataclass(frozen=True)
class TransmissionJacobians:
    """Structural derivative blocks of the transmission variables.

    serial_joint is the 1x3 row d(serial)/dq, serial_drive the scalar
    d(serial)/da, parallel the 3x3 block d(parallel)/dq.  The parallel block
    has no drive dependency.
    """

    serial_joint: tuple
    serial_drive: float
    parallel: tuple


@lru_cache(maxsize=16)
def transmission_jacobians(params: FingerParams) -> TransmissionJacobians:
    """``params``' Jacobians, cached: a sweep evaluates the transmission at
    every step of one finger, and the record is frozen, so sharing is safe."""
    z1, z2, z3 = (float(z) for z in params.drive_teeth)
    rd1, rd2, rd3 = params.drive_radii
    rc1, rc2, rc3 = params.coupling_radii
    return TransmissionJacobians(
        serial_joint=(-rd1, -(z1 / z2) * rd2, -(z1 / z3) * rd3),
        serial_drive=1.0,
        parallel=((-rc1, rc2, 0.0), (0.0, -rc2, rc3), (0.0, 0.0, rc3)),
    )


def transmission_state(q_fe, a: float, params: FingerParams) -> TransmissionState:
    """Deflections of the four elastic elements at flexion q_fe and drive a,
    on floats from the cached Jacobian rows, each sum taken left to right.

    The serial element absorbs whatever drive travel the tooth-ratio-weighted
    joint motion has not consumed; the parallel elements absorb the mismatch
    between adjacent coupling gears (the third is referenced to the frame).
    """
    jac = transmission_jacobians(params)
    q1, q2, q3 = map(float, q_fe)
    s1, s2, s3 = jac.serial_joint
    serial = float(a) * jac.serial_drive + (s1 * q1 + s2 * q2 + s3 * q3)
    parallel = tuple(p1 * q1 + p2 * q2 + p3 * q3 for p1, p2, p3 in jac.parallel)
    return TransmissionState(serial, parallel)


def _singular_values(rows) -> list:
    """Singular values, largest first, of the matrix with ``rows`` (3 columns)
    by one-sided Jacobi: rotate column pairs until all are orthogonal to
    rounding; the column norms are then the singular values, the small ones to
    high relative accuracy (Demmel and Veselic, SIAM J. Matrix Anal. Appl. 1992)."""
    cols = [list(c) for c in zip(*rows)]
    for _ in range(30):  # a 3-column matrix takes a few sweeps
        rotated = False
        for i, j in ((0, 1), (0, 2), (1, 2)):
            u, v = cols[i], cols[j]
            alpha, beta = _total(x * x for x in u), _total(y * y for y in v)
            gamma = _total(x * y for x, y in zip(u, v))
            if abs(gamma) <= 1e-15 * math.sqrt(alpha * beta):
                continue
            rotated = True
            zeta = (beta - alpha) / (2.0 * gamma)
            t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
            c = 1.0 / math.hypot(1.0, t)
            s = c * t
            cols[i] = [c * x - s * y for x, y in zip(u, v)]
            cols[j] = [s * x + c * y for x, y in zip(u, v)]
        if not rotated:
            break
    return sorted((math.sqrt(_total(x * x for x in col)) for col in cols), reverse=True)


def constraint_rank(params: FingerParams) -> int:
    """Numerical rank of the stacked 4x3 constraint matrix, the serial row
    over the parallel block: its singular values above 1e-10 times the largest."""
    jac = transmission_jacobians(params)
    sv = _singular_values((jac.serial_joint, *jac.parallel))
    return sum(s > 1e-10 * sv[0] for s in sv)


_NORMAL_MIN = 2.0**-1022  # the least positive normal float


@dataclass(frozen=True)
class StiffnessSet:
    """Quadratic-form blocks of the elastic energy in (q, a), as floats."""

    joint: tuple        # 3 rows of 3, symmetric
    joint_drive: tuple  # 3-vector coupling block
    positive_definite: bool
    min_eigenvalue: float


def _cholesky_runs(H) -> bool:
    """Whether Cholesky on the lower triangle of the symmetric ``H`` finds every
    pivot positive, LAPACK's test of positive definiteness."""
    L = []
    for i, row in enumerate(H):
        li = []
        for j in range(i):
            li.append((row[j] - _total(a * b for a, b in zip(li, L[j]))) / L[j][j])
        pivot = row[i] - _total(a * a for a in li)
        if not pivot > 0.0:
            return False
        L.append([*li, math.sqrt(pivot)])
    return True


def stiffness_matrices(params: FingerParams) -> StiffnessSet:
    """Joint and joint-drive stiffness blocks.

    The joint block ks s's + P' diag(kp) P (serial row s, parallel block P) is
    A'A for A the rows sqrt(ks) s over sqrt(kp_i) P_i, so its least eigenvalue
    is A's least singular value squared.  FingerParams keeps the spring
    constants and radii strictly positive and finite, but their products can
    still overflow or underflow: each term ks s_i^2 and kp_i P_ij^2 must be a
    finite, normal float, or the radii and springs are rejected by name.
    """
    ks, kp = params.spring_serial, params.spring_parallel
    jac = transmission_jacobians(params)
    sj, sd, cols = jac.serial_joint, jac.serial_drive, tuple(zip(*jac.parallel))
    serial = [ks * (u * u) for u in sj]
    parallel = [p * (k * p) for k, row in zip(kp, jac.parallel) for p in row if p]
    for terms, radii, spring in ((serial, "drive_radii", "spring_serial"),
                                 (parallel, "coupling_radii", "spring_parallel")):
        for term in terms:
            if not _NORMAL_MIN <= abs(term) < math.inf:
                raise ValidationError(
                    f"{radii} {getattr(params, radii)} with {spring} {getattr(params, spring)} "
                    f"give a stiffness term {term!r}, not a finite, normal float")
    joint = [[ks * (u * v) + _total(p * (k * q) for p, k, q in zip(ci, kp, cj))
              for v, cj in zip(sj, cols)] for u, ci in zip(sj, cols)]
    joint = tuple(tuple(0.5 * (a + b) for a, b in zip(row, col))  # exact symmetry
                  for row, col in zip(joint, zip(*joint)))
    scaled = [[math.sqrt(k) * x for x in row] for k, row in zip((ks, *kp), (sj, *jac.parallel))]
    return StiffnessSet(
        joint=joint,
        joint_drive=tuple(u * ks * sd for u in sj),
        positive_definite=_cholesky_runs(joint),
        min_eigenvalue=_singular_values(scaled)[-1] ** 2,
    )


@dataclass(frozen=True)
class MotionSubspaces:
    """Directions the drive produces and the compliance admits, as floats.

    active_direction: unit joint-velocity direction per unit drive input.
    passive_basis: orthonormal basis (2 rows of 3) of the plane of joint
    motions the gear train admits without drive motion.
    passive_normal: coefficients of that plane equation.
    active_force: joint-torque row the drive applies per unit actuator force.
    """

    active_direction: tuple
    passive_basis: tuple
    passive_normal: tuple
    active_force: tuple


def _plane_basis(normal) -> tuple:
    """Deterministic orthonormal basis of the plane {x : normal . x = 0}:
    project the first coordinate axis onto the plane (second axis if the
    normal is parallel to the first), then complete with the cross product."""
    n0, n1, n2 = n = unit_vector(normal)
    b1 = (1.0 - n0 * n0, 0.0 - n0 * n1, 0.0 - n0 * n2)  # e1 - (e1.n) n, zeros kept +0.0
    if math.sqrt(_total(x * x for x in b1)) < 1e-9:
        b1 = (0.0 - n1 * n0, 1.0 - n1 * n1, 0.0 - n1 * n2)
    first = unit_vector(b1)
    return first, unit_vector(_cross(n, first))


def motion_subspaces(params: FingerParams) -> MotionSubspaces:
    """Active/passive motion split and the active force row."""
    z1, z2, z3 = (float(z) for z in params.drive_teeth)
    rd1, rd2, rd3 = params.drive_radii
    rc1, rc2, rc3 = params.coupling_radii
    stiff = stiffness_matrices(params)
    if not stiff.positive_definite:
        raise SingularStiffnessError("joint stiffness matrix is not positive definite")

    # the drive row is -serial_joint, and -H^-1 b solves H x = -b bit for bit
    serial_joint = transmission_jacobians(params).serial_joint
    response = _gauss([[*row, -s] for row, s in zip(stiff.joint, serial_joint)])
    normal = (rc1 * z1 / z3, rc2 * z2 / z3, rc3)
    return MotionSubspaces(
        active_direction=unit_vector(response),
        passive_basis=_plane_basis(normal),
        passive_normal=normal,
        active_force=((z1 / z3) * rd1, (z2 / z3) * rd2, rd3),
    )
