"""Compliant underactuated transmission analysis.

The flexion chain is a three-joint transmission with one elastic element in
series with the drive and three in parallel across the coupling gears.  Every
quantity here is linear in the joint angles and the drive coordinate, so the
Jacobians, stiffness matrices, and motion subspaces depend only on the
structural parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SingularStiffnessError, ValidationError
from .params import FingerParams


@dataclass(frozen=True)
class TransmissionState:
    """Elastic deflection coordinates: one serial, three parallel."""

    serial: float
    parallel: tuple  # 3 floats

    def __post_init__(self):
        object.__setattr__(self, "serial", float(self.serial))
        object.__setattr__(self, "parallel", tuple(map(float, self.parallel)))

    def as_array(self) -> np.ndarray:
        return np.array([self.serial, *self.parallel])


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

    def __post_init__(self):
        sj = tuple(float(x) for x in self.serial_joint)
        if len(sj) != 3:
            raise ValidationError("serial_joint must have 3 entries")
        par = tuple(tuple(float(x) for x in row) for row in self.parallel)
        if len(par) != 3 or any(len(r) != 3 for r in par):
            raise ValidationError("parallel block must be 3x3")
        object.__setattr__(self, "serial_joint", sj)
        object.__setattr__(self, "serial_drive", float(self.serial_drive))
        object.__setattr__(self, "parallel", par)

    def stacked(self) -> np.ndarray:
        """4x3 constraint matrix: serial row over the parallel block."""
        return np.vstack([np.asarray(self.serial_joint), np.asarray(self.parallel)])

    def full_matrix(self) -> np.ndarray:
        """4x4 map from (q1, q2, q3, a) to (serial, parallel) deflections."""
        top = np.concatenate([self.serial_joint, [self.serial_drive]])
        bottom = np.hstack([np.asarray(self.parallel), np.zeros((3, 1))])
        return np.vstack([top, bottom])


def jacobians_from_geometry(teeth, drive_radii, coupling_radii) -> TransmissionJacobians:
    """Jacobians from raw gear geometry; no positivity checks, so degenerate
    gear sets can be analyzed."""
    z1, z2, z3 = (float(z) for z in teeth)
    rd1, rd2, rd3 = (float(r) for r in drive_radii)
    rc1, rc2, rc3 = (float(r) for r in coupling_radii)
    return TransmissionJacobians(
        serial_joint=(-rd1, -(z1 / z2) * rd2, -(z1 / z3) * rd3),
        serial_drive=1.0,
        parallel=((-rc1, rc2, 0.0), (0.0, -rc2, rc3), (0.0, 0.0, rc3)),
    )


@lru_cache(maxsize=16)
def transmission_jacobians(params: FingerParams) -> TransmissionJacobians:
    """``params``' Jacobians, cached: a sweep evaluates the transmission at
    every step of one finger, and the record is frozen, so sharing is safe."""
    return jacobians_from_geometry(params.drive_teeth, params.drive_radii, params.coupling_radii)


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
    return TransmissionState(serial, [p1 * q1 + p2 * q2 + p3 * q3 for p1, p2, p3 in jac.parallel])


def stacked_constraint_rank(jac: TransmissionJacobians, rtol: float = 1e-10) -> int:
    """Numerical rank of the stacked 4x3 constraint matrix."""
    sv = np.linalg.svd(jac.stacked(), compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rtol * sv[0]))


def constraint_rank(params: FingerParams) -> int:
    return stacked_constraint_rank(transmission_jacobians(params))


def is_transmission_stable(params: FingerParams) -> bool:
    """Full column rank of the stacked constraints: the elastic network
    grounds every joint direction, so the mechanism returns to equilibrium."""
    return constraint_rank(params) == 3


@dataclass(frozen=True)
class StiffnessSet:
    """Quadratic-form blocks of the elastic energy in (q, a)."""

    joint: np.ndarray        # 3x3, symmetric
    drive: float             # scalar
    joint_drive: np.ndarray  # 3-vector coupling block
    positive_definite: bool
    min_eigenvalue: float

    def __post_init__(self):
        joint = np.array(self.joint, dtype=float)
        joint.setflags(write=False)
        jd = np.array(self.joint_drive, dtype=float)
        jd.setflags(write=False)
        object.__setattr__(self, "joint", joint)
        object.__setattr__(self, "joint_drive", jd)


def stiffness_matrices(params: FingerParams) -> StiffnessSet:
    """Joint, drive, and joint-drive stiffness blocks.

    The spring constants are the finger's own; FingerParams keeps them
    strictly positive.
    """
    ks = params.spring_serial
    kp = np.asarray(params.spring_parallel)

    jac = transmission_jacobians(params)
    sj = np.asarray(jac.serial_joint)
    par = np.asarray(jac.parallel)
    joint = ks * np.outer(sj, sj) + par.T @ (kp[:, None] * par)
    joint = 0.5 * (joint + joint.T)  # exact symmetry against rounding
    drive = ks * jac.serial_drive**2
    joint_drive = sj * ks * jac.serial_drive

    try:
        np.linalg.cholesky(joint)
        pd = True
    except np.linalg.LinAlgError:
        pd = False
    min_eig = float(np.linalg.eigvalsh(joint)[0])
    return StiffnessSet(
        joint=joint,
        drive=drive,
        joint_drive=joint_drive,
        positive_definite=pd,
        min_eigenvalue=min_eig,
    )


@dataclass(frozen=True)
class MotionSubspaces:
    """Directions the drive produces and the compliance admits.

    active_direction: unit joint-velocity direction per unit drive input.
    passive_basis: orthonormal basis (2 x 3) of the plane of joint motions
    the gear train admits without drive motion.
    passive_normal: coefficients of that plane equation.
    active_force: joint-torque row the drive applies per unit actuator force.
    drive_sensitivity: unnormalized joint response to drive input.
    """

    active_direction: np.ndarray
    passive_basis: np.ndarray
    passive_normal: np.ndarray
    active_force: np.ndarray
    drive_sensitivity: np.ndarray

    def __post_init__(self):
        for name in (
            "active_direction",
            "passive_basis",
            "passive_normal",
            "active_force",
            "drive_sensitivity",
        ):
            arr = np.array(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _plane_basis(normal: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the plane {x : normal . x = 0}:
    project the first coordinate axis onto the plane (second axis if the
    normal is parallel to the first), then complete with the cross product."""
    n = normal / np.linalg.norm(normal)
    seed = np.array([1.0, 0.0, 0.0])
    b1 = seed - np.dot(seed, n) * n
    if np.linalg.norm(b1) < 1e-9:
        seed = np.array([0.0, 1.0, 0.0])
        b1 = seed - np.dot(seed, n) * n
    b1 = b1 / np.linalg.norm(b1)
    b2 = np.cross(n, b1)
    b2 = b2 / np.linalg.norm(b2)
    return np.vstack([b1, b2])


def motion_subspaces(params: FingerParams) -> MotionSubspaces:
    """Active/passive motion split and the active force row."""
    z1, z2, z3 = (float(z) for z in params.drive_teeth)
    rd1, rd2, rd3 = params.drive_radii
    rc1, rc2, rc3 = params.coupling_radii
    stiff = stiffness_matrices(params)
    if not stiff.positive_definite:
        raise SingularStiffnessError("joint stiffness matrix is not positive definite")

    drive_row = -np.asarray(transmission_jacobians(params).serial_joint)
    response = np.linalg.solve(stiff.joint, drive_row)
    active = response / np.linalg.norm(response)

    normal = np.array([rc1 * z1 / z3, rc2 * z2 / z3, rc3])
    basis = _plane_basis(normal)

    force_row = np.array([(z1 / z3) * rd1, (z2 / z3) * rd2, rd3])
    sensitivity = -np.linalg.solve(stiff.joint, stiff.joint_drive)
    return MotionSubspaces(
        active_direction=active,
        passive_basis=basis,
        passive_normal=normal,
        active_force=force_row,
        drive_sensitivity=sensitivity,
    )
