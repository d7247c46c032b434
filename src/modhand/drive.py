"""Two-motor drive mapping and rigid flexion coupling.

The composite proximal joint is driven through a gear differential: the sum
mode of the two motors produces one planetary motion, the difference mode the
other.  Downstream, the flexion chain is gear-coupled so a single flexion
drive moves all three joints in a fixed proportion until the elastic elements
deflect.  Every map here is 2x2 or 2x3, so it is computed on floats.
"""

from __future__ import annotations

from .errors import DegenerateCouplingError, ValidationError
from .floats import _gauss, _total
from .params import CouplingModel, DifferentialTrain, DriveState, FingerParams, PlanetaryState


def drive_to_mcp(a: DriveState, train: DifferentialTrain):
    """Map motor angles to planetary motion and the (q_aa, q_fe) pair.

    Returns (PlanetaryState, (q_aa, q_fe)).  With the stock train, equal
    motor inputs drive only the first planetary mode and opposite inputs
    only the second; the first mode is reported as abduction-adduction and
    the second as the flexion drive unless ``swap_modes`` is set.
    """
    motors = (a.a1, a.a2)
    theta1, theta2 = (_total(m * v for m, v in zip(row, motors)) for row in train.composite_rows())
    state = PlanetaryState(theta1=theta1, theta2=theta2)
    if train.swap_modes:
        return state, (state.theta2, state.theta1)
    return state, (state.theta1, state.theta2)


def mcp_to_drive(q_aa: float, q_fe: float, train: DifferentialTrain) -> DriveState:
    """Invert drive_to_mcp: motor angles realizing a given (q_aa, q_fe)."""
    target = (q_fe, q_aa) if train.swap_modes else (q_aa, q_fe)
    a1, a2 = _gauss([[*row, float(t)] for row, t in zip(train.composite_rows(), target)])
    return DriveState(a1=a1, a2=a2)


def rigid_coupled_flexion(q1: float, coupling: CouplingModel):
    """Distal joint angles under intact rigid coupling, given the MCP angle."""
    r = coupling.ratio
    if r[0] == 0.0:
        raise DegenerateCouplingError("coupling ratio has a zero leading entry")
    return q1 * r[1] / r[0], q1 * r[2] / r[0]


def coupled_flexion_range(params: FingerParams):
    """MCP flexion interval reachable with distal joints on the coupled line
    while every joint stays inside its own limits."""
    r0, r1, r2 = params.coupling_model().ratio
    if r1 <= 0 or r2 <= 0 or r0 <= 0:
        raise ValidationError("coupled sampling requires a positive ratio")
    (_, _), (lo1, hi1), (lo2, hi2), (lo3, hi3) = params.joint_limits
    lo = max(lo1, lo2 * r0 / r1, lo3 * r0 / r2)
    hi = min(hi1, hi2 * r0 / r1, hi3 * r0 / r2)
    if not lo < hi:
        raise ValidationError("coupled flexion range is empty for these limits")
    return lo, hi


def coupling_residual(q_fe, coupling: CouplingModel) -> tuple:
    """Constraint-row residual of a flexion vector; zero on the coupled line."""
    return tuple(_total(c * float(v) for c, v in zip(row, q_fe)) for row in coupling.constraint)
