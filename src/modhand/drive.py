"""Two-motor drive mapping and rigid flexion coupling.

The composite proximal joint is driven through a gear differential: the sum
mode of the two motors produces one planetary motion, the difference mode the
other.  Downstream, the flexion chain is gear-coupled so a single flexion
drive moves all three joints in a fixed proportion until the elastic elements
deflect.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateCouplingError
from .params import CouplingModel, DifferentialTrain, DriveState, PlanetaryState


def drive_to_mcp(a: DriveState, train: DifferentialTrain):
    """Map motor angles to planetary motion and the (q_aa, q_fe) pair.

    Returns (PlanetaryState, (q_aa, q_fe)).  With the stock train, equal
    motor inputs drive only the first planetary mode and opposite inputs
    only the second; the first mode is reported as abduction-adduction and
    the second as the flexion drive unless ``swap_modes`` is set.
    """
    theta = train.composite() @ a.as_array()
    state = PlanetaryState(theta1=float(theta[0]), theta2=float(theta[1]))
    if train.swap_modes:
        return state, (state.theta2, state.theta1)
    return state, (state.theta1, state.theta2)


def mcp_to_drive(q_aa: float, q_fe: float, train: DifferentialTrain) -> DriveState:
    """Invert drive_to_mcp: motor angles realizing a given (q_aa, q_fe)."""
    target = np.array([q_fe, q_aa]) if train.swap_modes else np.array([q_aa, q_fe])
    a = np.linalg.solve(train.composite(), target)
    return DriveState(a1=float(a[0]), a2=float(a[1]))


def rigid_coupled_flexion(q1: float, coupling: CouplingModel):
    """Distal joint angles under intact rigid coupling, given the MCP angle."""
    r = coupling.ratio
    if r[0] == 0.0:
        raise DegenerateCouplingError("coupling ratio has a zero leading entry")
    return q1 * r[1] / r[0], q1 * r[2] / r[0]


def coupling_residual(q_fe, coupling: CouplingModel) -> np.ndarray:
    """Constraint-row residual of a flexion vector; zero on the coupled line."""
    return np.asarray(coupling.constraint) @ np.asarray(q_fe, dtype=float)
