import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modhand.drive import (
    coupling_residual,
    drive_to_mcp,
    mcp_to_drive,
    rigid_coupled_flexion,
)
from modhand.errors import DegenerateCouplingError
from modhand.params import CouplingModel, DifferentialTrain, DriveState, default_params

TRAIN = DifferentialTrain()
COUPLING = default_params().coupling_model()


def test_zero_input():
    theta, (q_aa, q_fe) = drive_to_mcp(DriveState(0.0, 0.0), TRAIN)
    assert theta.as_array() == pytest.approx([0.0, 0.0], abs=0)
    assert (q_aa, q_fe) == (0.0, 0.0)


def test_equal_inputs_drive_first_mode():
    # Product of the printed stage matrices applied to (1, 1).
    theta, (q_aa, q_fe) = drive_to_mcp(DriveState(1.0, 1.0), TRAIN)
    assert abs(theta.theta1 - 13.0 / 24.0) < 1e-12
    assert abs(theta.theta2) < 1e-12
    assert q_aa == theta.theta1 and q_fe == theta.theta2


def test_opposite_inputs_drive_second_mode():
    theta, _ = drive_to_mcp(DriveState(1.0, -1.0), TRAIN)
    assert abs(theta.theta1) < 1e-12
    assert abs(theta.theta2 - 13.0 / 24.0) < 1e-12


def test_inverse_of_known_point():
    a = mcp_to_drive(13.0 / 24.0, 0.0, TRAIN)
    assert a.as_array() == pytest.approx([1.0, 1.0], abs=1e-12)


def test_round_trip_1000_random_pairs():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        q_aa, q_fe = rng.uniform(-2.0, 2.0, size=2)
        a = mcp_to_drive(q_aa, q_fe, TRAIN)
        _, (raa, rfe) = drive_to_mcp(a, TRAIN)
        worst = max(worst, abs(raa - q_aa), abs(rfe - q_fe))
    assert worst < 1e-12


def test_round_trip_with_swapped_modes():
    train = DifferentialTrain(swap_modes=True)
    a = mcp_to_drive(0.3, -0.2, train)
    _, (q_aa, q_fe) = drive_to_mcp(a, train)
    assert (q_aa, q_fe) == pytest.approx((0.3, -0.2), abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    a1=st.floats(-10, 10),
    a2=st.floats(-10, 10),
    b1=st.floats(-10, 10),
    b2=st.floats(-10, 10),
    alpha=st.floats(-3, 3),
    beta=st.floats(-3, 3),
)
def test_linearity(a1, a2, b1, b2, alpha, beta):
    lhs, _ = drive_to_mcp(
        DriveState(alpha * a1 + beta * b1, alpha * a2 + beta * b2), TRAIN
    )
    ta, _ = drive_to_mcp(DriveState(a1, a2), TRAIN)
    tb, _ = drive_to_mcp(DriveState(b1, b2), TRAIN)
    rhs = alpha * np.array(ta.as_array()) + beta * np.array(tb.as_array())
    assert np.allclose(lhs.as_array(), rhs, rtol=1e-12, atol=1e-12)


def test_rigid_coupled_flexion_zero():
    assert rigid_coupled_flexion(0.0, COUPLING) == (0.0, 0.0)


def test_rigid_coupled_flexion_60deg():
    q2, q3 = rigid_coupled_flexion(math.radians(60.0), COUPLING)
    assert math.degrees(q2) == pytest.approx(70.0, abs=1e-12)
    assert math.degrees(q3) == pytest.approx(42.0, abs=1e-12)


def test_rigid_outputs_annihilated_by_constraint():
    for q1 in np.linspace(-1.0, 1.5, 17):
        q2, q3 = rigid_coupled_flexion(q1, COUPLING)
        residual = coupling_residual((q1, q2, q3), COUPLING)
        assert np.max(np.abs(residual)) < 1e-12


def test_degenerate_coupling_rejected():
    bad = CouplingModel(constraint=((0.0, 0.0, 0.0), (0.0, 0.0, 0.0)), ratio=(0.0, 1.0, 1.0))
    with pytest.raises(DegenerateCouplingError):
        rigid_coupled_flexion(1.0, bad)


def test_residual_on_ratio_direction():
    res = coupling_residual(np.radians([6.0, 7.0, 4.2]), COUPLING)
    assert np.max(np.abs(res)) < 1e-12


def test_residual_first_column():
    res = coupling_residual((1.0, 0.0, 0.0), COUPLING)
    assert res == pytest.approx([7.0, 0.0], abs=0)


def test_residual_second_plus_third_column():
    res = coupling_residual((0.0, 1.0, 1.0), COUPLING)
    assert res == pytest.approx([-6.0, -4.0], abs=1e-12)
