import math

import numpy as np
import pytest

from modhand.errors import ValidationError
from modhand.params import FingerParams, default_params
from modhand.ucm import (
    constraint_rank,
    is_transmission_stable,
    jacobians_from_geometry,
    motion_subspaces,
    stacked_constraint_rank,
    stiffness_matrices,
    transmission_jacobians,
    transmission_state,
)

P = default_params()


def test_transmission_zero_state():
    st = transmission_state((0.0, 0.0, 0.0), 0.0, P)
    assert st.as_array() == pytest.approx([0.0, 0.0, 0.0, 0.0], abs=0)


def test_transmission_pure_drive():
    st = transmission_state((0.0, 0.0, 0.0), 1.0, P)
    assert st.serial == 1.0
    assert st.parallel == (0.0, 0.0, 0.0)


def test_transmission_on_coupled_line():
    q = np.radians([6.0, 7.0, 4.2])
    st = transmission_state(q, 0.0, P)
    assert abs(st.parallel[0]) < 1e-12
    assert abs(st.parallel[1]) < 1e-12
    assert st.parallel[2] == pytest.approx(10.0 * math.radians(4.2), abs=1e-12)


def test_jacobian_values_default():
    jac = transmission_jacobians(P)
    assert jac.serial_joint == pytest.approx((-11.0, -11.0, -11.0), abs=0)
    assert jac.serial_drive == 1.0
    assert np.asarray(jac.parallel) == pytest.approx(
        np.array([[-7.0, 6.0, 0.0], [0.0, -6.0, 10.0], [0.0, 0.0, 10.0]]), abs=0
    )


def test_jacobians_match_finite_differences():
    # The map is linear, so central differences carry no truncation error and
    # a generous step keeps rounding noise far below the tolerance.  The
    # nominal step is snapped to one exactly representable at each point.
    rng = np.random.default_rng(17)
    jac = transmission_jacobians(P)
    full = jac.full_matrix()
    worst = 0.0
    for _ in range(100):
        q = rng.uniform(-1.0, 1.0, size=3)
        a = rng.uniform(-5.0, 5.0)
        z = np.concatenate([q, [a]])
        for col in range(4):
            h = (z[col] + 1e-3) - z[col]
            zp = z.copy(); zm = z.copy()
            zp[col] += h; zm[col] -= h
            fp = transmission_state(zp[:3], zp[3], P).as_array()
            fm = transmission_state(zm[:3], zm[3], P).as_array()
            fd = (fp - fm) / (2 * h)
            worst = max(worst, float(np.max(np.abs(fd - full[:, col]))))
    assert worst < 1e-9


def test_matrix_form_equals_formula_form():
    rng = np.random.default_rng(3)
    jac = transmission_jacobians(P)
    full = jac.full_matrix()
    for _ in range(50):
        q = rng.uniform(-2.0, 2.0, size=3)
        a = rng.uniform(-10.0, 10.0)
        direct = transmission_state(q, a, P).as_array()
        via_matrix = full @ np.concatenate([q, [a]])
        assert np.max(np.abs(direct - via_matrix)) < 1e-12


def test_jacobians_independent_of_state():
    # linear transmission: the Jacobian does not depend on where you evaluate
    jac1 = transmission_jacobians(P)
    jac2 = transmission_jacobians(P)
    assert jac1 == jac2


def test_constraint_rank_default():
    assert constraint_rank(P) == 3
    assert is_transmission_stable(P)


def test_constraint_rank_degenerate_third_column():
    jac = jacobians_from_geometry((22, 20, 16), (11.0, 10.0, 0.0), (7.0, 6.0, 0.0))
    assert stacked_constraint_rank(jac) == 2


def test_constraint_rank_never_exceeds_three():
    rng = np.random.default_rng(1)
    for _ in range(50):
        jac = jacobians_from_geometry(
            rng.integers(1, 40, size=3), rng.uniform(0.1, 20, size=3), rng.uniform(0.1, 20, size=3)
        )
        assert stacked_constraint_rank(jac) <= 3


def test_stiffness_values_default():
    st = stiffness_matrices(P)
    assert np.allclose(st.joint, st.joint.T, atol=0)
    assert st.positive_definite
    assert st.min_eigenvalue > 0
    assert st.drive == 50.0
    assert st.joint_drive == pytest.approx([-550.0, -550.0, -550.0], abs=0)


def test_stiffness_rejects_zero_serial():
    with pytest.raises(ValidationError, match="spring_serial"):
        FingerParams(spring_serial=0.0)


def test_stiffness_rejects_nonpositive_parallel():
    with pytest.raises(ValidationError, match="spring_parallel"):
        FingerParams(spring_parallel=(100.0, 0.0, 100.0))


def test_positive_definite_for_1000_random_draws():
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        p = FingerParams(
            drive_teeth=tuple(int(z) for z in rng.integers(1, 60, size=3)),
            drive_radii=tuple(rng.uniform(0.5, 30.0, size=3)),
            coupling_radii=tuple(rng.uniform(0.5, 30.0, size=3)),
            spring_serial=float(rng.uniform(0.1, 1e4)),
            spring_parallel=tuple(rng.uniform(0.1, 1e4, size=3)),
        )
        st = stiffness_matrices(p)
        assert st.positive_definite
        assert st.min_eigenvalue > 0


def test_active_direction_is_unit():
    ms = motion_subspaces(P)
    assert np.linalg.norm(ms.active_direction) == pytest.approx(1.0, abs=1e-12)


def test_active_force_row_default():
    ms = motion_subspaces(P)
    assert ms.active_force == pytest.approx([15.125, 12.5, 8.0], abs=0)


def test_passive_plane_default_coefficients():
    ms = motion_subspaces(P)
    assert ms.passive_normal == pytest.approx([9.625, 7.5, 10.0], abs=0)


def test_passive_basis_orthonormal_and_in_plane():
    ms = motion_subspaces(P)
    gram = ms.passive_basis @ ms.passive_basis.T
    assert np.allclose(gram, np.eye(2), atol=1e-12)
    residuals = ms.passive_basis @ ms.passive_normal
    assert np.max(np.abs(residuals)) < 1e-12


def test_active_direction_not_in_passive_plane():
    ms = motion_subspaces(P)
    assert float(ms.passive_normal @ ms.active_direction) > 0.0


def test_drive_sensitivity_parallel_to_active_direction():
    ms = motion_subspaces(P)
    unit = ms.drive_sensitivity / np.linalg.norm(ms.drive_sensitivity)
    assert np.allclose(unit, ms.active_direction, atol=1e-12)
