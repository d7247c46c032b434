import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modhand import ucm
from modhand.errors import ValidationError
from modhand.params import FingerParams, default_params, load_params, text_ratio_params
from modhand.ucm import (
    constraint_rank,
    motion_subspaces,
    stiffness_matrices,
    transmission_jacobians,
    transmission_state,
)

P = default_params()


def test_float_modules_load_no_numpy():
    # In a fresh process: every record of params, drive and ucm is built and
    # every method and map called, and numpy is never imported.
    script = """
import json, sys
from modhand import drive, params, ucm
p = params.default_params()
train, coupling = p.differential, p.coupling_model()
q = params.JointState(0.1, 0.2, 0.3, 0.4)
theta, (q_aa, q_fe) = drive.drive_to_mcp(params.DriveState(0.3, -0.2), train)
a = drive.mcp_to_drive(q_aa, q_fe, train)
doc = params.params_to_dict(params.resolve_params("text-ratio"))
jac = ucm.transmission_jacobians(p)
st = ucm.transmission_state(q.flexion(), 1.5, p)
stiff, ms = ucm.stiffness_matrices(p), ucm.motion_subspaces(p)
results = [
    q.as_array(), q.flexion(), q.within_limits(p), a.as_array(), theta.as_array(),
    st.as_array(), train.composite_rows(), p.reach, coupling.ratio, coupling.constraint,
    params.load_params(doc) == params.params_from_dict(doc), params.parse_angle("20deg"),
    drive.rigid_coupled_flexion(0.2, coupling), drive.coupling_residual(q.flexion(), coupling),
    ucm.TransmissionState(1.0, (2.0, 3.0, 4.0)).as_array(), jac.serial_joint, jac.parallel,
    ucm.constraint_rank(p),
    stiff.joint, stiff.min_eigenvalue, ms.active_direction, ms.passive_basis,
]
assert all(type(v) in (tuple, bool, int, float) for v in results)
print(json.dumps("numpy" in sys.modules))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          check=True)
    assert json.loads(proc.stdout) is False


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


def test_matrix_form_equals_formula_form():
    rng = np.random.default_rng(3)
    jac = transmission_jacobians(P)
    full = np.array([(*jac.serial_joint, jac.serial_drive), *((*row, 0.0) for row in jac.parallel)])
    for _ in range(50):
        q = rng.uniform(-2.0, 2.0, size=3)
        a = rng.uniform(-10.0, 10.0)
        direct = np.array(transmission_state(q, a, P).as_array())
        via_matrix = full @ np.concatenate([q, [a]])
        assert np.max(np.abs(direct - via_matrix)) < 1e-12


def test_jacobians_independent_of_state():
    # linear transmission: the Jacobian does not depend on where you evaluate
    jac1 = transmission_jacobians(P)
    jac2 = transmission_jacobians(P)
    assert jac1 == jac2


def test_constraint_rank_default():
    assert constraint_rank(P) == 3


def test_constraint_rank_degenerate_third_column():
    params = FingerParams(drive_radii=(11.0, 10.0, 1e-12), coupling_radii=(7.0, 6.0, 1e-12))
    assert constraint_rank(params) == 2


def test_constraint_rank_never_exceeds_three():
    rng = np.random.default_rng(1)
    for _ in range(50):
        params = FingerParams(
            drive_teeth=tuple(int(z) for z in rng.integers(1, 40, size=3)),
            drive_radii=tuple(rng.uniform(0.1, 20, size=3)),
            coupling_radii=tuple(rng.uniform(0.1, 20, size=3)),
        )
        assert constraint_rank(params) <= 3


def test_stiffness_values_default():
    st = stiffness_matrices(P)
    joint = np.asarray(st.joint)
    assert np.allclose(joint, joint.T, atol=0)
    assert st.positive_definite
    assert st.min_eigenvalue > 0
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
    basis = np.asarray(ms.passive_basis)
    gram = basis @ basis.T
    assert np.allclose(gram, np.eye(2), atol=1e-12)
    residuals = basis @ ms.passive_normal
    assert np.max(np.abs(residuals)) < 1e-12


def test_active_direction_not_in_passive_plane():
    ms = motion_subspaces(P)
    assert float(np.asarray(ms.passive_normal) @ np.asarray(ms.active_direction)) > 0.0


# --------------------------------------------------------------------------
# The float report algebra, with numpy as the oracle
# --------------------------------------------------------------------------

def reference_joint_stiffness(params):
    """The joint stiffness block as numpy forms it: ks s s' + P' (kp P), symmetrized."""
    ks, kp = params.spring_serial, np.asarray(params.spring_parallel)
    jac = transmission_jacobians(params)
    sj, par = np.asarray(jac.serial_joint), np.asarray(jac.parallel)
    joint = ks * np.outer(sj, sj) + par.T @ (kp[:, None] * par)
    return 0.5 * (joint + joint.T)


def triples(values):
    return st.tuples(values, values, values)


TEETH = triples(st.integers(1, 59))
# The 1000-draw family of test_positive_definite_for_1000_random_draws, and
# the same ranges with integer-valued springs and radii.
FINGERS = st.builds(
    FingerParams, drive_teeth=TEETH, drive_radii=triples(st.floats(0.5, 30.0)),
    coupling_radii=triples(st.floats(0.5, 30.0)), spring_serial=st.floats(0.1, 1e4),
    spring_parallel=triples(st.floats(0.1, 1e4)))
INTEGER_FINGERS = st.builds(
    FingerParams, drive_teeth=TEETH, drive_radii=triples(st.integers(1, 30)),
    coupling_radii=triples(st.integers(1, 30)), spring_serial=st.integers(1, 10_000),
    spring_parallel=triples(st.integers(1, 10_000)))
ENV_SPRINGS = load_params(Path(__file__).parent / "data" / "env_springs.json")


@pytest.mark.parametrize("params", [P, text_ratio_params(), ENV_SPRINGS],
                         ids=["default", "text-ratio", "env-springs"])
def test_named_stiffness_is_numpys_bit_for_bit(params):
    joint = np.array(stiffness_matrices(params).joint)
    assert joint.tobytes() == reference_joint_stiffness(params).tobytes()


@settings(max_examples=400, deadline=None)
@given(params=st.one_of(FINGERS, INTEGER_FINGERS))
def test_float_report_algebra_matches_numpy(params):
    stiff = stiffness_matrices(params)
    joint, reference = np.array(stiff.joint), reference_joint_stiffness(params)
    integral = (*params.drive_radii, *params.coupling_radii, params.spring_serial,
                *params.spring_parallel)
    if all(v.is_integer() for v in integral):
        assert joint.tobytes() == reference.tobytes()
    else:
        # numpy's matrix product may fuse a multiply-add in P' (kp P): 1 ulp
        # there, and with the rounding of adding ks s s', up to 2 ulps in H
        assert np.all(np.abs(joint - reference) <= 2 * np.spacing(np.abs(reference)))
    norm = np.linalg.norm(reference, 2)
    assert abs(stiff.min_eigenvalue - np.linalg.eigvalsh(reference)[0]) <= 1e-13 * norm
    try:
        np.linalg.cholesky(joint)
        cholesky = True
    except np.linalg.LinAlgError:
        cholesky = False
    assert stiff.positive_definite == cholesky

    # Two backward-stable solves of one system differ by up to about
    # cond(H) eps relative: 1.3e-12 on the unit active direction at cond 5.8e4,
    # where each lies within 1.3e-16 of the exact solution (0.00013).
    tol = max(1e-12, 10 * np.linalg.cond(joint) * np.finfo(float).eps)
    ms = motion_subspaces(params)
    response = np.linalg.solve(joint, -np.asarray(transmission_jacobians(params).serial_joint))
    active = response / np.linalg.norm(response)
    assert np.max(np.abs(np.asarray(ms.active_direction) - active)) <= tol


# A radius near zero or ordinary, so the stacks are rank 1 to 3 (the serial
# row is never zero).
RADIUS = st.one_of(st.floats(1e-14, 1e-6), st.floats(0.1, 30.0))


@settings(max_examples=400, deadline=None)
@given(teeth=TEETH, drive=triples(RADIUS), coupling=triples(RADIUS))
def test_float_rank_matches_numpy_svd(teeth, drive, coupling):
    params = FingerParams(drive_teeth=teeth, drive_radii=drive, coupling_radii=coupling)
    jac = transmission_jacobians(params)
    sv = np.linalg.svd(np.array([jac.serial_joint, *jac.parallel]), compute_uv=False)
    if np.any(np.abs(sv / (1e-10 * sv[0]) - 1.0) <= 1e-6):
        return  # numpy's own verdict rests on the threshold's rounding
    assert constraint_rank(params) == int(np.sum(sv > 1e-10 * sv[0]))


@settings(max_examples=400, deadline=None)
@given(entries=st.lists(st.floats(-10.0, 10.0), min_size=9, max_size=9),
       shift=st.floats(-50.0, 50.0))
def test_float_cholesky_verdict_matches_lapack(entries, shift):
    # B'B + shift I is positive definite, semidefinite or indefinite.
    B = np.array(entries).reshape(3, 3)
    H = B.T @ B + shift * np.eye(3)
    if abs(np.linalg.eigvalsh(H)[0]) <= 1e-12 * max(np.linalg.norm(H, 2), 1e-300):
        return  # rounding decides a pivot this close to zero
    try:
        np.linalg.cholesky(H)
        expected = True
    except np.linalg.LinAlgError:
        expected = False
    assert ucm._cholesky_runs(tuple(map(tuple, H.tolist()))) == expected
