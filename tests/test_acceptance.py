"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; a failing criterion fails its test.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from modhand.drive import (
    coupling_residual,
    drive_to_mcp,
    mcp_to_drive,
    rigid_coupled_flexion,
)
from modhand.grasp import (
    RigidObject,
    elastic_energy,
    elastic_energy_gradient,
    envelop_sweep,
    equilibrium_solve,
)
from modhand.kinematics import (
    coupled_flexion_range,
    forward_kinematics,
    points_to_csv,
    project_workspace,
    sample_workspace,
)
from modhand.params import (
    DifferentialTrain,
    DriveState,
    FingerParams,
    JointState,
    default_params,
    load_params,
)
from modhand.ucm import (
    constraint_rank,
    motion_subspaces,
    stiffness_matrices,
    transmission_jacobians,
    transmission_state,
)

P = default_params()
LINE = np.array([6.0, 7.0, 4.2])
LINE_HAT = LINE / np.linalg.norm(LINE)

# Documented enveloping scenario (see README): moderate coupling springs,
# soft distal return spring, spheres seated against the proximal phalanx,
# drive schedule ending inside the all-phalanges-pressing window.
ENV_PARAMS = load_params(Path(__file__).parent / "data" / "env_springs.json")
ENV_SCENES = {
    30.0: ((33.0, 27.0, 0.0), 46.0),
    40.0: ((34.0, 28.0, 0.0), 27.5),
    50.0: ((32.0, 34.5, 0.0), 22.5),
}


def line_deviation(flex: np.ndarray) -> float:
    return float(
        np.linalg.norm(flex - (flex @ LINE_HAT) * LINE_HAT) / np.linalg.norm(flex)
    )


def report(n: int, text: str) -> None:
    print(f"PASS criterion {n}: {text}")


def test_criterion_01_differential_map():
    start = time.perf_counter()
    train = DifferentialTrain()
    theta, _ = drive_to_mcp(DriveState(1.0, 1.0), train)
    assert abs(theta.theta1 - 13.0 / 24.0) < 1e-12
    assert abs(theta.theta2) < 1e-12
    theta, _ = drive_to_mcp(DriveState(1.0, -1.0), train)
    assert abs(theta.theta1) < 1e-12
    assert abs(theta.theta2 - 13.0 / 24.0) < 1e-12

    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        q_aa, q_fe = rng.uniform(-3.0, 3.0, size=2)
        a = mcp_to_drive(q_aa, q_fe, train)
        _, (raa, rfe) = drive_to_mcp(a, train)
        worst = max(worst, abs(raa - q_aa), abs(rfe - q_fe))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 1.0
    report(1, f"differential map exact, round-trip max err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_coupling_ratio():
    coupling = P.coupling_model()
    q2, q3 = rigid_coupled_flexion(math.radians(60.0), coupling)
    err2 = abs(math.degrees(q2) - 70.0)
    err3 = abs(math.degrees(q3) - 42.0)
    assert err2 < 1e-12 and err3 < 1e-12
    residual = coupling_residual((6.0, 7.0, 4.2), coupling)
    assert np.max(np.abs(residual)) < 1e-12
    report(2, f"60deg -> (70, 42) deg, constraint residual {np.max(np.abs(residual)):.2e}")


def test_criterion_03_ucm_structure():
    start = time.perf_counter()
    jac = transmission_jacobians(P)
    assert jac.serial_joint == (-11.0, -11.0, -11.0)
    assert constraint_rank(P) == 3
    stiff = stiffness_matrices(P)
    joint = np.asarray(stiff.joint)
    assert np.array_equal(joint, joint.T)
    assert stiff.positive_definite

    rng = np.random.default_rng(303)
    successes = 0
    for _ in range(1000):
        params = FingerParams(
            drive_teeth=tuple(int(z) for z in rng.integers(1, 60, size=3)),
            drive_radii=tuple(rng.uniform(0.5, 30.0, size=3)),
            coupling_radii=tuple(rng.uniform(0.5, 30.0, size=3)),
            spring_serial=float(rng.uniform(0.1, 1e4)),
            spring_parallel=tuple(rng.uniform(0.1, 1e4, size=3)),
        )
        if stiffness_matrices(params).positive_definite:
            successes += 1
    elapsed = time.perf_counter() - start
    assert successes == 1000
    assert elapsed < 5.0
    report(3, f"serial row (-11,-11,-11), rank 3, SPD 1000/1000, {elapsed:.2f}s")


def test_criterion_04_jacobian_finite_differences():
    rng = np.random.default_rng(404)
    jac = transmission_jacobians(P)
    full = np.array([(*jac.serial_joint, jac.serial_drive), *((*row, 0.0) for row in jac.parallel)])
    worst = 0.0
    for _ in range(100):
        z = np.concatenate([rng.uniform(-1.0, 1.0, size=3), [rng.uniform(-5.0, 5.0)]])
        for col in range(4):
            h = (z[col] + 1e-3) - z[col]
            zp = z.copy(); zm = z.copy()
            zp[col] += h; zm[col] -= h
            fp = np.array(transmission_state(zp[:3], zp[3], P).as_array())
            fm = np.array(transmission_state(zm[:3], zm[3], P).as_array())
            worst = max(worst, float(np.max(np.abs((fp - fm) / (2 * h) - full[:, col]))))
    assert worst < 1e-9
    report(4, f"analytic vs central differences, max err {worst:.2e}")


def test_criterion_05_motion_subspaces():
    ms = motion_subspaces(P)
    norm_err = abs(np.linalg.norm(ms.active_direction) - 1.0)
    assert norm_err < 1e-12
    plane = np.array([9.625, 7.5, 10.0])
    residuals = np.abs(ms.passive_basis @ plane)
    assert np.max(residuals) < 1e-12
    assert tuple(ms.active_force) == (15.125, 12.5, 8.0)
    report(5, f"unit active direction, plane residuals {np.max(residuals):.2e}, "
              "force row (15.125, 12.5, 8)")


def test_criterion_06_fk_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    lengths = P.link_lengths
    worst = 0.0
    for _ in range(10_000):
        q = JointState(*rng.uniform(-math.pi, math.pi, size=4))
        tip = forward_kinematics(q, P).tip
        cums = np.cumsum([q.q1, q.q2, q.q3])
        u = sum(L * math.cos(c) for L, c in zip(lengths, cums))
        v = sum(L * math.sin(c) for L, c in zip(lengths, cums))
        oracle = np.array(
            [u * math.cos(q.q_aa), v, -u * math.sin(q.q_aa)]
        )
        worst = max(worst, float(np.max(np.abs(tip - oracle))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 5.0
    report(6, f"10k joint states, max tip deviation {worst:.2e} mm, {elapsed:.2f}s")


def test_criterion_07_workspace():
    start = time.perf_counter()
    cloud = sample_workspace(P, 100_000, seed=0, coupled=True)
    radii3 = np.linalg.norm(cloud, axis=1)
    assert np.all(radii3 <= P.reach + 1e-9)

    proj = project_workspace(cloud, "xoy")
    planar = np.linalg.norm(proj, axis=1)
    lo, hi = coupled_flexion_range(P)
    ratio = P.coupling_model().ratio
    inner = math.inf
    for q1 in np.linspace(lo, hi, 20_000):
        cums = np.cumsum([q1, q1 * ratio[1] / ratio[0], q1 * ratio[2] / ratio[0]])
        u = sum(L * math.cos(c) for L, c in zip(P.link_lengths, cums))
        v = sum(L * math.sin(c) for L, c in zip(P.link_lengths, cums))
        inner = min(inner, math.hypot(u, v))
    aa_max = max(abs(P.joint_limits[0][0]), abs(P.joint_limits[0][1]))
    inner_bound = inner * math.cos(aa_max)
    assert inner_bound > 0.0
    assert np.all(planar >= inner_bound - 1e-9)

    again = sample_workspace(P, 100_000, seed=0, coupled=True)
    csv_a = points_to_csv(cloud, ("x_mm", "y_mm", "z_mm"))
    csv_b = points_to_csv(again, ("x_mm", "y_mm", "z_mm"))
    assert csv_a.encode() == csv_b.encode()
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(7, f"100k coupled cloud in reach sphere, annulus inner radius "
              f"{inner_bound:.2f} mm, byte-identical CSV, {elapsed:.1f}s")


def test_criterion_08_adaptive_enveloping():
    start = time.perf_counter()
    summaries = []
    for diameter, (center, a_max) in sorted(ENV_SCENES.items()):
        obj = RigidObject.sphere(center, diameter / 2.0)
        schedule = np.linspace(0.0, a_max, 160)
        trace = envelop_sweep(schedule, ENV_PARAMS, obj)
        assert trace.status == "completed"
        pressing = [c for c in trace.final.contacts if c.force > 0.0]
        assert len(pressing) >= 3
        for step in trace.steps:
            for c in step.contacts:
                assert c.gap >= -1e-6
                assert abs(c.force * c.gap) <= 1e-6

        released = envelop_sweep(
            schedule, ENV_PARAMS, obj, remove_object_at=100
        )
        assert released.status == "completed"
        deviation = line_deviation(released.final.joints.flexion())
        assert deviation < 1e-3
        summaries.append(f"d={diameter:.0f}: {len(pressing)} contacts, "
                         f"release dev {deviation:.1e}")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(8, "; ".join(summaries) + f", {elapsed:.1f}s")


def test_criterion_09_rigid_limit_convergence():
    deviations = []
    for factor in (1e2, 1e4, 1e6):
        params = replace(P, spring_parallel=(100.0 * factor, 100.0 * factor, 100.0))
        q, _, _ = equilibrium_solve(5.0, JointState(), params, None)
        deviations.append(line_deviation(q.flexion()))
    assert deviations[0] > deviations[1] > deviations[2]
    report(9, "free-motion deviation " + " > ".join(f"{d:.1e}" for d in deviations))


def test_criterion_10_energy_model_soundness():
    rng = np.random.default_rng(1010)
    h = 1e-3
    worst = 0.0
    for _ in range(1000):
        q = rng.uniform(-1.5, 1.5, size=3)
        a = rng.uniform(-20.0, 20.0)
        grad = elastic_energy_gradient(q, a, P)
        fd = np.zeros(3)
        for j in range(3):
            qp = q.copy(); qm = q.copy()
            qp[j] += h; qm[j] -= h
            fd[j] = (elastic_energy(qp, a, P) - elastic_energy(qm, a, P)) / (2 * h)
        rel = np.linalg.norm(fd - grad) / (1.0 + np.linalg.norm(grad))
        worst = max(worst, rel)
    assert worst < 1e-6

    # multiplier vs optimal-energy derivative on 20 distal-contact scenes
    checked = 0
    trial = 0
    worst_force = 0.0
    hr = 1e-4
    while checked < 20 and trial < 60:
        trial += 1
        a0 = rng.uniform(5.0, 9.0)
        radius = rng.uniform(8.0, 14.0)
        t = rng.uniform(0.35, 0.8)
        depth = rng.uniform(0.08, 0.25)
        q_free, _, _ = equilibrium_solve(a0, JointState(), P, None)
        chain = forward_kinematics(q_free, P)
        p0, p1 = chain.segments()[2]
        point = p0 + t * (p1 - p0)
        d = p1 - p0
        inward = np.array([-d[1], d[0], 0.0])
        inward /= np.linalg.norm(inward)
        center = point + inward * (radius + P.link_radii[2] - depth)
        obj = RigidObject.sphere(tuple(center), radius)
        a = a0 + rng.uniform(0.2, 0.8)
        try:
            _, _, contacts = equilibrium_solve(a, JointState(), P, obj)
        except Exception:
            continue
        pressing = [c for c in contacts if c.force > 1e-6]
        if len(pressing) != 1 or pressing[0].phalanx != 3:
            continue
        force = pressing[0].force
        energies = []
        ok = True
        for signed in (hr, -hr):
            grown = RigidObject.sphere(obj.center, obj.radius + signed)
            try:
                qg, _, _ = equilibrium_solve(a, JointState(), P, grown)
            except Exception:
                ok = False
                break
            energies.append(elastic_energy(qg.flexion(), a, P))
        if not ok:
            continue
        fd_force = (energies[0] - energies[1]) / (2 * hr)
        rel = abs(fd_force - force) / max(force, 1e-9)
        assert rel <= 0.01
        worst_force = max(worst_force, rel)
        checked += 1
    assert checked == 20
    report(10, f"gradient FD max rel {worst:.1e}; force vs energy slope "
               f"max rel {worst_force:.1e} over 20 scenes")
