import math
import os
import random
import sys
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modhand import grasp
from modhand.errors import (
    InfeasibleStartError,
    NonConvergedError,
    PreconditionError,
    ValidationError,
)
from modhand.grasp import (
    ACTIVATION_THRESHOLD,
    COMPLEMENTARITY_TOL,
    PENETRATION_TOL,
    TOUCH_TOL,
    RigidObject,
    detect_contacts,
    elastic_energy,
    elastic_energy_gradient,
    envelop_sweep,
    equilibrium_solve,
    touches,
)
from modhand.kinematics import forward_kinematics, sample_workspace
from modhand.params import JointState, default_params
from modhand.ucm import transmission_jacobians, transmission_state

P = default_params()
LINE = np.array([6.0, 7.0, 4.2])
LINE_HAT = LINE / np.linalg.norm(LINE)

# Documented enveloping scenario: moderate coupling springs with a soft
# distal return element, spheres seated against the proximal phalanx.  The
# drive endpoint sits inside the window where all three phalanges press.
ENV_PARAMS = replace(P, spring_serial=200.0, spring_parallel=(300.0, 300.0, 0.2))
ENV_SCENES = {
    30.0: ((33.0, 27.0, 0.0), 46.0),
    40.0: ((34.0, 28.0, 0.0), 27.5),
    50.0: ((32.0, 34.5, 0.0), 22.5),
}
# Ejection: a small sphere above the curling finger.  The distal phalanx
# lands, then the middle one; the distal phalanx unloads and the middle one
# slides off, so the finger sweeps past with the drive still advancing.
EJECT_SCENE = ((40.0, 50.0, 0.0), 16.0, 60.0)  # center, diameter, a_max
# A sphere the finger pinches between its middle and distal phalanges but can
# never pass: the proximal phalanx overlaps it for every q1 in (6.24, 37.36)
# degrees, and every contact-free equilibrium past the first touch has q1
# beyond that band.
PINCH_SCENE = ((50.0, 20.0, 0.0), 16.0, 60.0)


def line_deviation(flex: np.ndarray) -> float:
    return float(
        np.linalg.norm(flex - (flex @ LINE_HAT) * LINE_HAT) / np.linalg.norm(flex)
    )


# --------------------------------------------------------------------------
# contact detection
# --------------------------------------------------------------------------

def test_far_sphere_no_candidates():
    chain = forward_kinematics(JointState(), P)
    obj = RigidObject.sphere((20.0, 200.0, 0.0), 15.0)
    assert detect_contacts(chain, P, obj) == []


def test_tangent_sphere_single_candidate():
    # center exactly capsule-radius + sphere-radius off the proximal axis
    chain = forward_kinematics(JointState(), P)
    obj = RigidObject.sphere((20.0, P.link_radii[0] + 15.0, 0.0), 15.0)
    cands = detect_contacts(chain, P, obj)
    assert len(cands) == 1
    assert cands[0].phalanx == 1
    assert abs(cands[0].gap) < 1e-9


def test_sphere_hitting_middle_and_distal():
    chain = forward_kinematics(JointState(), P)
    obj = RigidObject.sphere((70.0, 12.0, 0.0), 10.0)
    cands = detect_contacts(chain, P, obj)
    assert [c.phalanx for c in cands] == [2, 3]
    assert all(c.gap < 0 for c in cands)


@pytest.mark.parametrize("normal", [(math.inf, -1.0, 0.0), (0.0, math.nan, 0.0)])
def test_half_space_rejects_non_finite_normal(normal):
    with pytest.raises(ValidationError, match=r"half-space normal \[.*\] must be finite"):
        RigidObject.half_space((0.0, 25.0, 0.0), normal)


@pytest.mark.parametrize("normal, unit", [
    # |n| overflows to inf; normalizing by it would store (0, 0, 0)
    ((1e308, 1e308, 0.0), (math.sqrt(0.5), math.sqrt(0.5), 0.0)),
    # the squares underflow to 0; the normal would be rejected as zero
    ((1e-200, 0.0, 0.0), (1.0, 0.0, 0.0)),
    # the sum of squares is subnormal; the stored length would be 1.0000056
    ((1e-160, 0.0, 0.0), (1.0, 0.0, 0.0)),
], ids=["overflow", "underflow", "subnormal"])
def test_half_space_normal_survives_overflowing_norm(normal, unit):
    obj = RigidObject.half_space((0.0, 25.0, 0.0), normal)
    assert obj.normal == pytest.approx(unit, abs=1e-15)
    assert math.hypot(*obj.normal) == pytest.approx(1.0, abs=1e-15)
    assert all(type(v) is float for v in obj.normal)
    assert RigidObject.half_space((0.0, 25.0, 0.0), (0.0, -2.0, 0.0)).normal == (0.0, -1.0, 0.0)


def test_half_space_gap():
    chain = forward_kinematics(JointState(), P)
    obj = RigidObject.half_space((0.0, 30.0, 0.0), (0.0, -1.0, 0.0))
    cands = detect_contacts(chain, P, obj, threshold=100.0)
    # straight finger is 30 mm above the plane minus the capsule radius
    for c, radius in zip(cands, P.link_radii):
        assert c.gap == pytest.approx(30.0 - radius, abs=1e-12)


def test_contact_normals_unit():
    chain = forward_kinematics(JointState(), P)
    obj = RigidObject.sphere((70.0, 12.0, 0.0), 10.0)
    for c in detect_contacts(chain, P, obj):
        assert np.linalg.norm(c.normal) == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------------------------
# energy model
# --------------------------------------------------------------------------

def test_energy_zero_at_rest():
    assert elastic_energy((0.0, 0.0, 0.0), 0.0, P) == 0.0


def test_energy_gradient_matches_finite_differences():
    # E is quadratic, so central differences are exact up to rounding.
    rng = np.random.default_rng(31)
    h = 1e-3
    for _ in range(1000):
        q = rng.uniform(-1.5, 1.5, size=3)
        a = rng.uniform(-20.0, 20.0)
        grad = elastic_energy_gradient(q, a, P)
        fd = np.zeros(3)
        for j in range(3):
            qp = q.copy(); qm = q.copy()
            qp[j] += h; qm[j] -= h
            fd[j] = (elastic_energy(qp, a, P) - elastic_energy(qm, a, P)) / (2 * h)
        assert np.linalg.norm(fd - grad) <= 1e-6 * (1.0 + np.linalg.norm(grad))


# --------------------------------------------------------------------------
# free-motion equilibrium
# --------------------------------------------------------------------------

def test_free_rest_state():
    q, trans, contacts = equilibrium_solve(0.0, JointState(q_aa=0.25), P, None)
    assert q.flexion() == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
    assert q.q_aa == 0.25
    assert contacts == []
    assert elastic_energy(q.flexion(), 0.0, P) == pytest.approx(0.0, abs=1e-20)


def line_restricted_minimum(a: float, params) -> np.ndarray:
    """Oracle: minimize the elastic energy along the rigid-coupling line by
    dense grid refinement of the single line parameter."""
    lo, hi = 0.0, 0.5
    for _ in range(40):
        ss = np.linspace(lo, hi, 101)
        energies = [elastic_energy(LINE * s, a, params) for s in ss]
        i = int(np.argmin(energies))
        lo, hi = ss[max(0, i - 1)], ss[min(100, i + 1)]
    return LINE * (0.5 * (lo + hi))


def test_free_motion_rigid_limit_follows_coupling_line():
    # coupling springs at 1e4 times the serial spring
    params = replace(P, spring_parallel=(5e5, 5e5, 100.0))
    q, _, _ = equilibrium_solve(10.0, JointState(), params, None)
    flex = q.flexion()
    assert line_deviation(flex) < 1e-3
    oracle = line_restricted_minimum(10.0, params)
    assert np.linalg.norm(flex - oracle) / np.linalg.norm(flex) < 1e-3


def test_rigid_limit_deviation_monotone():
    deviations = []
    for factor in (1e2, 1e4, 1e6):
        params = replace(P, spring_parallel=(100.0 * factor, 100.0 * factor, 100.0))
        q, _, _ = equilibrium_solve(5.0, JointState(), params, None)
        deviations.append(line_deviation(q.flexion()))
    assert deviations[0] > deviations[1] > deviations[2]


def test_equilibrium_rejects_out_of_limit_start():
    with pytest.raises(PreconditionError):
        equilibrium_solve(0.0, JointState(q1=3.0), P, None)


def test_infeasible_start_raises():
    obj = RigidObject.sphere((20.0, 0.0, 0.0), 10.0)  # swallows the finger
    with pytest.raises(InfeasibleStartError):
        equilibrium_solve(0.0, JointState(), P, obj)


# --------------------------------------------------------------------------
# blocking and adaptive behavior
# --------------------------------------------------------------------------

BLOCKER = RigidObject.sphere((30.0, 25.0, 0.0), 15.0)


def test_blocked_proximal_pins_q1_while_distal_grows():
    q = JointState()
    results = []
    for a in (2.0, 6.0, 10.0, 14.0):
        qs, trans, contacts = equilibrium_solve(a, q, P, BLOCKER)
        results.append((qs, trans, contacts))
        q = qs
    q1s = [r[0].q1 for r in results]
    q2s = [r[0].q2 for r in results]
    q3s = [r[0].q3 for r in results]
    assert max(q1s) - min(q1s) < 1e-6          # pinned at the contact
    assert all(b > a for a, b in zip(q2s, q2s[1:]))   # keeps flexing
    assert all(b > a for a, b in zip(q3s, q3s[1:]))
    assert abs(results[-1][1].parallel[0]) > 0.1       # coupling broken
    assert any(c.phalanx == 1 and c.force > 0 for c in results[-1][2])


def test_non_converged_error_carries_last_iterate():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grasp, "MAX_OUTER", 1)
        with pytest.raises(NonConvergedError) as info:
            equilibrium_solve(10.0, JointState(), P, BLOCKER)
    joints, trans, contacts = info.value.best
    assert joints.within_limits(P)
    assert trans == transmission_state(joints.flexion(), 10.0, P)
    assert [c.phalanx for c in contacts] == [1]
    assert all(c.force == 0.0 for c in contacts)


def test_start_that_only_more_flexion_could_clear_has_no_feasible_equilibrium():
    # q1 rests on its upper stop, and the sphere presses 0.05 mm (within
    # RECOVERY_TOL) into the proximal phalanx on the side that only more q1
    # flexion could clear: the first QP's rows admit no point.
    q = JointState(q1=math.radians(100.0))
    obj = RigidObject.sphere((9.280296848169488, 21.944898961030905, 0.0), 5.0)
    assert q.q1 == P.joint_limits[1][1]
    [contact] = detect_contacts(forward_kinematics(q, P), P, obj)
    assert contact.phalanx == 1 and contact.gap == pytest.approx(-0.05, abs=1e-9)
    reason = "^constraint system admits no feasible equilibrium$"
    with pytest.raises(NonConvergedError, match=reason) as info:
        equilibrium_solve(0.0, q, P, obj)
    assert info.value.best is None


def test_non_converged_sweep_keeps_solved_steps():
    schedule = np.linspace(0.0, 10.0, 20)
    full = envelop_sweep(schedule, P, BLOCKER)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grasp, "MAX_OUTER", 1)
        capped = envelop_sweep(schedule, P, BLOCKER)
        kept = len(capped.steps)
        # the step right after the kept ones is the one that fails
        shorter = envelop_sweep(schedule[:kept + 1], P, BLOCKER)
    assert full.status == "completed" and full.error is None
    assert capped.status == "non-converged" and shorter.status == "non-converged"
    assert 0 < kept < len(schedule)
    assert capped.steps == full.steps[:kept]
    # the trace names the failing step and keeps the solver's error
    assert capped.error.step == kept
    assert isinstance(capped.error.cause, NonConvergedError)
    assert str(capped.error.cause) == "equilibrium iteration cap reached"


def test_contact_complementarity_and_penetration():
    q = JointState()
    for a in np.linspace(0.5, 14.0, 10):
        qs, _, contacts = equilibrium_solve(a, q, P, BLOCKER)
        q = qs
        for c in contacts:
            assert c.gap >= -1e-6
            assert abs(c.force * c.gap) <= 1e-6
            assert c.force >= 0.0


def test_half_space_ceiling_blocks_flexion():
    # solid occupies y >= 25: the curling finger presses into it and stops
    ceiling = RigidObject.half_space((0.0, 25.0, 0.0), (0.0, -1.0, 0.0))
    q = JointState()
    pressed = False
    for a in np.linspace(1.0, 16.0, 8):
        qs, _, contacts = equilibrium_solve(a, q, P, ceiling)
        q = qs
        for c in contacts:
            assert c.gap >= -1e-6
            assert abs(c.force * c.gap) <= 1e-6
        pressed = pressed or any(c.force > 0 for c in contacts)
    assert pressed
    chain = forward_kinematics(q, P)
    for (p0, p1), radius in zip(chain.segments(), P.link_radii):
        assert max(p0[1], p1[1]) <= 25.0 - radius + 1e-6


# --------------------------------------------------------------------------
# enveloping sweeps
# --------------------------------------------------------------------------

@pytest.mark.parametrize("diameter", sorted(ENV_SCENES))
def test_enveloping_three_contact_wrap(diameter):
    center, a_max = ENV_SCENES[diameter]
    obj = RigidObject.sphere(center, diameter / 2.0)
    trace = envelop_sweep(np.linspace(0.0, a_max, 160), ENV_PARAMS, obj)
    assert trace.status == "completed"
    pressing = [c for c in trace.final.contacts if c.force > 0.0]
    assert len(pressing) >= 3
    assert {c.phalanx for c in pressing} == {1, 2, 3}
    for step in trace.steps:
        assert math.isfinite(step.energy)
        assert step.joints.within_limits(ENV_PARAMS)
        for c in step.contacts:
            assert c.gap >= -1e-6
            assert abs(c.force * c.gap) <= 1e-6


@pytest.mark.parametrize("diameter", [40.0])
def test_removal_restores_coupling_ratio(diameter):
    center, a_max = ENV_SCENES[diameter]
    obj = RigidObject.sphere(center, diameter / 2.0)
    trace = envelop_sweep(
        np.linspace(0.0, a_max, 160), ENV_PARAMS, obj, remove_object_at=100
    )
    assert trace.status == "completed"
    for step in trace.steps[100:]:
        assert not step.object_present
        assert step.contacts == ()
        assert line_deviation(step.joints.flexion()) < 1e-3


def touching(step):
    return [c.phalanx for c in step.contacts if touches(c)]


def min_gap(joints, obj) -> float:
    chain = forward_kinematics(joints, ENV_PARAMS)
    every = detect_contacts(chain, ENV_PARAMS, obj, threshold=math.inf)
    return min(c.gap for c in every)


def test_unreachable_object_ends_limit_saturated():
    # A sphere far out of reach: the drive presses every flexion joint into
    # its upper stop with no contact load, so the sweep stops there.
    obj = RigidObject.sphere((500.0, 500.0, 0.0), 5.0)
    trace = envelop_sweep(np.linspace(0.0, 120.0, 80), P, obj)
    assert trace.status == "limit-saturated"
    assert trace.error is None
    assert len(trace.steps) == 69
    assert trace.final.contacts == ()
    for q, (_, hi) in zip(trace.final.joints.flexion(), P.joint_limits[1:]):
        assert hi - 1e-12 <= q <= hi


def test_ejection_flag_fires():
    center, diameter, a_max = EJECT_SCENE
    obj = RigidObject.sphere(center, diameter / 2.0)
    trace = envelop_sweep(np.linspace(0.0, a_max, 150), ENV_PARAMS, obj)
    assert trace.status == "ejected"
    counts = [len(touching(s)) for s in trace.steps]
    assert counts[-1] == 0
    assert max(counts[:-1]) >= 2
    assert all(s.object_present for s in trace.steps)
    assert trace.steps[-1].a > trace.steps[-2].a

    # The landing is reached, not an artifact of the drive step: a 10x finer
    # schedule over the ejecting interval also ends contact-free, and every
    # refined step is a certified equilibrium without penetration.
    before, last = trace.steps[-2], trace.steps[-1]
    fine = envelop_sweep(
        np.linspace(before.a, last.a, 11), ENV_PARAMS, obj, q_init=before.joints
    )
    assert fine.status == "ejected"
    assert touching(fine.final) == []
    assert fine.final.a <= last.a
    for step in fine.steps:
        assert min_gap(step.joints, obj) >= -PENETRATION_TOL
        for c in step.contacts:
            assert c.force >= 0.0
            assert abs(c.force * c.gap) <= 1e-6
    for step in trace.steps + fine.steps:
        assert_local_min(step, obj, ENV_PARAMS)


def test_ejection_steps_near_the_fold_are_minima():
    # Steps 74 to 76 of the ejection sweep pass close to the fold where the
    # branch with the proximal phalanx lifted off its stop ends; refined 10x,
    # every step must still be a local minimum, not a saddle of that branch.
    center, diameter, a_max = EJECT_SCENE
    obj = RigidObject.sphere(center, diameter / 2.0)
    trace = envelop_sweep(np.linspace(0.0, a_max, 150), ENV_PARAMS, obj)
    start, end = trace.steps[74], trace.steps[76]
    fine = envelop_sweep(
        np.linspace(start.a, end.a, 21), ENV_PARAMS, obj, q_init=start.joints
    )
    assert fine.status == "completed"
    for step in fine.steps:
        assert_kkt(step, obj, ENV_PARAMS)
        assert_local_min(step, obj, ENV_PARAMS)


def test_coarse_schedule_reports_no_saddle():
    # An 8 mm sphere above the curling finger on a coarse schedule: a saddle
    # certified near the fold would be followed by a false ejection.
    obj = RigidObject.sphere((50.0, 40.0, 0.0), 4.0)
    trace = envelop_sweep(np.linspace(0.0, 60.0, 75), ENV_PARAMS, obj)
    assert trace.status != "ejected"
    for step in trace.steps:
        assert_local_min(step, obj, ENV_PARAMS)


def test_solver_never_steps_through_the_object():
    center, diameter, a_max = PINCH_SCENE
    obj = RigidObject.sphere(center, diameter / 2.0)
    below, inside = math.radians(6.2), math.radians(6.3)  # the band starts between
    for q1, overlaps in ((below, False), (inside, True)):
        chain = forward_kinematics(JointState(q1=q1), ENV_PARAMS)
        proximal = detect_contacts(chain, ENV_PARAMS, obj, threshold=math.inf)[0]
        assert proximal.phalanx == 1 and (proximal.gap < 0.0) == overlaps

    # From the straight start the proximal phalanx is 4.6 mm short of the
    # sphere; the contact-free equilibrium at a = 21 lies beyond it.
    try:
        q, _, contacts = equilibrium_solve(21.0, JointState(), ENV_PARAMS, obj)
    except NonConvergedError:
        pass
    else:
        assert q.q1 < below
        assert any(touches(c) for c in contacts)
    for n in (2, 3, 4, 5, 150):
        trace = envelop_sweep(np.linspace(0.0, a_max, n), ENV_PARAMS, obj)
        assert trace.status != "ejected"
        for step in trace.steps:
            assert step.joints.q1 < below
            assert min_gap(step.joints, obj) >= -PENETRATION_TOL


def step_bits(a, joints, transmission, energy, contacts) -> list:
    """Every number of a trace step, bit for bit."""
    values = [a, *joints.as_array(), *transmission.as_array(), energy]
    for c in contacts:
        values += [c.phalanx, *c.point, *c.normal, c.gap, c.force]
    return [float(v).hex() for v in values]


def trace_bits(trace) -> list:
    return [trace.status] + [
        step_bits(s.a, s.joints, s.transmission, s.energy, s.contacts) for s in trace.steps
    ]


def env_sweep(diameter, **kwargs):
    center, a_max = ENV_SCENES[diameter]
    obj = RigidObject.sphere(center, diameter / 2.0)
    return envelop_sweep(np.linspace(0.0, a_max, 160), ENV_PARAMS, obj, **kwargs)


def test_sweep_determinism_bit_for_bit():
    # Another sweep in between must not change a trace: nothing a sweep
    # evaluates outlives it.
    first = trace_bits(env_sweep(40.0))
    other = trace_bits(env_sweep(30.0))
    again = trace_bits(env_sweep(40.0))
    assert first == again
    assert other != first


def test_phalanx_between_object_and_stop_reports_the_least_force():
    # On the 40 mm scene the proximal phalanx is held between the sphere and
    # the q1 lower stop, whose rows are anti-parallel, so no QP subset holds
    # both.  The reported contact force is the least that balances the load:
    # it falls to 0 while the stop's multiplier carries the load, and comes
    # back when the stop unloads.
    mults, solve = [], grasp._solve

    def recorded(*args):
        sol = solve(*args)
        mults.append(sol.mult)
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grasp, "_solve", recorded)
        trace = env_sweep(40.0)
    assert trace.status == "completed"
    proximal = [next(c for c in s.contacts if c.phalanx == 1) for s in trace.steps]
    assert all(c.gap <= TOUCH_TOL for c in proximal[1:])
    assert all(abs(s.joints.q1) <= 1e-12 for s in trace.steps[128:])
    assert round(proximal[129].force, 2) == 3.47 and 0 not in mults[129]
    assert all(c.force == 0.0 for c in proximal[130:151])
    assert all(m[0] > 0.0 and 6 not in m for m in mults[130:151])
    assert round(proximal[151].force, 2) == 1.04 and 0 not in mults[151]


def record_kernel_calls(mp) -> list:
    """Wrap the contact kernel; every evaluation appends (frame, x bytes)."""
    calls = []
    kernel = grasp._kernel

    def recorded(x, frame):
        calls.append((frame, np.asarray(x, dtype=float).tobytes()))
        return kernel(x, frame)

    mp.setattr(grasp, "_kernel", recorded)
    return calls


def assert_no_repeats(calls):
    for (f0, x0), (f1, x1) in zip(calls, calls[1:]):
        assert not (f0 is f1 and x0 == x1), "an evaluation repeats the one before it"


@pytest.mark.parametrize("scene, bound", [
    (30.0, 2.0), (40.0, 1.1), (50.0, 1.15), ("eject", 3.4), ("ceiling", 2.0),
])
def test_each_iterate_is_evaluated_once(scene, bound):
    with pytest.MonkeyPatch.context() as mp:
        calls = record_kernel_calls(mp)
        if scene == "eject":
            center, diameter, a_max = EJECT_SCENE
            obj = RigidObject.sphere(center, diameter / 2.0)
            trace = envelop_sweep(np.linspace(0.0, a_max, 150), ENV_PARAMS, obj)
        elif scene == "ceiling":
            ceiling = RigidObject.half_space((0.0, 25.0, 0.0), (0.0, -1.0, 0.0))
            trace = envelop_sweep(np.linspace(0.0, 16.0, 160), P, ceiling)
        else:
            trace = env_sweep(scene)
    assert_no_repeats(calls)
    assert len(calls) / len(trace.steps) <= bound


def test_each_solve_fits_once_per_qp():
    # Certification fits one least-squares system on the rows the QP rested
    # on, so no solve of the five bench scenes fits more often than it
    # solves a QP.
    counts, excess = {"qp": 0, "fit": 0}, []
    solve, solve_qp, lstsq = grasp._solve, grasp._solve_qp, grasp._lstsq

    def counted_solve(a, *args):
        counts.update(qp=0, fit=0)
        try:
            return solve(a, *args)
        finally:
            if counts["fit"] > counts["qp"]:
                excess.append((a, dict(counts)))

    def counted_qp(*args, **kwargs):
        counts["qp"] += 1
        return solve_qp(*args, **kwargs)

    def counted_lstsq(*args):
        counts["fit"] += 1
        return lstsq(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grasp, "_solve", counted_solve)
        mp.setattr(grasp, "_solve_qp", counted_qp)
        mp.setattr(grasp, "_lstsq", counted_lstsq)
        for params, obj, schedule in bench_scenes(0):
            assert envelop_sweep(schedule, params, obj).status != "non-converged"
    assert excess == []


def test_certification_fits_the_rows_the_qp_rested_on():
    # At step 53 of the 40 mm sweep q1 rests on its lower stop, but the QP
    # rests on the proximal contact alone, whose row is parallel to the
    # stop's.  Certified on the QP's rows, the step fits without the stop;
    # with the stop as well, least squares gives the stop a multiplier near
    # -7.7e3 and the point fails.
    center, a_max = ENV_SCENES[40.0]
    frame = grasp._solve_frame(0.0, ENV_PARAMS, RigidObject.sphere(center, 20.0))
    q, sol = JointState(), None
    for a in np.linspace(0.0, a_max, 160)[:54]:
        sol = grasp._solve(a, q, frame, sol)
        q = sol.joints
    x, c = (q.q1, q.q2, q.q3), tuple(d * float(a) for d in frame.joint_drive)
    assert q.q1 - frame.lo[0] <= 1e-9 and set(sol.mult) == {6}
    mult = grasp._certify_kkt(x, frame, c, sol.hits, {6})
    assert mult == sol.mult and 0 not in mult
    assert grasp._certify_kkt(x, frame, c, sol.hits, {0, 6}) is None
    grad = elastic_energy_gradient(x, a, ENV_PARAMS)
    stop, proximal = grasp._lstsq([grasp._BOX_ROWS[0], sol.hits.rows[6].grad], grad)
    assert stop == pytest.approx(-7.7e3, rel=0.01)


def test_equilibrium_solve_evaluates_each_iterate_once():
    center, _ = ENV_SCENES[30.0]
    with pytest.MonkeyPatch.context() as mp:
        calls = record_kernel_calls(mp)
        _, _, contacts = equilibrium_solve(
            20.0, JointState(), ENV_PARAMS, RigidObject.sphere(center, 15.0)
        )
    assert any(touches(c) for c in contacts)
    assert_no_repeats(calls)


@pytest.mark.parametrize("diameter, remove_at", [(30.0, None), (40.0, 100)])
def test_reused_evaluations_change_no_result(diameter, remove_at):
    # The same solves one step at a time, each in a fresh copy of the frame,
    # so no step can reuse what the step before it evaluated.
    center, a_max = ENV_SCENES[diameter]
    obj = RigidObject.sphere(center, diameter / 2.0)
    schedule = np.linspace(0.0, a_max, 160)
    frame = grasp._solve_frame(0.0, ENV_PARAMS, obj)
    with pytest.MonkeyPatch.context() as mp:
        calls = record_kernel_calls(mp)
        q, sol, steps = JointState(), None, []
        for i, a in enumerate(schedule):
            present = remove_at is None or i < remove_at
            sol = grasp._solve(a, q, replace(frame, obj=frame.obj if present else None), sol)
            energy = elastic_energy(sol.joints.flexion(), a, ENV_PARAMS)
            steps.append(step_bits(a, sol.joints, sol.transmission, energy, sol.contacts))
            q = sol.joints
        unshared = len(calls)
        trace = env_sweep(diameter, remove_object_at=remove_at)
    assert trace_bits(trace) == ["completed"] + steps
    assert len(calls) - unshared < unshared


def bench_scenes(seed):
    """The benchmark's enveloping scenes at ``seed``: the three documented
    spheres moved by x in [-0.5, 0.5] mm and y in [0, 0.5] mm (unmoved at
    seed 0), the pinch scene and a half-space ceiling."""
    rng = random.Random(seed)
    for diameter, (center, a_max) in sorted(ENV_SCENES.items()):
        x, y, z = center
        if seed:
            x += rng.uniform(-0.5, 0.5)
            y += rng.uniform(0.0, 0.5)
        yield ENV_PARAMS, RigidObject.sphere((x, y, z), diameter / 2.0), np.linspace(0.0, a_max, 160)
    center, diameter, a_max = PINCH_SCENE
    yield ENV_PARAMS, RigidObject.sphere(center, diameter / 2.0), np.linspace(0.0, a_max, 150)
    ceiling = RigidObject.half_space((0.0, 25.0, 0.0), (0.0, -1.0, 0.0))
    yield P, ceiling, np.linspace(0.0, 16.0, 160)


def test_energy_gradient_is_the_certified_formula():
    # The public gradient is the one certification tests: H x + joint_drive a,
    # each row summed left to right from the stiffness blocks, bit for bit.
    for params, obj, schedule in bench_scenes(0):
        stiff = grasp.stiffness_matrices(params)
        for step in envelop_sweep(schedule, params, obj).steps:
            x0, x1, x2 = step.joints.flexion()
            expected = tuple(h0 * x0 + h1 * x1 + h2 * x2 + d * step.a
                             for (h0, h1, h2), d in zip(stiff.joint, stiff.joint_drive))
            assert elastic_energy_gradient((x0, x1, x2), step.a, params) == expected


def test_reported_joints_stay_in_the_joint_box():
    # The QP accepts points up to QP_TOL outside the box; a joint resting on
    # its stop must still report the stop itself, not a hair beyond it.
    for seed in range(13):
        for params, obj, schedule in bench_scenes(seed):
            for step in envelop_sweep(schedule, params, obj).steps:
                for value, (lo, hi) in zip(step.joints.flexion(), params.joint_limits[1:]):
                    assert lo <= value <= hi, f"seed {seed}: {value} outside [{lo}, {hi}]"


def test_result_records_are_built_final():
    # The result records neither convert nor copy their fields, so each
    # builder must hand over float tuples and read-only arrays itself.
    def floats(v, n=3):
        return type(v) is tuple and len(v) == n and all(type(x) is float for x in v)

    def final(contacts):
        return all(floats(c.point) and floats(c.normal) for c in contacts)

    for params, obj, schedule in bench_scenes(0):
        trace = envelop_sweep(schedule, params, obj)
        assert type(trace.steps) is tuple
        for step in trace.steps:
            assert type(step.contacts) is tuple and final(step.contacts)
            state = step.transmission
            assert type(state.serial) is float and floats(state.parallel)
    jac = transmission_jacobians(P)
    assert floats(jac.serial_joint) and type(jac.serial_drive) is float
    assert type(jac.parallel) is tuple and all(floats(row) for row in jac.parallel)
    chain = forward_kinematics(JointState(), P)
    for obj in (RigidObject.sphere((70.0, 12.0, 0.0), 10.0),
                RigidObject.half_space((0.0, 5.0, 0.0), (1.0, -2.0, 0.0))):
        contacts = detect_contacts(chain, P, obj)
        assert contacts and final(contacts)

    assert not sample_workspace(P, 10).flags.writeable
    base = np.eye(4)
    base[:3, 3] = (1.0, 2.0, 3.0)
    based = forward_kinematics(JointState(), P, base=base)
    for c in (chain, based):
        assert not any(a.flags.writeable for a in c.frames)
    assert base.flags.writeable and not any(np.shares_memory(f, base) for f in based.frames)


def profiled(fn, calls):
    """``fn`` run under a profile hook that counts in ``calls`` each numpy call
    it makes: a C function of numpy or a method of a numpy object, or a frame
    of numpy's Python code."""
    numpy_dir = os.path.dirname(np.__file__)

    def hook(frame, event, arg):
        if event == "c_call":
            owner = type(getattr(arg, "__self__", None)).__module__
            if (getattr(arg, "__module__", None) or owner).split(".")[0] == "numpy":
                calls[arg.__qualname__] += 1
        elif event == "call" and frame.f_code.co_filename.startswith(numpy_dir):
            calls[frame.f_code.co_name] += 1

    def run(*args):
        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            return fn(*args)
        finally:
            sys.setprofile(previous)

    return run


def test_solved_step_makes_no_numpy_call():
    # A solved step runs on floats: no C function of numpy or method of a
    # numpy object is called, and no frame of numpy's Python code runs.
    calls = Counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grasp, "_solve", profiled(grasp._solve, calls))
        trace = env_sweep(30.0)
    assert len(trace.steps) == 160
    assert calls == Counter()


@pytest.mark.parametrize("case", ["30mm", "ceiling", "normal"])
def test_sweep_makes_no_numpy_call(case):
    # A whole sweep runs on floats, its swing frame included: no C function
    # of numpy or method of a numpy object is called, and no frame of numpy's
    # Python code runs.  A half-space's normal is normalized on floats.
    center, a_max = ENV_SCENES[30.0]
    env = np.linspace(0.0, a_max, 160).tolist()
    low = np.linspace(0.0, 16.0, 160).tolist()
    run = {
        "30mm": lambda: envelop_sweep(env, ENV_PARAMS, RigidObject.sphere(center, 15.0)),
        "ceiling": lambda: envelop_sweep(
            low, P, RigidObject.half_space((0.0, 25.0, 0.0), (0.0, -1.0, 0.0))),
        "normal": lambda: RigidObject.half_space((0, 25, 0), (1, -2, 0)),
    }[case]
    calls = Counter()
    result = profiled(run, calls)()
    if case == "normal":
        assert result.normal == (1 / math.sqrt(5), -2 / math.sqrt(5), 0.0)
    else:
        assert (result.status, len(result.steps)) == ("completed", 160)
    assert calls == Counter()


def test_swing_frame_has_the_dh_chain_bits():
    # The solves' swing frame is the DH chain's first pose computed on
    # floats: every entry has the chain's bits, the sign of zero included.
    lo, hi = P.joint_limits[0]
    rng = random.Random(7)
    swings = [0.0, -0.0, lo, hi, 1e-300, 5e-324, math.pi / 2, -math.pi / 2]
    swings += [rng.uniform(lo, hi) for _ in range(20_000)]
    swings += [rng.uniform(-7.0, 7.0) for _ in range(20_000)]
    for q_aa in swings:
        frame = grasp._solve_frame(q_aa, P, None)
        rows = [[*r, o] for r, o in zip(frame.rotation, frame.origin)]
        dh = forward_kinematics(JointState(q_aa=q_aa), P).frames[0][:3].tolist()
        assert [[v.hex() for v in r] for r in rows] == [[v.hex() for v in r] for r in dh], q_aa


def sum_312(iterable, start=0):
    """CPython 3.12's builtin ``sum``: ints add exactly; from the first float
    on, Neumaier's compensated summation, the compensation added at the end
    when it is finite and nonzero."""
    total, items = start, iter(iterable)
    for x in items:
        total = total + x
        if isinstance(total, float):
            break
    c = 0.0
    for x in items:
        if isinstance(x, float):
            t = total + x
            c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        else:
            total = total + x
    return total + c if c and math.isfinite(c) else total


def test_traces_do_not_depend_on_the_sum_algorithm():
    # Python 3.12 made ``sum`` compensate its float rounding.  The solver
    # adds its floats left to right itself, so no trace bit depends on it.
    assert sum_312([0.1] * 10) == 1.0 and sum_312([1, 2, True]) == 4

    def traces():
        return [trace_bits(envelop_sweep(schedule, params, obj))
                for params, obj, schedule in bench_scenes(0)]

    plain = traces()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grasp, "sum", sum_312, raising=False)
        compensated = traces()
    assert compensated == plain


def test_short_reports_do_not_depend_on_the_sum_algorithm(capsys):
    # The float report code adds left to right too: with 3.12's sum in the
    # modules drive-map and ucm-report run, they print the same bytes.
    from modhand import cli, drive, params, ucm

    reports = [[*argv, *fmt] for fmt in ([], ["--format", "json"]) for argv in (
        ["drive-map", "--a1", "0.7", "--a2", "-0.3"], ["ucm-report"],
        ["ucm-report", "--config", "text-ratio"])]

    def outputs():
        assert [cli.main(argv) for argv in reports] == [0] * len(reports)
        return capsys.readouterr().out

    plain = outputs()
    with pytest.MonkeyPatch.context() as mp:
        for module in (ucm, params, drive):
            mp.setattr(module, "sum", sum_312, raising=False)
        assert outputs() == plain


def test_sweep_rejects_decreasing_schedule():
    obj = RigidObject.sphere((30.0, 25.0, 0.0), 15.0)
    with pytest.raises(ValidationError):
        envelop_sweep([0.0, 1.0, 0.5], P, obj)
    with pytest.raises(ValidationError):
        envelop_sweep([], P, obj)


# --------------------------------------------------------------------------
# fingertip force
# --------------------------------------------------------------------------

def distal_contact_scene(a0: float, radius: float, t: float, depth: float = 0.15):
    """Sphere tangent to the distal phalanx (parameter t along it) at the
    free posture for drive a0, pushed ``depth`` mm into the approach."""
    q, _, _ = equilibrium_solve(a0, JointState(), P, None)
    chain = forward_kinematics(q, P)
    p0, p1 = chain.segments()[2]
    point = p0 + t * (p1 - p0)
    direction = p1 - p0
    inward = np.array([-direction[1], direction[0], 0.0])
    inward /= np.linalg.norm(inward)
    center = point + inward * (radius + P.link_radii[2] - depth)
    return RigidObject.sphere(tuple(center), radius)


def test_force_zero_at_contact_onset():
    # A sphere tangent to the distal phalanx at the free posture: the distal
    # contact alone touches, and it carries no force yet.
    obj = distal_contact_scene(6.0, 10.0, 0.6, depth=0.0)
    _, _, contacts = equilibrium_solve(6.0, JointState(), P, obj)
    touching = [c for c in contacts if touches(c)]
    assert [c.phalanx for c in touching] == [3]
    assert touching[0].force == pytest.approx(0.0, abs=1e-6)


def test_force_monotone_in_drive():
    obj = distal_contact_scene(6.0, 10.0, 0.6, depth=0.1)
    forces = []
    q = JointState()
    for a in np.linspace(6.0, 9.0, 8):
        qs, _, contacts = equilibrium_solve(a, q, P, obj)
        q = qs
        pressing = [c for c in contacts if c.force > 1e-9]
        assert len(pressing) == 1 and pressing[0].phalanx == 3
        forces.append(pressing[0].force)
    assert all(b >= a - 1e-9 for a, b in zip(forces, forces[1:]))


def test_multiplier_matches_energy_derivative_20_scenes():
    # f = -dE*/dd where d inflates the sphere radius (tightening the gap);
    # central difference of the optimal energy against the multiplier.
    rng = np.random.default_rng(88)
    h = 1e-4
    checked = 0
    trial = 0
    while checked < 20 and trial < 60:
        trial += 1
        a0 = rng.uniform(5.0, 9.0)
        radius = rng.uniform(8.0, 14.0)
        t = rng.uniform(0.35, 0.8)
        depth = rng.uniform(0.08, 0.25)
        obj = distal_contact_scene(a0, radius, t, depth)
        a = a0 + rng.uniform(0.2, 0.8)
        try:
            qs, _, contacts = equilibrium_solve(a, JointState(), P, obj)
        except Exception:
            continue
        pressing = [c for c in contacts if c.force > 1e-6]
        if len(pressing) != 1 or pressing[0].phalanx != 3:
            continue
        force = pressing[0].force
        energies = []
        ok = True
        for signed in (h, -h):
            grown = RigidObject.sphere(obj.center, obj.radius + signed)
            try:
                qg, _, _ = equilibrium_solve(a, JointState(), P, grown)
            except Exception:
                ok = False
                break
            energies.append(elastic_energy(qg.flexion(), a, P))
        if not ok:
            continue
        fd = (energies[0] - energies[1]) / (2 * h)
        assert abs(fd - force) <= 0.01 * max(force, 1e-9), (
            f"scene {trial}: multiplier {force} vs energy slope {fd}"
        )
        checked += 1
    assert checked == 20


# --------------------------------------------------------------------------
# swing-frame kernel against the world-frame DH oracle
# --------------------------------------------------------------------------

def world_gap(p0, p1, cap_radius, obj):
    """Oracle: signed gap, unit normal, axis point and contact point of one
    capsule segment against the object, in world coordinates of the DH
    chain."""
    if obj.shape == "sphere":
        center = np.asarray(obj.center)
        d = p1 - p0
        t = min(1.0, max(0.0, float(np.dot(center - p0, d)) / float(np.dot(d, d))))
        axis_point = p0 + t * d
        diff = axis_point - center
        dist = float(np.linalg.norm(diff))
        n = diff / dist
        gap = dist - cap_radius - obj.radius
    else:
        n = np.asarray(obj.normal)
        g0 = float(np.dot(n, p0 - np.asarray(obj.point)))
        g1 = float(np.dot(n, p1 - np.asarray(obj.point)))
        t = 0.5 if abs(g0 - g1) <= 1e-12 else (0.0 if g0 < g1 else 1.0)
        axis_point = p0 + t * (p1 - p0)
        gap = min(g0, g1) - cap_radius
    return gap, n, axis_point, axis_point - cap_radius * n


def world_rows(joints, params, obj):
    """Oracle: (gap, normal, contact point, gradient row) per phalanx; the
    row is n . (axis x (axis point - joint k)) for the joints proximal to
    the phalanx, with the flexion axis and joints taken from the DH
    chain."""
    chain = forward_kinematics(joints, params)
    axis = chain.frames[0][:3, 2]
    pivots = chain.joint_positions()[:3]
    out = []
    for i, ((p0, p1), radius) in enumerate(zip(chain.segments(), params.link_radii)):
        gap, n, axis_point, point = world_gap(p0, p1, radius, obj)
        grad = np.zeros(3)
        for k in range(i + 1):
            grad[k] = float(np.dot(n, np.cross(axis, axis_point - pivots[k])))
        out.append((gap, n, point, grad))
    return out


def kernel_at(x, q_aa, params, obj):
    frame = grasp._frame(
        forward_kinematics(JointState(q_aa=q_aa), params).frames[0], params, obj
    )
    return grasp._kernel(np.asarray(x, dtype=float), frame)


FLEX = st.floats(min_value=0.0, max_value=1.7)
SWING = st.one_of(st.floats(-0.35, -1e-3), st.floats(1e-3, 0.35))
COORD = st.floats(min_value=-40.0, max_value=100.0)
SPHERES = st.builds(
    lambda x, y, z, r: RigidObject.sphere((x, y, z), r),
    COORD, COORD, st.one_of(st.floats(-30.0, -1e-3), st.floats(1e-3, 30.0)),
    st.floats(min_value=2.0, max_value=30.0),
)
HALF_SPACES = st.builds(
    lambda point, normal: RigidObject.half_space(point, normal),
    st.tuples(COORD, COORD, COORD),
    st.tuples(*[st.floats(min_value=-1.0, max_value=1.0)] * 3).filter(
        lambda n: np.linalg.norm(n) > 0.1 and abs(n[2]) > 1e-3
    ),
)
OBJECTS = st.one_of(SPHERES, HALF_SPACES)


def smooth_around(x, q_aa, params, obj, h):
    """Whether every phalanx keeps its closest-point case (interior, one
    endpoint, half-space endpoint) and a clear normal within ``h`` of ``x``,
    so finite differences see one smooth branch."""
    cases = None
    for j in range(3):
        for sign in (-1.0, 1.0):
            xs = np.array(x, dtype=float)
            xs[j] += sign * h
            hits = kernel_at(xs, q_aa, params, obj)
            here = [(hit.t if hit.t in (0.0, 1.0) else "in") for hit in hits]
            cases = cases or here
            if here != cases or any(hit.t == 0.5 and obj.shape != "sphere" for hit in hits):
                return False
            if obj.shape == "sphere" and any(
                hit.gap + r + obj.radius < 1e-2 for hit, r in zip(hits, params.link_radii)
            ):
                return False
    return True


@settings(max_examples=200, deadline=None)
@given(q_aa=SWING, x=st.tuples(FLEX, FLEX, FLEX), obj=OBJECTS)
def test_kernel_matches_world_frame_oracle(q_aa, x, obj):
    joints = JointState(q_aa, *x)
    oracle = world_rows(joints, P, obj)
    if obj.shape == "half_space":
        chain = forward_kinematics(joints, P)
        n = np.asarray(obj.normal)
        for p0, p1 in chain.segments():
            assume(abs(float(np.dot(n, p1 - p0))) > 1e-6)  # no end-point tie
    contacts = detect_contacts(forward_kinematics(joints, P), P, obj, threshold=math.inf)
    hits = kernel_at(x, q_aa, P, obj)
    for (gap, n, point, grad), contact, hit in zip(oracle, contacts, hits):
        assert contact.gap == pytest.approx(gap, abs=1e-9)
        assert hit.gap == contact.gap
        assert np.asarray(contact.normal) == pytest.approx(n, abs=1e-9)
        assert np.asarray(contact.point) == pytest.approx(point, abs=1e-9)
        assert np.asarray(hit.grad) == pytest.approx(grad, abs=1e-9)


def object_near(data, joints, i, form):
    """An object within the activation threshold of phalanx ``i`` (0 is
    proximal) at ``joints``, whose closest point on it has the given form:
    a sphere beside the axis ("interior") or past one end ("endpoint"), or a
    half-space below the phalanx's lower end ("half_space")."""
    chain = forward_kinematics(joints, P)
    p0, p1 = chain.segments()[i]
    axis = (p1 - p0) / np.linalg.norm(p1 - p0)
    plane_normal = chain.frames[0][:3, 2]  # the flexion axes
    turn = data.draw(st.floats(-math.pi, math.pi))
    side = math.cos(turn) * np.cross(plane_normal, axis) + math.sin(turn) * plane_normal
    gap = data.draw(st.floats(-0.4, ACTIVATION_THRESHOLD))
    reach = P.link_radii[i] + gap
    if form == "half_space":
        n = np.array(data.draw(HALF_SPACES).normal)
        assume(abs(float(np.dot(n, p1 - p0))) > 1e-6)  # no end-point tie
        lowest = min(float(np.dot(n, p0)), float(np.dot(n, p1)))
        return RigidObject.half_space(n * (lowest - reach), n)
    radius = data.draw(st.floats(min_value=2.0, max_value=30.0))
    if form == "interior":
        t = data.draw(st.floats(0.05, 0.95))
        return RigidObject.sphere(p0 + t * (p1 - p0) + (reach + radius) * side, radius)
    end = data.draw(st.sampled_from([0, 1]))
    tilt = data.draw(st.floats(-1.2, 1.2))
    away = math.cos(tilt) * (axis if end else -axis) + math.sin(tilt) * side
    return RigidObject.sphere((p1 if end else p0) + (reach + radius) * away, radius)


@settings(max_examples=200, deadline=None)
@given(q_aa=SWING, x=st.tuples(FLEX, FLEX, FLEX), data=st.data())
def test_kernel_hessians_match_gradient_differences(q_aa, x, data):
    # The kernel computes the Hessian of candidates only, so every scene puts
    # an object within the activation threshold of one phalanx, in each of
    # the three closed forms: interior sphere point, sphere end point and
    # half-space end point.
    i = data.draw(st.integers(0, 2))
    form = data.draw(st.sampled_from(["interior", "endpoint", "half_space"]))
    obj = object_near(data, JointState(q_aa, *x), i, form)
    h = 1e-6
    assume(smooth_around(x, q_aa, P, obj, h))
    hits = kernel_at(x, q_aa, P, obj)
    target = hits[i]
    assert target.gap <= ACTIVATION_THRESHOLD + 1e-9
    if form == "interior":
        assert 0.0 < target.t < 1.0
    else:
        assert target.t in (0.0, 1.0)

    def differences(k, step):
        fd = np.zeros((3, 3))
        for j in range(3):
            xp = np.array(x, dtype=float)
            xm = np.array(x, dtype=float)
            xp[j] += step
            xm[j] -= step
            fd[:, j] = (
                np.asarray(kernel_at(xp, q_aa, P, obj)[k].grad)
                - np.asarray(kernel_at(xm, q_aa, P, obj)[k].grad)
            ) / (2 * step)
        return fd

    for k, hit in enumerate(hits):
        if hit.gap > ACTIVATION_THRESHOLD:
            assert hit.hess is None
            continue
        # Richardson extrapolation cancels the central differences' h**2
        # error, which exceeds the tolerance when a sphere centre lies within
        # 0.02 mm of another phalanx's axis (curvature of order 1/distance).
        fd = (4.0 * differences(k, h / 2) - differences(k, h)) / 3.0
        hess = np.asarray(hit.hess)
        assert np.array_equal(hess, hess.T)
        assert np.abs(hess - fd).max() <= 1e-5 * (1.0 + np.abs(hess).max())


def test_ill_conditioned_kkt_vertex_certifies():
    # Step 99 rests on the q1 lower stop and the q3 upper stop with a distal
    # contact: the active rows' normal matrix has condition 2.8e6, which a
    # regularized normal-equation multiplier fit cannot resolve.
    obj = RigidObject.sphere((70.0, 40.0, 0.0), 12.0)
    schedule = np.linspace(0.0, 60.0, 150)
    trace = envelop_sweep(schedule, ENV_PARAMS, obj)
    assert trace.status == "completed"
    assert len(trace.steps) == len(schedule)
    final = trace.final.joints
    assert final.q1 == pytest.approx(0.0, abs=1e-9)
    assert math.degrees(final.q2) == pytest.approx(14.707, abs=1e-3)
    assert math.degrees(final.q3) == pytest.approx(100.0, abs=1e-9)
    for step in trace.steps:
        assert min_gap(step.joints, obj) >= -PENETRATION_TOL
        assert_kkt(step, obj, ENV_PARAMS)


def assert_kkt(step, obj, params, tol=1e-6):
    """Independent first-order check of a trace step with the oracle's
    gradient rows: nonnegative forces, complementarity, and a stationarity
    residual that only the joint stops it rests on can balance."""
    oracle = world_rows(step.joints, params, obj)
    grad = np.array(elastic_energy_gradient(step.joints.flexion(), step.a, params))
    residual = grad.copy()
    for c in step.contacts:
        assert c.force >= 0.0
        assert abs(c.force * c.gap) <= COMPLEMENTARITY_TOL
        residual -= c.force * oracle[c.phalanx - 1][3]
    bound = tol * (1.0 + np.linalg.norm(grad))
    for j, (value, (lo, hi)) in enumerate(zip(step.joints.flexion(), params.joint_limits[1:])):
        if value - lo <= 1e-9:
            assert residual[j] >= -bound
        elif hi - value <= 1e-9:
            assert residual[j] <= bound
        else:
            assert abs(residual[j]) <= bound


def assert_local_min(step, obj, params):
    """Second-order check of a trace step: the Lagrangian Hessian
    H - sum f_k Hess g_k over the contacts carrying force, reduced to the
    null space of their gradient rows and of the joint stops the step rests
    on, has no direction of negative curvature, so the step is a local
    minimum of the energy and not a saddle."""
    frame = grasp._solve_frame(step.joints.q_aa, params, obj)
    x = step.joints.flexion()
    hits = {hit.phalanx: hit for hit in grasp._kernel(x, frame)}
    W = np.array(frame.H_rows)
    rows = []
    for c in step.contacts:
        if c.force > 0.0:
            W -= c.force * np.asarray(hits[c.phalanx].hess)
            rows.append(hits[c.phalanx].grad)
    for j, (value, (lo, hi)) in enumerate(zip(x, params.joint_limits[1:])):
        if value - lo <= 1e-9 or hi - value <= 1e-9:
            rows.append(np.eye(3)[j])
    Z = np.eye(3)
    if rows:
        _, s, vt = np.linalg.svd(np.asarray(rows, dtype=float))
        Z = vt[int(np.sum(s > 1e-9 * max(s[0], 1.0))):].T
    if Z.shape[1]:
        lowest = np.linalg.eigvalsh(Z.T @ W @ Z).min()
        assert lowest >= -1e-6 * np.linalg.norm(frame.H_rows, 2), f"saddle at a = {step.a}"
