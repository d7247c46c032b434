"""The grasp solver's float algebra against numpy references.

``_solve_qp``, ``_lstsq`` and ``_reduced_curvature`` run on float triples
and row tuples; the numpy versions below are the references they are checked
against.
"""

import math
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from modhand import grasp
from modhand.grasp import QP_TOL
from modhand.params import default_params

ENV_PARAMS = replace(default_params(), spring_serial=200.0, spring_parallel=(300.0, 300.0, 0.2))


def rounded(q: Fraction) -> float:
    """``q`` rounded to a float, or an infinity of its sign past the range."""
    try:
        return float(q)
    except OverflowError:
        return math.inf if q > 0 else -math.inf


def exact_solve(A, b):
    """Solution of the system A y = b in exact rational arithmetic, rounded
    once to floats; None when A is singular."""
    aug = [[Fraction(v) for v in row] + [Fraction(r)] for row, r in zip(A.tolist(), b.tolist())]
    m = len(aug)
    for col in range(m):
        pivot = next((r for r in range(col, m) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for row in aug[col + 1:]:
            if row[col] != 0:
                f = row[col] / aug[col][col]
                row[col:] = [a - f * p for a, p in zip(row[col:], aug[col][col:])]
    y = [Fraction(0)] * m
    for i in range(m - 1, -1, -1):
        y[i] = (aug[i][m] - sum(aug[i][j] * y[j] for j in range(i + 1, m))) / aug[i][i]
    return np.array([rounded(v) for v in y])


def reference_solve_qp(H, c, G, h, warm=None):
    """Minimize 1/2 x'Hx + c'x subject to Gx >= h with numpy: the same
    active-set enumeration, each KKT system solved by LAPACK, then the
    accepted subset's system solved again exactly.  LAPACK's elimination can
    miss x by 1e-8 when an active row is nearly parallel to another, as the
    solver's own unrefined elimination did; the exact solve is the reference
    x both are held to."""
    n = H.shape[0]
    m = G.shape[0]

    def attempt(subset):
        k = len(subset)
        if k == 0:
            x = np.linalg.solve(H, -c)
            lam = np.zeros(0)
        elif any(j + 3 in subset for j in subset if j < 3):
            return None
        else:
            Gs = G[list(subset)]
            kkt = np.zeros((n + k, n + k))
            kkt[:n, :n] = H
            kkt[:n, n:] = -Gs.T
            kkt[n:, :n] = Gs
            rhs = np.concatenate([-c, h[list(subset)]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                return None
            if not np.all(np.isfinite(sol)):
                return None
            x, lam = sol[:n], sol[n:]
            if np.any(lam < -QP_TOL):
                return None
        if m and np.any(G @ x < h - QP_TOL):
            return None
        sol = exact_solve(kkt, rhs) if k else exact_solve(H, -c)
        if sol is None:  # singular: LAPACK's solution came from rounding alone
            return None
        x, lam = sol[:n], sol[n:]
        full = np.zeros(m)
        for j, idx in enumerate(subset):
            full[idx] = max(lam[j], 0.0)
        return x, full, tuple(subset)

    if warm is not None and all(0 <= i < m for i in warm) and len(warm) <= n:
        res = attempt(tuple(sorted(warm)))
        if res is not None:
            return res
    for size in range(0, n + 1):
        for subset in combinations(range(m), size):
            res = attempt(subset)
            if res is not None:
                return res
    return None


def reference_lstsq(A, grad):
    """Least-squares multipliers on the rows A with numpy's SVD-based
    ``lstsq``."""
    return np.linalg.lstsq(A.T, grad, rcond=None)[0]


def as_rows(M) -> list:
    return [tuple(row) for row in np.asarray(M, dtype=float).tolist()]


def keyed(values) -> dict:
    """The QP's keyed form of a sequence of rows or bounds: key i for item i."""
    return dict(enumerate(values))


def rotation(a, b, c) -> np.ndarray:
    """Rotation about z by a, then y by b, then x by c."""
    rz = np.array([[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1]])
    ry = np.array([[math.cos(b), 0, math.sin(b)], [0, 1, 0], [-math.sin(b), 0, math.cos(b)]])
    rx = np.array([[1, 0, 0], [0, math.cos(c), -math.sin(c)], [0, math.sin(c), math.cos(c)]])
    return rx @ ry @ rz


ANGLE = st.floats(-math.pi, math.pi)
UNIT = st.floats(-1.0, 1.0)
VECTOR = st.tuples(UNIT, UNIT, UNIT)
ROW = VECTOR.filter(lambda v: np.linalg.norm(v) > 0.1).map(lambda v: 40.0 * np.array(v))


@st.composite
def qps(draw):
    """SPD H with condition number up to 1e6, the 6 box rows and 0-3 random
    rows that a point of the box satisfies with some slack."""
    Q = rotation(*draw(st.tuples(ANGLE, ANGLE, ANGLE)))
    scale = 10.0 ** draw(st.floats(0.0, 5.0))
    log_cond = draw(st.floats(0.0, 6.0))
    middle = draw(st.floats(0.0, 1.0))
    eig = scale * 10.0 ** -np.array([0.0, middle * log_cond, log_cond])
    H = (Q * eig) @ Q.T
    H = 0.5 * (H + H.T)
    c = scale * np.array(draw(VECTOR)) * 3.0
    lo = np.array(draw(st.tuples(*[st.floats(-1.0, 0.5)] * 3)))
    hi = lo + np.array(draw(st.tuples(*[st.floats(0.05, 2.0)] * 3)))
    inside = lo + (hi - lo) * (np.array(draw(VECTOR)) + 1.0) / 2.0
    extra = np.array(draw(st.lists(ROW, max_size=3)), dtype=float).reshape(-1, 3)
    slack = np.array(draw(st.lists(st.floats(0.0, 5.0), min_size=len(extra),
                                   max_size=len(extra))))
    G = np.vstack([np.eye(3), -np.eye(3), extra])
    h = np.concatenate([lo, -hi, extra @ inside - slack])
    return H, c, G, h


def unique_active_set(H, c, G, h, sol) -> bool:
    """Whether the reference's solution has one active set beyond doubt:
    linearly independent active rows, every active multiplier and every
    inactive slack clear of zero.

    A subset whose KKT system is singular to rounding but not exactly can
    pass the reference's LAPACK tests and then solve exactly to a point far
    outside the box (1e243 on a draw with row entries near 1e-242).  Such a
    reference cannot judge the draw; it is rejected, and counted as an
    event, before any norm of it is taken, as those norms would overflow."""
    x, mult, active = sol
    if not (np.all(x >= h[:3] - QP_TOL) and np.all(x <= -h[3:6] + QP_TOL)):
        event("reference point outside the box")
        return False
    scale = np.linalg.norm(H @ x + c) + 1.0
    slack = G @ x - h
    inactive = [i for i in range(len(G)) if i not in active]
    if any(mult[i] <= 1e-6 * scale for i in active):
        return False
    if any(slack[i] <= 1e-6 * (1.0 + np.linalg.norm(G[i])) for i in inactive):
        return False
    if active:
        rows = G[list(active)] / np.linalg.norm(G[list(active)], axis=1)[:, None]
        if np.linalg.svd(rows, compute_uv=False)[-1] <= 1e-6:
            return False
    return True


# A row nearly parallel to the q1 upper stop, both active: the multipliers
# (8.2e5 and 2.0e4) cancel to a gradient of about 100, and an unrefined
# elimination misses x by 1.1e-8.
NEAR_PARALLEL = (100.0 * np.eye(3), np.array([300.0, 0.0, 0.0]),
                 np.vstack([np.eye(3), -np.eye(3), [[0.0, 40.0, -2.44140625e-03]]]),
                 np.array([0.0, 0.0, -1.0, -1.0, -1.0, -0.0, 40.0012207]))


@settings(max_examples=400, deadline=None)
@given(problem=qps())
@example(problem=NEAR_PARALLEL)
def test_float_qp_matches_reference(problem):
    H, c, G, h = problem
    ref = reference_solve_qp(H, c, G, h)
    assume(ref is not None and unique_active_set(H, c, G, h, ref))
    got = grasp._solve_qp(as_rows(H), tuple(c.tolist()), keyed(as_rows(G)), keyed(h.tolist()))
    assert got is not None
    x = np.asarray(got[0])
    assert np.linalg.norm(x - ref[0]) <= 1e-9 * (1.0 + np.linalg.norm(ref[0]))


@settings(max_examples=400, deadline=None)
@given(problem=qps(), data=st.data())
def test_float_qp_matches_reference_from_any_warm_subset(problem, data):
    # The warm subset only orders the search: a wrong one, or one holding
    # both stops of a joint, leads to the same minimizer.
    H, c, G, h = problem
    ref = reference_solve_qp(H, c, G, h)
    assume(ref is not None and unique_active_set(H, c, G, h, ref))
    warm = data.draw(st.lists(st.integers(0, len(G) - 1), max_size=3, unique=True), label="warm")
    got = grasp._solve_qp(as_rows(H), tuple(c.tolist()), keyed(as_rows(G)), keyed(h.tolist()),
                          warm=warm)
    assert got is not None
    x = np.asarray(got[0])
    assert np.linalg.norm(x - ref[0]) <= 1e-9 * (1.0 + np.linalg.norm(ref[0]))


def test_warm_started_qp_rarely_falls_back():
    # The benchmark's envelop scenes at seed 0.  A sweep step's QP starts
    # from the rows its last QP rested on; when those fail, the search tries
    # the subsets nearest them first, so it seldom needs more eliminations.
    base = default_params()
    ceiling = grasp.RigidObject.half_space((0.0, 25.0, 0.0), (0.0, -1.0, 0.0))
    scenes = [
        (ENV_PARAMS, grasp.RigidObject.sphere(center, diameter / 2.0), np.linspace(0.0, a_max, n))
        for center, diameter, a_max, n in (
            ((33.0, 27.0, 0.0), 30.0, 46.0, 160), ((34.0, 28.0, 0.0), 40.0, 27.5, 160),
            ((32.0, 34.5, 0.0), 50.0, 22.5, 160), ((50.0, 20.0, 0.0), 16.0, 60.0, 150),
        )
    ] + [(base, ceiling, np.linspace(0.0, 16.0, 160))]
    counts = {"qp": 0, "gauss": 0, "open": 0}
    solve_qp, gauss = grasp._solve_qp, grasp._gauss

    def counted_qp(*args, **kwargs):
        counts["qp"] += 1
        counts["open"] += 1
        try:
            return solve_qp(*args, **kwargs)
        finally:
            counts["open"] -= 1

    def counted_gauss(aug):
        counts["gauss"] += counts["open"] > 0  # eliminations of the QP only
        return gauss(aug)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(grasp, "_solve_qp", counted_qp)
        mp.setattr(grasp, "_gauss", counted_gauss)
        for params, obj, schedule in scenes:
            assert grasp.envelop_sweep(schedule, params, obj).status != "non-converged"
    assert counts["gauss"] <= 1.25 * counts["qp"]


STOP = st.sampled_from([None, "lo", "hi"])


@st.composite
def fits(draw):
    """A stationarity fit: the stops some joints rest on, 0-3 contact rows
    (possibly parallel to a stop, as the proximal phalanx's row always is to
    the q1 stops) and a gradient."""
    rows = []
    for j, stop in enumerate(draw(st.tuples(STOP, STOP, STOP))):
        if stop is not None:
            rows.append(np.eye(3)[j] * (1.0 if stop == "lo" else -1.0))
    for _ in range(draw(st.integers(0, 3))):
        if draw(st.booleans()):  # parallel to a stop
            size = draw(st.floats(0.1, 50.0)) * draw(st.sampled_from([-1.0, 1.0]))
            rows.append(np.eye(3)[draw(st.integers(0, 2))] * size)
        else:
            rows.append(np.array(draw(ROW)))
    grad = np.array(draw(VECTOR)) * 10.0 ** draw(st.floats(-3.0, 5.0))
    return np.array(rows, dtype=float).reshape(-1, 3), grad


def evaluation_noise(A, f) -> float:
    """Bound on the rounding of evaluating grad - A^T f itself: near-parallel
    rows make multipliers far larger than the gradient they balance."""
    return 4.0 * np.finfo(float).eps * float(np.linalg.norm(np.abs(A.T) @ np.abs(f)))


def projection(a, B):
    """numpy's least-squares coefficients x of a on the rows B, and a's
    remainder a - B'x orthogonal to their span."""
    x = np.linalg.lstsq(B.T, a, rcond=None)[0]
    return x, a - B.T @ x


def kept_rows(A, f=None) -> list:
    """The rows of A that the 1e-12 remainder cut keeps, in order: a row
    whose remainder orthogonal to the kept rows before it, projected by
    numpy, is at most 1e-12 of its norm is dropped, unless the fit f gives
    it a nonzero multiplier; every other row is kept."""
    kept = []
    for j, a in enumerate(A):
        remainder = np.linalg.norm(projection(a, A[kept])[1])
        if f is not None and f[j] != 0.0 or remainder > 1e-12 * np.linalg.norm(a):
            kept.append(j)
    return kept


# Fits on either side of the 1e-12 cut.  In the first two (draws that failed
# against numpy's SVD, which keeps the second row with a multiplier of 2.5e13
# or 7.5e12) the second row lies within 1e-12 of its norm of the first, so
# the fit drops it and leaves residual 1; in the third it lies 1e-11 off, so
# the fit keeps it and leaves residual 0.
CUT_EDGE = [
    (np.array([[0.0, 0.0, 40.0], [0.0, 4e-14, 20.0]]), np.array([0.0, 1.0, 0.0])),
    (np.array([[5.3e-12, 0.0, 40.0], [0.0, 0.0, -1.0]]), np.array([1.0, 0.0, 0.0])),
    (np.array([[0.0, 0.0, 40.0], [0.0, 2e-10, 20.0]]), np.array([0.0, 1.0, 0.0])),
]


@settings(max_examples=400, deadline=None)
@given(problem=fits())
@example(problem=CUT_EDGE[0])
@example(problem=CUT_EDGE[1])
@example(problem=CUT_EDGE[2])
def test_float_lstsq_matches_reference(problem):
    # The fit is numpy's optimum over the rows it keeps; it may drop only a
    # row within 1e-12 of its norm of the span of the kept rows before it.
    A, grad = problem
    got = np.asarray(grasp._lstsq(as_rows(A), tuple(grad.tolist())))
    assert got.shape == (len(A),)
    kept = kept_rows(A, got)
    ref = np.zeros(len(A))
    ref[kept] = reference_lstsq(A[kept], grad)
    residual = np.linalg.norm(grad - A.T @ got)
    bound = np.linalg.norm(grad - A.T @ ref) + 1e-12 * np.linalg.norm(grad)
    assert residual <= bound + evaluation_noise(A, got) + evaluation_noise(A, ref)


def test_qp_is_plain_over_keyed_rows():
    # A feasible, strictly convex QP whose rows 0 and 3 are x1 >= 1 and
    # x2 >= 1: keys say nothing of a joint box, so the solver must not skip a
    # subset for holding "both stops" 0 and 3.  Rows 0 and 2 are parallel.
    H = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    G = {0: (1.0, 0.0, 0.0), 1: (0.0, 0.0, 1.0), 2: (1.0, 0.0, 0.0), 3: (0.0, 1.0, 0.0)}
    h = {0: 1.0, 1: -5.0, 2: -5.0, 3: 1.0}
    for warm in (None, (1, 2), (0, 2, 3)):
        assert grasp._solve_qp(H, (0.0, 0.0, 0.0), G, h, warm=warm) == (
            (1.0, 1.0, 0.0), {0: 1.0, 3: 1.0})


@pytest.mark.parametrize("a, proximal, middle", [
    # round numbers
    (16.0, (-36.1, 0.0, 0.0, -36.1 * 0.02), (-47.0, -14.0, 0.0, -10.0)),
    # bench step 123 of the 50 mm sweep at seed 3
    (17.40566037735849, (-33.69827479574292, 0.0, 0.0, -1.569099057644361),
     (-47.13125166404613, -13.805702200764305, 0.0, -12.40103571642331)),
])
def test_qp_rejects_subset_missing_its_own_rows(a, proximal, middle):
    # The q1 lower stop (row 0) and the proximal contact row (row 6) are
    # parallel, so the KKT matrix of a subset holding both is singular.  An
    # elimination of it can still end with nonzero pivots and return a
    # finite point that meets neither row as an equality.
    frame = grasp._solve_frame(0.0, ENV_PARAMS, None)
    c = tuple(d * a for d in frame.joint_drive)
    G = {**grasp._BOX_ROWS, 6: proximal[:3], 7: middle[:3]}
    h = {**frame.h_box, 6: proximal[3], 7: middle[3]}
    for warm in (None, (6,), (0, 6)):
        x, mult = grasp._solve_qp(frame.H_rows, c, G, h, warm=warm)
        assert mult
        for i in mult:
            assert abs(grasp._dot(G[i], x) - h[i]) <= QP_TOL
        assert all(grasp._dot(G[i], x) >= h[i] - QP_TOL for i in G)
        assert all(v >= 0.0 for v in mult.values())


def reference_curved_hessian(H, H_fro, rows, forces, hessians):
    """The curved model with numpy: P H P + Z floor(Z'WZ) Z', with W the
    Lagrangian Hessian, P the projector onto the span of the rows that
    ``kept_rows`` keeps and Z an orthonormal basis of its null space, both
    from their SVD.  Returns the model and Y, an orthonormal basis of the
    span, whose width is the rank."""
    W = H - sum(f * Hk for f, Hk in zip(forces, hessians))
    kept = kept_rows(rows)
    v = np.linalg.svd(rows[kept])[2] if kept else np.eye(3)
    Y, Z = v[:len(kept)].T, v[len(kept):].T
    mu, u = np.linalg.eigh(Z.T @ W @ Z)
    floor = 1e-6 * H_fro
    model = Y @ (Y.T @ H @ Y) @ Y.T + Z @ ((u * np.maximum(mu, floor)) @ u.T) @ Z.T
    return model, Y


@st.composite
def curvatures(draw):
    """An SPD H with condition up to 1e3, 1-3 active rows (stops, rows
    parallel to a stop, random rows and rows within 1e-9..1e-1 of parallel
    to another, or all rows that close to the first) with nonnegative forces
    up to 1e7 and symmetric gap Hessians."""
    Q = rotation(*draw(st.tuples(ANGLE, ANGLE, ANGLE)))
    scale = 10.0 ** draw(st.floats(3.0, 5.0))
    eig = scale * 10.0 ** -np.array(sorted(draw(st.tuples(*[st.floats(0.0, 3.0)] * 3))))
    H = (Q * eig) @ Q.T
    H = 0.5 * (H + H.T)
    rows = []
    cluster = draw(st.booleans())
    for _ in range(draw(st.integers(1, 3))):
        kind = "near" if cluster else draw(st.sampled_from(["stop", "parallel", "random", "near"]))
        axis = np.eye(3)[draw(st.integers(0, 2))] * draw(st.sampled_from([-1.0, 1.0]))
        if kind == "stop":
            rows.append(axis)
        elif kind == "parallel":
            rows.append(axis * draw(st.floats(0.1, 50.0)))
        elif kind == "near" and rows:
            tilt = np.array(draw(VECTOR)) * 10.0 ** draw(st.floats(-9.0, -1.0))
            base = rows[0] if cluster else rows[-1]
            rows.append(base + np.linalg.norm(base) * tilt)
        else:
            rows.append(np.array(draw(ROW)))
    forces = [draw(st.one_of(st.just(0.0), st.floats(1.0, 1e7))) for _ in rows]
    hessians = []
    for _ in rows:
        M = np.array(draw(st.tuples(*[UNIT] * 9))).reshape(3, 3)
        hessians.append((M + M.T) * 10.0 ** draw(st.floats(-3.0, 0.0)))
    return H, np.array(rows), forces, hessians


# Two rows 1e-6 rad apart: the remainder cut keeps both (rank 2), where a
# cut on the Gram eigenvalues at 1e-12 of the largest rated them rank 1.
NEAR_PARALLEL_PAIR = (1000.0 * np.eye(3), np.array([[0.0, 40.0, 0.0], [0.0, 40.0, 4e-5]]),
                      [0.0, 0.0], [np.zeros((3, 3))] * 2)


@settings(max_examples=400, deadline=None)
@given(problem=curvatures())
@example(problem=NEAR_PARALLEL_PAIR)
def test_reduced_curvature_matches_reference(problem):
    H, rows, forces, hessians = problem
    eps = np.finfo(float).eps
    H_fro = float(np.linalg.norm(H))
    # numpy's own rounding must not straddle the rank cut: each row's
    # remainder stays farther from 1e-12 of its norm than a first-order bound
    # on its rounding, 64 eps (|B| |x| + cond(B) |r| + |a|) for the kept rows
    # B before it, coefficients x and remainder r (Wedin's bound; Higham,
    # Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 20).
    kept, norm = kept_rows(rows), np.linalg.norm
    for j, a in enumerate(rows):
        B = rows[[k for k in kept if k < j]]
        x, r = projection(a, B)
        scale = norm(a) + (norm(B, 2) * norm(x) + np.linalg.cond(B) * norm(r) if len(B) else 0.0)
        assume(abs(norm(r) - 1e-12 * norm(a)) > 64 * eps * scale)
    ref, Y = reference_curved_hessian(H, H_fro, rows, forces, hessians)
    rank = Y.shape[1]
    got_rank, _ = grasp._active_span(as_rows(rows))
    assert got_rank == rank

    frame = SimpleNamespace(H_rows=tuple(as_rows(H)), H_fro=H_fro)
    curv = [(f, tuple(as_rows(Hk))) for f, Hk in zip(forces, hessians) if f > 0.0]
    got = np.array(grasp._reduced_curvature(frame, as_rows(rows), curv), dtype=float)

    # B = W + P F P when B - 1e-6 |H|_F I is positive definite, else the
    # floored model; both within 1e-9 of the scale of H and F, plus the
    # rounding of the split into the rows' span and null space, of order
    # eps times the kept rows' condition sigma_1 / sigma_rank.
    F = sum(f * Hk for f, Hk in zip(forces, hessians))
    size = np.abs(H).max() + np.abs(F).max()
    sigma = np.linalg.svd(rows, compute_uv=False)[::-1]  # ascending
    gap = sigma[-rank] if 0 < rank < 3 else sigma[-1]
    tol = (1e-9 + 64 * eps * sigma[-1] / gap) * size
    B = H - F + Y @ Y.T @ F @ Y @ Y.T
    lowest = np.linalg.eigvalsh(0.5 * (B + B.T))[0] - 1e-6 * H_fro
    assume(abs(lowest) > tol)
    want = B if lowest > 0.0 else ref
    assert np.abs(got - want).max() <= tol


def test_rank_ignores_a_determinant_at_rounding_level():
    # Two equal rows and a third 5e-9 longer, parallel to them to rounding:
    # its remainder orthogonal to the first is rounding noise, far below
    # 1e-12 of its norm, and must not make the rows rank 2 or 3.
    a = [19.94232871997105, 24.58207131959039, 2.4718530146546147]
    c = [19.94232881646857, 24.58207143853883, 2.471853026615489]
    rows = np.array([a, a, c])
    w = np.linalg.eigvalsh(rows.T @ rows)
    assert int(np.sum(w > 1e-12 * max(w[-1], 1.0))) == 1
    assert grasp._active_span(as_rows(rows))[0] == 1


def test_fold_vertex_is_rank_three_for_both_callers():
    # The rows the grazing sweep's failing step 116 rests on (8 mm sphere at
    # (70, 30, 0)): the q1 and q2 stops and a distal row 7.1e-5 rad off
    # their span, sigma_3 / sigma_1 = 9.5e-7.  The one rank rule rates them
    # rank 3 for the curved model and keeps all three columns in the fit.
    rows = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
            (-70.00525787343992, -25.005258564853534, -0.005258948972213097)]
    sigma = np.linalg.svd(np.array(rows), compute_uv=False)
    assert 9e-7 < sigma[-1] / sigma[0] < 1e-6
    assert grasp._active_span(rows) == (3, None)
    assert grasp._gram_schmidt(rows)[0] == [0, 1, 2]
    f = grasp._lstsq(rows, tuple(map(sum, zip(*rows))))
    assert all(abs(v - 1.0) < 1e-6 for v in f)
