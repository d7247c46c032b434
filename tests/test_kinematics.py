import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modhand import kinematics
from modhand.errors import ValidationError
from modhand.kinematics import (
    batch_fingertips,
    coupled_flexion_range,
    derive_subseed,
    forward_kinematics,
    points_to_csv,
    project_workspace,
    sample_workspace,
    splitmix64_words,
)
from modhand.hand import default_layout
from modhand.params import FingerParams, JointState, default_params

P = default_params()

# Base alignment of the documented frame convention (first link frame to base).
BASE_ALIGN = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)


def dh_transform(theta: float, d: float, a: float, alpha: float) -> np.ndarray:
    """Oracle link transform: rotate theta about z, offset d along z, length
    a along x, twist alpha about x."""
    ct, st = np.cos(theta), np.sin(theta)
    ca, sa = np.cos(alpha), np.sin(alpha)
    return np.array(
        [
            [ct, -st * ca, st * sa, a * ct],
            [st, ct * ca, -ct * sa, a * st],
            [0.0, sa, ca, d],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )


def scalar_dh_chain(q: JointState, params: FingerParams, base=None):
    """Oracle: the four world frames as a product of single 4 x 4 link
    transforms, one joint at a time."""
    base = np.eye(4) if base is None else base
    l1, l2, l3 = params.link_lengths
    t_swing = base @ BASE_ALIGN @ dh_transform(q.q_aa, 0.0, 0.0, np.pi / 2)
    t_prox = t_swing @ dh_transform(q.q1, 0.0, l1, 0.0)
    t_mid = t_prox @ dh_transform(q.q2, 0.0, l2, 0.0)
    t_dist = t_mid @ dh_transform(q.q3, 0.0, l3, 0.0)
    return t_swing, t_prox, t_mid, t_dist


def planar_oracle(q: JointState, lengths):
    """Independent closed-form tip position: planar trigonometry for the
    flexion chain, then a rotation about the palm-normal axis."""
    cums = np.cumsum([q.q1, q.q2, q.q3])
    u = sum(L * math.cos(c) for L, c in zip(lengths, cums))
    v = sum(L * math.sin(c) for L, c in zip(lengths, cums))
    c, s = math.cos(q.q_aa), math.sin(q.q_aa)
    return np.array([u * c, v, -u * s])


def test_straight_finger_tip():
    chain = forward_kinematics(JointState(), P)
    assert chain.tip == pytest.approx([90.0, 0.0, 0.0], abs=1e-12)


def test_right_angle_bend():
    chain = forward_kinematics(JointState(q1=math.pi / 2), P)
    assert chain.tip == pytest.approx([0.0, 90.0, 0.0], abs=1e-12)


def test_batch_fingertips_matches_single_fk():
    rng = np.random.default_rng(5)
    qs = rng.uniform(-1.0, 1.5, size=(200, 4))
    batch = batch_fingertips(qs, P)
    for row, tip in zip(qs, batch):
        single = forward_kinematics(JointState(*row), P).tip
        assert single.tobytes() == tip.tobytes()


def test_fk_frames_equal_scalar_dh_chain():
    # Scalar FK is the one-row case of the stacked chain; every frame must be
    # bitwise the single-transform product, with and without a finger base.
    # Bytes, not values: a -0.0 prints as "-0" in the CLI's tip reports.
    rng = np.random.default_rng(17)
    qs = rng.uniform(-3.2, 3.2, size=(300, 4))
    for base in [None] + [mount.base for mount in default_layout().fingers]:
        for row in qs:
            q = JointState(*row)
            frames = forward_kinematics(q, P, base).frames
            for got, want in zip(frames, scalar_dh_chain(q, P, base)):
                assert got.tobytes() == want.tobytes()


def test_link_lengths_preserved():
    rng = np.random.default_rng(99)
    for _ in range(100):
        q = JointState(*rng.uniform(-2.0, 2.0, size=4))
        pts = forward_kinematics(q, P).joint_positions()
        dists = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        assert dists == pytest.approx(P.link_lengths, abs=1e-12)


def test_swing_preserves_distance_to_root():
    rng = np.random.default_rng(42)
    for _ in range(50):
        flex = rng.uniform(0.0, 1.5, size=3)
        base_tip = forward_kinematics(JointState(0.0, *flex), P).tip
        for q_aa in rng.uniform(-0.5, 0.5, size=3):
            tip = forward_kinematics(JointState(q_aa, *flex), P).tip
            assert np.linalg.norm(tip) == pytest.approx(
                np.linalg.norm(base_tip), abs=1e-9
            )
            # rotation is about the palm normal: the palmar coordinate is fixed
            assert tip[1] == pytest.approx(base_tip[1], abs=1e-9)


def test_reach_bound():
    cloud = sample_workspace(P, 2000, seed=3)
    assert np.all(np.linalg.norm(cloud, axis=1) <= P.reach + 1e-9)


def test_workspace_deterministic():
    a = sample_workspace(P, 1000, seed=42)
    b = sample_workspace(P, 1000, seed=42)
    assert np.array_equal(a, b)
    assert points_to_csv(a, ("x_mm", "y_mm", "z_mm")) == points_to_csv(
        b, ("x_mm", "y_mm", "z_mm")
    )


def test_workspace_seed_changes_cloud():
    a = sample_workspace(P, 100, seed=1)
    b = sample_workspace(P, 100, seed=2)
    assert not np.array_equal(a, b)


def test_workspace_prefix_property():
    small = sample_workspace(P, 500, seed=7)
    large = sample_workspace(P, 1500, seed=7)
    assert np.array_equal(small, large[:500])


def test_workspace_rejects_zero_samples():
    with pytest.raises(ValidationError, match="n"):
        sample_workspace(P, 0, seed=0)


def test_coupled_cloud_respects_limits_and_ratio():
    cloud = sample_workspace(P, 100, seed=11, coupled=True)
    assert not np.array_equal(cloud, sample_workspace(P, 100, seed=11))
    lo, hi = coupled_flexion_range(P)
    assert math.degrees(hi) == pytest.approx(600.0 / 7.0)  # pip limit / (7/6)


def test_coupled_cloud_is_two_parameter_surface():
    # Local PCA on nearest-neighbor patches: the third singular value stays
    # far below the first because the coupled cloud is a 2-surface.
    pts = sample_workspace(P, 20_000, seed=21, coupled=True)
    rng = np.random.default_rng(0)
    for idx in rng.integers(0, len(pts), size=10):
        d = np.linalg.norm(pts - pts[idx], axis=1)
        patch = pts[np.argsort(d)[:60]]
        patch = patch - patch.mean(axis=0)
        sv = np.linalg.svd(patch, compute_uv=False)
        assert sv[2] < 0.1 * sv[0]


def test_projection_single_point():
    cloud = np.array([[1.0, 2.0, 3.0]])
    assert project_workspace(cloud, "xoy")[0] == pytest.approx([1.0, 2.0])
    assert project_workspace(cloud, "xoz")[0] == pytest.approx([1.0, 3.0])
    assert project_workspace(cloud, "yoz")[0] == pytest.approx([2.0, 3.0])


def test_projection_preserves_count():
    cloud = sample_workspace(P, 777, seed=5)
    assert project_workspace(cloud, "xoy").shape == (777, 2)


def test_projection_rejects_unknown_plane():
    cloud = sample_workspace(P, 10, seed=5)
    with pytest.raises(ValidationError):
        project_workspace(cloud, "xy")


def flexion_sweep_min_radius(params: FingerParams, n: int = 20_000) -> float:
    """1-D sweep oracle: smallest planar tip radius over the coupled flexion
    range (swing at zero)."""
    lo, hi = coupled_flexion_range(params)
    ratio = params.coupling_model().ratio
    best = math.inf
    for q1 in np.linspace(lo, hi, n):
        q = JointState(0.0, q1, q1 * ratio[1] / ratio[0], q1 * ratio[2] / ratio[0])
        tip = planar_oracle(q, params.link_lengths)
        best = min(best, math.hypot(tip[0], tip[1]))
    return best


def test_coupled_projection_annulus():
    cloud = sample_workspace(P, 20_000, seed=33, coupled=True)
    proj = project_workspace(cloud, "xoy")
    radii = np.linalg.norm(proj, axis=1)
    aa_max = max(abs(P.joint_limits[0][0]), abs(P.joint_limits[0][1]))
    inner = flexion_sweep_min_radius(P) * math.cos(aa_max)
    assert inner > 0.0
    assert np.all(radii >= inner - 1e-9)
    assert np.all(radii <= P.reach + 1e-9)


def test_splitmix_reference_stream():
    # splitmix64 of seed 0: first output per the published recurrence.
    assert int(splitmix64_words(0, 0, 1)[0]) == 0xE220A8397B1DCDAF


def test_subseed_derivation_distinct():
    seeds = {derive_subseed(0, k) for k in range(16)}
    assert len(seeds) == 16


def test_csv_nine_significant_digits():
    text = points_to_csv(np.array([[1.23456789012, -2.0, 3.5e-4]]), ("x", "y", "z"))
    assert text.splitlines()[1] == "1.23456789,-2,0.00035"


# --------------------------------------------------------------------------
# Counter-form stream, blocked sampling and CSV against the sequential forms
# --------------------------------------------------------------------------

MASK = (1 << 64) - 1
BLOCK = kinematics._BLOCK_ROWS


def recurrence_words(seed: int, count: int) -> list:
    """The first ``count`` words of the published sequential splitmix64
    recurrence."""
    state = seed & MASK
    words = []
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        words.append(z ^ (z >> 31))
    return words


def loop_joints(params: FingerParams, n: int, seed: int, coupled: bool) -> np.ndarray:
    """Per-sample joint loop over the sequential stream, draw by draw."""
    words = iter(recurrence_words(seed, n * (2 if coupled else 4)))

    def uniform(lo, hi):
        return lo + (hi - lo) * ((next(words) >> 11) * (1.0 / (1 << 53)))

    limits = params.joint_limits
    qs = np.empty((n, 4))
    if coupled:
        r0, r1, r2 = params.coupling_model().ratio
        lo, hi = coupled_flexion_range(params)
        for i in range(n):
            qs[i, 0] = uniform(*limits[0])
            q1 = uniform(lo, hi)
            qs[i, 1:] = q1, q1 * r1 / r0, q1 * r2 / r0
    else:
        for i in range(n):
            for j in range(4):
                qs[i, j] = uniform(*limits[j])
    return qs


def row_csv(points, header) -> str:
    """Row-by-row formatter: one f-string per value."""
    lines = [",".join(header)]
    for row in np.asarray(points):
        lines.append(",".join(f"{v:.9g}" for v in row))
    return "\n".join(lines) + "\n"


SEEDS = st.one_of(
    st.integers(min_value=-(2**80), max_value=-1),
    st.just(0),
    st.integers(min_value=2**64, max_value=2**80),
    st.integers(min_value=0, max_value=MASK),
)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, start=st.integers(0, 3000), count=st.integers(1, 40))
def test_counter_words_equal_recurrence(seed, start, count):
    want = recurrence_words(seed, start + count)[start:]
    assert splitmix64_words(seed, start, count).tolist() == want


@settings(max_examples=30, deadline=None)
@given(seed=SEEDS, index=st.integers(0, 200))
def test_subseed_is_word_index_plus_one(seed, index):
    assert derive_subseed(seed, index) == recurrence_words(seed, index + 1)[index]


def recorded_blocks(monkeypatch) -> list:
    """The joint blocks that ``sample_workspace`` hands to its tip helper
    from now on, in order."""
    blocks, cloud_tips = [], kinematics._cloud_tips

    def recording(qs, params):
        blocks.append(np.array(qs))
        return cloud_tips(qs, params)

    monkeypatch.setattr(kinematics, "_cloud_tips", recording)
    return blocks


@pytest.mark.parametrize("coupled", [False, True])
@pytest.mark.parametrize("n", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_blocked_sampling_equals_loop(monkeypatch, n, coupled):
    # The sampler hands the loop's joints to its tip helper in blocks; the
    # helper's rows do not depend on the block around them (one call on all
    # rows, in either order, gives the same bits), and the cloud prints as
    # the DH tips of the same joints do.
    seed = -3 if coupled else 2**64 + 5
    cloud_tips = kinematics._cloud_tips
    blocks = recorded_blocks(monkeypatch)
    cloud = sample_workspace(P, n, seed=seed, coupled=coupled)
    want_qs = loop_joints(P, n, seed, coupled)
    assert max(len(b) for b in blocks) <= BLOCK
    assert np.concatenate(blocks).tobytes() == want_qs.tobytes()
    assert cloud.tobytes() == cloud_tips(want_qs, P).tobytes()
    assert cloud.tobytes() == cloud_tips(want_qs[::-1].copy(), P)[::-1].tobytes()
    header = ("x", "y", "z")
    lines = points_to_csv(cloud, header).split("\n")
    assert lines == points_to_csv(batch_fingertips(want_qs, P), header).split("\n")
    assert lines == row_csv(cloud, header).split("\n")
    proj = project_workspace(cloud, "xoz")
    assert points_to_csv(proj, ("u", "v")).split("\n") == row_csv(proj, ("u", "v")).split("\n")


def test_csv_special_values_equal_row_formatter():
    special = np.array(
        [
            [-0.0, math.inf, -math.inf],
            [math.nan, 1e21, 1e-300],
            [5e-324, 1.7976931348623157e308, -123456789.5],
            [1.23456789012, -2.0, 3.5e-4],
        ]
    )
    bits = np.random.default_rng(8).integers(0, 2**64, size=(3 * BLOCK, 3), dtype=np.uint64)
    header = ("a", "b", "c")
    for points in (special, bits.view(np.float64), special[:, :1], np.zeros((0, 3))):
        assert points_to_csv(points, header).split("\n") == row_csv(points, header).split("\n")


def nudged(w: float, ulps: int) -> float:
    """``w`` moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        w = math.nextafter(w, math.copysign(math.inf, ulps))
    return w


ULPS = st.integers(-4, 4)
SIGNED = st.sampled_from([1.0, -1.0])
# Values where integer digits and '%.9g' are hardest to keep equal: a few ulp
# either side of a 9-digit rounding midpoint (m + 1/2) * 10**(e - 8) and of
# a power of ten, across the edges of the integer-digit decades (1e-4 and
# 1e6); zero, subnormals and non-finite values; and arbitrary bits.
CSV_VALUES = st.one_of(
    st.builds(
        lambda m, e, ulps, sign: sign * nudged((m + 0.5) * 10.0 ** (e - 8), ulps),
        st.integers(10**8, 10**9 - 1), st.integers(-6, 7), ULPS, SIGNED,
    ),
    st.builds(lambda k, ulps, sign: sign * nudged(10.0**k, ulps), st.integers(-9, 10), ULPS, SIGNED),
    st.builds(lambda w, sign: sign * w, st.floats(9e-5, 1.1e-4) | st.floats(9e5, 1.1e6), SIGNED),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),
    st.integers(0, 2**64 - 1).map(lambda b: float(np.array(b, np.uint64).view(np.float64))),
)


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(CSV_VALUES, min_size=1, max_size=64),
    rows=st.integers(1, 8) | st.integers(BLOCK - 3, BLOCK + 3),
    cols=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
# r just below 1e8: log10 rounds a value just below a power of ten up a decade
@example(values=[99999.99999999999, 0.0009999999999999998], rows=BLOCK, cols=3, seed=0)
# r just below 1e9: a tie, and clear values whose mantissa rounds up to 1e9
@example(values=[99.99999999999997, 999.9999999999994, -999999.999999999], rows=BLOCK, cols=3, seed=0)
# midpoint distance at the 2**-51 |w| margin: just clear, just a tie, and a
# tie whose computed quotient lies on the wrong side of its midpoint
@example(values=[0.20132302050000012, -53.687799149999975, 1157.035805], rows=BLOCK, cols=3,
         seed=0)
def test_csv_equals_row_formatter_near_ties(values, rows, cols, seed):
    # The drawn values, repeated and shuffled to fill the array, print as
    # the per-value formatter prints them, in every column and block.  Small
    # arrays, and lines compared as a list, keep a failure's report quick.
    points = np.random.default_rng(seed).permutation(np.resize(values, rows * cols))
    points = points.reshape(rows, cols)
    header = ("a", "b", "c")[:cols]
    assert points_to_csv(points, header).split("\n") == row_csv(points, header).split("\n")


# --------------------------------------------------------------------------
# Closed-form cloud tips: within the slack of the DH product, DH at ties
# --------------------------------------------------------------------------

# Link lengths and limits across what FingerParams accepts: any positive
# finite length, any finite min < max.
LENGTHS = st.tuples(*[st.one_of(st.just(45.0), st.floats(1e-200, 1e200))] * 3)
ANGLES = st.floats(-1e4, 1e4)
LIMITS = st.tuples(*[st.tuples(ANGLES, ANGLES).filter(lambda p: p[0] < p[1])] * 4)


def drawn_rows(limits, seed, inside, rows=512) -> np.ndarray:
    """Joint rows inside the box ``limits``, or anywhere at magnitudes
    from 1e-8 to 1e4 rad; tiny swing angles give tiny z, where 9-digit
    rounding ties are dense."""
    rng = np.random.default_rng(seed)
    if inside:
        lo, hi = np.array(limits).T
        return lo + (hi - lo) * rng.random((rows, 4))
    return rng.uniform(-1.0, 1.0, (rows, 4)) * 10.0 ** rng.uniform(-8.0, 4.0, (rows, 4))


ROWS = dict(lengths=LENGTHS, limits=LIMITS, seed=st.integers(0, 2**32 - 1),
            inside=st.booleans())


@settings(max_examples=150, deadline=None)
@given(**ROWS)
def test_closed_form_tips_within_slack_of_dh(lengths, limits, seed, inside):
    params = FingerParams(link_lengths=lengths, joint_limits=limits)
    qs = drawn_rows(params.joint_limits, seed, inside)
    tips, slack = kinematics._closed_form_tips(qs, params)
    assert np.all(np.abs(tips - batch_fingertips(qs, params)) <= slack[:, None])


@settings(max_examples=100, deadline=None)
@given(**ROWS)
@example(  # a tip 8.29704e187 from a midpoint that the rounded test put 8.29756e187 away
    lengths=(45.0, 45.0, 9.369164379029089e199),
    limits=((0.0, 6374.868268004471), (0.0, 6374.868268004471), (0.0, 1e-05),
            (1.0924207094189716e-12, 7932.7476977206425)),
    seed=4_294_967_295,
    inside=True,
)
def test_values_left_on_the_closed_form_print_alike_across_the_slack(
    lengths, limits, seed, inside
):
    # '%.9g' is monotone in the value, so equal text at both ends of the
    # slack means equal text for every value between, the DH tip's included.
    params = FingerParams(link_lengths=lengths, joint_limits=limits)
    qs = drawn_rows(params.joint_limits, seed, inside)
    tips, slack = kinematics._closed_form_tips(qs, params)
    kept = ~kinematics._rounding_ties(tips, slack[:, None])[0].any(axis=1)
    for row, d in zip(tips[kept].tolist(), slack[kept].tolist()):
        for w in row:
            assert "%.9g" % (w - d) == "%.9g" % w == "%.9g" % (w + d), (w, d)
    header = ("x", "y", "z")
    assert points_to_csv(kinematics._cloud_tips(qs, params), header) == points_to_csv(
        batch_fingertips(qs, params), header
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("mode", [[], ["--coupled"], ["--coupled", "--project", "xoy"]])
def test_workspace_csv_equals_dh_csv(monkeypatch, capsys, seed, mode):
    from modhand.cli import main

    ties = []

    def counting(qs, params, base=None):
        ties.append(len(qs))
        return batch_fingertips(qs, params, base)

    blocks = recorded_blocks(monkeypatch)
    monkeypatch.setattr(kinematics, "batch_fingertips", counting)
    assert main(["workspace", "--n", "100000", "--seed", str(seed)] + mode) == 0
    got = capsys.readouterr().out
    dh = batch_fingertips(np.concatenate(blocks), P)
    assert 0 < sum(ties) < 1000  # the DH product serves the ties alone
    if "--project" in mode:
        want = points_to_csv(dh[:, :2], ("u_mm", "v_mm"))
    else:
        want = points_to_csv(dh, ("x_mm", "y_mm", "z_mm"))
    assert len(dh) == 100_000
    assert got.split("\n") == want.split("\n")
