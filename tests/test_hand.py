import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from modhand.errors import ConfigSchemaError, ValidationError
from modhand.hand import (
    AUXILIARY_KIND,
    ACTIVE_KIND,
    FingerMount,
    HandLayout,
    base_transform,
    default_layout,
    hand_fk,
    hand_workspace,
    layout_from_dict,
    load_layout,
)
from modhand.kinematics import forward_kinematics
from modhand.params import FingerParams, JointState

LAYOUT = default_layout()


def test_default_layout_shape():
    assert len(LAYOUT.fingers) == 5
    kinds = {f.name: f.kind for f in LAYOUT.fingers}
    assert kinds["thumb"] == ACTIVE_KIND
    assert kinds["index"] == ACTIVE_KIND
    assert kinds["middle"] == ACTIVE_KIND
    assert kinds["ring"] == AUXILIARY_KIND
    assert kinds["little"] == AUXILIARY_KIND


def test_layout_requires_five_fingers():
    with pytest.raises(ValidationError):
        HandLayout(fingers=LAYOUT.fingers[:4])


def test_auxiliary_requires_spring():
    with pytest.raises(ValidationError):
        FingerMount(
            name="ring", base=np.eye(4), kind=AUXILIARY_KIND, params=FingerParams()
        )


def test_hand_fk_zero_states():
    chains = hand_fk([JointState()] * 5, LAYOUT)
    for chain, mount in zip(chains, LAYOUT.fingers):
        straight = mount.base @ np.array([90.0, 0.0, 0.0, 1.0])
        assert chain.tip == pytest.approx(straight[:3], abs=1e-12)


def test_hand_fk_arity():
    with pytest.raises(ValidationError, match="5"):
        hand_fk([JointState()] * 4, LAYOUT)


def test_frame_equivariance():
    # identical joint state on two fingers: tips related by the relative base
    q = JointState(q_aa=0.1, q1=0.6, q2=0.7, q3=0.42)
    chains = hand_fk([q] * 5, LAYOUT)
    index = LAYOUT.by_name("index")
    middle = LAYOUT.by_name("middle")
    i = [f.name for f in LAYOUT.fingers].index("index")
    m = [f.name for f in LAYOUT.fingers].index("middle")
    rel = middle.base @ np.linalg.inv(index.base)
    mapped = rel @ np.append(chains[i].tip, 1.0)
    assert chains[m].tip == pytest.approx(mapped[:3], abs=1e-9)


def test_union_workspace_contains_each_finger():
    clouds, union = hand_workspace(LAYOUT, 200, seed=9)
    union_rows = {tuple(row) for row in np.round(union, 12)}
    for pts in clouds.values():
        assert {tuple(row) for row in np.round(pts, 12)} <= union_rows


def test_kind_and_swing_spring_are_recorded_not_modelled():
    # Ring and little move exactly like the active fingers, whatever their
    # kind and swing spring: no output models the passive spring yet.
    def relabel(kind, aa_spring):
        return HandLayout(fingers=tuple(
            replace(m, kind=kind, aa_spring=aa_spring) if m.name in ("ring", "little") else m
            for m in LAYOUT.fingers
        ))

    layouts = [LAYOUT, relabel(ACTIVE_KIND, None), relabel(AUXILIARY_KIND, 1e6)]
    states = [JointState(q_aa=0.05 * i - 0.1, q1=0.3 + 0.1 * i, q2=0.4, q3=0.3)
              for i in range(5)]
    tips = [np.array([chain.tip for chain in hand_fk(states, layout)]) for layout in layouts]
    clouds = [hand_workspace(layout, 300, seed=4) for layout in layouts]
    for tip, (per_finger, union) in zip(tips[1:], clouds[1:]):
        assert np.array_equal(tip, tips[0])
        assert np.array_equal(union, clouds[0][1])
        assert per_finger.keys() == clouds[0][0].keys()
        assert all(np.array_equal(per_finger[name], clouds[0][0][name]) for name in per_finger)


def test_layout_document_round_trip(tmp_path):
    doc = {
        "fingers": [
            {
                "name": name,
                "kind": ACTIVE_KIND if name in ("thumb", "index", "middle") else AUXILIARY_KIND,
                "base": {"translation": [0.0, 0.0, 20.0 * i], "axis": [1, 0, 0], "angle": "0deg"},
                **({} if name in ("thumb", "index", "middle") else {"aa_spring": 150.0}),
            }
            for i, name in enumerate(("thumb", "index", "middle", "ring", "little"))
        ]
    }
    path = tmp_path / "hand.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    layout = load_layout(path)
    assert [f.name for f in layout.fingers] == ["thumb", "index", "middle", "ring", "little"]
    assert layout.by_name("ring").aa_spring == 150.0


def test_layout_document_rejects_unknown_key():
    with pytest.raises(ConfigSchemaError, match="palm_width"):
        layout_from_dict({"palm_width": 80.0, "fingers": []})


def test_layout_base_angle_strings():
    t = base_transform((0, 0, 0), axis=(1, 0, 0), angle=math.pi / 2)
    assert t[:3, :3] @ np.array([0.0, 1.0, 0.0]) == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)


@pytest.mark.parametrize(
    "axis, angle",
    [((0, 0, 0), 0.1), ((math.nan, 0, 1), 0.1), ((1, 0, 0), math.inf)],
    ids=["zero-axis", "nan-axis", "infinite-angle"],
)
def test_base_transform_rejects_degenerate_rotation(axis, angle):
    with pytest.raises(ValidationError, match="rotation"):
        base_transform((0, 0, 0), axis=axis, angle=angle)


@pytest.mark.parametrize("size", [1e300, 1e-300], ids=["overflow", "underflow"])
def test_base_transform_normalizes_extreme_axis(size):
    # A finite nonzero axis has a direction even when its squared length
    # overflows or underflows; normalizing it must not warn either.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = base_transform((0, 0, 0), axis=(size, 0, 0), angle=0.1)
    assert np.array_equal(got, base_transform((0, 0, 0), axis=(1, 0, 0), angle=0.1))


def test_per_finger_joint_states_respected():
    states = [JointState()] * 5
    states[1] = JointState(q1=0.7)
    chains = hand_fk(states, LAYOUT)
    thumb_straight = forward_kinematics(JointState(), LAYOUT.fingers[0].params, LAYOUT.fingers[0].base)
    assert chains[0].tip == pytest.approx(thumb_straight.tip, abs=0)
    assert not np.allclose(chains[1].tip, LAYOUT.fingers[1].base[:3, 3] + [90, 0, 0])
