import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modhand.errors import ConfigSchemaError, ValidationError
from modhand.params import (
    CouplingModel,
    DifferentialTrain,
    DriveState,
    FingerParams,
    JointState,
    PlanetaryState,
    default_params,
    load_params,
    params_from_dict,
    params_to_dict,
    parse_angle,
    resolve_params,
    text_ratio_params,
)


def test_default_teeth_and_radii():
    p = default_params()
    assert p.drive_teeth == (22, 20, 16)
    assert p.drive_radii == (11.0, 10.0, 8.0)
    assert p.coupling_radii == (7.0, 6.0, 10.0)


def test_default_coupling_ratio_is_6_7_42():
    cm = default_params().coupling_model()
    assert cm.ratio == (6.0, 7.0, 4.2)
    residual = np.asarray(cm.constraint) @ np.asarray(cm.ratio)
    assert np.max(np.abs(residual)) < 1e-12


def test_defaults_pass_invariants():
    p = default_params()
    assert all(z >= 1 for z in p.drive_teeth)
    assert all(v > 0 for v in p.drive_radii + p.coupling_radii + p.link_lengths)
    assert all(lo < hi for lo, hi in p.joint_limits)


def test_load_params_teeth():
    p = params_from_dict({"teeth": [22, 20, 16]})
    assert p.drive_teeth == (22, 20, 16)


def test_load_params_spring_defaults():
    p = params_from_dict({"teeth": [22, 20, 16]})
    assert p.spring_serial == 50.0
    assert p.spring_parallel == (100.0, 100.0, 100.0)


def test_load_params_rejects_negative_length():
    with pytest.raises(ConfigSchemaError, match=r"links_mm\[1\]"):
        params_from_dict({"links_mm": [45.0, -5.0, 20.0]})


def test_load_params_rejects_unknown_key():
    with pytest.raises(ConfigSchemaError, match="gear_module"):
        params_from_dict({"gear_module": 1.0})


def test_load_params_rejects_unknown_nested_key():
    with pytest.raises(ConfigSchemaError, match="springs.radial"):
        params_from_dict({"springs": {"radial": 3.0}})


def test_load_params_names_bad_field():
    with pytest.raises(ConfigSchemaError, match="drive_radii_mm"):
        params_from_dict({"drive_radii_mm": [1.0, 2.0]})


def test_angle_strings():
    assert parse_angle("20deg") == pytest.approx(math.radians(20.0))
    assert parse_angle("-20 deg") == pytest.approx(-math.radians(20.0))
    assert parse_angle("0.35rad") == 0.35
    assert parse_angle(0.5) == 0.5
    with pytest.raises(ConfigSchemaError):
        parse_angle("20 degrees")


def test_limits_accept_degree_strings():
    p = params_from_dict({"limits": {"aa": ["-15deg", "15deg"]}})
    assert p.joint_limits[0] == pytest.approx(
        (-math.radians(15.0), math.radians(15.0))
    )


def test_round_trip_identity_default():
    p = default_params()
    assert params_from_dict(params_to_dict(p)) == p


def test_round_trip_through_file(tmp_path):
    p = text_ratio_params()
    path = tmp_path / "finger.json"
    path.write_text(json.dumps(params_to_dict(p)), encoding="utf-8")
    assert load_params(path) == p


finite_pos = st.floats(min_value=0.1, max_value=500.0, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(
    teeth=st.tuples(*[st.integers(min_value=1, max_value=99)] * 3),
    drive=st.tuples(*[finite_pos] * 3),
    coupling=st.tuples(*[finite_pos] * 3),
    links=st.tuples(*[finite_pos] * 3),
    ks=finite_pos,
)
def test_round_trip_identity_random(teeth, drive, coupling, links, ks):
    p = FingerParams(
        drive_teeth=teeth,
        drive_radii=drive,
        coupling_radii=coupling,
        link_lengths=links,
        spring_serial=ks,
    )
    assert params_from_dict(params_to_dict(p)) == p


def test_text_ratio_preset():
    p = text_ratio_params()
    assert p.drive_teeth == (14, 12, 20)
    assert resolve_params("text-ratio") == p
    assert resolve_params("default") == default_params()


def test_differential_defaults():
    t = DifferentialTrain()
    composite = np.array(t.composite_rows())
    expected = np.array([[0.5, 0.5], [0.5, -0.5]]) * (13.0 / 24.0)
    assert np.allclose(composite, expected, atol=0)


def test_differential_rejects_singular():
    with pytest.raises(ValidationError):
        DifferentialTrain(coupling=((1.0, 1.0), (1.0, 1.0)))


def test_coupling_model_rejects_mismatched_ratio():
    with pytest.raises(ValidationError):
        CouplingModel(constraint=((7.0, -6.0, 0.0), (0.0, 6.0, -10.0)), ratio=(1.0, 1.0, 1.0))


def test_joint_state_requires_finite():
    with pytest.raises(ValidationError):
        JointState(q1=float("nan"))
    with pytest.raises(ValidationError, match="a2"):
        DriveState(a2=math.inf)
    with pytest.raises(ValidationError, match="theta1"):
        PlanetaryState(theta1=math.nan)


@pytest.mark.parametrize("z", [math.nan, math.inf, 1.5, True, 0, "22"])
def test_teeth_must_be_integers_from_one(z):
    with pytest.raises(ValidationError, match="drive_teeth"):
        FingerParams(drive_teeth=(z, 20, 16))
    assert FingerParams(drive_teeth=(22.0, 20, 16)).drive_teeth == (22, 20, 16)


def test_joint_state_limits_check():
    p = default_params()
    assert JointState(q1=0.5).within_limits(p)
    assert not JointState(q1=3.0).within_limits(p)


def test_config_document_with_differential_round_trips():
    doc = params_to_dict(default_params())
    doc["differential"]["swap_modes"] = True
    p = params_from_dict(doc)
    assert p.differential.swap_modes is True
