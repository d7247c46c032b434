"""The shipped JSON schema is the one structural check of config documents."""

import copy
import json
import math
from collections import Counter
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import modhand
from modhand.errors import ConfigSchemaError, ValidationError
from modhand.params import (
    PRESETS,
    _check,
    params_from_dict,
    params_to_dict,
    resolve_params,
)

SCHEMA = json.loads(
    (Path(modhand.__file__).parent / "schema" / "finger_config.schema.json").read_text(
        encoding="utf-8"
    )
)
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)

# Documents the schema rejects, each with the field its error names.  The
# first five are identified by their top key; the rest, which the loader
# accepted while it kept its own checks, by that field.
BAD_DOCUMENTS = [
    ({"links_mm": [45.0, -5.0, 20.0]}, "links_mm[1]"),
    ({"gear_module": 1.0}, "gear_module"),
    ({"springs": {"radial": 3.0}}, "springs.radial"),
    ({"drive_radii_mm": [1.0, 2.0]}, "drive_radii_mm"),
    ({"limits": {"aa": ["20 degrees", "30deg"]}}, "limits.aa[0]"),
] + [
    pytest.param((doc, field), id=field)
    for doc, field in [
        (
            {"differential": {"coupling": [["0.5", "0.5"], ["0.5", "-0.5"]]}},
            "differential.coupling[0][0]",
        ),
        (
            {"differential": {"coupling": [[0.5, 0.5], [0.5, True]]}},
            "differential.coupling[1][1]",
        ),
        ({"limits": {"aa": ["-20 DEG", "20deg"]}}, "limits.aa[0]"),
        ({"limits": {"mcp": ["0deg", "1E2DEG"]}}, "limits.mcp[1]"),
        ({"limits": {"pip": ["+0.1rad", "0.3rad"]}}, "limits.pip[0]"),
        ({"limits": {"dip": ["-.3rad", ".3rad"]}}, "limits.dip[0]"),
        ({"version": True}, "version"),
    ]
]


def test_schema_is_valid_draft_2020_12():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_named_configs_match_schema(name):
    VALIDATOR.validate(params_to_dict(resolve_params(name)))


@pytest.mark.parametrize("doc", BAD_DOCUMENTS, ids=lambda case: next(iter(case[0])))
def test_schema_rejects_bad_documents(doc):
    doc, field = doc
    with pytest.raises(jsonschema.ValidationError):
        VALIDATOR.validate(doc)
    with pytest.raises(ConfigSchemaError) as excinfo:
        params_from_dict(doc)
    assert excinfo.value.field == field
    assert str(excinfo.value).startswith(f"{field}: ")


# Mutations of the preset documents: keys from the schema and a few it does
# not know, values of every JSON type, angle texts either side of the pattern.
PRESET_DOCS = [params_to_dict(resolve_params(name)) for name in sorted(PRESETS)]
KEYS = sorted(SCHEMA["properties"]) + [
    "serial", "parallel", "aa", "dip", "coupling", "swap_modes", "radial",
]
ANGLE_TEXTS = [
    "20deg", "-0.35 rad", " 1.5e-3deg\n", "2E+1rad", "20 DEG", "+0.1rad",
    "-.3rad", "20 degrees", "deg", "1e2",
]
NUMBERS = st.one_of(
    st.integers(-3, 40),
    st.floats(-1.0, 100.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([22.0, 1.0, 0.0, -0.0, 0.5, 1e300, 2**70]),
)
LEAVES = st.one_of(
    NUMBERS,
    NUMBERS,
    st.sampled_from(ANGLE_TEXTS),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    max_leaves=4,
)


def _containers(node):
    if isinstance(node, (dict, list)):
        yield node
        for child in node.values() if isinstance(node, dict) else node:
            yield from _containers(child)


@st.composite
def mutated_documents(draw):
    """A preset document after one edit: a key or entry dropped, an entry
    swapped for a scalar, or a new key or entry added."""
    doc = copy.deepcopy(draw(st.sampled_from(PRESET_DOCS)))
    node = draw(st.sampled_from(list(_containers(doc))))
    slots = sorted(node) if isinstance(node, dict) else range(len(node))
    edit = draw(st.sampled_from(["drop", "swap", "swap", "add"]))
    if edit == "add" or not slots:
        if isinstance(node, dict):
            node[draw(st.sampled_from(KEYS))] = draw(VALUES)
        else:
            node.append(draw(VALUES))
    elif edit == "drop":
        del node[draw(st.sampled_from(slots))]
    else:
        node[draw(st.sampled_from(slots))] = draw(LEAVES)
    return doc


def test_check_agrees_with_jsonschema():
    verdicts = Counter()

    @settings(max_examples=2000, deadline=None)
    @given(mutated_documents())
    @example({"teeth": [22.0, 20, 16]})
    @example({"links_mm": [True, 25.0, 20.0]})
    @example({"version": 1.0})
    @example({"links_mm": [math.nan, 25.0, 20.0]})
    def agree(doc):
        valid = VALIDATOR.is_valid(doc)
        verdicts[valid] += 1
        if not valid:
            with pytest.raises(ConfigSchemaError):
                _check(doc, SCHEMA, "")
            return
        _check(doc, SCHEMA, "")
        # Past the schema only a model invariant (min < max, finite values,
        # a non-singular differential) may reject the document.
        try:
            params_from_dict(doc)
        except ValidationError:
            pass

    agree()
    assert sum(verdicts.values()) >= 2000
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_nan_passes_schema_and_fails_model():
    doc = {"links_mm": [math.nan, 25.0, 20.0]}
    assert VALIDATOR.is_valid(doc)
    with pytest.raises(ValidationError, match="link_lengths"):
        params_from_dict(doc)
