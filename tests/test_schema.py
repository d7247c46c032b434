"""The shipped JSON schemas are the one structural check of config documents:
finger configs, hand layouts and the hand-fk joints file."""

import copy
import json
import math
from collections import Counter
from pathlib import Path

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from referencing import Registry, Resource

import modhand
from modhand.errors import ConfigSchemaError, ValidationError
from modhand.hand import layout_from_dict
from modhand.params import (
    PRESETS,
    _check,
    params_from_dict,
    params_to_dict,
    resolve_params,
)

# Every shipped schema, found by name so that a new one is covered unedited.
SCHEMAS = {
    path.name: json.loads(path.read_text(encoding="utf-8"))
    for path in sorted((Path(modhand.__file__).parent / "schema").glob("*.schema.json"))
}
REGISTRY = Registry().with_resources(
    (name, Resource.from_contents(schema)) for name, schema in SCHEMAS.items()
)
SCHEMA = SCHEMAS["finger_config.schema.json"]
LAYOUT_SCHEMA = SCHEMAS["hand_layout.schema.json"]
JOINTS_SCHEMA = {"$ref": "hand_layout.schema.json#/$defs/joints"}
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA, registry=REGISTRY)
LAYOUT_VALIDATOR = jsonschema.Draft202012Validator(LAYOUT_SCHEMA, registry=REGISTRY)
JOINTS_VALIDATOR = jsonschema.Draft202012Validator(JOINTS_SCHEMA, registry=REGISTRY)

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
    assert {"finger_config.schema.json", "hand_layout.schema.json"} <= set(SCHEMAS)
    for schema in SCHEMAS.values():
        jsonschema.Draft202012Validator.check_schema(schema)


def test_defs_names_are_distinct_across_schemas():
    # The interpreter resolves a reference by its last part in one merged table.
    names = Counter(name for schema in SCHEMAS.values() for name in schema.get("$defs", {}))
    assert all(count == 1 for count in names.values()), names


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
def mutated(draw, docs, keys, leaves, values):
    """One of ``docs`` after one edit: a key or entry dropped, an entry
    swapped for a leaf, or a new key or entry added."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    node = draw(st.sampled_from(list(_containers(doc))))
    slots = sorted(node) if isinstance(node, dict) else range(len(node))
    edit = draw(st.sampled_from(["drop", "swap", "swap", "add"]))
    if edit == "add" or not slots:
        if isinstance(node, dict):
            node[draw(st.sampled_from(keys))] = draw(values)
        else:
            node.append(draw(values))
    elif edit == "drop":
        del node[draw(st.sampled_from(slots))]
    else:
        node[draw(st.sampled_from(slots))] = draw(leaves)
    return doc


def test_check_agrees_with_jsonschema():
    verdicts = Counter()

    @settings(max_examples=2000, deadline=None)
    @given(mutated(PRESET_DOCS, KEYS, LEAVES, VALUES))
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


# --------------------------------------------------------------------------
# Hand layouts and the hand-fk joints file
# --------------------------------------------------------------------------

FULL_LAYOUT = {
    "version": 1,
    "fingers": [
        {
            "name": "thumb",
            "kind": "active-modular",
            "base": {"translation": [-20.0, 0.0, -30.0], "axis": [1, 0, 0], "angle": "90deg"},
            "params": {"links_mm": [40.0, 25.0, 20.0], "limits": {"aa": ["-15deg", 0.2]}},
        },
        {"name": "index", "kind": "active-modular", "base": {"translation": [0, 0, 0]}},
        {
            "name": "middle",
            "kind": "active-modular",
            "base": {"translation": [0.0, 0.0, 20.0], "angle": 0.1},
            "params": {"springs": {"serial": 40.0, "parallel": [90.0, 100.0, 110.0]}},
        },
        {
            "name": "ring",
            "kind": "auxiliary-passive-aa",
            "aa_spring": 150.0,
            "base": {"translation": [0.0, 0.0, 40.0], "axis": [0, 1, 0], "angle": "-0.2 rad"},
        },
        {
            "name": "little",
            "kind": "auxiliary-passive-aa",
            "aa_spring": 150,
            "params": {"teeth": [22, 20, 16]},
        },
    ],
}


def _layout_with(edit):
    doc = copy.deepcopy(FULL_LAYOUT)
    edit(doc)
    return doc


# Layouts the schema rejects, each with the field its error names.  The loader
# accepted the middle four while it kept its own checks, and named the first
# one ``links_mm[1]``, without its finger's prefix.
BAD_LAYOUTS = [
    pytest.param((doc, field), id=name)
    for name, doc, field in [
        (
            "params-field",
            _layout_with(lambda d: d["fingers"][2].update(params={"links_mm": [45, -5, 20]})),
            "fingers[2].params.links_mm[1]",
        ),
        ("version", _layout_with(lambda d: d.update(version="banana")), "version"),
        ("null-name", _layout_with(lambda d: d["fingers"][0].update(name=None)), "fingers[0].name"),
        ("number-name", _layout_with(lambda d: d["fingers"][0].update(name=3)), "fingers[0].name"),
        (
            "string-params",
            _layout_with(lambda d: d["fingers"][0].update(params="default")),
            "fingers[0].params",
        ),
        ("missing-kind", _layout_with(lambda d: d["fingers"][4].pop("kind")), "fingers[4].kind"),
        ("missing-fingers", {"version": 1}, "fingers"),
        ("unknown-key", _layout_with(lambda d: d.update(palm_width=80.0)), "palm_width"),
        (
            "null-spring",
            _layout_with(lambda d: d["fingers"][3].update(aa_spring=None)),
            "fingers[3].aa_spring",
        ),
        (
            "zero-spring",
            _layout_with(lambda d: d["fingers"][3].update(aa_spring=0.0)),
            "fingers[3].aa_spring",
        ),
        (
            "base-angle",
            _layout_with(lambda d: d["fingers"][0]["base"].update(angle="90 DEG")),
            "fingers[0].base.angle",
        ),
        (
            "params-unknown-key",
            _layout_with(lambda d: d["fingers"][0]["params"].update(gear_module=1.0)),
            "fingers[0].params.gear_module",
        ),
        ("not-an-object", [FULL_LAYOUT], "<root>"),
    ]
]


def test_full_layout_matches_schema():
    LAYOUT_VALIDATOR.validate(FULL_LAYOUT)
    layout = layout_from_dict(FULL_LAYOUT)
    assert [f.name for f in layout.fingers] == ["thumb", "index", "middle", "ring", "little"]
    assert layout.by_name("thumb").params.link_lengths == (40.0, 25.0, 20.0)
    assert layout.by_name("little").aa_spring == 150


@pytest.mark.parametrize("case", BAD_LAYOUTS)
def test_layout_schema_rejects_bad_layouts(case):
    doc, field = case
    with pytest.raises(jsonschema.ValidationError):
        LAYOUT_VALIDATOR.validate(doc)
    with pytest.raises(ConfigSchemaError) as excinfo:
        layout_from_dict(doc)
    assert excinfo.value.field == field
    assert str(excinfo.value).startswith(f"{field}: ")


@pytest.mark.parametrize(
    "doc",
    [
        [[0, 0.5, 0.5, 0.5]] * 5,
        [[0, 0, 0]] * 5,
        [[0, "0.5", 0, 0]] * 5,
        [[0, True, 0, 0]] * 5,
        [[0, 0, 0, 0]] * 4,
        [[0, 0, 0, 0]] * 6,
        {"thumb": [0, 0, 0, 0]},
    ],
    ids=["valid", "short-row", "string-entry", "bool-entry", "four-rows", "six-rows", "object"],
)
def test_check_agrees_with_jsonschema_on_joints_files(doc):
    valid = JOINTS_VALIDATOR.is_valid(doc)
    assert valid == (doc == [[0, 0.5, 0.5, 0.5]] * 5)
    if valid:
        _check(doc, JOINTS_SCHEMA, "--joints")
    else:
        with pytest.raises(ConfigSchemaError, match=r"^--joints"):
            _check(doc, JOINTS_SCHEMA, "--joints")


LAYOUT_KEYS = sorted(LAYOUT_SCHEMA["properties"]) + [
    "name", "kind", "base", "params", "aa_spring", "translation", "axis", "angle",
    "links_mm", "springs", "serial", "palm_width",
]
LAYOUT_LEAVES = st.one_of(
    LEAVES,
    st.sampled_from(["active-modular", "auxiliary-passive-aa", "thumb", "ring", "default"]),
)
LAYOUT_VALUES = st.recursive(
    LAYOUT_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(LAYOUT_KEYS), inner, max_size=3),
    max_leaves=4,
)


def test_check_agrees_with_jsonschema_on_layouts():
    verdicts = Counter()

    @settings(max_examples=2000, deadline=None)
    @given(mutated([FULL_LAYOUT], LAYOUT_KEYS, LAYOUT_LEAVES, LAYOUT_VALUES))
    @example(_layout_with(lambda d: d["fingers"][1]["base"].update(angle=math.inf)))
    @example(_layout_with(lambda d: d["fingers"][1]["base"].update(axis=[0, 0, 0])))
    @example(_layout_with(lambda d: d["fingers"][3].pop("aa_spring")))
    @example(_layout_with(lambda d: d["fingers"][4].update(name="thumb")))
    def agree(doc):
        valid = LAYOUT_VALIDATOR.is_valid(doc)
        verdicts[valid] += 1
        if not valid:
            with pytest.raises(ConfigSchemaError):
                _check(doc, LAYOUT_SCHEMA, "")
            return
        _check(doc, LAYOUT_SCHEMA, "")
        # Past the schema only a model invariant (five unique names, a known
        # kind, a positive auxiliary spring, a finite base, the finger
        # invariants) may reject the layout.
        try:
            layout_from_dict(doc)
        except ValidationError:
            pass

    agree()
    assert sum(verdicts.values()) >= 2000
    assert verdicts[True] > 0 and verdicts[False] > 0
