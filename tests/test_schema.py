"""The shipped JSON schema agrees with the hand-written config checks."""

import json
from pathlib import Path

import jsonschema
import pytest

import modhand
from modhand.errors import ModhandError
from modhand.params import PRESETS, params_from_dict, params_to_dict, resolve_params

SCHEMA = json.loads(
    (Path(modhand.__file__).parent / "schema" / "finger_config.schema.json").read_text(
        encoding="utf-8"
    )
)
VALIDATOR = jsonschema.Draft202012Validator(SCHEMA)

# Documents the config tests reject, each a violation the schema can express.
BAD_DOCUMENTS = [
    {"links_mm": [45.0, -5.0, 20.0]},
    {"gear_module": 1.0},
    {"springs": {"radial": 3.0}},
    {"drive_radii_mm": [1.0, 2.0]},
    {"limits": {"aa": ["20 degrees", "30deg"]}},
]


def test_schema_is_valid_draft_2020_12():
    jsonschema.Draft202012Validator.check_schema(SCHEMA)


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_named_configs_match_schema(name):
    VALIDATOR.validate(params_to_dict(resolve_params(name)))


@pytest.mark.parametrize("doc", BAD_DOCUMENTS, ids=lambda doc: next(iter(doc)))
def test_schema_rejects_bad_documents(doc):
    with pytest.raises(jsonschema.ValidationError):
        VALIDATOR.validate(doc)
    with pytest.raises(ModhandError):
        params_from_dict(doc)
