"""Configuration and state types shared by every other module.

All types are frozen dataclasses holding plain floats/tuples, so instances
are immutable value objects: safe to share across workers, hashable where it
matters, and exactly round-trippable through the JSON config format.  Their
maps are computed on floats and their vectors are float tuples; nothing here
imports numpy.

Units are fixed package-wide: radians, millimeters, newtons, N*mm torques.
Config documents are checked against the shipped schemas (schema/*.schema.json,
finger documents against finger_config.schema.json); angles are raw radians
or strings with an explicit suffix ("20deg", "0.35rad").
"""

from __future__ import annotations

import json
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import cache
from pathlib import Path
from typing import Any

from .errors import ConfigSchemaError, ValidationError
from .floats import _total

SCHEMA_VERSION = 1

# Documented defaults. Gear teeth follow the three-joint drive chain
# (MCP, PIP, DIP); drive radii use a half-unit module, radius = teeth / 2.
DEFAULT_TEETH = (22, 20, 16)
DEFAULT_DRIVE_RADII = (11.0, 10.0, 8.0)
# Coupling radii chosen so that zero deflection of the two inter-joint
# elastic elements pins the flexion joints to the 6 : 7 : 4.2 proportion.
DEFAULT_COUPLING_RADII = (7.0, 6.0, 10.0)
DEFAULT_SPRING_SERIAL = 50.0
DEFAULT_SPRING_PARALLEL = (100.0, 100.0, 100.0)
DEFAULT_LINKS = (45.0, 25.0, 20.0)
DEFAULT_LINK_RADII = (8.0, 7.0, 6.0)
DEFAULT_LIMITS = (
    (-math.pi / 9, math.pi / 9),        # abduction-adduction, +/-20 deg
    (0.0, math.radians(100.0)),         # MCP flexion
    (0.0, math.radians(100.0)),         # PIP flexion
    (0.0, math.radians(100.0)),         # DIP flexion
)

_LIMIT_KEYS = ("aa", "mcp", "pip", "dip")


# Every shipped schema by file name, and one table of all their "$defs"
# (the names are distinct across files, so a reference needs only its last part).
_SCHEMAS = {
    path.name: json.loads(path.read_text(encoding="utf-8"))
    for path in (Path(__file__).parent / "schema").glob("*.schema.json")
}
_DEFS = {name: d for schema in _SCHEMAS.values() for name, d in schema.get("$defs", {}).items()}


_TYPES = {
    "object": lambda v: isinstance(v, Mapping),
    "array": lambda v: isinstance(v, (list, tuple)),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: _TYPES["number"](v) and (isinstance(v, int) or v.is_integer()),
}


def _check(value: Any, schema: Mapping, where: str) -> None:
    """Raise ConfigSchemaError unless ``value`` conforms to ``schema``.

    Interprets the JSON Schema 2020-12 keywords the shipped schemas use, with
    the same verdicts (a bool is no number, 22.0 is an integer, NaN passes
    ``exclusiveMinimum``), and ignores annotations; a tuple is an array.  A
    ``$ref`` names a shipped file, a ``$defs`` entry, or both.
    ``where`` is the field path so far, "" at the document root.
    """
    at = where or "<root>"
    if "$ref" in schema:
        file, _, pointer = schema["$ref"].partition("#")
        target = _DEFS[pointer.rpartition("/")[2]] if pointer else _SCHEMAS[file]
        _check(value, target, where)
    if "oneOf" in schema and sum(_conforms(value, s) for s in schema["oneOf"]) != 1:
        form = schema.get("description", "exactly one allowed form")
        raise ConfigSchemaError(at, f"expected {form}, got {value!r}")
    kind = schema.get("type")
    if kind and not _TYPES[kind](value):
        raise ConfigSchemaError(at, f"expected {kind}, got {type(value).__name__}")
    if "const" in schema:
        const = schema["const"]
        if value != const or isinstance(value, bool) != isinstance(const, bool):
            raise ConfigSchemaError(at, f"expected {const!r}, got {value!r}")
    if _TYPES["number"](value):
        if "minimum" in schema and value < schema["minimum"]:
            raise ConfigSchemaError(at, f"must be >= {schema['minimum']}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            raise ConfigSchemaError(at, f"must be > {schema['exclusiveMinimum']}")
    elif _TYPES["string"](value):
        if "pattern" in schema and not re.search(schema["pattern"], value):
            raise ConfigSchemaError(at, f"{value!r} does not match {schema['pattern']}")
    elif _TYPES["array"](value):
        if len(value) < schema.get("minItems", 0):
            raise ConfigSchemaError(at, f"expected at least {schema['minItems']} entries")
        if len(value) > schema.get("maxItems", len(value)):
            raise ConfigSchemaError(at, f"expected at most {schema['maxItems']} entries")
        for i, item in enumerate(value):
            _check(item, schema.get("items", {}), f"{where}[{i}]")
    elif _TYPES["object"](value):
        for key in schema.get("required", ()):
            if key not in value:
                raise ConfigSchemaError(f"{where}.{key}" if where else key, "missing key")
        props = schema.get("properties", {})
        for key, item in value.items():
            path = f"{where}.{key}" if where else str(key)
            if key in props:
                _check(item, props[key], path)
            elif schema.get("additionalProperties") is False:
                raise ConfigSchemaError(path, "unknown key")


def _conforms(value: Any, schema: Mapping) -> bool:
    try:
        _check(value, schema, "")
    except ConfigSchemaError:
        return False
    return True


def parse_angle(value: Any) -> float:
    """Parse an angle of the schema's ``angle`` form: a raw number is radians,
    a string carries a lowercase suffix ("20deg", "-0.35 rad")."""
    _check(value, _DEFS["angle"], "angle")
    if not isinstance(value, str):
        return float(value)
    text = value.strip()
    return float(text[:-3]) * (math.pi / 180.0 if text.endswith("deg") else 1.0)


@dataclass(frozen=True)
class DifferentialTrain:
    """Two-motor gear differential at the composite proximal joint.

    The three stages multiply into the composite drive map: motor angles
    pass through the motor stage, the differential coupling (sum/difference
    mixing), and the output stage.  ``swap_modes`` flips which planetary
    mode is reported as abduction and which as flexion drive.
    """

    output_stage: tuple = ((1.0, 0.0), (0.0, 1.0))
    coupling: tuple = ((0.5, 0.5), (0.5, -0.5))
    motor_stage: tuple = ((13.0 / 24.0, 0.0), (0.0, 13.0 / 24.0))
    swap_modes: bool = False

    def __post_init__(self):
        for name in ("output_stage", "coupling", "motor_stage"):
            m = getattr(self, name)
            rows = tuple(tuple(float(x) for x in row) for row in m)
            if len(rows) != 2 or any(len(r) != 2 for r in rows):
                raise ValidationError(f"differential.{name} must be 2x2")
            if not all(math.isfinite(x) for r in rows for x in r):
                raise ValidationError(f"differential.{name} must be finite")
            object.__setattr__(self, name, rows)
        (a, b), (c, d) = self.composite_rows()
        if abs(a * d - b * c) < 1e-12:
            raise ValidationError("composite differential matrix is singular")

    def composite_rows(self) -> tuple:
        """Output-stage @ coupling @ motor-stage as float rows, the full
        drive-to-planetary map; each entry summed left to right."""
        rows = self.output_stage
        for m in (self.coupling, self.motor_stage):
            rows = tuple(tuple(_total(x * y for x, y in zip(r, c)) for c in zip(*m)) for r in rows)
        return rows


@dataclass(frozen=True)
class CouplingModel:
    """Rigid inter-joint coupling of the three flexion joints.

    ``constraint`` annihilates any joint vector on the coupled line;
    ``ratio`` is that line's direction, conventionally scaled to 6 : 7 : 4.2
    for the stock gear set.
    """

    constraint: tuple = ((7.0, -6.0, 0.0), (0.0, 6.0, -10.0))
    ratio: tuple = (6.0, 7.0, 4.2)

    def __post_init__(self):
        rows = tuple(tuple(float(x) for x in row) for row in self.constraint)
        if len(rows) != 2 or any(len(r) != 3 for r in rows):
            raise ValidationError("coupling constraint must be 2x3")
        ratio = tuple(float(x) for x in self.ratio)
        if len(ratio) != 3:
            raise ValidationError("coupling ratio must have 3 entries")
        object.__setattr__(self, "constraint", rows)
        object.__setattr__(self, "ratio", ratio)
        residual = [_total(c * x for c, x in zip(row, ratio)) for row in rows]
        if max(map(abs, residual)) > 1e-12 * max(1.0, *(abs(x) for row in rows for x in row)):
            raise ValidationError("coupling constraint does not annihilate the ratio")

    @classmethod
    def from_coupling_radii(cls, radii) -> "CouplingModel":
        """Build the constraint rows and coupled line from the gear radii.

        Zero deflection of the two inter-joint elements means
        r_c2*q2 = r_c1*q1 and r_c3*q3 = r_c2*q2; the ratio is scaled so its
        leading entry is 6, matching the conventional presentation.
        """
        r1, r2, r3 = (float(r) for r in radii)
        constraint = ((r1, -r2, 0.0), (0.0, r2, -r3))
        raw = (r2 * r3, r1 * r3, r1 * r2)
        scale = raw[0] / 6.0
        return cls(constraint=constraint, ratio=tuple(x / scale for x in raw))


@dataclass(frozen=True)
class FingerParams:
    """Structural parameters of one modular finger."""

    drive_teeth: tuple = DEFAULT_TEETH
    drive_radii: tuple = DEFAULT_DRIVE_RADII
    coupling_radii: tuple = DEFAULT_COUPLING_RADII
    differential: DifferentialTrain = field(default_factory=DifferentialTrain)
    spring_serial: float = DEFAULT_SPRING_SERIAL
    spring_parallel: tuple = DEFAULT_SPRING_PARALLEL
    link_lengths: tuple = DEFAULT_LINKS
    link_radii: tuple = DEFAULT_LINK_RADII
    joint_limits: tuple = DEFAULT_LIMITS

    def __post_init__(self):
        teeth = tuple(self.drive_teeth)
        if len(teeth) != 3:
            raise ValidationError("drive_teeth must have 3 entries")
        for z in teeth:
            if not (_TYPES["integer"](z) and z >= 1):
                raise ValidationError(f"drive_teeth entries must be integers >= 1, got {z!r}")
        object.__setattr__(self, "drive_teeth", tuple(int(z) for z in teeth))

        for name in (
            "drive_radii", "coupling_radii", "spring_parallel", "link_lengths", "link_radii"
        ):
            vals = tuple(float(v) for v in getattr(self, name))
            if len(vals) != 3:
                raise ValidationError(f"{name} must have 3 entries")
            if not all(math.isfinite(v) and v > 0 for v in vals):
                raise ValidationError(f"{name} entries must be strictly positive")
            object.__setattr__(self, name, vals)

        ks = float(self.spring_serial)
        if not (math.isfinite(ks) and ks > 0):
            raise ValidationError("spring_serial must be strictly positive")
        object.__setattr__(self, "spring_serial", ks)

        limits = tuple(tuple(float(x) for x in pair) for pair in self.joint_limits)
        if len(limits) != 4 or any(len(p) != 2 for p in limits):
            raise ValidationError("joint_limits must be 4 [min, max] pairs")
        for key, (lo, hi) in zip(_LIMIT_KEYS, limits):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValidationError(f"joint_limits.{key}: min must be < max")
        object.__setattr__(self, "joint_limits", limits)

        if not isinstance(self.differential, DifferentialTrain):
            raise ValidationError("differential must be a DifferentialTrain")

    def coupling_model(self) -> CouplingModel:
        return CouplingModel.from_coupling_radii(self.coupling_radii)

    @property
    def reach(self) -> float:
        """Straight-finger distance from the composite joint to the tip, mm."""
        return _total(self.link_lengths)


@cache
def _field_names(cls) -> tuple:
    """Field names of a dataclass, looked up once per class."""
    return tuple(f.name for f in fields(cls))


class _FiniteState:
    """Base of the state records: every field becomes a finite float."""

    def __post_init__(self):
        for name in _field_names(type(self)):
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValidationError(f"{name} must be finite")
            object.__setattr__(self, name, v)


@dataclass(frozen=True)
class JointState(_FiniteState):
    """Joint-space configuration: lateral swing plus three flexion angles, rad."""

    q_aa: float = 0.0
    q1: float = 0.0
    q2: float = 0.0
    q3: float = 0.0

    def as_array(self) -> tuple:
        return self.q_aa, self.q1, self.q2, self.q3

    def flexion(self) -> tuple:
        return self.q1, self.q2, self.q3

    def within_limits(self, params: FingerParams) -> bool:
        """Whether every angle lies within its limits, up to 1e-9 rad."""
        return all(
            lo - 1e-9 <= v <= hi + 1e-9 for v, (lo, hi) in zip(self.as_array(), params.joint_limits)
        )


@dataclass(frozen=True)
class DriveState(_FiniteState):
    """Motor output angles of the two-actuator drive, rad."""

    a1: float = 0.0
    a2: float = 0.0

    def as_array(self) -> tuple:
        return self.a1, self.a2


@dataclass(frozen=True)
class PlanetaryState(_FiniteState):
    """Planetary gear revolution/rotation angles at the composite joint, rad."""

    theta1: float = 0.0
    theta2: float = 0.0

    def as_array(self) -> tuple:
        return self.theta1, self.theta2


def default_params() -> FingerParams:
    """Stock finger: Table-style teeth (22, 20, 16), half-module drive radii,
    coupling radii giving the 6 : 7 : 4.2 joint proportion, anthropomorphic
    45/25/20 mm links."""
    return FingerParams()


def text_ratio_params() -> FingerParams:
    """Alternate preset using the 14 : 12 : 20 tooth proportion.

    Kept only as a named preset for comparison runs; never the default.
    """
    return FingerParams(drive_teeth=(14, 12, 20), drive_radii=(7.0, 6.0, 10.0))


PRESETS = {
    "default": default_params,
    "text-ratio": text_ratio_params,
}


# --------------------------------------------------------------------------
# Config document I/O
# --------------------------------------------------------------------------

# Config-document number lists and the FingerParams fields they fill.
_LISTS = (
    ("teeth", "drive_teeth"),
    ("drive_radii_mm", "drive_radii"),
    ("coupling_radii_mm", "coupling_radii"),
    ("links_mm", "link_lengths"),
    ("link_radii_mm", "link_radii"),
)


def params_from_dict(doc: Mapping) -> FingerParams:
    """Check a parsed config tree against the schema and build FingerParams.

    Unknown keys are errors; omitted keys fall back to the documented
    defaults.  Raises ConfigSchemaError naming the offending field, or
    ValidationError if the values break a model invariant.
    """
    _check(doc, _SCHEMAS["finger_config.schema.json"], "")
    kwargs: dict = {name: tuple(doc[key]) for key, name in _LISTS if key in doc}
    # The schema admits only "serial" and "parallel" under "springs".
    kwargs.update({f"spring_{key}": v for key, v in doc.get("springs", {}).items()})
    if "limits" in doc:
        limits = doc["limits"]
        kwargs["joint_limits"] = tuple(
            tuple(map(parse_angle, limits[key])) if key in limits else default
            for key, default in zip(_LIMIT_KEYS, DEFAULT_LIMITS)
        )
    if "differential" in doc:
        kwargs["differential"] = DifferentialTrain(**doc["differential"])
    return FingerParams(**kwargs)


def params_to_dict(p: FingerParams) -> dict:
    """Serialize to the config-document form; inverse of params_from_dict."""
    return {
        "version": SCHEMA_VERSION,
        **{key: list(getattr(p, name)) for key, name in _LISTS},
        "springs": {
            "serial": p.spring_serial,
            "parallel": list(p.spring_parallel),
        },
        "limits": {
            key: list(pair) for key, pair in zip(_LIMIT_KEYS, p.joint_limits)
        },
        "differential": {
            "output_stage": [list(r) for r in p.differential.output_stage],
            "coupling": [list(r) for r in p.differential.coupling],
            "motor_stage": [list(r) for r in p.differential.motor_stage],
            "swap_modes": p.differential.swap_modes,
        },
    }


def _read_json(source, option: str | None = None) -> Any:
    """A JSON document given as a mapping or a file path.

    Read and parse errors name ``option`` (a CLI option such as "--joints")
    or else ``<file>`` and ``<document>``.
    """
    if isinstance(source, Mapping):
        return source
    try:
        text = Path(source).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigSchemaError(option or "<file>", f"cannot read {source}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigSchemaError(option or "<document>", f"invalid JSON: {exc}") from exc


def load_params(source) -> FingerParams:
    """Load finger parameters from a JSON file path or a mapping."""
    return params_from_dict(_read_json(source))


def resolve_params(spec: str) -> FingerParams:
    """Resolve a CLI-style config reference: preset name or file path."""
    if spec in PRESETS:
        return PRESETS[spec]()
    return load_params(spec)
