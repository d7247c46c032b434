"""Five-finger hand composition.

Every mounted finger is a full modular finger.  A mount's ``kind``
(active, or auxiliary with a passive swing spring) and its ``aa_spring`` are
validated, and the ``hand-fk`` manifest digests them, but they are not
modelled: ``hand_fk`` and ``hand_workspace`` move ring and little exactly
like the active fingers.  Base transforms place each finger root in the palm
frame.

Layout documents are checked against the shipped schema
(schema/hand_layout.schema.json), whose per-finger ``params`` is a finger
config document; the model invariants (a known kind, a positive spring on
auxiliary fingers, a finite base, five unique names) live in FingerMount and
HandLayout, so they hold for layouts built in Python too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import ValidationError
from .floats import unit_vector
from .kinematics import derive_subseed, forward_kinematics, sample_workspace
from .params import (
    _SCHEMAS,
    FingerParams,
    JointState,
    _check,
    _read_json,
    params_from_dict,
    parse_angle,
)

ACTIVE_KIND = "active-modular"
AUXILIARY_KIND = "auxiliary-passive-aa"
FINGER_NAMES = ("thumb", "index", "middle", "ring", "little")
DEFAULT_AUX_AA_SPRING = 200.0  # N*mm/rad


def rotation_from_axis_angle(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about ``axis`` by ``angle`` radians."""
    a = unit_vector(axis)
    if a is None:
        raise ValidationError("rotation axis must be nonzero and finite")
    if not math.isfinite(angle):
        raise ValidationError("rotation angle must be finite")
    k = np.array(
        [[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]]
    )
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * (k @ k)


def base_transform(translation, axis=(0.0, 0.0, 1.0), angle: float = 0.0) -> np.ndarray:
    t = np.eye(4)
    t[:3, :3] = rotation_from_axis_angle(axis, angle)
    t[:3, 3] = np.asarray(translation, dtype=float)
    return t


@dataclass(frozen=True)
class FingerMount:
    """One finger in the hand: name, palm-frame base pose, drive kind."""

    name: str
    base: np.ndarray
    kind: str
    params: FingerParams
    aa_spring: float | None = None

    def __post_init__(self):
        base = np.array(self.base, dtype=float)
        if base.shape != (4, 4) or not np.isfinite(base).all():
            raise ValidationError(f"{self.name}: base must be a finite 4x4 transform")
        base.setflags(write=False)
        object.__setattr__(self, "base", base)
        if self.kind not in (ACTIVE_KIND, AUXILIARY_KIND):
            raise ValidationError(f"{self.name}: unknown finger kind {self.kind!r}")
        if self.kind == AUXILIARY_KIND:
            if self.aa_spring is None or not self.aa_spring > 0:
                raise ValidationError(
                    f"{self.name}: auxiliary fingers need a positive swing spring"
                )


@dataclass(frozen=True)
class HandLayout:
    """Exactly five mounted fingers with unique names."""

    fingers: tuple

    def __post_init__(self):
        fingers = tuple(self.fingers)
        if len(fingers) != 5:
            raise ValidationError("hand layout must mount exactly 5 fingers")
        names = [f.name for f in fingers]
        if len(set(names)) != 5:
            raise ValidationError("finger names must be unique")
        object.__setattr__(self, "fingers", fingers)

    def by_name(self, name: str) -> FingerMount:
        for f in self.fingers:
            if f.name == name:
                return f
        raise KeyError(name)


def default_layout() -> HandLayout:
    """Documented stock palm: index/middle/ring/little parallel at 20 mm
    lateral pitch, thumb root offset palmward and rotated 90 degrees into
    opposition.  Ring and little are marked auxiliary, with the stock swing
    spring recorded."""
    p = FingerParams()
    mounts = [
        FingerMount(
            name="thumb",
            base=base_transform((-20.0, 0.0, -30.0), axis=(1.0, 0.0, 0.0), angle=math.pi / 2),
            kind=ACTIVE_KIND,
            params=p,
        )
    ]
    for i, name in enumerate(("index", "middle", "ring", "little")):
        kind = ACTIVE_KIND if name in ("index", "middle") else AUXILIARY_KIND
        mounts.append(
            FingerMount(
                name=name,
                base=base_transform((0.0, 0.0, 20.0 * i)),
                kind=kind,
                params=p,
                aa_spring=DEFAULT_AUX_AA_SPRING if kind == AUXILIARY_KIND else None,
            )
        )
    return HandLayout(fingers=tuple(mounts))


def hand_fk(joint_states, layout: HandLayout):
    """Pose chains for all five fingers; one JointState per mounted finger,
    in layout order."""
    states = list(joint_states)
    if len(states) != len(layout.fingers):
        raise ValidationError(
            f"expected {len(layout.fingers)} joint states, got {len(states)}"
        )
    return [
        forward_kinematics(q, mount.params, base=mount.base)
        for q, mount in zip(states, layout.fingers)
    ]


def hand_workspace(layout: HandLayout, n: int, seed: int):
    """Per-finger free-mode fingertip clouds in the palm frame plus their union.

    Each finger consumes its own derived sub-stream so clouds stay
    reproducible regardless of evaluation order."""
    clouds = {}
    for index, mount in enumerate(layout.fingers):
        sub = derive_subseed(seed, index)
        points = sample_workspace(mount.params, n, seed=sub)
        clouds[mount.name] = (mount.base[:3, :3] @ points.T).T + mount.base[:3, 3]
    union = np.vstack(list(clouds.values()))
    return clouds, union


# --------------------------------------------------------------------------
# Layout config documents
# --------------------------------------------------------------------------

def layout_from_dict(doc: Mapping) -> HandLayout:
    """Check a parsed layout tree against schema/hand_layout.schema.json and
    build the HandLayout, filling in the documented defaults: identity base
    pose parts and stock finger parameters.

    Raises ConfigSchemaError naming the offending field (a finger's params
    errors carry its prefix, as in ``fingers[2].params.links_mm[1]``), or
    ValidationError if the mounts break a model invariant.
    """
    _check(doc, _SCHEMAS["hand_layout.schema.json"], "")
    mounts = []
    for entry in doc["fingers"]:
        base = entry.get("base", {})
        mounts.append(
            FingerMount(
                name=entry["name"],
                base=base_transform(
                    base.get("translation", (0.0, 0.0, 0.0)),
                    base.get("axis", (0.0, 0.0, 1.0)),
                    parse_angle(base.get("angle", 0.0)),
                ),
                kind=entry["kind"],
                params=params_from_dict(entry.get("params", {})),
                aa_spring=entry.get("aa_spring"),
            )
        )
    return HandLayout(fingers=tuple(mounts))


def load_layout(source) -> HandLayout:
    """Load a hand layout from a JSON file path or a mapping."""
    return layout_from_dict(_read_json(source))
