"""Modular dexterous finger and hand modeling.

Two-motor differential drive at the composite proximal joint, gear-coupled
flexion with series/parallel elastic elements, forward kinematics and Monte
Carlo workspace analysis, and quasi-static adaptive-enveloping grasp
simulation against simple rigid objects.

The exports below are loaded on first access (PEP 562), so a process imports
only the modules it uses.  ``_EXPORTS`` is the one name->module map and
``_lazy`` the one first-use loader: ``cli`` binds every subcommand's names
through both, and ``grasp`` uses the loader too.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the names the package exports from it
_EXPORTS = {
    "drive": ("coupling_residual", "drive_to_mcp", "mcp_to_drive", "rigid_coupled_flexion"),
    "errors": (
        "ConfigSchemaError",
        "DegenerateCouplingError",
        "InfeasibleStartError",
        "ModhandError",
        "NonConvergedError",
        "PreconditionError",
        "SingularStiffnessError",
        "SweepError",
        "ValidationError",
    ),
    "grasp": (
        "Contact",
        "EquilibriumTrace",
        "RigidObject",
        "detect_contacts",
        "elastic_energy",
        "elastic_energy_gradient",
        "enveloping_pose_for_radius",
        "envelop_sweep",
        "equilibrium_solve",
        "fingertip_force",
        "inscribed_sphere",
    ),
    "hand": (
        "HandLayout",
        "FingerMount",
        "auxiliary_aa_deflection",
        "default_layout",
        "hand_fk",
        "hand_workspace",
        "load_layout",
    ),
    "kinematics": (
        "FingerPoseChain",
        "forward_kinematics",
        "points_to_csv",
        "project_workspace",
        "sample_workspace",
    ),
    "params": (
        "CouplingModel",
        "DifferentialTrain",
        "DriveState",
        "FingerParams",
        "JointState",
        "PlanetaryState",
        "default_params",
        "load_params",
        "params_from_dict",
        "params_to_dict",
        "resolve_params",
        "text_ratio_params",
    ),
    "ucm": (
        "MotionSubspaces",
        "StiffnessSet",
        "TransmissionJacobians",
        "TransmissionState",
        "constraint_rank",
        "is_transmission_stable",
        "motion_subspaces",
        "stiffness_matrices",
        "transmission_jacobians",
        "transmission_state",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def _lazy(namespace: dict, table: dict):
    """The ``__getattr__`` of the module with globals ``namespace``: a name in
    ``table`` imports its sibling module ``table[name]`` and is bound there."""
    def __getattr__(name):
        if name not in table:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        module = import_module(f".{table[name]}", namespace["__package__"])
        namespace[name] = value = getattr(module, name)
        return value
    return __getattr__


__getattr__ = _lazy(globals(), _MODULE_OF)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
