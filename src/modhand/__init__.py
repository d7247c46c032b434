"""Modular dexterous finger and hand modeling.

Two-motor differential drive at the composite proximal joint, gear-coupled
flexion with series/parallel elastic elements, forward kinematics and Monte
Carlo workspace analysis, and quasi-static adaptive-enveloping grasp
simulation against simple rigid objects.
"""

from .drive import coupling_residual, drive_to_mcp, mcp_to_drive, rigid_coupled_flexion
from .errors import (
    ConfigSchemaError,
    DegenerateCouplingError,
    InfeasibleStartError,
    ModhandError,
    NonConvergedError,
    PreconditionError,
    SingularStiffnessError,
    SweepError,
    ValidationError,
)
from .grasp import (
    Contact,
    EquilibriumTrace,
    RigidObject,
    detect_contacts,
    elastic_energy,
    elastic_energy_gradient,
    enveloping_pose_for_radius,
    envelop_sweep,
    equilibrium_solve,
    fingertip_force,
    inscribed_sphere,
)
from .hand import (
    HandLayout,
    FingerMount,
    auxiliary_aa_deflection,
    default_layout,
    hand_fk,
    hand_workspace,
    load_layout,
)
from .kinematics import (
    FingerPoseChain,
    WorkspaceCloud,
    forward_kinematics,
    project_workspace,
    sample_workspace,
)
from .params import (
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
    resolve_params,
    text_ratio_params,
)
from .ucm import (
    MotionSubspaces,
    StiffnessSet,
    TransmissionJacobians,
    TransmissionState,
    constraint_rank,
    is_transmission_stable,
    motion_subspaces,
    stiffness_matrices,
    transmission_jacobians,
    transmission_state,
)

__version__ = "0.1.0"
