"""Recursive probabilistic terrain mapping.

Fuses depth images and per-pixel terrain-class scores into a robot-centric
triangular mesh whose vertices carry height distributions and whose faces
carry terrain-class evidence and friction-coefficient mixtures.
"""

from .elevation import SensorNoiseModel, height_variance, kalman_update, update_elevation
from .errors import TerrameshError
from .geometry import (
    CameraIntrinsics,
    Pose,
    barycentric,
    transform_to_map,
)
from .mesh import Mesh, MeshConfig, face_lookup, init_mesh, recenter
from .pipeline import (
    EstimatorKind,
    FrameBundle,
    Mapper,
    PipelineConfig,
    estimate_properties,
)
from .properties import (
    ForceLog,
    PropertyMixture,
    PropertyModel,
    fit_and_select,
    friction_from_force,
    load_default_models,
    load_models,
    save_models,
)
from .semantics import ClassCatalog, class_predictive, dirichlet_update
from .sim import WorldSpec, render_frames, scenario_library

__version__ = "0.1.0"

__all__ = [
    "CameraIntrinsics",
    "ClassCatalog",
    "EstimatorKind",
    "ForceLog",
    "FrameBundle",
    "Mapper",
    "Mesh",
    "MeshConfig",
    "PipelineConfig",
    "Pose",
    "PropertyMixture",
    "PropertyModel",
    "SensorNoiseModel",
    "TerrameshError",
    "WorldSpec",
    "barycentric",
    "class_predictive",
    "dirichlet_update",
    "estimate_properties",
    "face_lookup",
    "fit_and_select",
    "friction_from_force",
    "height_variance",
    "init_mesh",
    "kalman_update",
    "load_default_models",
    "load_models",
    "recenter",
    "render_frames",
    "save_models",
    "scenario_library",
    "transform_to_map",
    "update_elevation",
]
