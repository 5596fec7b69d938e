"""Recursive probabilistic terrain mapping.

Fuses depth images and per-pixel terrain-class scores into a robot-centric
triangular mesh whose vertices carry height distributions and whose faces
carry terrain-class evidence and friction-coefficient mixtures.

Importing the package loads no submodule: each public name is imported from
its module on first use (PEP 562), so a process loads only what it uses.
"""

import importlib

__version__ = "0.1.0"

# each public name once, under the module that defines it
_EXPORTS = {
    "elevation": ("SensorNoiseModel", "height_variance", "kalman_update", "update_elevation"),
    "errors": ("TerrameshError",),
    "geometry": ("CameraIntrinsics", "Pose", "barycentric", "transform_to_map"),
    "mesh": ("Mesh", "MeshConfig", "face_lookup", "init_mesh", "recenter"),
    "pipeline": ("EstimatorKind", "FrameBundle", "Mapper", "PipelineConfig", "estimate_properties"),
    "properties": (
        "ForceLog",
        "PropertyMixture",
        "PropertyModel",
        "fit_and_select",
        "friction_from_force",
        "load_default_models",
        "load_models",
        "save_models",
    ),
    "semantics": ("ClassCatalog", "class_predictive", "dirichlet_update"),
    "sim": ("WorldSpec", "render_frames", "scenario_library"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
