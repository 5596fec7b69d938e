"""Versioned on-disk formats: map exports, frame bundles, estimates, ground truth.

Binary container layout (shared by map and estimate files):

    line 1          magic: ``TERRAMESH-BIN v1``
    line 2          JSON: {"header": {...}, "arrays": [{name, dtype, shape}, ...]}
    remainder       raw array bytes, little-endian, C-order, in manifest order

A map or estimates file holds the arrays :data:`CONTAINER_ARRAYS` lists for
its kind, in that order, with the dtypes and the shapes on its header's mesh
given there: the writers take them from that table, and the readers check a
file's manifest against it before they read any array data.
Arrays are streamed to and from disk without a second copy: the writer
hands each array's own memory, or each chunk of an array given as chunks,
to the file, and the reader reads each one straight into the buffer that
keeps it.  A map's ring state is written from, and loaded into, ring storage
(:meth:`Mesh.canonical_chunks`), and its lattice is computed, the vertex
coordinates a grid row at a time and the face table a block of faces at a
time, for the writer and the loader's check alike; the dense estimate mask
and weights are written from the known rows in blocks, and the weights are
read in blocks, keeping only the known rows.

Frame-bundle directory layout:

    manifest.json               format id/version, image geometry, class names,
                                per-frame id (unique in the bundle), pose
                                (rotation row-major, translation, rotation
                                covariance), timestamps, file names
    frame_<id>.depth.f32        raw float32, height*width values, row-major
    frame_<id>.scores.f32       raw float32, height*width*num_classes values,
                                row-major with the class axis fastest

All writers emit deterministic bytes: JSON keys are sorted, floats use
shortest round-trip representation, and no wall-clock data is embedded.
Every JSON document (bundle manifest, ground truth, run summary) goes through
:func:`write_json`, and is read, as are run configs and world specs, through
:func:`read_json`; every CSV report (timing, bench, eval summary,
precision-recall curves, KS table) through :func:`write_csv`.

Bundles are read through :func:`open_bundle` alone.  It checks the manifest
once, against field tables of types, then streams the frames one at a time.
:func:`read_bundle` collects that stream into a list, and
:func:`validate_bundle` drives it and checks each valid-flagged frame with
:meth:`FrameBundle.validate`, the one score and image-size rule.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, FormatError, InputError
from .geometry import CameraIntrinsics, Pose
from .mesh import Mesh, MeshConfig
from .pipeline import ESTIMATE_BLOCK_ROWS, EstimatorKind, FaceEstimates, FrameBundle
from .semantics import SCORE_TOL, non_probability_row

BIN_MAGIC = b"TERRAMESH-BIN v1\n"
BUNDLE_FORMAT = "terramesh/frame-bundle"
BUNDLE_VERSION = 1
MAP_KIND = "map-export"
ESTIMATES_KIND = "face-estimates"
TRUTH_FORMAT = "terramesh/ground-truth"
TRUTH_VERSION = 1


def _json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_json(path, doc) -> None:
    """Write a JSON document: sorted keys, indent 2, trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def read_json(path, what: str):
    """The JSON document in file ``path``.  An unreadable file, bytes that
    are not UTF-8 and text that is not JSON each raise one
    :class:`FormatError` naming ``what`` and the path."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise FormatError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except (ValueError, RecursionError) as exc:
        # UnicodeDecodeError and JSONDecodeError are ValueErrors; too deep a nesting is a RecursionError
        raise FormatError(f"{what} {path} is not valid JSON: {exc}") from exc


def write_csv(path, header, rows) -> None:
    """Write a CSV table: the ``header`` row, then ``rows``.  Each cell is
    written as its ``str()``, the shortest round-trip text of a float."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_arrays(path, header: dict, arrays: dict) -> None:
    """Write the binary container: JSON header plus named raw arrays.

    A value is an array or ``(dtype, shape, chunks)``: an iterable of arrays
    whose elements, in order, make up the named array, or
    :class:`FormatError` is raised.  Only an array or a chunk that is not
    already little-endian C-order of its dtype is converted first.
    """
    values = {}
    for name, value in arrays.items():
        if isinstance(value, tuple):
            dtype, shape, chunks = value
        else:
            value = np.asarray(value)
            dtype, shape, chunks = value.dtype, value.shape, (value,)
        values[name] = (np.dtype(dtype).newbyteorder("<"), tuple(shape), chunks)
    manifest = [{"name": name, "dtype": dtype.str, "shape": list(shape)} for name, (dtype, shape, _) in values.items()]
    with open(path, "wb") as fh:
        fh.write(BIN_MAGIC)
        fh.write(_json_bytes({"header": header, "arrays": manifest}))
        fh.write(b"\n")
        for name, (dtype, shape, chunks) in values.items():
            size = sum(fh.write(np.ascontiguousarray(chunk, dtype=dtype)) for chunk in chunks)
            if size != math.prod(shape) * dtype.itemsize:
                raise FormatError(f"{path}: array {name!r} of shape {shape} was given {size} bytes")


def _read_layout(fh, path):
    """Check a container's magic, manifest and size against each other.

    Returns ``(header, {name: (dtype, shape, offset)})``, where ``offset``
    is the byte position of the array's data in the file.
    """
    magic = fh.readline()
    if magic != BIN_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    try:
        meta = json.loads(fh.readline().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"{path}: unreadable header: {exc}") from exc
    try:
        header = meta["header"]
        manifest = [
            (str(entry["name"]), np.dtype(entry["dtype"]), tuple(int(n) for n in entry["shape"]))
            for entry in meta["arrays"]
        ]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FormatError(f"{path}: malformed header: {exc!r}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: malformed header: 'header' is not an object")
    size = os.fstat(fh.fileno()).st_size
    offset = fh.tell()
    layout = {}
    for name, dtype, shape in manifest:
        if dtype.hasobject or dtype.itemsize == 0 or min(shape, default=0) < 0:
            raise FormatError(f"{path}: array {name!r} has dtype {dtype} and shape {shape}")
        end = offset + math.prod(shape) * dtype.itemsize
        if end > size:
            raise FormatError(f"{path}: truncated array {name!r}")
        layout[name] = (dtype, shape, offset)
        offset = end
    if offset != size:
        raise FormatError(f"{path}: trailing bytes after declared arrays")
    return header, layout


def _read_array(fh, dtype, shape, offset, out=None) -> np.ndarray:
    """The array of ``dtype`` and ``shape`` at byte ``offset``, read straight into ``out`` or its own buffer."""
    out = np.empty(shape, dtype=dtype) if out is None else out
    fh.seek(offset)
    fh.readinto(out)
    return out


def read_arrays(path):
    """Read a binary container into ``(header, {name: array})``, each array straight into its own buffer."""
    with open(path, "rb") as fh:
        header, layout = _read_layout(fh, path)
        return header, {name: _read_array(fh, *entry) for name, entry in layout.items()}


# -- map export ---------------------------------------------------------------


# Each container's arrays in file order: name, dtype as the manifest spells
# it, and shape on the header's mesh, one letter per axis (V vertices,
# F faces, K classes, 3 corners).  Writers and readers both use it.
CONTAINER_ARRAYS = {
    MAP_KIND: (
        *((name, "<f8", "V") for name in ("vertex_x", "vertex_y", "z_mean", "z_var")),
        ("touched", "|u1", "V"),
        ("face_vertices", "<i4", "F3"),
        ("alpha", "<f8", "FK"),
    ),
    ESTIMATES_KIND: (("known", "|u1", "F"), ("weights", "<f8", "FK")),
}


def container_layout(kind: str, cfg: MeshConfig) -> dict:
    """``{name: (dtype, shape)}`` of a ``kind`` container on the mesh ``cfg``, in file order."""
    sizes = {"V": cfg.num_vertices, "F": cfg.num_faces, "K": cfg.num_classes, "3": 3}
    return {name: (np.dtype(dtype), tuple(sizes[a] for a in axes)) for name, dtype, axes in CONTAINER_ARRAYS[kind]}


def _write_container(path, kind: str, mesh: Mesh, fields: dict, chunks: dict) -> None:
    """Write a ``kind`` container of ``mesh``: a header of the kind, its
    version, the mesh fields (:data:`_MESH_FIELDS`) and ``fields``, then each
    array of the kind's layout, in file order, from the arrays ``chunks[name]``."""
    header = {
        "kind": kind,
        "version": 1,
        "side_length_m": mesh.cfg.side_length_m,
        "half_extent_m": mesh.cfg.half_extent_m,
        "num_classes": mesh.cfg.num_classes,
        "center": [float(mesh.center[0]), float(mesh.center[1])],
        **fields,
    }
    layout = container_layout(kind, mesh.cfg)
    write_arrays(path, header, {name: (dtype, shape, chunks[name]) for name, (dtype, shape) in layout.items()})


def _map_chunks(mesh: Mesh):
    """``(lattice, state)``: each map array's chunks by name, the arrays
    that follow from the mesh's configuration and centre (the vertex
    coordinates a grid row at a time, the face table a block of faces at a
    time), then its ring state in canonical order."""
    xs, ys = mesh._axes()
    rows = {"vertex_x": itertools.repeat(xs, ys.size), "vertex_y": (np.full(xs.size, y) for y in ys)}
    state = {name: mesh.canonical_chunks(name) for name in ("z_mean", "z_var", "touched", "alpha")}
    return {**rows, "face_vertices": mesh.face_vertex_chunks()}, state


def save_map(mesh: Mesh, path, class_names, frame_count: int = 0, extra: dict | None = None) -> None:
    """Dump the vertex heights and class evidence losslessly plus a
    human-readable sidecar header.

    Writes ``path`` (binary container, laid out as
    ``CONTAINER_ARRAYS[MAP_KIND]``, from :func:`_map_chunks`) and
    ``path + '.txt'`` (sidecar).  The per-face ``observed`` mask is not stored.
    """
    fields = {"frame_count": int(frame_count), "class_names": list(class_names), **(extra or {})}
    lattice, state = _map_chunks(mesh)
    _write_container(path, MAP_KIND, mesh, fields, {**lattice, **state})
    sidecar = [
        "terramesh map export v1",
        f"side_length_m: {mesh.cfg.side_length_m!r}",
        f"half_extent_m: {mesh.cfg.half_extent_m!r}",
        f"num_classes: {mesh.cfg.num_classes}",
        f"center: {float(mesh.center[0])!r} {float(mesh.center[1])!r}",
        f"vertices: {mesh.num_vertices}",
        f"faces: {mesh.num_faces}",
        f"frame_count: {int(frame_count)}",
        "classes: " + ", ".join(class_names),
    ]
    with open(str(path) + ".txt", "w", encoding="utf-8") as fh:
        fh.write("\n".join(sidecar) + "\n")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # an exact comparison, so an integer too large for a float is refused too
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def _numbers(n: int):
    return lambda v: isinstance(v, list) and len(v) == n and all(map(_is_number, v))


_MESH_FIELDS = (
    ("side_length_m", _is_number, "a finite number"),
    ("half_extent_m", _is_number, "a finite number"),
    ("num_classes", _is_int, "an integer"),
    ("center", _numbers(2), "two finite numbers"),
)


def _check_fields(where: str, doc, fields) -> None:
    """Raise :class:`FormatError` unless ``doc`` is an object that holds each
    of ``fields``, given as ``(name, predicate, description)``, with a value
    its predicate accepts."""
    if not isinstance(doc, dict):
        raise FormatError(f"{where} is not an object")
    for name, ok, what in fields:
        if name not in doc:
            raise FormatError(f"{where} misses {name!r}")
        if not ok(doc[name]):
            raise FormatError(f"{where} field {name!r} must be {what}, not {doc[name]!r}")


def _open_container(fh, path, kind: str, fields=()):
    """Check an open ``kind`` container before any array data is read: its
    header holds the mesh fields plus ``fields``, each of its type, and its
    manifest each array of the kind's layout with that dtype and shape, or
    :class:`FormatError` names the file and the field or array.  Returns
    ``(header, MeshConfig, {name: (dtype, shape, offset)})`` of the layout."""
    header, layout = _read_layout(fh, path)
    if header.get("kind") != kind:
        raise FormatError(f"{path}: not a {kind} file")
    _check_fields(f"{path}: header", header, _MESH_FIELDS + tuple(fields))
    try:
        cfg = MeshConfig(header["side_length_m"], header["half_extent_m"], header["num_classes"])
    except ConfigurationError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    expected = container_layout(kind, cfg)
    missing = [name for name in expected if name not in layout]
    if missing:
        raise FormatError(f"{path}: {kind} misses arrays {missing}")
    for name, (dtype, shape) in expected.items():
        got_dtype, got_shape, _ = layout[name]
        if got_dtype.str != dtype.str:
            raise FormatError(f"{path}: array {name!r} has dtype {got_dtype.str}, expected {dtype.str}")
        if got_shape != shape:
            raise FormatError(
                f"{path}: {name} has shape {got_shape}, expected {shape} on its mesh of {cfg.num_faces} faces"
            )
    return header, cfg, {name: layout[name] for name in expected}


def load_map(path):
    """Rebuild a mesh from :func:`save_map` output; returns ``(mesh, header)``.

    The file is checked against the map layout (:func:`_open_container`)
    before any array is read.  Its ring state is read straight into a new
    mesh's ring storage, and its lattice compared with :func:`_map_chunks`; a
    lattice array that differs, or a ``touched`` byte other than 0 or 1,
    raises :class:`FormatError` naming the file and the array.  Every stored
    array comes back bit for bit; ``observed`` is not stored, so it reads all False.
    """
    with open(path, "rb") as fh:
        header, cfg, layout = _open_container(fh, path, MAP_KIND)
        mesh = Mesh(cfg, center_xy=header["center"])
        lattice, state = _map_chunks(mesh)
        for name in state:
            # a new mesh's storage is canonical: offset zero, the file's order
            _read_array(fh, *layout[name], getattr(mesh.ring, name))
        for name, chunks in lattice.items():
            dtype, _, offset = layout[name]
            for chunk in chunks:
                if not np.array_equal(_read_array(fh, dtype, chunk.shape, offset), chunk):
                    raise FormatError(f"{path}: {name} does not match the lattice of its header's mesh")
                offset += chunk.size * dtype.itemsize
    if np.any(mesh.ring.touched.view(np.uint8) > 1):
        raise FormatError(f"{path}: touched holds a byte other than 0 or 1")
    return mesh, header


# -- frame bundles --------------------------------------------------------------


def write_bundle(directory, frames, class_names, scenario: dict | None = None) -> dict:
    """Write a frame-bundle directory consumable by the mapping pipeline and
    return its manifest.  ``frames`` may be any iterable: each frame's files
    are written as it arrives, and the manifest last.  A frame with a finite
    depth that float32 cannot hold, or with an earlier frame's id, raises
    :class:`FormatError` before its files are written, and no manifest is
    written."""
    directory = Path(directory)
    entries = []
    frame_ids = set()
    width = height = num_classes = None
    intrinsics = None
    for frame in frames:
        h, w = frame.depth.shape
        k = frame.scores.shape[2]
        if width is None:
            width, height, num_classes = w, h, k
            intrinsics = frame.intrinsics
        elif (w, h, k) != (width, height, num_classes):
            raise FormatError("all frames in a bundle must share image geometry")
        if frame.frame_id in frame_ids:
            raise FormatError(f"frame {frame.frame_id}: an earlier frame has the same id")
        frame_ids.add(frame.frame_id)
        depth_name = f"frame_{frame.frame_id:06d}.depth.f32"
        scores_name = f"frame_{frame.frame_id:06d}.scores.f32"
        with np.errstate(over="ignore"):
            depth = frame.depth.astype("<f4")
        if np.any(np.isinf(depth) & np.isfinite(frame.depth)):
            raise FormatError(f"frame {frame.frame_id}: a finite depth overflows float32")
        if not entries:
            # made with the first frame, so a bundle refused at once leaves no directory
            directory.mkdir(parents=True, exist_ok=True)
        depth.tofile(directory / depth_name)
        frame.scores.astype("<f4").tofile(directory / scores_name)
        entries.append(
            {
                "frame_id": frame.frame_id,
                "timestamp": frame.timestamp,
                "valid": bool(frame.valid),
                "depth_file": depth_name,
                "scores_file": scores_name,
                "pose": encode_pose(frame.pose),
            }
        )
    if width is None:
        raise FormatError("cannot write an empty bundle")
    manifest = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "width": width,
        "height": height,
        "num_classes": num_classes,
        "class_names": list(class_names),
        "intrinsics": dataclasses.asdict(intrinsics),
        "frames": entries,
    }
    if scenario is not None:
        manifest["scenario"] = scenario
    write_json(directory / "manifest.json", manifest)
    return manifest


_POSITIVE_INT = (lambda v: _is_int(v) and v > 0, "a positive integer")
_MANIFEST_FIELDS = (
    ("format", lambda v: v == BUNDLE_FORMAT, repr(BUNDLE_FORMAT)),
    ("version", lambda v: _is_int(v) and v == BUNDLE_VERSION, str(BUNDLE_VERSION)),
    ("width", *_POSITIVE_INT),
    ("height", *_POSITIVE_INT),
    ("num_classes", *_POSITIVE_INT),
    ("class_names", lambda v: isinstance(v, list) and all(isinstance(n, str) for n in v), "a list of strings"),
    ("intrinsics", lambda v: isinstance(v, dict), "an object"),
    ("frames", lambda v: isinstance(v, list), "a list"),
)
_INTRINSICS_FIELDS = tuple((name, _is_number, "a finite number") for name in ("fx", "fy", "cx", "cy")) + (
    ("width", *_POSITIVE_INT),
    ("height", *_POSITIVE_INT),
)
_FRAME_FIELDS = (
    ("frame_id", _is_int, "an integer"),
    ("timestamp", _is_number, "a finite number"),
    ("valid", lambda v: isinstance(v, bool), "true or false"),
    *(
        (key, lambda v: isinstance(v, str) and v != "" and Path(v).name == v, "a plain file name in the bundle")
        for key in ("depth_file", "scores_file")
    ),
    ("pose", lambda v: isinstance(v, dict), "an object"),
)
_POSE_SHAPES = {"rotation": (3, 3), "translation": (3,), "rotation_cov": (3, 3)}
_POSE_FIELDS = tuple(
    (key, _numbers(math.prod(s)), f"{math.prod(s)} finite numbers") for key, s in _POSE_SHAPES.items()
)


def encode_pose(pose: Pose) -> dict:
    """A pose as JSON: each of its arrays flat, row-major."""
    return {key: getattr(pose, key).reshape(-1).tolist() for key in _POSE_SHAPES}


def decode_pose(where: str, doc) -> Pose:
    """Check and rebuild a pose that :func:`encode_pose` wrote; a fault raises :class:`FormatError`."""
    _check_fields(where, doc, _POSE_FIELDS)
    try:
        return Pose(**{key: np.reshape(doc[key], s) for key, s in _POSE_SHAPES.items()})
    except InputError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def decode_intrinsics(where: str, doc) -> CameraIntrinsics:
    """Check and rebuild intrinsics that ``dataclasses.asdict`` wrote; a fault raises :class:`FormatError`."""
    _check_fields(where, doc, _INTRINSICS_FIELDS)
    try:
        return CameraIntrinsics(**{name: doc[name] for name, _, _ in _INTRINSICS_FIELDS})
    except InputError as exc:
        raise FormatError(f"{where}: {exc}") from exc


def open_bundle(directory):
    """Check a bundle's manifest and return ``(manifest, frames)``; ``frames``
    stats, reads and yields one :class:`FrameBundle` at a time.  Any manifest
    fault (a frame id two entries share is one), missing file or file of the
    wrong size raises :class:`FormatError`."""
    directory = Path(directory)
    manifest = read_json(directory / "manifest.json", "bundle manifest")
    _check_fields("bundle manifest", manifest, _MANIFEST_FIELDS)
    w, h, k = manifest["width"], manifest["height"], manifest["num_classes"]
    if len(manifest["class_names"]) != k:
        raise FormatError("bundle manifest: class_names length disagrees with num_classes")
    intrinsics = decode_intrinsics("bundle manifest intrinsics", manifest["intrinsics"])
    # the validity flag is optional and defaults to true
    entries = [{"valid": True, **e} if isinstance(e, dict) else e for e in manifest["frames"]]
    poses, first_entry = [], {}
    for i, entry in enumerate(entries):
        where = f"bundle manifest frames[{i}]"
        _check_fields(where, entry, _FRAME_FIELDS)
        poses.append(decode_pose(f"{where} pose", entry["pose"]))
        first = first_entry.setdefault(entry["frame_id"], i)
        if first != i:
            raise FormatError(f"bundle manifest frames[{first}] and frames[{i}] share frame_id {entry['frame_id']}")

    def frames():
        for entry, pose in zip(entries, poses):
            fid, arrays = entry["frame_id"], []
            for key, shape in (("depth_file", (h, w)), ("scores_file", (h, w, k))):
                path, expected = directory / entry[key], 4 * math.prod(shape)
                if not path.is_file():
                    raise FormatError(f"frame {fid}: missing {key} {entry[key]!r}")
                size = path.stat().st_size
                if size != expected:
                    raise FormatError(f"frame {fid}: {entry[key]} is {size} bytes, expected {expected}")
                arrays.append(np.fromfile(path, dtype="<f4").reshape(shape))
            yield FrameBundle(*arrays, pose, intrinsics, fid, float(entry["timestamp"]), entry["valid"])

    return manifest, frames()


def read_bundle(directory):
    """Load a whole frame bundle; returns ``(manifest, [FrameBundle, ...])``."""
    manifest, frames = open_bundle(directory)
    return manifest, list(frames)


def check_class_names(manifest: dict, class_names) -> None:
    """Raise :class:`FormatError` unless a bundle's classes are
    ``class_names``, in order: the model catalog's rule, which ``run``
    applies and ``validate`` reports."""
    k = manifest["num_classes"]
    if len(class_names) != k:
        raise FormatError(f"bundle has {k} classes, model file has {len(class_names)}")
    if list(class_names) != list(manifest["class_names"]):
        raise FormatError("bundle class names disagree with the model catalog")


def validate_bundle(directory, class_names=None) -> list:
    """Check a bundle against the documented format, and against the model
    catalog's ``class_names`` when they are given; returns the issues: one
    per valid-flagged frame :meth:`FrameBundle.validate` rejects, then the
    first manifest, catalog or file fault met."""
    issues = []
    try:
        manifest, frames = open_bundle(directory)
        if class_names is not None:
            check_class_names(manifest, class_names)
        for frame in frames:
            if frame.valid:
                try:
                    frame.validate()
                except InputError as exc:
                    issues.append(str(exc))
    except FormatError as exc:
        issues.append(str(exc))
    return issues


# -- ground truth ----------------------------------------------------------------


def scenario_hash(world_dict: dict) -> str:
    return hashlib.sha256(_json_bytes(world_dict)).hexdigest()


def save_truth(path, world_dict: dict, class_names, models) -> None:
    """Write the ground-truth sidecar: the world description plus per-class models."""
    doc = {
        "format": TRUTH_FORMAT,
        "version": TRUTH_VERSION,
        "scenario_hash": scenario_hash(world_dict),
        "world": world_dict,
        "class_names": list(class_names),
        "models": [
            {"name": m.class_name, "mu": m.mu, "sigma": m.sigma} for m in models
        ],
    }
    write_json(path, doc)


_TRUTH_FIELDS = (
    ("scenario_hash", lambda v: isinstance(v, str), "a string"),
    ("world", lambda v: isinstance(v, dict), "an object"),
    ("models", lambda v: isinstance(v, list), "a list"),
)
_MODEL_FIELDS = (
    ("name", lambda v: isinstance(v, str), "a string"),
    ("mu", _is_number, "a finite number"),
    ("sigma", _is_number, "a finite number"),
)


def load_truth(path) -> dict:
    """Read a ground-truth file; a wrong format or version, or a missing or
    mistyped top-level field or model field, raises :class:`FormatError`.
    :func:`terramesh.sim.world_from_dict` checks the world description
    against field tables, from ``terramesh.sim._WORLD_FIELDS`` down."""
    doc = read_json(path, "truth file")
    if not isinstance(doc, dict) or doc.get("format") != TRUTH_FORMAT or doc.get("version") != TRUTH_VERSION:
        raise FormatError("unsupported ground-truth format or version")
    _check_fields("truth file", doc, _TRUTH_FIELDS)
    for i, model in enumerate(doc["models"]):
        _check_fields(f"truth file models[{i}]", model, _MODEL_FIELDS)
    return doc


# -- per-face estimates -----------------------------------------------------------


def _dense_rows(estimates: FaceEstimates, rows):
    """The (F, ...) array that holds ``rows`` on the known faces of
    ``estimates`` and zero on the others, in blocks of
    :data:`ESTIMATE_BLOCK_ROWS` faces.  Each block reuses one buffer, so it
    must be consumed before the next is asked for."""
    ids, f = estimates.ids, estimates.num_faces
    buffer = np.empty((ESTIMATE_BLOCK_ROWS, *rows.shape[1:]), dtype=rows.dtype)
    for start in range(0, f, ESTIMATE_BLOCK_ROWS):
        stop = min(start + ESTIMATE_BLOCK_ROWS, f)
        lo, hi = np.searchsorted(ids, (start, stop))
        block = buffer[: stop - start]
        block.fill(0)
        block[ids[lo:hi] - start] = rows[lo:hi]
        yield block


def save_estimates(path, estimates: FaceEstimates, mesh: Mesh, estimator: str, scenario_hash_value: str | None) -> None:
    """Persist per-face mixture weights produced by one estimator: the (F,)
    known mask and dense (F, K) weights, zero on unknown faces, laid out as
    ``CONTAINER_ARRAYS[ESTIMATES_KIND]``."""
    fields = {"estimator": estimator, "scenario_hash": scenario_hash_value}
    chunks = {
        "known": _dense_rows(estimates, np.broadcast_to(True, estimates.ids.shape)),
        "weights": _dense_rows(estimates, estimates.known_weights),
    }
    _write_container(path, ESTIMATES_KIND, mesh, fields, chunks)


_ESTIMATORS = tuple(kind.value for kind in EstimatorKind)
_ESTIMATOR_FIELD = ("estimator", lambda v: v in _ESTIMATORS, f"one of {_ESTIMATORS}")


def load_estimates(path):
    """Returns ``(header, FaceEstimates)``.  The file is checked against the
    estimates layout, and its ``estimator`` against the estimator kinds,
    before any array is read (:func:`_open_container`); then every known
    row must be a probability vector
    (:func:`~terramesh.semantics.non_probability_row`).  A fault raises
    :class:`FormatError` naming the file and the field, array or face.  The
    weights are read in blocks of :data:`ESTIMATE_BLOCK_ROWS` faces, of
    which only the known rows are kept."""
    with open(path, "rb") as fh:
        header, cfg, layout = _open_container(fh, path, ESTIMATES_KIND, [_ESTIMATOR_FIELD])
        f, k = cfg.num_faces, cfg.num_classes
        known = _read_array(fh, *layout["known"])
        if np.any(known > 1):
            raise FormatError(f"{path}: known holds a byte other than 0 or 1")
        ids = np.flatnonzero(known)
        rows = np.empty((ids.size, k))
        dtype, _, offset = layout["weights"]
        for start in range(0, f, ESTIMATE_BLOCK_ROWS):
            stop = min(start + ESTIMATE_BLOCK_ROWS, f)
            lo, hi = np.searchsorted(ids, (start, stop))
            if lo < hi:
                block = _read_array(fh, dtype, (stop - start, k), offset + start * k * dtype.itemsize)
                rows[lo:hi] = block[ids[lo:hi] - start]
    i = non_probability_row(rows)
    if i is not None:
        raise FormatError(
            f"{path}: face {int(ids[i])} is known, but its weights {rows[i].tolist()} are not "
            f"non-negative and summing to 1 within {SCORE_TOL}"
        )
    return header, FaceEstimates(ids, rows, f)
