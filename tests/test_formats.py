import copy
import dataclasses
import json
import shutil
import tracemalloc

import numpy as np
import pytest

from terramesh import formats
from terramesh.errors import FormatError
from terramesh.formats import (
    CONTAINER_ARRAYS,
    ESTIMATES_KIND,
    MAP_KIND,
    container_layout,
    load_estimates,
    load_map,
    load_truth,
    read_arrays,
    read_bundle,
    save_estimates,
    save_map,
    save_truth,
    scenario_hash,
    validate_bundle,
    write_arrays,
    write_bundle,
)
from terramesh.mesh import MeshConfig, init_mesh, recenter
from terramesh.pipeline import EstimatorKind, FaceScores, Mapper, PipelineConfig, estimate_properties
from terramesh.properties import load_default_models
from terramesh.sim import scenario_library, render_frames, world_to_dict

from oracles import copy_recenter, dense_weights, estimates_from_dense, lattice_face_table


@pytest.fixture(scope="module")
def small_bundle(tmp_path_factory):
    spec = scenario_library()["two-class-split"].with_seed(3)
    frames, truth = render_frames(spec, limit=3)
    out = tmp_path_factory.mktemp("bundle")
    write_bundle(out, frames, class_names=truth.class_names, scenario={"name": spec.name, "hash": "abc"})
    return out, frames, truth


class TestBinaryContainer:
    def test_roundtrip(self, tmp_path, rng):
        path = tmp_path / "blob.bin"
        arrays = {
            "a": rng.standard_normal((4, 3)),
            "b": np.arange(7, dtype=np.int32),
            "c": rng.random(5).astype(np.float32),
        }
        write_arrays(path, {"kind": "test", "note": 1.25}, arrays)
        header, back = read_arrays(path)
        assert header == {"kind": "test", "note": 1.25}
        for name, arr in arrays.items():
            assert back[name].dtype == arr.dtype.newbyteorder("<")
            assert np.array_equal(back[name], arr)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOT-A-CONTAINER\nrest")
        with pytest.raises(FormatError):
            read_arrays(path)

    @pytest.mark.parametrize("header", [b"\xff", b"{bad", b"[" * 100_000], ids=["not-utf8", "not-json", "too-deep"])
    def test_unreadable_header_rejected(self, tmp_path, header):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"TERRAMESH-BIN v1\n" + header + b"\n")
        with pytest.raises(FormatError, match="unreadable header"):
            read_arrays(path)

    def test_truncation_detected(self, tmp_path, rng):
        path = tmp_path / "trunc.bin"
        write_arrays(path, {}, {"a": rng.standard_normal(64)})
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(FormatError):
            read_arrays(path)

    def test_deterministic_bytes(self, tmp_path, rng):
        arrays = {"a": rng.standard_normal(16)}
        p1, p2 = tmp_path / "x1.bin", tmp_path / "x2.bin"
        write_arrays(p1, {"z": 1, "a": 2}, arrays)
        write_arrays(p2, {"a": 2, "z": 1}, arrays)
        assert p1.read_bytes() == p2.read_bytes()

    def test_byte_layout(self, tmp_path, rng):
        # views, a big-endian array and every dtype the map and estimate
        # files hold: each array lands as its little-endian C-order bytes
        grid = rng.standard_normal((5, 4))
        arrays = {
            "transposed": grid.T,
            "sliced": grid[::2, 1:3],
            "big_endian": rng.standard_normal(6).astype(">f8"),
            "flags": rng.random(7) < 0.5,
            "bytes": np.arange(250, 256, dtype=np.uint8),
            "ids": np.arange(-6, 6, dtype=np.int32).reshape(3, 4),
            "empty": np.empty((0, 3)),
        }
        path = tmp_path / "layout.bin"
        write_arrays(path, {"kind": "test"}, arrays)
        little = {name: a.astype(a.dtype.newbyteorder("<")) for name, a in arrays.items()}
        manifest = [{"name": n, "dtype": a.dtype.str, "shape": list(a.shape)} for n, a in little.items()]
        meta = json.dumps({"header": {"kind": "test"}, "arrays": manifest}, sort_keys=True, separators=(",", ":"))
        body = b"".join(a.tobytes(order="C") for a in little.values())
        assert path.read_bytes() == b"TERRAMESH-BIN v1\n" + meta.encode("utf-8") + b"\n" + body
        _, back = read_arrays(path)
        for name, arr in arrays.items():
            assert back[name].dtype == arr.dtype.newbyteorder("<")
            assert back[name].shape == arr.shape
            assert np.array_equal(back[name], arr)


class TestMapExport:
    def test_roundtrip_lossless(self, tmp_path, rng):
        mesh = init_mesh(MeshConfig(0.5, 1.0, 4))
        mesh.z_mean = rng.standard_normal(mesh.num_vertices)
        mesh.z_var = rng.uniform(0, 1, mesh.num_vertices)
        mesh.touched[:] = rng.random(mesh.num_vertices) < 0.5
        mesh.alpha = rng.uniform(0, 4, mesh.alpha.shape)
        path = tmp_path / "map.bin"
        save_map(mesh, path, class_names=list("abcd"), frame_count=9)
        back, header = load_map(path)
        assert np.array_equal(back.z_mean, mesh.z_mean)
        assert np.array_equal(back.z_var, mesh.z_var)
        assert np.array_equal(back.touched, mesh.touched)
        assert np.array_equal(back.alpha, mesh.alpha)
        assert header["frame_count"] == 9
        assert header["class_names"] == ["a", "b", "c", "d"]
        assert (tmp_path / "map.bin.txt").exists()

    @pytest.mark.parametrize("target", [None, (0.7, -1.2)], ids=["canonical", "recentred"])
    def test_reexport_is_byte_identical(self, tmp_path, rng, target):
        mesh = init_mesh(MeshConfig(0.5, 1.0, 2))
        mesh.alpha = rng.uniform(0, 4, mesh.alpha.shape)
        mesh.touched[:] = rng.random(mesh.num_vertices) < 0.5
        if target is not None:
            recenter(mesh, target)
            assert mesh._start != (0, 0)
        p1 = tmp_path / "m1.bin"
        p2 = tmp_path / "m2.bin"
        save_map(mesh, p1, class_names=["a", "b"], frame_count=1)
        back, _ = load_map(p1)
        save_map(back, p2, class_names=["a", "b"], frame_count=1)
        assert p1.read_bytes() == p2.read_bytes()
        assert (tmp_path / "m1.bin.txt").read_bytes() == (tmp_path / "m2.bin.txt").read_bytes()

    def test_face_table_bytes_match_stored_table(self, tmp_path):
        # 80,000 faces, so the table is computed and written in several chunks
        mesh = init_mesh(MeshConfig(0.05, 5.0, 2))
        assert len(list(mesh.face_vertex_chunks())) > 1
        save_map(mesh, tmp_path / "map.bin", class_names=["a", "b"])
        _, arrays = read_arrays(tmp_path / "map.bin")
        assert arrays["face_vertices"].dtype == np.dtype("<i4")
        assert arrays["face_vertices"].tobytes() == lattice_face_table(mesh.cfg.cells_per_side).tobytes()

    @pytest.mark.parametrize(
        "name, wording",
        [
            *((name, f"{name} does not match the lattice") for name in ("vertex_x", "vertex_y", "face_vertices")),
            ("touched", "touched holds a byte other than 0 or 1"),
        ],
        ids=["vertex_x", "vertex_y", "face_vertices", "touched"],
    )
    def test_rejects_a_changed_entry(self, tmp_path, name, wording):
        # 80,000 faces: the face table is compared in several chunks, and its last one is changed
        path = tmp_path / "map.bin"
        save_map(init_mesh(MeshConfig(0.05, 5.0, 2)), path, class_names=["a", "b"])
        header, arrays = read_arrays(path)
        arrays[name].reshape(-1)[-1] += 2
        write_arrays(path, header, arrays)
        with pytest.raises(FormatError, match=f"map.bin: {wording}"):
            load_map(path)

    @pytest.mark.parametrize(
        "name, value, wording",
        [
            ("z_mean", np.nan, "value that is not finite"),
            ("z_mean", -np.inf, "value that is not finite"),
            ("z_var", np.inf, "value that is not finite"),
            ("z_var", -1.0, "negative value"),
            ("alpha", -np.inf, "value that is not finite"),
            ("alpha", np.nan, "value that is not finite"),
            ("alpha", -1.0, "negative value"),
        ],
    )
    def test_rejects_a_poisoned_state_value(self, tmp_path, name, value, wording):
        # 80,000 faces: each state array is checked in several blocks, and its last entry is changed
        mesh = init_mesh(MeshConfig(0.05, 5.0, 2))
        mesh.touched[:] = True
        path = tmp_path / "map.bin"
        save_map(mesh, path, class_names=["a", "b"])
        header, arrays = read_arrays(path)
        assert arrays[name].nbytes > formats.CHUNK_BYTES
        arrays[name].reshape(-1)[-1] = value
        write_arrays(path, header, arrays)
        with pytest.raises(FormatError, match=f"map.bin: {name} holds a {wording}"):
            load_map(path)

    def test_rejects_non_map_container(self, tmp_path):
        path = tmp_path / "not_map.bin"
        write_arrays(path, {"kind": "other"}, {"x": np.zeros(1)})
        with pytest.raises(FormatError):
            load_map(path)


    @pytest.mark.parametrize("name, keep", [("z_mean", -3), ("z_var", 0), ("touched", 5)])
    def test_rejects_vertex_arrays_of_the_wrong_length(self, tmp_path, name, keep):
        path = tmp_path / "map.bin"
        save_map(init_mesh(MeshConfig(0.5, 1.0, 2)), path, class_names=["a", "b"])
        header, arrays = read_arrays(path)
        assert arrays[name].shape == (25,)
        arrays[name] = arrays[name][:keep]
        write_arrays(path, header, arrays)
        with pytest.raises(FormatError, match=f"map.bin: {name} has shape"):
            load_map(path)

    def test_rejects_map_without_an_array(self, tmp_path):
        path = tmp_path / "map.bin"
        save_map(init_mesh(MeshConfig(0.5, 1.0, 2)), path, class_names=["a", "b"])
        header, arrays = read_arrays(path)
        del arrays["z_var"]
        write_arrays(path, header, arrays)
        with pytest.raises(FormatError, match="misses arrays \\['z_var'\\]"):
            load_map(path)

    @pytest.mark.parametrize(
        "name, dtype",
        [("vertex_x", "<i8"), ("z_mean", "|V8"), ("z_var", ">f8"), ("touched", "|b1"),
         ("face_vertices", "<u4"), ("alpha", "<i8")],
    )
    def test_rejects_an_array_of_another_dtype(self, tmp_path, name, dtype):
        # the manifest relabelled, the bytes kept
        path = tmp_path / "map.bin"
        save_map(init_mesh(MeshConfig(0.5, 1.0, 2)), path, class_names=["a", "b"])
        magic, meta, data = path.read_bytes().split(b"\n", 2)
        meta = json.loads(meta)
        next(entry for entry in meta["arrays"] if entry["name"] == name)["dtype"] = dtype
        path.write_bytes(b"\n".join([magic, json.dumps(meta).encode(), data]))
        with pytest.raises(FormatError, match=f"map.bin: array '{name}' has dtype"):
            load_map(path)

    @pytest.mark.parametrize(
        "field, value",
        [("num_classes", None), ("center", [0.0]), ("half_extent_m", True), ("side_length_m", float("nan"))],
    )
    def test_rejects_mistyped_mesh_header(self, tmp_path, field, value):
        path = tmp_path / "map.bin"
        save_map(init_mesh(MeshConfig(0.5, 1.0, 2)), path, class_names=["a", "b"])
        header, arrays = read_arrays(path)
        header[field] = value
        write_arrays(path, header, arrays)
        with pytest.raises(FormatError, match=field):
            load_map(path)


# a dtype of the same size as each table dtype, for relabelled manifests
OTHER_DTYPE = {"<f8": "<i8", "|u1": "|i1", "<i4": "<u4"}
LOADERS = {MAP_KIND: load_map, ESTIMATES_KIND: load_estimates}


def count_reads(monkeypatch) -> list:
    """The list to which each later ``formats._read_array`` call appends its arguments."""
    reads, read_array = [], formats._read_array
    monkeypatch.setattr(formats, "_read_array", lambda *args: reads.append(args) or read_array(*args))
    return reads


class TestContainerLayout:
    """Each container is written from the one layout table and checked
    against it before any array data is read."""

    @pytest.fixture
    def files(self, tmp_path, rng):
        mesh = init_mesh(MeshConfig(0.5, 1.0, 3))
        mesh.alpha = rng.uniform(0, 4, mesh.alpha.shape)
        recenter(mesh, (0.7, -1.2))
        assert mesh._start != (0, 0)
        known = rng.random(mesh.num_faces) < 0.5
        weights = np.where(known[:, None], rng.dirichlet(np.ones(3), size=mesh.num_faces), 0.0)
        save_map(mesh, tmp_path / "map.bin", class_names=["a", "b", "c"])
        save_estimates(tmp_path / "estimates.bin", estimates_from_dense(weights, known), mesh, "recursive", None)
        return mesh, {MAP_KIND: tmp_path / "map.bin", ESTIMATES_KIND: tmp_path / "estimates.bin"}

    def test_manifests_are_the_table(self, files):
        mesh, paths = files
        v, f = mesh.num_vertices, mesh.num_faces
        spelled = {
            MAP_KIND: [
                ("vertex_x", "<f8", [v]), ("vertex_y", "<f8", [v]), ("z_mean", "<f8", [v]), ("z_var", "<f8", [v]),
                ("touched", "|u1", [v]), ("face_vertices", "<i4", [f, 3]), ("alpha", "<f8", [f, 3]),
            ],
            ESTIMATES_KIND: [("known", "|u1", [f]), ("weights", "<f8", [f, 3])],
        }
        for kind, path in paths.items():
            manifest = json.loads(path.read_bytes().split(b"\n", 2)[1])["arrays"]
            table = container_layout(kind, mesh.cfg)
            assert manifest == [{"name": n, "dtype": d.str, "shape": list(s)} for n, (d, s) in table.items()]
            assert manifest == [{"name": n, "dtype": d, "shape": s} for n, d, s in spelled[kind]]
            assert [n for n, _, _ in CONTAINER_ARRAYS[kind]] == list(table)

    @pytest.mark.parametrize("fault", ["missing", "relabelled", "reshaped"])
    @pytest.mark.parametrize(
        "kind, name", [(kind, name) for kind, rows in CONTAINER_ARRAYS.items() for name, _, _ in rows]
    )
    def test_fault_is_refused_before_any_array_is_read(self, files, monkeypatch, fault, kind, name):
        path = files[1][kind]
        if fault == "relabelled":
            # the bytes kept
            magic, meta, data = path.read_bytes().split(b"\n", 2)
            meta = json.loads(meta)
            entry = next(entry for entry in meta["arrays"] if entry["name"] == name)
            entry["dtype"] = OTHER_DTYPE[entry["dtype"]]
            path.write_bytes(b"\n".join([magic, json.dumps(meta).encode(), data]))
        else:
            header, arrays = read_arrays(path)
            if fault == "missing":
                del arrays[name]
            else:
                arrays[name] = arrays[name].reshape(-1)[1:]
            write_arrays(path, header, arrays)
        reads = count_reads(monkeypatch)
        wording = {"missing": f"misses arrays \\['{name}'\\]", "relabelled": f"array '{name}' has dtype"}
        with pytest.raises(FormatError, match=wording.get(fault, f"{name} has shape")):
            LOADERS[kind](path)
        assert reads == []

    @pytest.mark.parametrize("kind", [MAP_KIND, ESTIMATES_KIND])
    def test_intact_file_reads_its_arrays(self, files, monkeypatch, kind):
        # the counter sees the reads of a file that passes: a map's four
        # state arrays, its vertex coordinates a grid row at a time, and
        # its face table in one block
        mesh, paths = files
        reads = count_reads(monkeypatch)
        LOADERS[kind](paths[kind])
        assert len(reads) == {MAP_KIND: 4 + 2 * mesh.cfg.vertices_per_side + 1, ESTIMATES_KIND: 2}[kind]

    def test_writer_refuses_chunks_that_miss_the_shape(self, tmp_path):
        with pytest.raises(FormatError, match="'a' of shape \\(2, 3\\) was given 40 bytes"):
            write_arrays(tmp_path / "x.bin", {}, {"a": (np.float64, (2, 3), [np.zeros(2), np.zeros(3)])})


class TestBundleIO:
    def test_roundtrip(self, small_bundle):
        out, frames, _ = small_bundle
        manifest, back = read_bundle(out)
        assert manifest["scenario"]["name"] == "two-class-split"
        assert len(back) == len(frames)
        for orig, rt in zip(frames, back):
            assert rt.frame_id == orig.frame_id
            assert np.allclose(rt.depth, orig.depth.astype(np.float32), equal_nan=True, atol=0)
            assert np.allclose(rt.scores, orig.scores.astype(np.float32), atol=0)
            assert np.allclose(rt.pose.rotation, orig.pose.rotation, atol=0)
            assert np.allclose(rt.pose.translation, orig.pose.translation, atol=0)

    def test_validator_accepts_good_bundle(self, small_bundle):
        out, _, _ = small_bundle
        assert validate_bundle(out) == []

    def test_validator_catches_missing_file(self, small_bundle, tmp_path):
        out, _, _ = small_bundle
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(out, broken)
        target = next(broken.glob("*.depth.f32"))
        target.unlink()
        issues = validate_bundle(broken)
        assert any("missing depth_file" in i for i in issues)

    def test_validator_catches_truncated_scores(self, small_bundle, tmp_path):
        out, _, _ = small_bundle
        import shutil

        broken = tmp_path / "trunc"
        shutil.copytree(out, broken)
        target = next(broken.glob("*.scores.f32"))
        target.write_bytes(target.read_bytes()[:-8])
        issues = validate_bundle(broken)
        assert any("bytes" in i for i in issues)

    def test_validator_catches_unnormalized_scores(self, small_bundle, tmp_path):
        out, _, _ = small_bundle
        import shutil

        broken = tmp_path / "unnorm"
        shutil.copytree(out, broken)
        target = sorted(broken.glob("*.scores.f32"))[0]
        arr = np.fromfile(target, dtype="<f4")
        arr *= 2.0
        arr.tofile(target)
        issues = validate_bundle(broken)
        assert any("not normalized" in i for i in issues)

    def test_validator_rejects_wrong_version(self, small_bundle, tmp_path):
        out, _, _ = small_bundle
        import shutil

        broken = tmp_path / "ver"
        shutil.copytree(out, broken)
        manifest = json.loads((broken / "manifest.json").read_text())
        manifest["version"] = 99
        (broken / "manifest.json").write_text(json.dumps(manifest))
        issues = validate_bundle(broken)
        assert any("version" in i for i in issues)
        with pytest.raises(FormatError):
            read_bundle(broken)

    def test_missing_manifest(self, tmp_path):
        assert validate_bundle(tmp_path / "nowhere") != []

    def test_writer_refuses_a_repeated_frame_id(self, small_bundle, tmp_path):
        _, frames, truth = small_bundle
        # the third frame carries the first one's id
        repeated = [*frames[:2], dataclasses.replace(frames[2], frame_id=frames[0].frame_id)]
        with pytest.raises(FormatError, match=f"frame {frames[0].frame_id}: an earlier frame has the same id"):
            write_bundle(tmp_path / "b", iter(repeated), truth.class_names)
        # the first frame's files were not overwritten, and no manifest was written
        depth = (tmp_path / "b" / f"frame_{frames[0].frame_id:06d}.depth.f32").read_bytes()
        assert depth == frames[0].depth.astype("<f4").tobytes()
        assert not (tmp_path / "b" / "manifest.json").exists()

    def test_reader_refuses_a_repeated_frame_id(self, small_bundle, tmp_path):
        out, _, _ = small_bundle
        broken = tmp_path / "repeated"
        shutil.copytree(out, broken)
        manifest = json.loads((broken / "manifest.json").read_text())
        manifest["frames"][2]["frame_id"] = manifest["frames"][0]["frame_id"]
        (broken / "manifest.json").write_text(json.dumps(manifest))
        fid = manifest["frames"][0]["frame_id"]
        assert validate_bundle(broken) == [f"bundle manifest frames[0] and frames[2] share frame_id {fid}"]
        with pytest.raises(FormatError, match="frames\\[0\\] and frames\\[2\\]"):
            read_bundle(broken)

    def test_entries_may_share_a_data_file(self, small_bundle, tmp_path):
        out, frames, _ = small_bundle
        shared = tmp_path / "shared"
        shutil.copytree(out, shared)
        manifest = json.loads((shared / "manifest.json").read_text())
        first, last = manifest["frames"][0], manifest["frames"][2]
        last.update(depth_file=first["depth_file"], scores_file=first["scores_file"])
        (shared / "manifest.json").write_text(json.dumps(manifest))
        assert validate_bundle(shared) == []
        back = read_bundle(shared)[1]
        assert back[2].frame_id == frames[2].frame_id
        assert back[2].depth.tobytes() == back[0].depth.tobytes()


class TestTruthAndEstimates:
    def test_truth_roundtrip(self, tmp_path):
        spec = scenario_library()["ramp"].with_seed(11)
        world = world_to_dict(spec)
        catalog, models = load_default_models()
        path = tmp_path / "truth.json"
        save_truth(path, world, catalog.names, models)
        doc = load_truth(path)
        assert doc["scenario_hash"] == scenario_hash(world)
        assert doc["world"] == json.loads(json.dumps(world))
        assert [m["name"] for m in doc["models"]] == list(catalog.names)

    def test_estimates_roundtrip(self, tmp_path, rng):
        mesh = init_mesh(MeshConfig(0.5, 1.0, 3))
        known = rng.random(mesh.num_faces) < 0.6
        weights = rng.dirichlet(np.ones(3), size=mesh.num_faces)
        weights[~known] = 0.0
        est = estimates_from_dense(weights, known)
        path = tmp_path / "est.bin"
        save_estimates(path, est, mesh, "recursive", "deadbeef")
        header, back = load_estimates(path)
        assert header["estimator"] == "recursive"
        assert header["scenario_hash"] == "deadbeef"
        assert np.array_equal(back.ids, np.flatnonzero(known))
        assert np.array_equal(dense_weights(back), weights)

    @pytest.mark.parametrize("value", [2, 255])
    @pytest.mark.parametrize("was_known", [True, False], ids=["known", "unknown"])
    def test_estimates_reject_a_known_byte_other_than_0_or_1(self, tmp_path, rng, value, was_known):
        mesh = init_mesh(MeshConfig(0.5, 1.0, 3))
        known = np.arange(mesh.num_faces) % 2 == 0
        weights = np.where(known[:, None], rng.dirichlet(np.ones(3), size=mesh.num_faces), 0.0)
        path = tmp_path / "est.bin"
        save_estimates(path, estimates_from_dense(weights, known), mesh, "recursive", None)
        header, arrays = read_arrays(path)
        # a known face keeps valid weights; an unknown one has all-zero weights,
        # which are refused only if they are read as a known row
        arrays["known"][np.flatnonzero(known == was_known)[0]] = value
        write_arrays(path, header, arrays)
        with pytest.raises(FormatError, match="est.bin: known holds a byte other than 0 or 1"):
            load_estimates(path)

    def test_scenario_hash_sensitivity(self):
        spec = scenario_library()["ramp"]
        w1 = world_to_dict(spec.with_seed(1))
        w2 = world_to_dict(spec.with_seed(2))
        assert scenario_hash(w1) != scenario_hash(w2)
        assert scenario_hash(w1) == scenario_hash(world_to_dict(spec.with_seed(1)))


class TestContainerMemory:
    """The CLI's default 0.02 m / 5 m mesh: 500,000 faces, a 40 MB (F, K)
    evidence array.  No array is copied whole on its way to or from disk."""

    @pytest.fixture(scope="class")
    def mapped(self):
        catalog, models = load_default_models()
        mesh = init_mesh(MeshConfig(0.02, 5.0, catalog.k))
        rows = mesh.alpha[::3]
        rows[:] = np.random.default_rng(4).random(rows.shape)
        return mesh, catalog.names, estimate_properties(mesh, EstimatorKind.RECURSIVE, models)

    def test_export_copies_no_array(self, mapped, tmp_path):
        mesh, names, estimates = mapped
        tracemalloc.start()
        try:
            save_map(mesh, tmp_path / "map.bin", names)
            save_estimates(tmp_path / "estimates.bin", estimates, mesh, "recursive", None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * mesh.alpha.nbytes

    def test_recentred_map_streams_its_lattice(self, tmp_path):
        # a map whose ring offset wraps both axes: its (V,) vertex
        # coordinates, 4.0 MB as whole arrays, go to and from the file a grid
        # row at a time; a load holds the new mesh's 2 MB int32 scratch
        catalog, _ = load_default_models()
        mesh = init_mesh(MeshConfig(0.02, 5.0, catalog.k))
        mesh.ring.alpha[:50_000] = 1.0
        mesh.ring.touched[::7] = True
        recenter(mesh, (1.23, -2.47))
        assert all(mesh._start)
        path = tmp_path / "map.bin"
        tracemalloc.start()
        try:
            save_map(mesh, path, catalog.names)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back, _ = load_map(path)
            load_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert save_peak < 2e6 and load_peak < 4e6, (save_peak, load_peak)
        save_map(back, tmp_path / "again.bin", catalog.names)
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    def test_map_loads_into_ring_storage(self, mapped, tmp_path):
        mesh, names, _ = mapped
        path = tmp_path / "map.bin"
        save_map(mesh, path, names)
        tracemalloc.start()
        try:
            back, _ = load_map(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the ring arrays are anonymous mappings, which tracemalloc does not see
        assert peak < back.ring.alpha.nbytes
        assert back.ring.alpha.tobytes() == mesh.ring.alpha.tobytes()

    def test_load_reads_each_array_once(self, mapped, tmp_path):
        mesh, _, estimates = mapped
        path = tmp_path / "estimates.bin"
        save_estimates(path, estimates, mesh, "recursive", None)
        array_bytes = estimates.num_faces * (1 + 8 * mesh.cfg.num_classes)
        tracemalloc.start()
        try:
            _, back = load_estimates(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.ids, estimates.ids)
        assert np.array_equal(back.known_weights, estimates.known_weights)
        assert peak <= 1.1 * array_bytes


class TestRingExport:
    """A 0.05 m / 5 m mesh (80,000 faces) recentered so that its ring offset
    wraps both axes (or one), with 5,000 known faces, is exported from ring
    storage.  Its canonical twin is shifted by the copying oracle instead."""

    @pytest.fixture(scope="class", params=[(1.23, -2.47), (0.0, -2.47), (1.23, 0.0)], ids=["both", "rows", "cols"])
    def meshes(self, request):
        catalog, models = load_default_models()
        ring = init_mesh(MeshConfig(0.05, 5.0, catalog.k))
        rng = np.random.default_rng(17)
        ring.z_mean = rng.standard_normal(ring.num_vertices)
        ring.z_var = rng.random(ring.num_vertices)
        ring.touched = rng.random(ring.num_vertices) < 0.7
        ref = copy.deepcopy(ring)
        recenter(ring, request.param)
        copy_recenter(ref, request.param)
        n = ring.cfg.cells_per_side
        # (row, col) offsets move with the window's (y, x)
        assert [bool(s % n) for s in ring._start] == [bool(request.param[1]), bool(request.param[0])]
        ids = np.sort(rng.choice(ring.num_faces, 5000, replace=False))
        rows = rng.random((ids.size, catalog.k))
        rows[::7] = np.floor(4 * rows[::7])  # hard-mode counts, some rows all zero
        ring.ring.alpha[ring.face_slots(ids)] = rows
        ref.alpha[ids] = rows
        seen = ids[::3]
        # per-face sums of `counts` score vectors that each sum to one, as a frame gives
        sums, counts = rng.random((seen.size, catalog.k)), rng.integers(1, 9, seen.size)
        sums *= counts[:, None] / sums.sum(axis=1, keepdims=True)
        scores = FaceScores(seen, sums, counts)
        return ring, ref, catalog.names, models, scores

    def test_export_peak_is_below_one_face_by_class_array(self, meshes, tmp_path):
        ring, _, names, models, _ = meshes
        start = ring._start
        tracemalloc.start()
        try:
            estimates = estimate_properties(ring, EstimatorKind.RECURSIVE, models)
            save_map(ring, tmp_path / "map.bin", names)
            save_estimates(tmp_path / "estimates.bin", estimates, ring, "recursive", None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ring._start == start  # storage was read where it lies
        assert peak < ring.num_faces * ring.cfg.num_classes * 8

    @pytest.mark.parametrize("kind", list(EstimatorKind))
    def test_files_match_canonical_copy(self, meshes, tmp_path, kind):
        ring, ref, names, models, scores = meshes
        for mesh, out in ((ring, tmp_path / "ring"), (ref, tmp_path / "ref")):
            out.mkdir()
            save_map(mesh, out / "map.bin", names, frame_count=3)
            estimates = estimate_properties(mesh, kind, models, scores)
            save_estimates(out / "estimates.bin", estimates, mesh, kind.value, "cafe")
        for name in ("map.bin", "map.bin.txt", "estimates.bin"):
            assert (tmp_path / "ring" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name
        # a loaded estimates file exports the same bytes again
        _, back = load_estimates(tmp_path / "ring" / "estimates.bin")
        save_estimates(tmp_path / "again.bin", back, ring, kind.value, "cafe")
        assert (tmp_path / "again.bin").read_bytes() == (tmp_path / "ring" / "estimates.bin").read_bytes()


class TestMapResumes:
    """A map saved after the first four frames of a bundle, loaded and given
    the last four, is the map of all eight mapped in one run."""

    @pytest.fixture(scope="class")
    def bundle(self, tmp_path_factory):
        spec = scenario_library()["two-class-split-noisy"].with_seed(3)
        frames, truth = render_frames(spec, limit=8)
        out = tmp_path_factory.mktemp("resume")
        write_bundle(out, frames, truth.class_names)
        _, frames = read_bundle(out)
        assert len(frames) == 8
        return frames, truth.class_names

    @pytest.mark.parametrize("recentre", [False, True], ids=["fixed", "recentred"])
    def test_resumed_map_is_the_whole_run(self, bundle, tmp_path, recentre):
        frames, names = bundle
        cfg, config = MeshConfig(0.1, 2.5, len(names)), PipelineConfig(recenter=recentre)
        whole = Mapper(init_mesh(cfg), config).run(frames)
        save_map(whole.mesh, tmp_path / "whole.bin", names, whole.frames_processed)
        first = Mapper(init_mesh(cfg), config).run(frames[:4])
        save_map(first.mesh, tmp_path / "first.bin", names, first.frames_processed)
        mesh, header = load_map(tmp_path / "first.bin")
        rest = Mapper(mesh, config).run(frames[4:])
        save_map(rest.mesh, tmp_path / "resumed.bin", names, header["frame_count"] + rest.frames_processed)
        assert whole.frames_processed > 4 and rest.frames_processed > 0
        # recentring moved the window before the save and again after the load
        assert any(header["center"]) == any(rest.mesh._start) == recentre
        for suffix in ("", ".txt"):
            whole_bytes = (tmp_path / f"whole.bin{suffix}").read_bytes()
            assert (tmp_path / f"resumed.bin{suffix}").read_bytes() == whole_bytes, suffix
