import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terramesh.cli import _merge_run_config, build_parser, main
from terramesh.evaluation import evaluate_estimator
from terramesh.formats import (
    load_estimates,
    load_map,
    read_arrays,
    read_bundle,
    save_map,
    validate_bundle,
    write_arrays,
)
from terramesh.mesh import MeshConfig, init_mesh
from terramesh.pipeline import EstimatorKind, Mapper, PipelineConfig, estimate_properties
from terramesh.properties import GRAVITY, PropertyMixture, PropertyModel, load_default_models, load_models
from terramesh.sim import scenario_library, world_from_dict, world_to_dict


def run_cli(*args):
    return main([str(a) for a in args])


DELETE = object()


def edit_json(doc, path, value):
    """Return ``doc`` with the entry at key path ``path`` set to ``value``,
    or removed when ``value`` is ``DELETE``; an empty path replaces ``doc``."""
    if not path:
        return value
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim") / "bundle"
    code = run_cli(
        "simulate", "--scenario", "two-class-split", "--seed", 5, "--out", out, "--frames", 4
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def run_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run") / "recursive"
    code = run_cli(
        "run", "--bundle", sim_dir, "--out", out,
        "--mesh-side", 0.25, "--mesh-extent", 2.5,
    )
    assert code == 0
    return out


RAMP = {"z0": 0.0, "gx": 0.1, "gy": 0.0, "x0": 0.0, "y0": 0.0}
SINE = {"z0": 0.0, "amp": 0.1, "fx": 0.5, "fy": 0.0}


class TestSimulate:
    def test_bundle_is_valid(self, sim_dir):
        assert validate_bundle(sim_dir) == []
        assert (sim_dir / "truth.json").exists()

    def test_unknown_scenario_lists_options(self, capsys):
        code = run_cli("simulate", "--scenario", "not-a-scene", "--seed", 1, "--out", "/tmp/x")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "two-class-split" in err and "imbalanced-noisy" in err

    def test_rerun_is_bit_identical(self, sim_dir, tmp_path):
        again = tmp_path / "again"
        assert run_cli(
            "simulate", "--scenario", "two-class-split", "--seed", 5, "--out", again, "--frames", 4
        ) == 0
        for path in sorted(sim_dir.iterdir()):
            assert (again / path.name).read_bytes() == path.read_bytes()

    def test_spec_file_scenario(self, tmp_path):
        spec = scenario_library()["flat-single-class"]
        spec_path = tmp_path / "world.json"
        spec_path.write_text(json.dumps(world_to_dict(spec)))
        out = tmp_path / "bundle"
        assert run_cli("simulate", "--spec", spec_path, "--seed", 2, "--out", out, "--frames", 2) == 0
        assert validate_bundle(out) == []
        manifest, frames = read_bundle(out)
        assert len(frames) == 2

    def test_empty_trajectory_writes_no_manifest(self, tmp_path, capsys):
        doc = world_to_dict(scenario_library()["two-class-split"])
        doc["trajectory"] = []
        spec_path = tmp_path / "world.json"
        spec_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("simulate", "--spec", spec_path, "--seed", 2, "--out", tmp_path / "b") == 2
        assert "cannot write an empty bundle" in one_error_line(capsys)
        assert not (tmp_path / "b" / "manifest.json").exists()

    def test_memory_does_not_grow_with_frame_count(self, tmp_path):
        import tracemalloc

        # an 80 x 60 frame of 10 classes renders 0.42 MB of float64 arrays
        simulate = ["simulate", "--scenario", "imbalanced", "--seed", 3]
        assert run_cli(*simulate, "--out", tmp_path / "warm", "--frames", 1) == 0
        peaks = []
        for frames in (5, 20):
            tracemalloc.start()
            try:
                assert run_cli(*simulate, "--out", tmp_path / f"b{frames}", "--frames", frames) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(read_bundle(tmp_path / "b20")[1]) == 20
        assert peaks[1] < 1.25 * peaks[0], peaks

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("heightfield",), DELETE, "'heightfield'"),
            (("intrinsics", "fx"), "a", "'fx'"),
            (("class_map", "regions", 0, "class_index"), 99, "'class_index'"),
            (("class_map", "regions", 0, "polygon"), [1, 2], "'polygon'"),
            ((), None, "world description"),
            (("heightfield", "patches"), [{"kind": "flat", "params": {}, "region": None}], "'z'"),
            (("heightfield", "patches"), [{"kind": "ramp", "params": RAMP | {"z0": "a"}, "region": None}], "'z0'"),
            (("heightfield", "patches"), [{"kind": "flat", "params": {"z": 0.5}, "region": [0, 1, 2]}], "'region'"),
            (("march_steps",), 0, "'march_steps'"),
            (("max_range_m",), -1, "'max_range_m'"),
            (("noise", "depth_abc"), [0.1, 0.2], "'depth_abc'"),
            (("noise", "depth_abc"), [0.01, -0.01, 0.0], "'depth_abc'"),
            # the world's jitter_kappa is 0
            (("noise", "score_mode"), "soft_jitter", "'jitter_kappa'"),
            (("noise", "confusion"), np.eye(3).tolist(), "'confusion'"),
            (("heightfield", "base"), float("nan"), "'base'"),
            # the jitter is drawn through a Cholesky factor
            (("noise", "pose_rot_cov"), [0.0, 0, 0, 0, 1e-6, 0, 0, 0, 1e-6], "pose_rot_cov"),
            # finite parameters whose heights overflow where the cameras look
            (("heightfield", "patches"), [{"kind": "sinusoid", "params": SINE | {"fx": 1e308}, "region": None}],
             "patches[0] params"),
            (("heightfield", "patches"), [{"kind": "sinusoid", "params": SINE | {"z0": 1e308, "amp": 1e308},
                                           "region": None}], "patches[0] params"),
            (("heightfield", "patches"), [{"kind": "flat", "params": {"z": 0.5}, "region": None},
                                          {"kind": "ramp", "params": RAMP | {"gx": 1e306}, "region": [0, 1e3, 0, 1]}],
             "patches[1] params"),
            # depth noise that float32 cannot hold, with an overflowing and a finite sigma^2
            (("noise", "depth_abc"), [0.001, 0, 1e200], "overflows float32"),
            (("noise", "depth_abc"), [0.001, 0, 1e100], "overflows float32"),
        ],
        ids=[
            "no-heightfield", "text-fx", "class-index-99", "flat-polygon", "null-spec",
            "patch-without-z", "text-ramp-param", "3-entry-region", "zero-march-steps", "negative-max-range",
            "2-entry-depth-abc", "negative-depth-sigma", "soft-jitter-kappa-0", "3x3-confusion", "nan-base",
            "singular-pose-rot-cov", "overflowing-sinusoid-phase", "overflowing-sinusoid-crest",
            "overflowing-ramp-region", "overflowing-depth-variance", "float32-overflowing-depth",
        ],
    )
    def test_malformed_spec_is_one_error_line(self, tmp_path, capsys, path, value, field):
        doc = edit_json(world_to_dict(scenario_library()["two-class-split"]), path, value)
        spec_path = tmp_path / "world.json"
        spec_path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("simulate", "--spec", spec_path, "--seed", 2, "--out", tmp_path / "b", "--frames", 1) == 2
        assert field in one_error_line(capsys)
        assert not (tmp_path / "b").exists()


class TestRun:
    def test_outputs_exist(self, run_dir):
        for name in ("map.bin", "map.bin.txt", "estimates.bin", "timing.csv", "summary.json"):
            assert (run_dir / name).exists(), name

    def test_defaults_are_the_library_defaults(self, sim_dir, run_dir, tmp_path):
        cfg = _merge_run_config(build_parser().parse_args(["run", "--bundle", "b", "--out", "o"]))
        pipeline = PipelineConfig()
        noise = pipeline.noise_model
        assert cfg["noise"] == [noise.a, noise.b, noise.c] == [0.001, 0.0, 0.0019]
        assert (cfg["update_mode"], cfg["recenter"], cfg["pose_cov"]) == ("soft", False, None)
        assert (pipeline.update_mode, pipeline.recenter, pipeline.pose_cov_override) == ("soft", False, None)
        # a run without flags maps the bundle as a Mapper with PipelineConfig() does
        manifest, frames = read_bundle(sim_dir)
        mapper = Mapper(init_mesh(MeshConfig(0.25, 2.5, manifest["num_classes"])), pipeline).run(frames)
        extra = {"estimator": "recursive", "scenario_hash": manifest["scenario"]["hash"]}
        save_map(mapper.mesh, tmp_path / "map.bin", manifest["class_names"], mapper.frames_processed, extra)
        assert (tmp_path / "map.bin").read_bytes() == (run_dir / "map.bin").read_bytes()

    def test_summary_contents(self, run_dir):
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["frames_processed"] == 4
        assert summary["frames_skipped"] == 0
        assert summary["estimator"] == "recursive"
        assert summary["faces_observed"] > 0
        assert summary["faces_observed"] <= summary["faces_total"]

    def test_flat_zero_noise_full_coverage(self, tmp_path):
        bundle = tmp_path / "flat"
        assert run_cli("simulate", "--scenario", "flat-single-class", "--seed", 1, "--out", bundle) == 0
        out = tmp_path / "flatrun"
        assert run_cli(
            "run", "--bundle", bundle, "--out", out, "--mesh-side", 0.2, "--mesh-extent", 2.0
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["faces_observed"] == summary["faces_total"]
        assert summary["faces_with_estimate"] == summary["faces_total"]
        # every observed face is fully confident in one class
        mesh, _ = load_map(out / "map.bin")
        weights = mesh.alpha / mesh.alpha.sum(axis=1, keepdims=True)
        assert np.all(weights.max(axis=1) == 1.0)

    def test_baseline_estimator_leaves_alpha_untouched(self, sim_dir, tmp_path):
        out = tmp_path / "baseline"
        assert run_cli(
            "run", "--bundle", sim_dir, "--out", out,
            "--mesh-side", 0.25, "--mesh-extent", 2.5,
            "--estimator", "unimodal_nonrecursive",
        ) == 0
        mesh, header = load_map(out / "map.bin")
        assert np.all(mesh.alpha == 0.0)
        assert header["estimator"] == "unimodal_nonrecursive"
        _, est = load_estimates(out / "estimates.bin")
        assert est.ids.size > 0

    def test_rerun_exports_identical(self, sim_dir, run_dir, tmp_path):
        out = tmp_path / "again"
        assert run_cli(
            "run", "--bundle", sim_dir, "--out", out,
            "--mesh-side", 0.25, "--mesh-extent", 2.5,
        ) == 0
        for name in ("map.bin", "estimates.bin", "summary.json"):
            assert (out / name).read_bytes() == (run_dir / name).read_bytes()

    def test_recenter_counts_faces_of_the_final_window(self, sim_dir, tmp_path):
        # soft recursive evidence is positive on exactly the observed faces,
        # so the count must follow the window as it moves
        out = tmp_path / "recentered"
        assert run_cli(
            "run", "--bundle", sim_dir, "--out", out,
            "--mesh-side", 0.1, "--mesh-extent", 1.0, "--recenter",
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        mesh, _ = load_map(out / "map.bin")
        with_evidence = int((mesh.alpha.sum(axis=1) > 0).sum())
        assert 0 < with_evidence < summary["faces_total"]
        assert summary["faces_observed"] == with_evidence

    @pytest.mark.filterwarnings("error")
    def test_recenter_past_the_offset_is_one_error_line(self, sim_dir, tmp_path, capsys):
        # the second camera sits 1e300 m out: no int64 ring offset holds that shift
        translation = ["frames", 1, "pose", "translation", 0]
        far = copy_bundle(sim_dir, tmp_path / "far", lambda m: edit_json(m, translation, -1e300))
        capsys.readouterr()
        out = tmp_path / "out"
        flags = ["--mesh-side", 0.25, "--mesh-extent", 2.5, "--recenter"]
        assert run_cli("run", "--bundle", far, "--out", out, *flags) == 2
        assert "more than its offset holds" in one_error_line(capsys)
        assert not out.exists()

    def test_config_file_with_flag_override(self, sim_dir, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mesh_side": 0.5, "mesh_extent": 2.5, "estimator": "recursive"}))
        out = tmp_path / "cfgrun"
        assert run_cli(
            "run", "--bundle", sim_dir, "--out", out, "--config", cfg, "--mesh-side", 0.25
        ) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["mesh"]["side_length_m"] == 0.25  # flag wins
        assert summary["mesh"]["half_extent_m"] == 2.5

    @pytest.mark.parametrize(
        "key, flags, value, file_value",
        [
            ("estimator", ["--estimator", "unimodal_nonrecursive"], "unimodal_nonrecursive", "recursive"),
            ("update_mode", ["--update-mode", "hard"], "hard", "soft"),
            ("mesh_side", ["--mesh-side", "0.25"], 0.25, 0.5),
            ("mesh_extent", ["--mesh-extent", "2.5"], 2.5, 4.0),
            ("models", ["--models", "flag.json"], "flag.json", "file.json"),
            ("noise", ["--noise", "0.002,0,0.003"], [0.002, 0.0, 0.003], [0.001, 0.0, 0.0019]),
            ("recenter", ["--recenter"], True, False),
        ],
        ids=["estimator", "update-mode", "mesh-side", "mesh-extent", "models", "noise", "recenter"],
    )
    def test_each_flag_beats_the_config_file(self, tmp_path, key, flags, value, file_value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: file_value}))
        base = ["run", "--bundle", "b", "--out", "o", "--config", str(cfg)]
        assert _merge_run_config(build_parser().parse_args(base))[key] == file_value
        assert _merge_run_config(build_parser().parse_args([*base, *flags]))[key] == value

    def test_config_recenter_holds_without_the_flag(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"recenter": True}))
        args = build_parser().parse_args(["run", "--bundle", "b", "--out", "o", "--config", str(cfg)])
        assert args.recenter is None
        assert _merge_run_config(args)["recenter"] is True

    def test_unknown_config_key_rejected(self, sim_dir, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"mesh_sides": 0.5}))
        code = run_cli("run", "--bundle", sim_dir, "--out", tmp_path / "x", "--config", cfg)
        assert code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, flags, field",
        [
            ([{"a": 1}], [], "not a JSON object"),
            ("str", [], "not a JSON object"),
            ({"noise": "abc"}, [], "'noise'"),
            ({"mesh_side": None}, [], "'mesh_side'"),
            ({"models": 5}, [], "'models'"),
            ({"recenter": "no"}, [], "'recenter'"),
            ({"pose_cov": [1e-6, 1e-6]}, [], "'pose_cov'"),
            ({"pose_cov": [-1.0, -1.0, -1.0]}, [], "pose covariance"),
            ({"update_mode": "both"}, [], "'update_mode'"),
            (None, ["--noise", "1,2"], "'noise'"),
            (None, ["--noise", "nan,0,0"], "'noise'"),
            (None, ["--noise", "a,b,c"], "'noise'"),
            # finite coefficients whose variance overflows within the sensor range
            (None, ["--noise", "0.001,0,1e200"], "--noise"),
            # the extent over this side overflows to infinity
            (None, ["--mesh-side", "5e-324"], "half_extent_m"),
            # 4e16 vertices: numpy refuses the first array at once, allocating nothing
            (None, ["--mesh-side", "0.01", "--mesh-extent", "1e6"], "Unable to allocate"),
            # a window 2e308 m wide, and a side whose square overflows
            (None, ["--mesh-side", "1e308", "--mesh-extent", "1e308"], "must be finite"),
            (None, ["--mesh-side", "1e200", "--mesh-extent", "1e200"], "must be finite"),
        ],
        ids=[
            "list", "string", "text-noise", "null-mesh-side", "int-models", "text-recenter",
            "2-entry-pose-cov", "negative-pose-cov", "unknown-update-mode", "2-entry-noise-flag", "nan-noise-flag",
            "text-noise-flag", "overflowing-variance-noise-flag", "subnormal-mesh-side-flag", "impossible-mesh-size",
            "overflowing-window-flags", "overflowing-side-squared-flags",
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_malformed_config_is_one_error_line(self, sim_dir, tmp_path, capsys, config, flags, field):
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            flags = [*flags, "--config", tmp_path / "cfg.json"]
        capsys.readouterr()
        assert run_cli("run", "--bundle", sim_dir, "--out", tmp_path / "out", *flags) == 2
        assert field in one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("noise", ["1e-160,0,0", "1e-154,0,0"], ids=["subnormal-variance", "overflowing-sum"])
    def test_tiny_depth_noise_is_one_error_line(self, tmp_path, capsys, noise):
        # the height precisions are infinite (exact heights that disagree),
        # or finite with a sum that overflows: a map of NaN either way
        bundle = tmp_path / "ramp"
        assert run_cli("simulate", "--scenario", "ramp", "--seed", 1, "--frames", 5, "--out", bundle) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert run_cli("run", "--bundle", bundle, "--out", out, "--noise", noise,
                       "--mesh-side", 0.1, "--mesh-extent", 2.5) == 2
        one_error_line(capsys)
        assert not out.exists()

    def test_update_mode_hard(self, sim_dir, tmp_path):
        out = tmp_path / "hard"
        assert run_cli(
            "run", "--bundle", sim_dir, "--out", out,
            "--mesh-side", 0.25, "--mesh-extent", 2.5, "--update-mode", "hard",
        ) == 0
        mesh, _ = load_map(out / "map.bin")
        observed = mesh.alpha.sum(axis=1) > 0
        assert np.allclose(mesh.alpha[observed] % 1.0, 0.0)  # integer counts

    def test_all_frames_invalid_yields_empty_map(self, tmp_path):
        # a bundle whose frames are all flagged invalid runs to completion
        # with everything unknown, for any estimator
        from terramesh.formats import write_bundle
        from terramesh.geometry import CameraIntrinsics, Pose
        from terramesh.pipeline import FrameBundle

        intr = CameraIntrinsics(fx=20.0, fy=20.0, cx=4.5, cy=3.5, width=10, height=8)
        catalog, _ = load_models()
        frames = [
            FrameBundle(
                depth=np.full((8, 10), np.nan),
                scores=np.full((8, 10, 10), 0.1),
                pose=Pose.identity(),
                intrinsics=intr,
                frame_id=i,
                timestamp=0.1 * i,
                valid=False,
            )
            for i in range(2)
        ]
        bundle = tmp_path / "invalid"
        write_bundle(bundle, frames, class_names=catalog.names)
        for kind in ("recursive", "unimodal_nonrecursive"):
            out = tmp_path / kind
            assert run_cli(
                "run", "--bundle", bundle, "--out", out,
                "--mesh-side", 0.5, "--mesh-extent", 1.0, "--estimator", kind,
            ) == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["frames_processed"] == 0
            assert summary["frames_skipped"] == 2
            assert summary["faces_with_estimate"] == 0

    def test_manifest_without_pose_is_one_error_line(self, sim_dir, tmp_path, capsys):
        import shutil

        broken = tmp_path / "nopose"
        shutil.copytree(sim_dir, broken)
        manifest = json.loads((broken / "manifest.json").read_text())
        del manifest["frames"][1]["pose"]
        (broken / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("run", "--bundle", broken, "--out", tmp_path / "out") == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'pose'" in err
        assert len(err.splitlines()) == 1

    def test_manifest_with_null_pose_is_one_error_line(self, sim_dir, tmp_path, capsys):
        import shutil

        broken = tmp_path / "nullpose"
        shutil.copytree(sim_dir, broken)
        manifest = json.loads((broken / "manifest.json").read_text())
        manifest["frames"][1]["pose"] = None
        (broken / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("run", "--bundle", broken, "--out", tmp_path / "out") == 2
        one_error_line(capsys)

    def test_timing_csv_schema(self, run_dir):
        with open(run_dir / "timing.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["frame", "project_s", "assign_s", "elevation_s", "semantics_s", "total_s"]
        assert len(rows) == 1 + 4

    def test_timing_rows_name_bundle_frames(self, sim_dir, tmp_path):
        # an invalid-flagged frame mid-bundle is skipped, and each later row
        # still names the frame it timed
        bundle = copy_bundle(sim_dir, tmp_path / "flagged", lambda m: m["frames"][1].update(valid=False))
        ids = [entry["frame_id"] for entry in json.loads((bundle / "manifest.json").read_text())["frames"]]
        out = tmp_path / "out"
        assert run_cli("run", "--bundle", bundle, "--out", out, "--mesh-side", 0.5, "--mesh-extent", 2.5) == 0
        with open(out / "timing.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [int(row[0]) for row in rows] == ids[:1] + ids[2:]
        assert json.loads((out / "summary.json").read_text())["frames_skipped"] == 1


@pytest.fixture(scope="module")
def eval_dir(sim_dir, run_dir, tmp_path_factory):
    base = tmp_path_factory.mktemp("evalset")
    paths = [run_dir / "estimates.bin"]
    for kind in ("multimodal_nonrecursive", "unimodal_nonrecursive"):
        out = base / kind
        assert run_cli(
            "run", "--bundle", sim_dir, "--out", out,
            "--mesh-side", 0.25, "--mesh-extent", 2.5, "--estimator", kind,
        ) == 0
        paths.append(out / "estimates.bin")
    report = base / "report"
    code = run_cli(
        "eval", "--truth", sim_dir / "truth.json", "--out", report, "--estimates", *paths
    )
    assert code == 0
    return report


class TestEval:
    def test_comparative_table(self, eval_dir):
        with open(eval_dir / "summary.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 4
        names = [r[0] for r in rows[1:]]
        assert names == ["recursive", "multimodal_nonrecursive", "unimodal_nonrecursive"]
        for name in names:
            assert (eval_dir / f"pr_low_{name}.csv").exists()
            assert (eval_dir / f"pr_high_{name}.csv").exists()

    def test_report_floats_are_shortest_round_trip(self, eval_dir, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        TestFitdist().write_log(logs / "ice.csv", 0.19, 2.0, n=500, seed=1, metadata_mass=True)
        assert run_cli("fitdist", "--logs", logs, "--out", tmp_path / "models.tsv") == 0
        not_float = {"estimator", "faces_known", "faces_total", "class", "best_family", "n"}
        for path in (eval_dir / "summary.csv", eval_dir / "pr_low_recursive.csv", tmp_path / "models.tsv.ks.csv"):
            with open(path, newline="") as fh:
                header, *rows = csv.reader(fh)
            assert rows, path
            for row in rows:
                for name, cell in zip(header, row):
                    if name not in not_float:
                        assert repr(float(cell)) == cell, (path.name, name, cell)

    def test_summary_text_includes_ordering(self, eval_dir):
        text = (eval_dir / "summary.txt").read_text()
        assert "ordering recursive-best-kl" in text
        assert "ordering recursive-best-ap-low" in text

    def test_scenario_mismatch_refused(self, run_dir, tmp_path, capsys):
        other = tmp_path / "other"
        assert run_cli("simulate", "--scenario", "ramp", "--seed", 5, "--out", other, "--frames", 2) == 0
        code = run_cli(
            "eval", "--truth", other / "truth.json", "--out", tmp_path / "r",
            "--estimates", run_dir / "estimates.bin",
        )
        assert code == 2
        assert "different scenario" in capsys.readouterr().err

    def test_mesh_mismatch_refused(self, sim_dir, run_dir, tmp_path, capsys):
        out = tmp_path / "coarser"
        assert run_cli(
            "run", "--bundle", sim_dir, "--out", out,
            "--mesh-side", 0.5, "--mesh-extent", 2.5,
        ) == 0
        code = run_cli(
            "eval", "--truth", sim_dir / "truth.json", "--out", tmp_path / "r2",
            "--estimates", run_dir / "estimates.bin", out / "estimates.bin",
        )
        assert code == 2
        assert "mesh configuration differs" in capsys.readouterr().err


    def test_world_without_low_friction_faces(self, tmp_path, capsys):
        # ramp-noisy's truth has high-friction faces only
        bundle = tmp_path / "bundle"
        assert run_cli("simulate", "--scenario", "ramp-noisy", "--seed", 2, "--frames", 4, "--out", bundle) == 0
        kinds = ("recursive", "multimodal_nonrecursive")
        for kind in kinds:
            assert run_cli(
                "run", "--bundle", bundle, "--out", tmp_path / kind,
                "--mesh-side", 0.25, "--mesh-extent", 2.5, "--estimator", kind,
            ) == 0
        capsys.readouterr()
        report = tmp_path / "report"
        code = run_cli(
            "eval", "--truth", bundle / "truth.json", "--out", report,
            "--estimates", *(tmp_path / kind / "estimates.bin" for kind in kinds),
        )
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        assert out.splitlines()[-1] == "ordering recursive-best-ap-low: n/a"
        with open(report / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["estimator"] for row in rows] == list(kinds)
        for row in rows:
            assert row["ap_low"] == "nan"
            for name in ("kl_mean", "kl_median", "ap_high", "accuracy"):
                assert np.isfinite(float(row[name])), name
        for kind in kinds:
            assert (report / f"pr_low_{kind}.csv").read_text() == "threshold,recall,precision\n"
            assert len((report / f"pr_high_{kind}.csv").read_text().splitlines()) > 1


class TestEstimatorComparison:
    """The CLI comparison (simulate, one run per estimator, eval) against the
    same comparison made in-process over one mapping pass."""

    def test_eval_summary_equals_in_process_reports(self, tmp_path, capsys):
        bundle = tmp_path / "bundle"
        assert run_cli(
            "simulate", "--scenario", "two-class-split-noisy", "--seed", 7, "--out", bundle, "--frames", 6
        ) == 0
        mesh_flags = ["--mesh-side", 0.25, "--mesh-extent", 2.5]
        paths = []
        for kind in EstimatorKind:
            out = tmp_path / kind.value
            assert run_cli("run", "--bundle", bundle, "--out", out, *mesh_flags, "--estimator", kind.value) == 0
            paths.append(out / "estimates.bin")
        capsys.readouterr()
        report_dir = tmp_path / "report"
        assert run_cli("eval", "--truth", bundle / "truth.json", "--out", report_dir, "--estimates", *paths) == 0
        printed = capsys.readouterr().out
        assert "ordering recursive-best-kl: " in printed and "ordering recursive-best-ap-low: " in printed
        with open(report_dir / "summary.csv", newline="") as fh:
            header, *rows = csv.reader(fh)

        truth = json.loads((bundle / "truth.json").read_text())
        world = world_from_dict(truth["world"])
        models = [PropertyModel(m["name"], m["mu"], m["sigma"]) for m in truth["models"]]
        manifest, frames = read_bundle(bundle)
        mesh = init_mesh(MeshConfig(0.25, 2.5, manifest["num_classes"]))
        mapper = Mapper(mesh, PipelineConfig()).run(frames)
        centroids = mesh.face_centroids()
        truth_classes = world.class_map.classify(centroids[:, 0], centroids[:, 1])
        assert [row[0] for row in rows] == [kind.value for kind in EstimatorKind]
        for kind, row in zip(EstimatorKind, rows):
            estimates = estimate_properties(mesh, kind, models, mapper.last_scores)
            report = evaluate_estimator(kind.value, estimates, truth_classes, models)
            for name, cell in zip(header[1:], row[1:]):
                assert float(cell) == getattr(report, name), (kind.value, name)


def one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1, err
    return err


def rewrite_estimates(src, dst, **changes):
    """Copy an estimates file, replacing header fields and arrays."""
    header, arrays = read_arrays(src)
    for name, value in changes.items():
        if name in arrays:
            arrays[name] = value(arrays[name])
        else:
            header[name] = value(header[name])
    write_arrays(dst, header, arrays)
    return dst


@pytest.mark.parametrize("score_mode", ["soft", "soft_jitter"])
def test_every_known_estimate_row_builds_a_mixture(tmp_path, score_mode):
    # the multimodal rows are means of float32 scores: they sum to one only
    # to float32 precision, and an estimates file holds them
    doc = world_to_dict(scenario_library()["two-class-split-noisy"])
    doc["noise"].update(score_mode=score_mode, jitter_kappa=50.0)
    (tmp_path / "world.json").write_text(json.dumps(doc))
    bundle, run = tmp_path / "bundle", tmp_path / "run"
    assert run_cli("simulate", "--spec", tmp_path / "world.json", "--seed", 3, "--frames", 4, "--out", bundle) == 0
    assert run_cli(
        "run", "--bundle", bundle, "--out", run, "--mesh-side", 0.25, "--mesh-extent", 2.5,
        "--estimator", "multimodal_nonrecursive",
    ) == 0
    _, estimates = load_estimates(run / "estimates.bin")
    _, models = load_default_models()
    assert estimates.ids.size > 400
    for row in estimates.known_weights:
        PropertyMixture(row, models)


class TestEvalInputs:
    def eval_one(self, sim_dir, estimates, tmp_path, truth=None):
        return run_cli(
            "eval", "--truth", truth or sim_dir / "truth.json", "--out", tmp_path / "report",
            "--estimates", estimates,
        )

    @pytest.mark.parametrize(
        "changes",
        [
            {"weights": lambda w: w[:-1]},
            {"weights": lambda w: w[:, :-1]},
            {"known": lambda k: k.reshape(-1, 1)},
            {"num_classes": lambda k: k + 1},
        ],
        ids=["weights-rows", "weights-classes", "known-2d", "header-classes"],
    )
    def test_estimate_arrays_disagreeing_with_header(self, sim_dir, run_dir, tmp_path, capsys, changes):
        bad = rewrite_estimates(run_dir / "estimates.bin", tmp_path / "bad.bin", **changes)
        capsys.readouterr()
        assert self.eval_one(sim_dir, bad, tmp_path) == 2
        assert "bad.bin" in one_error_line(capsys)

    def test_estimates_without_weights(self, sim_dir, run_dir, tmp_path, capsys):
        header, arrays = read_arrays(run_dir / "estimates.bin")
        write_arrays(tmp_path / "noweights.bin", header, {"known": arrays["known"]})
        capsys.readouterr()
        assert self.eval_one(sim_dir, tmp_path / "noweights.bin", tmp_path) == 2
        assert "'weights'" in one_error_line(capsys)

    def test_face_count_disagreeing_with_mesh(self, sim_dir, run_dir, tmp_path, capsys):
        bad = rewrite_estimates(
            run_dir / "estimates.bin", tmp_path / "short.bin",
            known=lambda k: k[:-3], weights=lambda w: w[:-3],
        )
        capsys.readouterr()
        assert self.eval_one(sim_dir, bad, tmp_path) == 2
        assert "faces" in one_error_line(capsys)

    def test_truth_model_count_disagreeing_with_classes(self, sim_dir, run_dir, tmp_path, capsys):
        doc = json.loads((sim_dir / "truth.json").read_text())
        doc["models"] = doc["models"][:-1]
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self.eval_one(sim_dir, run_dir / "estimates.bin", tmp_path, truth=truth) == 2
        assert "models" in one_error_line(capsys)

    def test_world_class_count_disagreeing_with_models(self, sim_dir, run_dir, tmp_path, capsys):
        # the world's classes are checked against its own model list, so a
        # region of class 11 never indexes past the 10 models
        doc = json.loads((sim_dir / "truth.json").read_text())
        doc["world"]["num_classes"] = 12
        doc["world"]["class_map"]["regions"][0]["class_index"] = 11
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self.eval_one(sim_dir, run_dir / "estimates.bin", tmp_path, truth=truth) == 2
        line = one_error_line(capsys)
        assert "num_classes" in line and "10 models" in line

    @pytest.mark.parametrize(
        "path, value",
        [
            (("world", "heightfield"), DELETE),
            (("models", 0, "mu"), DELETE),
            (("world", "intrinsics", "fx"), "a"),
            (("world", "class_map", "regions", 0, "class_index"), 99),
            (("world",), None),
        ],
        ids=["no-heightfield", "model-without-mu", "text-fx", "class-index-99", "null-world"],
    )
    def test_malformed_truth_is_one_error_line(self, sim_dir, run_dir, tmp_path, capsys, path, value):
        doc = edit_json(json.loads((sim_dir / "truth.json").read_text()), path, value)
        truth = tmp_path / "truth.json"
        truth.write_text(json.dumps(doc))
        capsys.readouterr()
        assert self.eval_one(sim_dir, run_dir / "estimates.bin", tmp_path, truth=truth) == 2
        one_error_line(capsys)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda meta: meta.pop("arrays"),
            lambda meta: meta.pop("header"),
            lambda meta: meta["arrays"][0].pop("name"),
            lambda meta: meta["arrays"][0].pop("dtype"),
            lambda meta: meta["arrays"][1].pop("shape"),
            lambda meta: meta["arrays"][0].update(dtype="not-a-dtype"),
            lambda meta: meta["arrays"][0].update(dtype="|O"),
            lambda meta: meta["arrays"][1].update(shape=[10**15, 10]),
            lambda meta: meta.update(header=[1, 2]),
            lambda meta: meta.update(arrays=7),
            lambda meta: meta["header"].pop("estimator"),
            lambda meta: meta["header"].update(center=None),
            lambda meta: meta["header"].update(side_length_m="x"),
            lambda meta: meta["header"].update(side_length_m=5e-324),
            lambda meta: meta["header"].update(side_length_m=1e308, half_extent_m=1e308),
        ],
        ids=[
            "no-arrays", "no-header", "no-name", "no-dtype", "no-shape", "bad-dtype",
            "object-dtype", "huge-shape", "header-list", "arrays-int",
            "no-estimator", "null-center", "text-side-length", "subnormal-side-length", "overflowing-window",
        ],
    )
    def test_malformed_container_header(self, sim_dir, run_dir, tmp_path, capsys, corrupt):
        raw = (run_dir / "estimates.bin").read_bytes()
        magic, meta_line, body = raw.split(b"\n", 2)
        meta = json.loads(meta_line)
        corrupt(meta)
        bad = tmp_path / "corrupt.bin"
        bad.write_bytes(magic + b"\n" + json.dumps(meta).encode() + b"\n" + body)
        capsys.readouterr()
        assert self.eval_one(sim_dir, bad, tmp_path) == 2
        assert "corrupt.bin" in one_error_line(capsys)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda w: np.r_[np.nan, w[1:]],
            lambda w: np.r_[np.inf, w[1:]],
            lambda w: np.r_[-0.5, 1.5, np.zeros(w.size - 2)],
            lambda w: 3.0 * w,
            lambda w: 0.0 * w,
        ],
        ids=["nan", "inf", "negative", "tripled", "all-zero"],
    )
    def test_known_row_not_a_probability_vector(self, sim_dir, run_dir, tmp_path, capsys, edit):
        header, arrays = read_arrays(run_dir / "estimates.bin")
        face = int(np.flatnonzero(arrays["known"])[3])
        weights = arrays["weights"].copy()
        weights[face] = edit(weights[face])
        write_arrays(tmp_path / "bad.bin", header, {**arrays, "weights": weights})
        capsys.readouterr()
        assert self.eval_one(sim_dir, tmp_path / "bad.bin", tmp_path) == 2
        line = one_error_line(capsys)
        assert "bad.bin" in line and f"face {face} " in line

    def test_known_byte_other_than_0_or_1(self, sim_dir, run_dir, tmp_path, capsys):
        header, arrays = read_arrays(run_dir / "estimates.bin")
        arrays["known"][np.flatnonzero(arrays["known"])[0]] = 2
        write_arrays(tmp_path / "bad.bin", header, arrays)
        capsys.readouterr()
        assert self.eval_one(sim_dir, tmp_path / "bad.bin", tmp_path) == 2
        assert "bad.bin: known holds a byte other than 0 or 1" in one_error_line(capsys)
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize(
        "name, dtype", [("weights", "|V8"), ("weights", "<i8"), ("known", "|b1")], ids=["void", "int", "bool"]
    )
    def test_array_of_another_dtype(self, sim_dir, run_dir, tmp_path, capsys, name, dtype):
        # the manifest relabelled, the bytes kept
        magic, meta, data = (run_dir / "estimates.bin").read_bytes().split(b"\n", 2)
        meta = json.loads(meta)
        next(entry for entry in meta["arrays"] if entry["name"] == name)["dtype"] = dtype
        (tmp_path / "bad.bin").write_bytes(b"\n".join([magic, json.dumps(meta).encode(), data]))
        capsys.readouterr()
        assert self.eval_one(sim_dir, tmp_path / "bad.bin", tmp_path) == 2
        line = one_error_line(capsys)
        assert "bad.bin" in line and f"array {name!r} has dtype {dtype}" in line

    @pytest.mark.parametrize("estimator", ["a/b", "..", ""], ids=["slash", "dots", "empty"])
    def test_estimator_outside_the_kinds(self, sim_dir, run_dir, tmp_path, capsys, estimator):
        # the estimator names report files, so only the three kinds may pass
        bad = rewrite_estimates(run_dir / "estimates.bin", tmp_path / "bad.bin", estimator=lambda _: estimator)
        capsys.readouterr()
        assert self.eval_one(sim_dir, bad, tmp_path) == 2
        line = one_error_line(capsys)
        assert "bad.bin" in line and "'estimator'" in line
        assert not (tmp_path / "report").exists()

    def test_two_files_of_one_estimator(self, sim_dir, run_dir, tmp_path, capsys):
        # their report rows and precision-recall files would share one name
        twin = tmp_path / "twin.bin"
        twin.write_bytes((run_dir / "estimates.bin").read_bytes())
        capsys.readouterr()
        code = run_cli(
            "eval", "--truth", sim_dir / "truth.json", "--out", tmp_path / "report",
            "--estimates", run_dir / "estimates.bin", twin,
        )
        assert code == 2
        line = one_error_line(capsys)
        assert "twin.bin" in line and "'recursive'" in line
        assert not (tmp_path / "report").exists()


class TestFitdist:
    def write_log(self, path, mu, mass, n=6000, noise=0.05, seed=0, metadata_mass=False):
        rng = np.random.default_rng(seed)
        t = np.arange(n) * 0.01
        force = mu * mass * GRAVITY + rng.normal(0.0, noise * mass * GRAVITY, size=n)
        lines = []
        if metadata_mass:
            lines.append(f"# mass_kg={mass}")
        lines.append("t_seconds,force_newtons")
        lines.extend(f"{ti},{fi}" for ti, fi in zip(t, force))
        path.write_text("\n".join(lines) + "\n")

    def test_synthetic_gaussian_logs(self, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        self.write_log(logs / "ice.csv", 0.19, 2.0, seed=1, metadata_mass=True)
        self.write_log(logs / "concrete.csv", 0.54, 2.0, seed=2, metadata_mass=True)
        out = tmp_path / "models.tsv"
        assert run_cli("fitdist", "--logs", logs, "--out", out, "--cutoff", 8.0) == 0
        catalog, models = load_models(out)
        assert catalog.names == ("concrete", "ice")  # sorted file order
        by_name = {m.class_name: m for m in models}
        assert by_name["ice"].mu == pytest.approx(0.19, abs=0.01)
        assert by_name["concrete"].mu == pytest.approx(0.54, abs=0.01)
        ks_rows = list(csv.reader(open(str(out) + ".ks.csv")))
        assert ks_rows[0][:2] == ["class", "best_family"]
        assert all(r[1] == "gaussian" for r in ks_rows[1:])

    def test_mass_flag(self, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        self.write_log(logs / "wood.csv", 0.37, 3.0, seed=3)
        out = tmp_path / "m.tsv"
        assert run_cli("fitdist", "--logs", logs, "--out", out, "--mass", 3.0) == 0
        _, models = load_models(out)
        assert models[0].mu == pytest.approx(0.37, abs=0.01)

    def test_missing_mass_is_error(self, tmp_path, capsys):
        logs = tmp_path / "logs"
        logs.mkdir()
        self.write_log(logs / "wood.csv", 0.37, 3.0, seed=3)
        assert run_cli("fitdist", "--logs", logs, "--out", tmp_path / "m.tsv") == 2
        assert "mass" in capsys.readouterr().err

    def test_short_row_is_one_error_line(self, tmp_path, capsys):
        logs = tmp_path / "logs"
        logs.mkdir()
        path = logs / "wood.csv"
        path.write_text("# mass_kg=3.0\nt_seconds,force_newtons\n0.0,9.5\n0.01\n0.02,9.4\n")
        capsys.readouterr()
        assert run_cli("fitdist", "--logs", logs, "--out", tmp_path / "m.tsv") == 2
        err = one_error_line(capsys)
        assert "wood.csv" in err and "row 4" in err

    def test_long_row_is_one_error_line(self, tmp_path, capsys):
        # a third cell is refused, not dropped
        logs = tmp_path / "logs"
        logs.mkdir()
        rows = "".join(f"{0.01 * i!r},{9.5 + 0.01 * (i % 7)!r}\n" for i in range(1, 100))
        (logs / "wood.csv").write_text("t_seconds,force_newtons\n0.0,1.0,2.0\n" + rows)
        capsys.readouterr()
        assert run_cli("fitdist", "--logs", logs, "--out", tmp_path / "m.tsv", "--mass", 2.0) == 2
        err = one_error_line(capsys)
        assert "wood.csv" in err and "row 2: expected 2 cells" in err and "got 3" in err

    @pytest.mark.parametrize(
        "text, row",
        [
            ("# mass_kg=3.0\nt_seconds,force_newtons\n0.0,9.5\n0.01,abc\n", "row 4"),
            ("# mass_kg=3.0\nt_seconds,force_newtons\nzero,9.5\n", "row 3"),
            ("# mass_kg=three\nt_seconds,force_newtons\n0.0,9.5\n", "row 1"),
        ],
        ids=["force", "time", "mass"],
    )
    def test_non_numeric_cell_is_one_error_line(self, tmp_path, capsys, text, row):
        logs = tmp_path / "logs"
        logs.mkdir()
        (logs / "wood.csv").write_text(text)
        capsys.readouterr()
        assert run_cli("fitdist", "--logs", logs, "--out", tmp_path / "m.tsv") == 2
        err = one_error_line(capsys)
        assert "wood.csv" in err and row in err and "not a number" in err

    @pytest.mark.parametrize(
        "mass, cell, rows, message",
        [
            ("3.0", "nan", 40, "finite"),
            ("3.0", "-Infinity", 40, "finite"),
            ("3.0", "9" * 200_000, 40, "field limit"),
            ("inf", "9.5", 40, "zero spread"),
            ("3.0", "9.5", 3, "at least 30 samples"),
        ],
        ids=["nan-force", "minus-inf-force", "huge-cell", "infinite-mass", "three-samples"],
    )
    def test_fault_names_the_file(self, tmp_path, capsys, mass, cell, rows, message):
        logs = tmp_path / "logs"
        logs.mkdir()
        samples = "".join(f"{0.01 * i!r},{9.4 + 0.1 * (i % 3)!r}\n" for i in range(1, rows))
        (logs / "wood.csv").write_text(f"# mass_kg={mass}\nt_seconds,force_newtons\n0.0,{cell}\n" + samples)
        capsys.readouterr()
        assert run_cli("fitdist", "--logs", logs, "--out", tmp_path / "m.tsv") == 2
        err = one_error_line(capsys)
        assert "wood.csv" in err and message in err

    @pytest.mark.parametrize(
        "flag, value",
        [("--cutoff", "nan"), ("--cutoff", "inf"), ("--cutoff", 0), ("--cutoff", -1),
         ("--mass", "nan"), ("--mass", -2)],
        ids=["nan-cutoff", "inf-cutoff", "zero-cutoff", "negative-cutoff", "nan-mass", "negative-mass"],
    )
    def test_malformed_flag_is_one_error_line(self, tmp_path, capsys, flag, value):
        # checked before any log is read: the logs directory does not exist
        capsys.readouterr()
        out = tmp_path / "m.tsv"
        assert run_cli("fitdist", "--logs", tmp_path / "missing", "--out", out, flag, value) == 2
        assert flag in one_error_line(capsys)
        assert not out.exists()

    def test_empty_dir_is_error(self, tmp_path, capsys):
        logs = tmp_path / "empty"
        logs.mkdir()
        assert run_cli("fitdist", "--logs", logs, "--out", tmp_path / "m.tsv") == 2
        assert "error:" in capsys.readouterr().err

    def test_output_roundtrips_through_loader(self, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        self.write_log(logs / "snow.csv", 0.39, 2.5, seed=4, metadata_mass=True)
        out = tmp_path / "m.tsv"
        assert run_cli("fitdist", "--logs", logs, "--out", out) == 0
        catalog, models = load_models(out)
        out2 = tmp_path / "m2.tsv"
        from terramesh.properties import save_models

        save_models(out2, models)
        assert out.read_bytes() == out2.read_bytes()


    @pytest.mark.parametrize(
        "names, fault",
        [(["ice_rink", "ice rink"], "duplicate class name 'ice rink'"), (["#grass"], "'#grass' would not read back")],
        ids=["underscore-twin", "comment-name"],
    )
    def test_class_names_a_model_file_cannot_hold(self, tmp_path, capsys, names, fault):
        logs = tmp_path / "logs"
        logs.mkdir()
        for seed, name in enumerate(names):
            self.write_log(logs / f"{name}.csv", 0.2 + 0.1 * seed, 2.0, seed=seed, metadata_mass=True)
        capsys.readouterr()
        assert run_cli("fitdist", "--logs", logs, "--out", tmp_path / "m.tsv") == 2
        assert fault in one_error_line(capsys)
        assert not (tmp_path / "m.tsv").exists()


class TestValidateAndBench:
    def test_validate_good(self, sim_dir, capsys):
        assert run_cli("validate", "--bundle", sim_dir) == 0
        assert "valid" in capsys.readouterr().out

    def test_validate_bad(self, sim_dir, tmp_path, capsys):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(sim_dir, broken)
        next(broken.glob("*.depth.f32")).unlink()
        assert run_cli("validate", "--bundle", broken) == 1
        assert "invalid:" in capsys.readouterr().out

    def test_validate_nan_scores(self, sim_dir, tmp_path, capsys):
        import shutil

        broken = tmp_path / "nan"
        shutil.copytree(sim_dir, broken)
        target = sorted(broken.glob("*.scores.f32"))[0]
        arr = np.fromfile(target, dtype="<f4")
        arr[:10] = np.nan
        arr.tofile(target)
        assert run_cli("validate", "--bundle", broken) == 1
        assert "not normalized" in capsys.readouterr().out

    def test_bench_writes_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert run_cli(
            "bench", "--out", out, "--trials", 3, "--sides", "0.08,0.16",
            "--extent", 0.48, "--frame", "60x40",
        ) == 0
        rows = list(csv.reader(open(out)))
        assert rows[0][0] == "side_length_m"
        assert len(rows) == 1 + 2 * 6  # two configs, six stages

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["bench", "--trials", 0], "--trials"),
            (["bench", "--frame", 40], "--frame"),
            (["bench", "--frame", "0x40"], "--frame"),
            (["bench", "--sides", "0.08,x"], "--sides"),
            (["bench", "--sides", "0.08,-0.16"], "--sides"),
            (["bench", "--extent", 0], "--extent"),
            (["simulate", "--scenario", "two-class-split", "--seed", 1, "--frames", 0], "--frames"),
        ],
        ids=["zero-trials", "one-number-frame", "zero-width-frame", "text-side", "negative-side", "zero-extent",
             "zero-frames"],
    )
    def test_malformed_flag_is_one_error_line(self, tmp_path, capsys, argv, flag):
        capsys.readouterr()
        assert run_cli(*argv, "--out", tmp_path / "out") == 2
        assert flag in one_error_line(capsys)
        assert not (tmp_path / "out").exists()


def copy_bundle(src, dst, corrupt=None):
    """Copy a bundle; ``corrupt(manifest)`` edits the manifest in place or
    returns a replacement for it."""
    import shutil

    shutil.copytree(src, dst)
    if corrupt is not None:
        manifest = json.loads((dst / "manifest.json").read_text())
        replaced = corrupt(manifest)
        (dst / "manifest.json").write_text(json.dumps(manifest if replaced is None else replaced))
    return dst


MALFORMED_MANIFESTS = pytest.mark.parametrize(
    "corrupt",
    [
        lambda m: [m],
        lambda m: m.update(frames=[1]),
        lambda m: m.update(frames=None),
        lambda m: m.update(class_names=3),
        lambda m: m.update(width="x"),
        lambda m: m.update(width=2.5),
        lambda m: m.update(num_classes=0),
        lambda m: m["frames"][0].update(frame_id="abc"),
        lambda m: m["frames"][0].update(valid="no"),
        lambda m: m["frames"][0].update(depth_file=None),
        lambda m: m["frames"][0].update(depth_file="/abs/outside.f32"),
        # the copy's own depth file, named from outside the bundle
        lambda m: m["frames"][1].update(depth_file="../broken/" + m["frames"][1]["depth_file"]),
        lambda m: m["frames"][0]["pose"].update(rotation=[1.0, 0.0, 0.0]),
        # an integer too large for a float
        lambda m: m["frames"][0].update(timestamp=10**400),
    ],
    ids=[
        "top-level-list", "frames-of-ints", "null-frames", "int-class-names", "text-width",
        "fractional-width", "no-classes", "text-frame-id", "text-valid", "null-depth-file",
        "absolute-depth-file", "parent-relative-depth-file",
        "short-rotation", "huge-int-timestamp",
    ],
)


class TestBundleReader:
    """``run`` and ``validate`` read a bundle through the same checks."""

    @MALFORMED_MANIFESTS
    def test_run_refuses_malformed_manifest(self, sim_dir, tmp_path, capsys, corrupt):
        broken = copy_bundle(sim_dir, tmp_path / "broken", corrupt)
        capsys.readouterr()
        assert run_cli("run", "--bundle", broken, "--out", tmp_path / "out") == 2
        one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    @MALFORMED_MANIFESTS
    def test_validate_reports_malformed_manifest(self, sim_dir, tmp_path, capsys, corrupt):
        broken = copy_bundle(sim_dir, tmp_path / "broken", corrupt)
        capsys.readouterr()
        assert run_cli("validate", "--bundle", broken) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines and all(line.startswith("invalid: ") for line in lines)

    def test_validate_holds_class_names_to_the_catalog_run_uses(self, sim_dir, tmp_path, capsys):
        from terramesh.properties import save_models

        renamed = copy_bundle(sim_dir, tmp_path / "renamed", lambda m: m["class_names"].__setitem__(3, "x"))
        capsys.readouterr()
        assert run_cli("validate", "--bundle", renamed) == 1
        assert capsys.readouterr().out == "invalid: bundle class names disagree with the model catalog\n"
        assert run_cli("run", "--bundle", renamed, "--out", tmp_path / "out") == 2
        assert "class names disagree" in one_error_line(capsys)
        # a catalog that carries the new name passes both, given to each as --models
        names = json.loads((renamed / "manifest.json").read_text())["class_names"]
        models = [PropertyModel(name, m.mu, m.sigma) for name, m in zip(names, load_default_models()[1])]
        save_models(tmp_path / "models.tsv", models)
        assert run_cli("validate", "--bundle", renamed, "--models", tmp_path / "models.tsv") == 0
        assert run_cli(
            "run", "--bundle", renamed, "--out", tmp_path / "out", "--models", tmp_path / "models.tsv",
            "--mesh-side", 0.5, "--mesh-extent", 2.5,
        ) == 0
        # the shipped bundle fails against that catalog, with one issue line
        capsys.readouterr()
        assert run_cli("validate", "--bundle", sim_dir, "--models", tmp_path / "models.tsv") == 1
        assert capsys.readouterr().out == "invalid: bundle class names disagree with the model catalog\n"

    def test_repeated_frame_id_is_one_fault(self, sim_dir, tmp_path, capsys):
        # frame 1 takes frame 0's id: it would map frame 1's data as a second frame 0
        repeated = copy_bundle(
            sim_dir, tmp_path / "repeated", lambda m: m["frames"][1].update(frame_id=m["frames"][0]["frame_id"])
        )
        capsys.readouterr()
        assert run_cli("validate", "--bundle", repeated) == 1
        assert capsys.readouterr().out == "invalid: bundle manifest frames[0] and frames[1] share frame_id 0\n"
        assert run_cli("run", "--bundle", repeated, "--out", tmp_path / "out") == 2
        assert "frames[0] and frames[1] share frame_id 0" in one_error_line(capsys)
        assert not (tmp_path / "out").exists()

    def test_validate_refuses_absolute_name_of_real_frame_file(self, sim_dir, tmp_path, capsys):
        target = sorted(sim_dir.glob("*.depth.f32"))[0].resolve()
        broken = copy_bundle(sim_dir, tmp_path / "abs", lambda m: m["frames"][0].update(depth_file=str(target)))
        capsys.readouterr()
        assert run_cli("validate", "--bundle", broken) == 1
        assert "plain file name" in capsys.readouterr().out

    def test_validate_reports_intrinsics_disagreeing_with_image(self, sim_dir, tmp_path, capsys):
        broken = copy_bundle(
            sim_dir, tmp_path / "wide", lambda m: m["intrinsics"].update(width=m["width"] + 2)
        )
        capsys.readouterr()
        assert run_cli("validate", "--bundle", broken) == 1
        assert "image size disagrees with intrinsics" in capsys.readouterr().out

    def test_truncated_last_frame_stops_run_without_output(self, sim_dir, tmp_path, capsys):
        broken = copy_bundle(sim_dir, tmp_path / "trunc")
        last = sorted(broken.glob("*.scores.f32"))[-1]
        last.write_bytes(last.read_bytes()[:-8])
        capsys.readouterr()
        out = tmp_path / "out"
        assert run_cli("run", "--bundle", broken, "--out", out, "--mesh-side", 0.25, "--mesh-extent", 2.5) == 2
        assert last.name in one_error_line(capsys)
        assert not out.exists()

    def test_run_memory_does_not_grow_with_stream_length(self, sim_dir, tmp_path):
        import tracemalloc

        # the same four frames listed ten times over, each entry with its own id
        relisted = lambda m: m.update(frames=[{**e, "frame_id": i} for i, e in enumerate(m["frames"] * 10)])
        long_bundle = copy_bundle(sim_dir, tmp_path / "long", relisted)
        mesh = ["--mesh-side", 0.25, "--mesh-extent", 2.5]
        assert run_cli("run", "--bundle", sim_dir, "--out", tmp_path / "warm", *mesh) == 0
        peaks = []
        for bundle in (sim_dir, long_bundle):
            tracemalloc.start()
            try:
                assert run_cli("run", "--bundle", bundle, "--out", tmp_path / f"out-{bundle.name}", *mesh) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert json.loads((tmp_path / "out-long" / "summary.json").read_text())["frames_processed"] == 40
        assert peaks[1] < 1.25 * peaks[0], peaks


def leaf_paths(doc, path=()):
    """Key paths of every number, string, null and empty container in ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    paths = [p for key, value in items for p in leaf_paths(value, (*path, key))]
    return paths or [path]


def small_world():
    """A one-frame 16x12 world with a ramp patch, a class region and every noise kind."""
    doc = world_to_dict(scenario_library()["two-class-split"])
    doc["intrinsics"] = {"fx": 12.0, "fy": 12.0, "cx": 7.5, "cy": 5.5, "width": 16, "height": 12}
    doc["trajectory"] = doc["trajectory"][:1]
    doc["heightfield"]["patches"] = [{"kind": "ramp", "params": dict(RAMP), "region": [0.0, 10.0, -10.0, 10.0]}]
    doc["noise"] = {
        "depth_abc": [0.001, 0.0, 0.0019], "confusion": None, "score_mode": "soft_jitter",
        "jitter_kappa": 50.0, "pose_rot_cov": (np.eye(3) * 2.5e-7).reshape(-1).tolist(),
    }
    return doc


RUN_CONFIG = {
    "estimator": "recursive", "update_mode": "soft", "mesh_side": 0.5, "mesh_extent": 2.5, "models": None,
    "noise": [0.001, 0.0, 0.0019], "pose_cov": [1e-6, 1e-6, 1e-6], "recenter": False,
}
MUTATIONS = [DELETE, None, "x", float("nan"), -1, 0, [], {}]
# a force-log row cut at the mutated cell, and the mutated cell repeated
CUT_ROW, REPEAT_CELL = object(), object()
# bytes that are not UTF-8, text that is not JSON, and JSON nested too deep to decode
NOT_JSON = {"not-utf8": b"\xff{}", "not-json": b"{bad", "too-deep": b"[" * 100_000}


class TestMutatedInputs:
    """One leaf of a valid world spec, run config, bundle manifest, ground
    truth or estimates header, or one cell of a force log, deleted or
    replaced: the command either succeeds with valid output or ends with one
    error line (``validate`` lists the bundle's faults instead)."""

    @staticmethod
    def streams(*argv):
        """``(exit code, stdout lines, stderr text)`` of one command."""
        import contextlib
        import io

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = run_cli(*argv)
        return code, out.getvalue().splitlines(), err.getvalue()

    @staticmethod
    def split_container(path):
        """``(magic line, manifest, array bytes)`` of a binary container."""
        magic, meta, data = path.read_bytes().split(b"\n", 2)
        return magic, json.loads(meta), data

    @pytest.mark.parametrize("target", ["spec", "config", "manifest", "truth", "estimates-header"])
    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def test_one_leaf_mutated(self, sim_dir, run_dir, target, data):
        import tempfile

        if target == "spec":
            doc = small_world()
        elif target == "config":
            doc = json.loads(json.dumps(RUN_CONFIG))
        elif target == "truth":
            doc = json.loads((sim_dir / "truth.json").read_text())
        elif target == "estimates-header":
            doc = self.split_container(run_dir / "estimates.bin")[1]["header"]
        else:
            doc = json.loads((sim_dir / "manifest.json").read_text())
        # a manifest's leaves at the top level and in its first frame
        paths = [p for p in leaf_paths(doc) if target != "manifest" or p[0] != "frames" or p[1] == 0]
        path = data.draw(st.sampled_from(paths), label="path")
        doc = edit_json(doc, path, data.draw(st.sampled_from(MUTATIONS), label="value"))
        if target == "manifest" and data.draw(st.booleans(), label="repeat id"):
            # the last frame takes the first one's id as well
            doc["frames"][-1]["frame_id"] = doc["frames"][0].get("frame_id")
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "in.json").write_text(json.dumps(doc))
            out = tmp / "out"
            if target == "spec":
                argv = ["simulate", "--spec", tmp / "in.json", "--seed", 3, "--out", out]
            elif target == "config":
                argv = ["run", "--bundle", sim_dir, "--out", out, "--config", tmp / "in.json"]
            elif target == "truth":
                argv = ["eval", "--truth", tmp / "in.json", "--out", out, "--estimates", run_dir / "estimates.bin"]
            elif target == "estimates-header":
                magic, meta, arrays = self.split_container(run_dir / "estimates.bin")
                meta["header"] = doc
                (tmp / "in.bin").write_bytes(b"\n".join([magic, json.dumps(meta).encode(), arrays]))
                argv = ["eval", "--truth", sim_dir / "truth.json", "--out", out, "--estimates", tmp / "in.bin"]
            else:
                bundle = copy_bundle(sim_dir, tmp / "bundle", lambda _: doc)
                argv = ["run", "--bundle", bundle, "--out", out, "--mesh-side", 0.5, "--mesh-extent", 2.5]
                verdict, lines, err = self.streams("validate", "--bundle", bundle)
                assert err == ""
                if verdict == 0:
                    assert lines == ["bundle is valid"]
                else:
                    assert verdict == 1 and lines and all(line.startswith("invalid: ") for line in lines), lines
            code, _, err = self.streams(*argv)
            if target == "manifest":
                # what validate accepts, run accepts, and no more
                assert (verdict == 0) == (code == 0), (verdict, code, err)
            lines = err.splitlines()
            assert "Traceback" not in err
            if code == 0:
                assert lines == []
                if target == "spec":
                    assert validate_bundle(out) == []
                elif target in ("truth", "estimates-header"):
                    with open(out / "summary.csv", newline="") as fh:
                        assert len(list(csv.reader(fh))) == 2
                else:
                    load_map(out / "map.bin")
            else:
                assert code == 2 and len(lines) == 1 and lines[0].startswith("error:"), lines

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def test_one_force_cell_mutated(self, data):
        import tempfile

        rows = [["# mass_kg=2.0"], ["t_seconds", "force_newtons"]]
        rows += [[repr(0.01 * i), repr(0.4 * 2.0 * GRAVITY + 0.1 * (7 * i % 11 - 5))] for i in range(40)]
        row = rows[data.draw(st.integers(0, len(rows) - 1), label="row")]
        cell = data.draw(st.integers(0, len(row) - 1), label="cell")
        value = data.draw(st.sampled_from([*MUTATIONS, "", CUT_ROW, REPEAT_CELL]), label="value")
        if value is DELETE:
            del row[cell]
        elif value is CUT_ROW:
            del row[cell:]
        elif value is REPEAT_CELL:
            row.insert(cell, row[cell])
        else:
            row[cell] = value if isinstance(value, str) else json.dumps(value)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            (tmp / "logs").mkdir()
            (tmp / "logs" / "wood.csv").write_text("".join(",".join(r) + "\n" for r in rows))
            code, _, err = self.streams("fitdist", "--logs", tmp / "logs", "--out", tmp / "m.tsv")
            lines = err.splitlines()
            assert "Traceback" not in err
            if code == 0:
                assert lines == []
                load_models(tmp / "m.tsv")
            else:
                assert code == 2 and len(lines) == 1 and lines[0].startswith("error:"), lines

    @pytest.mark.parametrize(
        "target, content",
        [
            *(
                pytest.param(target, content, id=f"{target}-{name}")
                for target in ("spec", "config", "manifest", "truth")
                for name, content in NOT_JSON.items()
            ),
            pytest.param("models", b"\xff\tmodels", id="models-not-utf8"),
        ],
    )
    def test_unreadable_text_names_its_file(self, sim_dir, run_dir, tmp_path, target, content):
        """Bytes that are not UTF-8, or text that is not JSON, in any of the
        five text inputs: one error line naming the file, exit code 2
        (``validate`` lists a bad manifest as invalid, exit code 1)."""
        path = tmp_path / "in.txt"
        if target == "manifest":
            path = copy_bundle(sim_dir, tmp_path / "bundle") / "manifest.json"
        path.write_bytes(content)
        out = tmp_path / "out"
        if target == "spec":
            argv = ["simulate", "--spec", path, "--seed", 3, "--out", out]
        elif target == "config":
            argv = ["run", "--bundle", sim_dir, "--out", out, "--config", path]
        elif target == "truth":
            argv = ["eval", "--truth", path, "--out", out, "--estimates", run_dir / "estimates.bin"]
        elif target == "models":
            argv = ["run", "--bundle", sim_dir, "--out", out, "--models", path]
            code, _, err = self.streams("validate", "--bundle", sim_dir, "--models", path)
            assert code == 2 and err.startswith("error:") and len(err.splitlines()) == 1 and str(path) in err, err
        else:
            argv = ["run", "--bundle", path.parent, "--out", out]
            code, lines, err = self.streams("validate", "--bundle", path.parent)
            assert code == 1 and err == "" and len(lines) == 1, lines
            assert lines[0].startswith("invalid: ") and str(path) in lines[0], lines
        code, _, err = self.streams(*argv)
        assert code == 2 and err.startswith("error:") and len(err.splitlines()) == 1, err
        assert str(path) in err


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "terramesh", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        for sub in ("simulate", "run", "eval", "fitdist", "validate", "bench"):
            assert sub in proc.stdout

    @pytest.mark.parametrize(
        "sub", ["simulate", "run", "eval", "fitdist", "validate", "bench"]
    )
    def test_subcommand_help(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "--" in out


# every data command in one fresh interpreter, then the modules it loaded
NUMPY_ONLY_SCRIPT = """
import sys
from terramesh.cli import main

work = sys.argv[1]
bundle = work + "/bundle"
steps = [
    ["simulate", "--scenario", "two-class-split", "--seed", "5", "--out", bundle, "--frames", "2"],
    ["validate", "--bundle", bundle],
    ["run", "--bundle", bundle, "--out", work + "/run", "--mesh-side", "0.25", "--mesh-extent", "2.5"],
    ["eval", "--truth", bundle + "/truth.json", "--out", work + "/report", "--estimates", work + "/run/estimates.bin"],
    ["fitdist", "--logs", work + "/logs", "--out", work + "/models.tsv", "--mass", "2.0"],
]
for argv in steps:
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
print("scipy modules: " + " ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


# one command in a fresh interpreter, then whether it loaded the simulator and the evaluation code
LOADED_SCRIPT = """
import sys
from terramesh.cli import main

try:
    main(sys.argv[1:])
finally:
    print(*("terramesh." + m in sys.modules for m in ("sim", "evaluation")))
"""


def fresh_interpreter(script, *args):
    import terramesh

    env = dict(os.environ, PYTHONPATH=str(Path(terramesh.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], capture_output=True, text=True, env=env
    )


class TestRuntimeDependencies:
    def test_commands_never_import_scipy(self, tmp_path):
        logs = tmp_path / "logs"
        logs.mkdir()
        TestFitdist().write_log(logs / "ice.csv", 0.19, 2.0, n=500, seed=1)
        proc = fresh_interpreter(NUMPY_ONLY_SCRIPT, tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "models.tsv").exists()
        assert proc.stdout.splitlines()[-1] == "scipy modules: "

    @pytest.mark.parametrize(
        "command, loaded",
        [
            ("--help", "False False"),
            ("validate", "False False"),
            ("run", "False False"),
            ("fitdist", "False False"),
            ("simulate", "True False"),
            ("eval", "True True"),
        ],
    )
    def test_command_loads_only_what_it_runs(self, sim_dir, run_dir, tmp_path, command, loaded):
        logs = tmp_path / "logs"
        logs.mkdir()
        TestFitdist().write_log(logs / "ice.csv", 0.19, 2.0, n=500, seed=1)
        argv = {
            "--help": [],
            "validate": ["--bundle", sim_dir],
            "run": ["--bundle", sim_dir, "--out", tmp_path / "run", "--mesh-side", 0.5, "--mesh-extent", 2.5],
            "fitdist": ["--logs", logs, "--out", tmp_path / "models.tsv", "--mass", 2.0],
            "simulate": ["--scenario", "two-class-split", "--seed", 5, "--frames", 1, "--out", tmp_path / "bundle"],
            "eval": ["--truth", sim_dir / "truth.json", "--out", tmp_path / "report", "--estimates", run_dir / "estimates.bin"],
        }[command]
        proc = fresh_interpreter(LOADED_SCRIPT, command, *argv)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == loaded


# the package namespace: each public name and the module that defines it
PUBLIC_NAMES = {
    "elevation": ["SensorNoiseModel", "height_variance", "kalman_update", "update_elevation"],
    "errors": ["TerrameshError"],
    "geometry": ["CameraIntrinsics", "Pose", "barycentric", "transform_to_map"],
    "mesh": ["Mesh", "MeshConfig", "face_lookup", "init_mesh", "recenter"],
    "pipeline": ["EstimatorKind", "FrameBundle", "Mapper", "PipelineConfig", "estimate_properties"],
    "properties": [
        "ForceLog", "PropertyMixture", "PropertyModel", "fit_and_select", "friction_from_force",
        "load_default_models", "load_models", "save_models",
    ],
    "semantics": ["ClassCatalog", "class_predictive", "dirichlet_update"],
    "sim": ["WorldSpec", "render_frames", "scenario_library"],
}


class TestPackageNamespace:
    def test_all_lists_each_public_name(self):
        import terramesh

        names = [name for group in PUBLIC_NAMES.values() for name in group]
        assert len(names) == 33
        assert sorted(terramesh.__all__) == sorted(names)

    @pytest.mark.parametrize("module, name", [(m, n) for m, group in PUBLIC_NAMES.items() for n in group])
    def test_name_is_its_modules_object(self, module, name):
        import importlib

        import terramesh

        assert getattr(terramesh, name) is getattr(importlib.import_module(f"terramesh.{module}"), name)

    def test_star_import(self):
        namespace = {}
        exec("from terramesh import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(n for group in PUBLIC_NAMES.values() for n in group)

    def test_submodules_and_unknown_names(self):
        import importlib

        import terramesh
        from terramesh import formats

        assert formats is importlib.import_module("terramesh.formats")
        with pytest.raises(AttributeError, match="no_such_name"):
            terramesh.no_such_name
