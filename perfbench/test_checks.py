"""Each output check of the benchmark passes on the program's real output and
fails on a deliberately perturbed one.

    PYTHONPATH=src python -m pytest -q perfbench/test_checks.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import worlds  # noqa: E402
from terramesh import cli  # noqa: E402
from terramesh.formats import write_arrays  # noqa: E402
from terramesh.mesh import MeshConfig, init_mesh  # noqa: E402
from terramesh.pipeline import EstimatorKind, Mapper, PipelineConfig, estimate_properties  # noqa: E402


def _stream(tmp, spec, side, extent, recenter, order):
    bundle = worlds.stream_bundle(spec, tmp / "cache")
    manifest, frames = cli.read_bundle(bundle)
    mapper = Mapper(init_mesh(MeshConfig(side, extent, manifest["num_classes"])), PipelineConfig(recenter=recenter))
    for i in order:
        assert mapper.process(frames[i])
    _, models = cli.load_models(None)
    cli.save_map(mapper.mesh, tmp / "map.bin", class_names=manifest["class_names"])
    cli.save_estimates(tmp / "est.bin", estimate_properties(mapper.mesh, EstimatorKind.RECURSIVE, models), mapper.mesh, "recursive", None)
    raw_manifest, raw = checks.read_bundle_raw(bundle)
    expected = checks.expected_stream_totals(raw, raw_manifest["intrinsics"], worlds.DEPTH_ABC, order, side, extent, (0.0, 0.0), recenter)
    return tmp / "map.bin", expected, (raw, raw_manifest)


def _perturbed(tmp, map_path, name, fn):
    header, arrays = checks.read_container(map_path)
    arrays = {k: np.array(v) for k, v in arrays.items()}
    fn(arrays[name])
    out = tmp / f"perturbed-{name}.bin"
    write_arrays(out, header, arrays)
    return out


@pytest.fixture(scope="module")
def small_stream(tmp_path_factory):
    """A few walkthrough frames on a window smaller than their footprint."""
    tmp = tmp_path_factory.mktemp("stream")
    spec = worlds.walkthrough_spec(3)
    spec = replace(spec, trajectory=spec.trajectory[:6])
    return tmp, _stream(tmp, spec, 0.1, 1.5, False, [0, 1, 2, 3, 4, 5, 0])


@pytest.fixture(scope="module")
def recentering_stream(tmp_path_factory):
    """A sweep whose window moves, so parts of the map leave it."""
    tmp = tmp_path_factory.mktemp("recenter")
    spec = worlds.robot_spec(4)
    spec = replace(spec, trajectory=spec.trajectory[:20])
    order = list(range(20)) + list(range(18, 9, -1))
    return tmp, _stream(tmp, spec, 0.05, 1.5, True, order)


def test_map_totals_pass_on_program_output(small_stream, recentering_stream):
    for _, (map_path, expected, _) in (small_stream, recentering_stream):
        assert checks.check_map_totals(map_path, expected) == []


@pytest.mark.parametrize(
    "name, perturb",
    [
        # one extra point's worth of evidence on one face
        ("alpha", lambda a: a.__setitem__((np.argmax(a.sum(axis=1)), 0), a[np.argmax(a.sum(axis=1)), 0] + 1.0)),
        # a 1 % variance error, or a 0.1 mm height error, at one vertex
        ("z_var", lambda a: a.__setitem__(np.argmax(a), a.max() * 1.01)),
        ("z_mean", lambda a: a.__setitem__(np.argmax(np.abs(a)), a[np.argmax(np.abs(a))] + 1e-4)),
    ],
)
def test_map_totals_fail_on_perturbed_map(small_stream, name, perturb):
    tmp, (map_path, expected, _) = small_stream
    assert checks.check_map_totals(_perturbed(tmp, map_path, name, perturb), expected)


def test_recentering_restriction_is_needed(recentering_stream):
    """Totals that ignore which cells left the window must not match."""
    _, (map_path, expected, (raw, manifest)) = recentering_stream
    assert checks.check_map_totals(map_path, expected) == []
    order = list(range(20)) + list(range(18, 9, -1))
    unrestricted = checks.expected_stream_totals(raw, manifest["intrinsics"], worlds.DEPTH_ABC, order, 0.05, 1.5, (0.0, 0.0), False)
    assert checks.check_map_totals(map_path, unrestricted)


def test_map_totals_fail_on_a_lost_frame(small_stream):
    tmp, (map_path, _, (raw, manifest)) = small_stream
    fewer = checks.expected_stream_totals(raw, manifest["intrinsics"], worlds.DEPTH_ABC, [0, 1, 2, 3, 4, 5], 0.1, 1.5, (0.0, 0.0), False)
    assert checks.check_map_totals(map_path, fewer)


@pytest.fixture(scope="module")
def walkthrough(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("walk")
    from terramesh.sim import world_to_dict

    spec = worlds.walkthrough_spec(5)
    (tmp / "world.json").write_text(json.dumps(world_to_dict(spec)), encoding="utf-8")
    bundle = tmp / "bundle"
    assert cli.main(["simulate", "--spec", str(tmp / "world.json"), "--seed", "5", "--out", str(bundle), "--frames", "12"]) == 0
    est = {}
    for kind, d in (("recursive", "rec"), ("multimodal_nonrecursive", "mm")):
        assert cli.main(["run", "--bundle", str(bundle), "--out", str(tmp / d), "--mesh-side", "0.25", "--mesh-extent", "2.5", "--estimator", kind]) == 0
        est[kind] = tmp / d / "estimates.bin"
    assert cli.main(["eval", "--truth", str(bundle / "truth.json"), "--out", str(tmp / "report"), "--estimates", *map(str, est.values())]) == 0
    truth = json.loads((bundle / "truth.json").read_text(encoding="utf-8"))
    return tmp, est, truth


def test_eval_check_passes_and_catches_a_wrong_kl(walkthrough):
    tmp, est, truth = walkthrough
    summary = tmp / "report" / "summary.csv"
    assert checks.check_eval(summary, est, truth) == []
    lines = summary.read_text(encoding="utf-8").splitlines()
    head, *rows = lines
    row = rows[0].split(",")
    row[1] = repr(float(row[1]) * (1 + 1e-5))
    bad = tmp / "bad_summary.csv"
    bad.write_text("\n".join([head, ",".join(row), *rows[1:]]) + "\n", encoding="utf-8")
    assert checks.check_eval(bad, est, truth)


def test_eval_check_catches_a_baseline_ahead_of_the_recursive_estimator(walkthrough):
    tmp, est, truth = walkthrough
    header, arrays = checks.read_container(est["recursive"])
    arrays = {k: np.array(v) for k, v in arrays.items()}
    w = arrays["weights"][arrays["known"].astype(bool)]
    arrays["weights"][arrays["known"].astype(bool)] = np.roll(w, 1, axis=1)  # evidence on the wrong classes
    worse = tmp / "worse.bin"
    write_arrays(worse, header, arrays)
    issues = checks.check_eval(tmp / "report" / "summary.csv", {**est, "recursive": worse}, truth)
    assert any("does not beat" in m for m in issues)


def test_frames_processed_check(walkthrough):
    tmp, _, _ = walkthrough
    summary = tmp / "rec" / "summary.json"
    assert checks.check_frames_processed(summary, 12) == []
    assert checks.check_frames_processed(summary, 13)


def test_fitdist_check(tmp_path):
    logs = tmp_path / "logs"
    worlds.write_force_logs(logs, 9)
    model = tmp_path / "models.tsv"
    assert cli.main(["fitdist", "--logs", str(logs), "--out", str(model)]) == 0
    args = (worlds.FORCE_CLASSES, worlds.FORCE_SAMPLES, worlds.FORCE_RATE_HZ, worlds.FORCE_CUTOFF_HZ)
    assert checks.check_fitdist(model, *args) == []

    lines = model.read_text(encoding="utf-8").splitlines()
    name, mu, sigma = lines[2].split("\t")
    se = worlds.FORCE_CLASSES[0][2] / worlds.FORCE_SAMPLES**0.5
    for bad_mu, bad_sigma in ((float(mu) + 4 * se, float(sigma)), (float(mu), float(sigma) * 1.15)):
        bad = tmp_path / "bad.tsv"
        bad.write_text("\n".join(lines[:2] + [f"{name}\t{bad_mu!r}\t{bad_sigma!r}"] + lines[3:]) + "\n", encoding="utf-8")
        assert checks.check_fitdist(bad, *args)

    # a fit on unsmoothed samples keeps the full sigma, which the check must reject
    unsmoothed = tmp_path / "unsmoothed.tsv"
    assert cli.main(["fitdist", "--logs", str(logs), "--out", str(unsmoothed), "--cutoff", "1000"]) == 0
    assert checks.check_fitdist(unsmoothed, *args)
