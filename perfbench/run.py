"""terramesh benchmark: one closed-loop workload per call, or all of them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  A fuller record of every run, with
workload size and environment, is written to ``perfbench/.results/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import self_times  # noqa: E402

WORKLOADS = ("paper-frame-1cm", "robot-centric-5m", "cli-walkthrough")
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170.0
BLAS_THREADS = "1"  # one caller per process; BLAS adds no threads of its own

# metric names and units, one list for the harness and for its readers
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")) if (ROOT / "BENCHMARK.json").is_file() else {}
END_TO_END = {m["name"]: m["unit"] for m in _SPEC.get("end_to_end", [])}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC.get("per_layer", [])}
COUNT_METRICS = (
    ("mesh.points_in_window", "points_in_window"),
    ("elevation.vertices_updated", "vertices_updated"),
    ("pipeline.faces_observed", "faces_observed"),
)
KL_GRID_NODES = 4096  # evaluation's quadrature grid, one float64 per node and face


class Context:
    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = HERE / ".work" / f"{workload}-s{seed}-t{trace}"
        self.cache = HERE / ".cache"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.cache.mkdir(exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = BLAS_THREADS
        self._n = 0

    def run(self, argv):
        """Run a child to completion: ``(wall_s, exit_code, peak_rss_mb, stdout, stderr)``."""
        self._n += 1
        out = self.work / f"child{self._n}.out"
        err = self.work / f"child{self._n}.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss * 1024 / 1e6, out.read_text(errors="replace"), err.read_text(errors="replace")


def _p(values, q):
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _median(values):
    return float(statistics.median(values))


def _import_times(ctx):
    """Cold ``import terramesh``: total, and the part spent importing
    scipy.signal/scipy.stats, from the ``-X importtime`` tree.

    The tree is printed children first; a scipy.signal/scipy.stats module
    counts with its whole subtree unless its parent is one of them too.
    """
    _, _, _, _, err = ctx.run([sys.executable, "-X", "importtime", "-c", "import terramesh"])
    rows = []
    for line in err.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1])))

    def scipy_part(name):
        return name.startswith(("scipy.signal", "scipy.stats"))

    total = scipy_us = 0
    for i, (depth, name, cumulative) in enumerate(rows):
        if name == "terramesh":
            total = cumulative
        if scipy_part(name):
            parent = next((n for d, n, _ in rows[i + 1:] if d < depth), "")
            scipy_us += 0 if scipy_part(parent) else cumulative
    return total / 1e6, scipy_us / 1e6


def _frame_layers(totals, frame_ms, traced):
    """Per-frame stage self times (ms) over the traced frames, plus overhead."""
    n = max(1, sum(traced))
    per = {k: 1e3 * totals.get(span, (0.0, 0))[0] / n for k, span in (
        ("pipeline.validate_ms", "pipeline.validate"),
        ("geometry.project_ms", "geometry.project"),
        ("mesh.assign_ms", "mesh.assign"),
        ("elevation.fuse_ms", "elevation.fuse"),
        ("mesh.recenter_ms", "mesh.recenter"),
        ("pipeline.accumulate_ms", "pipeline.process"),
    )}
    stages = sum(per.values())
    on = [m for m, t in zip(frame_ms, traced) if t]
    off = [m for m, t in zip(frame_ms, traced) if not t]
    if on and off:
        per["trace.overhead_ms"] = float(np.mean(on) - np.mean(off))
        per["trace.unaccounted_ms"] = float(np.mean(off) - stages)
    return per


# -- stream workloads -------------------------------------------------------------


def run_stream(ctx, spec, setup):
    import checks
    import worlds

    bundle = worlds.stream_bundle(spec, ctx.cache)
    out = ctx.work / "map"
    base = [
        sys.executable, str(HERE / "stream_worker.py"), "--bundle", str(bundle), "--out", str(out),
        "--side", repr(setup.side_length_m), "--extent", repr(setup.half_extent_m),
        "--recenter", str(int(setup.recenter)), "--order", setup.order,
    ]
    setup_s = []
    for _ in range(SETUP_REPEATS):
        wall, code, _, _, err = ctx.run(base + ["--setup-only"])
        if code != 0:
            raise RuntimeError(f"set-up failed: {err.strip()[-500:]}")
        setup_s.append(wall)
    wall, code, rss, _, err = ctx.run(base + ["--seconds", str(ctx.seconds), "--trace", str(ctx.trace)])
    if code != 0:
        raise RuntimeError(f"mapping worker failed: {err.strip()[-500:]}")
    rec = json.loads((out / "worker.json").read_text(encoding="utf-8"))

    manifest, frames = checks.read_bundle_raw(bundle)
    expected = checks.expected_stream_totals(
        frames, manifest["intrinsics"], worlds.DEPTH_ABC, rec["processed"],
        setup.side_length_m, setup.half_extent_m, (0.0, 0.0), setup.recenter,
    )
    issues = checks.check_map_totals(out / "map.bin", expected)
    attempted = len(rec["processed"])
    failed = attempted if issues else attempted - sum(rec["ok"])

    export_mb = ((out / "map.bin").stat().st_size + (out / "estimates.bin").stat().st_size) / 1e6
    frame_ms = [m for m, t in zip(rec["frame_ms"], rec["traced"]) if not t]
    export_s = _median(rec["export_s"])
    e2e = {
        "setup_s": _median(setup_s),
        "frame_ms_p50": _p(frame_ms, 50),
        "frame_ms_p90": _p(frame_ms, 90),
        "frames_per_s": attempted / rec["loop_s"],
        "peak_rss_mb": rss,
        "export_mb": export_mb,
        "walkthrough_s": _median(rec["pass_s"]) + export_s,
    }
    _, arrays = checks.read_container(out / "map.bin")
    known_faces = int((arrays["alpha"].sum(axis=1) > 0).sum())
    h, w = manifest["height"], manifest["width"]
    n = int(round(2 * setup.half_extent_m / setup.side_length_m))
    size = {
        "frames": attempted,
        "distinct_frames": len(frames),
        "passes": len(rec["pass_s"]),
        "pixels_per_frame": w * h,
        "points_in_window_per_frame": float(np.mean(expected.points_in_window)),
        "faces": 2 * n * n,
        "vertices": (n + 1) ** 2,
        "known_faces_at_end": known_faces,
    }
    layers = {}
    if ctx.trace:
        totals = self_times(rec["spans"])
        exports = len(rec["export_s"])
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(_frame_layers(totals, rec["frame_ms"], rec["traced"]))
        layers.update({k: float(np.mean(rec["counts"][c])) for k, c in COUNT_METRICS})
        layers.update({
            "mesh.init_ms": 1e3 * totals["mesh.init"][0],
            "formats.read_bundle_s": totals["formats.read_bundle"][0],
            "pipeline.estimate_ms": 1e3 * totals["pipeline.estimate"][0] / exports,
            "formats.save_s": (totals["formats.save_map"][0] + totals["formats.save_estimates"][0]) / exports,
            "formats.bytes_written": export_mb,
            "evaluation.kl_grid_mb": known_faces * KL_GRID_NODES * 8 / 1e6,
            "export_s": export_s,
        })
        layers["cli.import_s"], layers["cli.import_scipy_s"] = _import_times(ctx)
    return {
        "attempted": attempted, "failed": failed, "issues": issues,
        "end_to_end": e2e, "per_layer": layers, "size": size,
        "samples": {"setup_s": setup_s, "frames": len(frame_ms), "export_s": rec["export_s"], "pass_s": rec["pass_s"]},
    }


def paper_frame(ctx):
    import worlds

    return run_stream(ctx, worlds.paper_spec(ctx.seed), worlds.PAPER)


def robot_centric(ctx):
    import worlds

    return run_stream(ctx, worlds.robot_spec(ctx.seed), worlds.ROBOT)


# -- CLI walkthrough -----------------------------------------------------------------

RUN_TAGS = ("run", "run_multimodal")


def _walkthrough_round(ctx, spec, spec_path, logs, side, extent):
    """The six commands in order, each in a fresh interpreter, then their output checks.

    ``run`` commands go through ``cli_launch.py`` (per-frame and write-path
    timers); with tracing on, every command does.
    """
    import checks
    import worlds

    py = sys.executable
    r = ctx.work / "round"
    shutil.rmtree(r, ignore_errors=True)
    bundle, rec_dir, mm_dir, report = r / "bundle", r / "recursive", r / "multimodal", r / "report"
    steps = [
        ("simulate", ["simulate", "--spec", str(spec_path), "--seed", str(ctx.seed), "--out", str(bundle)]),
        ("validate", ["validate", "--bundle", str(bundle)]),
        ("run", ["run", "--bundle", str(bundle), "--out", str(rec_dir), "--mesh-side", side, "--mesh-extent", extent]),
        ("run_multimodal", ["run", "--bundle", str(bundle), "--out", str(mm_dir), "--mesh-side", side,
                            "--mesh-extent", extent, "--estimator", "multimodal_nonrecursive"]),
        ("eval", ["eval", "--truth", str(bundle / "truth.json"), "--out", str(report), "--estimates",
                  str(rec_dir / "estimates.bin"), str(mm_dir / "estimates.bin")]),
        ("fitdist", ["fitdist", "--logs", str(logs), "--out", str(r / "models.tsv")]),
    ]
    res = {}
    for tag, args in steps:
        launch = ctx.work / f"{tag}.launch.json"
        launch.unlink(missing_ok=True)
        if ctx.trace or tag in RUN_TAGS:
            argv = [py, str(HERE / "cli_launch.py"), str(launch), str(ctx.trace), "--", *args]
        else:
            argv = [py, "-m", "terramesh", *args]
        wall, code, rss, out, err = ctx.run(argv)
        res[tag] = {"wall": wall, "code": code, "rss": rss, "out": out, "err": err,
                    "launch": json.loads(launch.read_text(encoding="utf-8")) if launch.exists() else None}

    # output checks, outside the command timings
    n = len(spec.trajectory)
    issues = {tag: [] if v["code"] == 0 else [f"exit code {v['code']}: {v['err'].strip()[-300:]}"] for tag, v in res.items()}
    if not issues["simulate"]:
        manifest, frames = checks.read_bundle_raw(bundle)
        valid = sum(f.valid for f in frames)
        if valid != n:
            issues["simulate"].append(f"{valid} of {n} frames valid")
    if not issues["validate"] and "bundle is valid" not in res["validate"]["out"]:
        issues["validate"].append("validate did not report a valid bundle")
    for tag, d in (("run", rec_dir), ("run_multimodal", mm_dir)):
        if not issues[tag]:
            issues[tag] += checks.check_frames_processed(d / "summary.json", n)
    if not issues["run"] and not issues["simulate"]:
        expected = checks.expected_stream_totals(
            frames, manifest["intrinsics"], worlds.DEPTH_ABC, list(range(n)), float(side), float(extent), (0.0, 0.0), False
        )
        issues["run"] += checks.check_map_totals(rec_dir / "map.bin", expected)
    if not issues["eval"]:
        truth = json.loads((bundle / "truth.json").read_text(encoding="utf-8"))
        issues["eval"] += checks.check_eval(
            report / "summary.csv",
            {"recursive": rec_dir / "estimates.bin", "multimodal_nonrecursive": mm_dir / "estimates.bin"},
            truth,
        )
    if not issues["fitdist"]:
        issues["fitdist"] += checks.check_fitdist(
            r / "models.tsv", worlds.FORCE_CLASSES, worlds.FORCE_SAMPLES, worlds.FORCE_RATE_HZ, worlds.FORCE_CUTOFF_HZ
        )

    written = [rec_dir / "map.bin", rec_dir / "estimates.bin"]
    known = [int(checks.read_container(d / "estimates.bin")[1]["known"].sum())
             for d in (rec_dir, mm_dir) if (d / "estimates.bin").exists()]
    return {
        "walls": {tag: v["wall"] for tag, v in res.items()},
        "rss": {tag: v["rss"] for tag, v in res.items()},
        "launch": {tag: v["launch"] for tag, v in res.items() if v["launch"]},
        "export_mb": sum(p.stat().st_size for p in written if p.exists()) / 1e6,
        "known_faces": max(known, default=0),
        "issues": {tag: v for tag, v in issues.items() if v},
    }


def _walkthrough_layers(rounds, known_faces, export_mb):
    """Per-layer metrics from the spans of every traced command."""
    totals = {}  # tag -> [self-time totals of one command]
    frame_ms, traced, counts = [], [], {}
    for rd in rounds:
        for tag, lr in rd["launch"].items():
            totals.setdefault(tag, []).append(self_times(lr.get("spans", [])))
            if tag in RUN_TAGS:
                frame_ms += lr["frame_ms"]
                traced += lr["traced"]
                for k, v in lr.get("counts", {}).items():
                    counts.setdefault(k, []).extend(v)

    def per_command(tags, span, per_call=False):
        """Mean over commands of the span's total self time (or its mean per call)."""
        vals = []
        for tag in tags:
            for tot in totals.get(tag, []):
                s, calls = tot.get(span, (0.0, 0))
                vals.append(s / calls if per_call and calls else s)
        return float(np.mean(vals)) if vals else 0.0

    merged = {}
    for tag in RUN_TAGS:
        for tot in totals.get(tag, []):
            for k, (s, c) in tot.items():
                a, b = merged.get(k, (0.0, 0))
                merged[k] = (a + s, b + c)
    layers = _frame_layers(merged, frame_ms, traced)
    layers.update({k: float(np.mean(counts[c])) for k, c in COUNT_METRICS if counts.get(c)})
    walls = {tag: _median([rd["walls"][tag] for rd in rounds]) for tag in ("simulate", "run", "eval", "fitdist")}
    layers.update({
        "mesh.init_ms": 1e3 * per_command(RUN_TAGS, "mesh.init"),
        "pipeline.estimate_ms": 1e3 * per_command(RUN_TAGS, "pipeline.estimate"),
        "formats.save_s": per_command(RUN_TAGS, "formats.save_map") + per_command(RUN_TAGS, "formats.save_estimates"),
        "formats.bytes_written": export_mb,
        "formats.read_bundle_s": per_command(RUN_TAGS, "formats.read_bundle"),
        "formats.write_bundle_s": per_command(["simulate"], "formats.write_bundle"),
        "sim.render_ms": 1e3 * per_command(["simulate"], "sim.render", per_call=True),
        "formats.load_estimates_s": per_command(["eval"], "formats.load_estimates"),
        "evaluation.kl_s": per_command(["eval"], "evaluation.kl"),
        "evaluation.kl_grid_mb": known_faces * KL_GRID_NODES * 8 / 1e6,
        "evaluation.pr_s": per_command(["eval"], "evaluation.pr"),
        "properties.filter_s": per_command(["fitdist"], "properties.filter"),
        "properties.fit_s": per_command(["fitdist"], "properties.fit"),
        **{f"{tag}_s": wall for tag, wall in walls.items()},
    })
    return layers


def cli_walkthrough(ctx):
    import worlds
    from terramesh.sim import world_to_dict

    spec = worlds.walkthrough_spec(ctx.seed)
    spec_path = ctx.work / "world.json"
    spec_path.write_text(json.dumps(world_to_dict(spec), sort_keys=True), encoding="utf-8")
    logs = ctx.work / "force_logs"
    worlds.write_force_logs(logs, ctx.seed)
    side, extent = worlds.CLI_MESH

    setup_s = []
    for _ in range(SETUP_REPEATS):
        wall, code, _, _, err = ctx.run([sys.executable, "-m", "terramesh", "--help"])
        if code != 0:
            raise RuntimeError(f"terramesh --help failed: {err.strip()[-500:]}")
        setup_s.append(wall)

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < ctx.seconds:
        rounds.append(_walkthrough_round(ctx, spec, spec_path, logs, side, extent))

    frame_ms, export_s, frames_mapped, run_walls = [], [], 0, []
    for rd in rounds:
        for tag in RUN_TAGS:
            lr = rd["launch"].get(tag)
            if lr:
                frame_ms += [m for m, t in zip(lr["frame_ms"], lr["traced"]) if not t]
                export_s.append(lr["export_s"])
                frames_mapped += len(lr["frame_ms"])
            run_walls.append(rd["walls"][tag])
    frame_ms = frame_ms or [float("nan")]
    export_mb = _median([rd["export_mb"] for rd in rounds])
    e2e = {
        "setup_s": _median(setup_s),
        "frame_ms_p50": _p(frame_ms, 50),
        "frame_ms_p90": _p(frame_ms, 90),
        "frames_per_s": frames_mapped / sum(run_walls),
        "peak_rss_mb": _median([max(rd["rss"].values()) for rd in rounds]),
        "export_mb": export_mb,
        "walkthrough_s": _median([sum(rd["walls"].values()) for rd in rounds]),
    }
    cells = int(round(2 * float(extent) / float(side)))
    known_faces = _median([rd["known_faces"] for rd in rounds])
    size = {
        "rounds": len(rounds),
        "frames_per_bundle": len(spec.trajectory),
        "pixels_per_frame": spec.intrinsics.width * spec.intrinsics.height,
        "faces": 2 * cells * cells,
        "vertices": (cells + 1) ** 2,
        "known_faces": known_faces,
        "force_samples_per_class": worlds.FORCE_SAMPLES,
        "command_s": {tag: _median([rd["walls"][tag] for rd in rounds]) for tag in rounds[0]["walls"]},
        "command_peak_rss_mb": {tag: _median([rd["rss"][tag] for rd in rounds]) for tag in rounds[0]["rss"]},
    }
    layers = {}
    if ctx.trace:
        layers = dict.fromkeys(PER_LAYER, 0.0)
        layers.update(_walkthrough_layers(rounds, known_faces, export_mb))
        layers["export_s"] = _median(export_s)
        layers["cli.import_s"], layers["cli.import_scipy_s"] = _import_times(ctx)
    issues = [f"{tag}: {m}" for rd in rounds for tag, msgs in rd["issues"].items() for m in msgs]
    return {
        "attempted": len(rounds) * 6, "failed": sum(len(rd["issues"]) for rd in rounds), "issues": issues,
        "end_to_end": e2e, "per_layer": layers, "size": size,
        "samples": {"setup_s": setup_s, "frames": len(frame_ms), "export_s": export_s, "rounds": [rd["walls"] for rd in rounds]},
    }


RUNNERS = {"paper-frame-1cm": paper_frame, "robot-centric-5m": robot_centric, "cli-walkthrough": cli_walkthrough}


# -- driver ---------------------------------------------------------------------------------


def environment():
    from importlib import metadata, util

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "numba": util.find_spec("numba") is not None,
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
    }


def run_one(args) -> int:
    ctx = Context(args.workload, args.seed, args.seconds, args.trace)
    result = RUNNERS[args.workload](ctx)
    names = PER_LAYER if args.trace else END_TO_END
    values = result["per_layer"] if args.trace else result["end_to_end"]
    metrics = {k: {"value": float(values[k]), "unit": names[k]} for k in names}
    correct = not result["issues"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "correct": correct, "attempted": result["attempted"], "failed": result["failed"],
        "issues": result["issues"],
        "end_to_end": {k: {"value": v, "unit": END_TO_END[k]} for k, v in result["end_to_end"].items()},
        "per_layer": {k: {"value": v, "unit": PER_LAYER[k]} for k, v in result["per_layer"].items()},
        "size": result["size"], "samples": result["samples"], "environment": environment(),
    }
    results = HERE / ".results"
    results.mkdir(exist_ok=True)
    path = results / f"{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    shutil.rmtree(ctx.work, ignore_errors=True)
    for issue in result["issues"]:
        print(f"check failed: {issue}")
    for k, m in metrics.items():
        print(f"{args.workload}  {k} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}  attempted {result['attempted']}, failed {result['failed']}; record: {path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process; one line of totals at the end."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        summary["correct"] &= last["correct"]
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        summary["workloads"][name] = last
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "terramesh" / "__init__.py").is_file() or not END_TO_END:
        print(f"error: need terramesh sources under {ROOT / 'src'} and {ROOT / 'BENCHMARK.json'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
