"""Command-line harness: simulate | run | eval | fitdist | validate | bench.

Every subcommand exits 0 on success and 2 with a single ``error: <message>``
line on stderr otherwise, except that ``validate`` reports a readable but
invalid bundle as ``invalid: <issue>`` lines on stdout with exit code 1.
``run`` streams a bundle one frame at a time, and ``validate`` reads it
through the same checks (:func:`terramesh.formats.open_bundle`) and holds
its classes to the same model catalog
(:func:`terramesh.formats.check_class_names`, ``--models`` as ``run`` takes
it), so that a bundle it calls valid is one ``run`` accepts.
Seeds are mandatory wherever randomness exists; nothing is seeded from the
wall clock.

The arguments are parsed in :mod:`terramesh.parser`, which imports this
module only once they parse, so ``--help`` and usage errors load no numpy;
:func:`run` then looks the command up in :data:`COMMANDS`.  ``main`` and
``build_parser`` are the parser module's, importable from here.  The
simulator (:mod:`terramesh.sim`) and the evaluation code
(:mod:`terramesh.evaluation`) are imported inside the commands that run
them (``simulate``, ``eval`` and ``bench``), so that the other commands
never load them; every other data module is imported at the top of this
module, and its names stay here, where the benchmark harness wraps and
calls them.
"""

from __future__ import annotations

import csv
import sys
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from .elevation import SensorNoiseModel
from .errors import ConfigurationError, TerrameshError
from .formats import (
    _check_fields,
    _is_int,
    _is_number,
    _numbers,
    check_class_names,
    load_estimates,
    load_truth,
    open_bundle,
    read_bundle,  # noqa: F401  loads a whole bundle as a list; importable from here
    read_json,
    save_estimates,
    save_map,
    save_truth,
    scenario_hash,
    validate_bundle,
    write_bundle,
    write_csv,
    write_json,
)
from .mesh import MeshConfig, init_mesh
from .parser import ESTIMATORS, UPDATE_MODES, _entries
from .parser import build_parser, main  # noqa: F401  importable from here
from .pipeline import EstimatorKind, FrameTiming, Mapper, PipelineConfig, estimate_properties
from .properties import (
    FIT_FAMILIES,
    ForceLog,
    FitSelection,
    PropertyModel,
    fit_and_select,
    friction_from_force,
    load_models,
    save_models,
)


class CliError(TerrameshError):
    pass


def _check_flag(flag: str, value, ok: bool, what: str) -> None:
    if not ok:
        raise CliError(f"{flag} must be {what}, not {value!r}")


# -- simulate ----------------------------------------------------------------


def cmd_simulate(args) -> int:
    from .sim import iter_frames, scenario_library, world_from_dict, world_to_dict

    _check_flag("--frames", args.frames, args.frames is None or args.frames >= 1, "at least 1")
    if args.scenario:
        library = scenario_library()
        if args.scenario not in library:
            known = ", ".join(sorted(library))
            raise CliError(f"unknown scenario {args.scenario!r}; valid scenarios: {known}")
        spec = library[args.scenario]
    else:
        spec = world_from_dict(read_json(args.spec, "world-spec file"))
    spec = spec.with_seed(args.seed)

    # frames are rendered one at a time, as the bundle writer asks for them
    frames, truth = iter_frames(spec, limit=args.frames)
    out = Path(args.out)
    world = world_to_dict(spec)
    manifest = write_bundle(
        out,
        frames,
        class_names=truth.class_names,
        scenario={"name": spec.name, "hash": scenario_hash(world)},
    )
    save_truth(out / "truth.json", world, truth.class_names, truth.models)
    entries = manifest["frames"]
    valid = sum(1 for e in entries if e["valid"])
    print(f"wrote {len(entries)} frames ({valid} valid) to {out}")
    return 0


# -- run ----------------------------------------------------------------------


_POSITIVE = (lambda v: _is_number(v) and v > 0, "a positive finite number")
_RUN_FIELDS = (
    ("estimator", lambda v: v in ESTIMATORS, f"one of {ESTIMATORS}"),
    ("update_mode", lambda v: v in UPDATE_MODES, f"one of {UPDATE_MODES}"),
    ("mesh_side", *_POSITIVE),
    ("mesh_extent", *_POSITIVE),
    ("models", lambda v: v is None or isinstance(v, str), "null or a file path"),
    ("noise", _numbers(3), "3 finite numbers a, b, c"),
    ("pose_cov", lambda v: v is None or _numbers(3)(v) or _numbers(9)(v), "null, or 3 or 9 finite numbers"),
    ("recenter", lambda v: isinstance(v, bool), "true or false"),
)


def _merge_run_config(args) -> dict:
    """The run settings: defaults, then the config file, then explicit flags,
    checked once against :data:`_RUN_FIELDS`; the library's defaults where it has them."""
    pipeline = PipelineConfig()
    noise = pipeline.noise_model
    cfg = {
        "estimator": "recursive",
        "update_mode": pipeline.update_mode,
        "mesh_side": 0.02,
        "mesh_extent": 5.0,
        "models": None,
        "noise": [noise.a, noise.b, noise.c],
        "pose_cov": pipeline.pose_cov_override,
        "recenter": pipeline.recenter,
    }
    if args.config:
        file_cfg = read_json(args.config, "config file")
        if not isinstance(file_cfg, dict):
            raise CliError("config file is not a JSON object")
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    # explicit flags win over the config file (pose_cov has no flag)
    for key in cfg:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    _check_fields("run config", cfg, _RUN_FIELDS)
    return cfg


def cmd_run(args) -> int:
    cfg = _merge_run_config(args)
    manifest, frames = open_bundle(args.bundle)
    catalog, models = load_models(cfg["models"])
    check_class_names(manifest, catalog.names)

    a, b, c = cfg["noise"]
    mesh_cfg = MeshConfig(
        side_length_m=float(cfg["mesh_side"]),
        half_extent_m=float(cfg["mesh_extent"]),
        num_classes=catalog.k,
    )
    kind = EstimatorKind(cfg["estimator"])
    pose_cov = cfg["pose_cov"]
    try:
        noise_model = SensorNoiseModel(a=a, b=b, c=c)
    except ConfigurationError as exc:
        raise CliError(f"--noise {a!r},{b!r},{c!r}: {exc}") from exc
    pipeline_cfg = PipelineConfig(
        noise_model=noise_model,
        update_mode=cfg["update_mode"],
        accumulate_alpha=kind is EstimatorKind.RECURSIVE,
        recenter=cfg["recenter"],
        pose_cov_override=None if pose_cov is None else np.array(pose_cov, dtype=float),
    )
    mapper = Mapper(init_mesh(mesh_cfg), pipeline_cfg)
    # timing.csv names each processed frame by its bundle frame id
    frame_ids = [frame.frame_id for frame in frames if mapper.process(frame)]
    # when every frame was skipped, the baselines leave every face unknown
    estimates = estimate_properties(mapper.mesh, kind, models, mapper.last_scores)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scenario = manifest.get("scenario") or {}
    save_map(
        mapper.mesh,
        out / "map.bin",
        class_names=catalog.names,
        frame_count=mapper.frames_processed,
        extra={"estimator": kind.value, "scenario_hash": scenario.get("hash")},
    )
    save_estimates(out / "estimates.bin", estimates, mapper.mesh, kind.value, scenario.get("hash"))

    write_csv(
        out / "timing.csv",
        ["frame", *(f"{f.name}_s" for f in fields(FrameTiming))],
        ([fid, *astuple(t)] for fid, t in zip(frame_ids, mapper.timings)),
    )

    summary = {
        "estimator": kind.value,
        "update_mode": cfg["update_mode"],
        "frames_processed": mapper.frames_processed,
        "frames_skipped": mapper.frames_skipped,
        "faces_total": mapper.mesh.num_faces,
        "faces_observed": int(mapper.mesh.ring.observed.sum()),
        "faces_with_estimate": int(estimates.ids.size),
        "scenario": scenario,
        "mesh": {
            "side_length_m": mesh_cfg.side_length_m,
            "half_extent_m": mesh_cfg.half_extent_m,
            "num_classes": mesh_cfg.num_classes,
        },
    }
    write_json(out / "summary.json", summary)
    print(
        f"processed {mapper.frames_processed} frames "
        f"({mapper.frames_skipped} skipped); "
        f"{summary['faces_observed']}/{summary['faces_total']} faces observed"
    )
    return 0


# -- eval -----------------------------------------------------------------------


def cmd_eval(args) -> int:
    from .evaluation import evaluate_estimator, write_pr_csv, write_summary_csv
    from .sim import world_from_dict

    truth_doc = load_truth(args.truth)
    world = world_from_dict(truth_doc["world"])
    truth_hash = truth_doc["scenario_hash"]
    models = [
        PropertyModel(m["name"], m["mu"], m["sigma"]) for m in truth_doc["models"]
    ]
    if len(models) != world.num_classes:
        raise CliError(
            f"{args.truth}: the world's num_classes is {world.num_classes}, but it has {len(models)} models"
        )

    loaded = []
    mesh_key = None
    for path in args.estimates:
        header, estimates = load_estimates(path)
        if header.get("scenario_hash") != truth_hash:
            raise CliError(
                f"{path}: estimates were produced for a different scenario than {args.truth}"
            )
        key = (
            header["side_length_m"],
            header["half_extent_m"],
            header["num_classes"],
            tuple(header["center"]),
        )
        if mesh_key is None:
            mesh_key = key
        elif key != mesh_key:
            raise CliError(f"{path}: mesh configuration differs between estimate files")
        # each estimator names its report rows and its precision-recall files
        if header["estimator"] in dict(loaded):
            raise CliError(f"{path}: another estimate file is of estimator {header['estimator']!r} too")
        loaded.append((header["estimator"], estimates))

    side, extent, k, center = mesh_key
    if len(models) != k:
        raise CliError(f"{args.truth} has {len(models)} models, the estimates have {k} classes")
    mesh = init_mesh(MeshConfig(side_length_m=side, half_extent_m=extent, num_classes=int(k)))
    mesh.center = np.asarray(center, dtype=float)
    centroids = mesh.face_centroids()
    truth_classes = world.class_map.classify(centroids[:, 0], centroids[:, 1])

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    reports = []
    for name, estimates in loaded:
        report = evaluate_estimator(name, estimates, truth_classes, models)
        reports.append(report)
        write_pr_csv(out / f"pr_low_{name}.csv", report.pr_low)
        write_pr_csv(out / f"pr_high_{name}.csv", report.pr_high)
    write_summary_csv(out / "summary.csv", reports)

    lines = ["estimator  kl_mean  kl_median  ap_low  ap_high  accuracy  known/total"]
    for r in reports:
        lines.append(
            f"{r.estimator}  {r.kl_mean:.4f}  {r.kl_median:.4f}  "
            f"{r.ap_low:.4f}  {r.ap_high:.4f}  {r.accuracy:.4f}  "
            f"{r.faces_known}/{r.faces_total}"
        )
    by_name = {r.estimator: r for r in reports}
    if len(reports) > 1 and "recursive" in by_name:
        others = [r for r in reports if r.estimator != "recursive"]
        kl_ok = all(by_name["recursive"].kl_mean < r.kl_mean for r in others)
        ap_low = by_name["recursive"].ap_low
        if np.isnan(ap_low):  # the truth has no low-friction face
            ap_ok = "n/a"
        else:
            ap_ok = "yes" if all(ap_low >= r.ap_low for r in others) else "no"
        lines.append(f"ordering recursive-best-kl: {'yes' if kl_ok else 'no'}")
        lines.append(f"ordering recursive-best-ap-low: {ap_ok}")
    text = "\n".join(lines) + "\n"
    (out / "summary.txt").write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


# -- fitdist -----------------------------------------------------------------------


def _number(row, text):
    try:
        return float(text)
    except ValueError:
        raise CliError(f"row {row}: {text!r} is not a number") from None


def _read_force_csv(path, mass_override):
    mass = mass_override
    times = []
    forces = []
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    start = 0
    if rows and rows[0] and rows[0][0].startswith("#"):
        token = rows[0][0].lstrip("# ").strip()
        if token.startswith("mass_kg="):
            file_mass = _number(1, token.split("=", 1)[1])
            if mass is None:
                mass = file_mass
        start = 1
    if len(rows) <= start or [c.strip() for c in rows[start]] != ["t_seconds", "force_newtons"]:
        raise CliError("expected header 't_seconds,force_newtons'")
    for number, row in enumerate(rows[start + 1 :], start=start + 2):
        if not row:
            continue
        if len(row) != 2:
            raise CliError(f"row {number}: expected 2 cells 't_seconds,force_newtons', got {len(row)}")
        times.append(_number(number, row[0]))
        forces.append(_number(number, row[1]))
    if mass is None:
        raise CliError("device mass missing (use --mass or a '# mass_kg=' row)")
    return ForceLog(np.array(times), np.array(forces), mass_kg=mass)


def cmd_fitdist(args) -> int:
    _check_flag("--cutoff", args.cutoff, _is_number(args.cutoff) and args.cutoff > 0, "a positive number")
    ok = args.mass is None or _is_number(args.mass) and args.mass > 0
    _check_flag("--mass", args.mass, ok, "a positive number")
    logs_dir = Path(args.logs)
    csv_paths = sorted(logs_dir.glob("*.csv"))
    if not csv_paths:
        raise CliError(f"no .csv force logs found in {logs_dir}")

    models = []
    selections: list[tuple[str, FitSelection]] = []
    for path in csv_paths:
        class_name = path.stem.replace("_", " ")
        # a fault in reading or fitting one log names that log
        try:
            log = _read_force_csv(path, args.mass)
            selection = fit_and_select(friction_from_force(log, cutoff_hz=args.cutoff))
        except (TerrameshError, ValueError, csv.Error) as exc:
            raise CliError(f"{path}: {exc}") from None
        gauss = selection.params["gaussian"]
        models.append(PropertyModel(class_name, gauss["mu"], gauss["sigma"]))
        selections.append((class_name, selection))

    save_models(args.out, models)
    ks_path = str(args.out) + ".ks.csv"
    write_csv(
        ks_path,
        ["class", "best_family", *(f"ks_{family}" for family in FIT_FAMILIES), "n"],
        (
            [name, sel.best_family, *(sel.ks.get(family, float("nan")) for family in FIT_FAMILIES), sel.n]
            for name, sel in selections
        ),
    )
    print(f"fitted {len(models)} classes -> {args.out} (KS table: {ks_path})")
    return 0


# -- validate ------------------------------------------------------------------------


def cmd_validate(args) -> int:
    catalog, _ = load_models(args.models)
    issues = validate_bundle(args.bundle, catalog.names)
    if issues:
        for issue in issues:
            print(f"invalid: {issue}")
        return 1
    print("bundle is valid")
    return 0


# -- bench -----------------------------------------------------------------------------


def cmd_bench(args) -> int:
    from .evaluation import bench_update, write_bench_csv

    _check_flag("--trials", args.trials, args.trials >= 1, "at least 1")
    sides = _entries(args.sides, ",", float)
    ok = all(_is_number(s) and s > 0 for s in sides)
    _check_flag("--sides", args.sides, ok, "comma-separated positive numbers")
    size = _entries(args.frame, "x", int)
    ok = len(size) == 2 and all(_is_int(n) and n > 0 for n in size)
    _check_flag("--frame", args.frame, ok, "WxH with two positive integers")
    _check_flag("--extent", args.extent, _is_number(args.extent) and args.extent > 0, "a positive number")
    rows = bench_update(sides, half_extent_m=args.extent, image_size=tuple(size), trials=args.trials)
    write_bench_csv(args.out, rows)
    for r in rows:
        if r.stage == "update":
            print(
                f"side {r.side_length_m:g} m: {r.num_faces} faces, "
                f"{r.num_points} points, update {1e3 * r.mean_s:.2f} "
                f"+/- {1e3 * r.std_s:.2f} ms over {r.trials} trials"
            )
    print(f"wrote {args.out}")
    return 0


# -- dispatch -------------------------------------------------------------------------------


COMMANDS = {
    "simulate": cmd_simulate,
    "run": cmd_run,
    "eval": cmd_eval,
    "fitdist": cmd_fitdist,
    "validate": cmd_validate,
    "bench": cmd_bench,
}


def run(args) -> int:
    """Run the command that :func:`terramesh.parser.build_parser` parsed."""
    try:
        return COMMANDS[args.command](args)
    except (TerrameshError, OSError, ValueError, MemoryError) as exc:
        # a MemoryError is an impossible array size
        print(f"error: {exc}", file=sys.stderr)
        return 2
