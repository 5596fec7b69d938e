"""Mapping worker of the stream workloads: one caller, one frame at a time.

Run in a fresh interpreter by ``run.py``.  It imports terramesh, reads the
bundle and builds the mesh (the set-up), then feeds the frame cycle to
``Mapper.process`` one frame at a time until ``--seconds`` have passed and
at least one whole pass is done, and ends with the write path of
``terramesh run`` (estimate, map export, estimate export).  With
``--setup-only`` it stops after the set-up.  Results go to
``<out>/worker.json``.

With ``--trace 1`` the layer functions are wrapped (see ``tracer.py``) and
tracing is switched on for every other frame only; the frames in between
are timed untraced, so the traced - untraced difference is the measured
overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

EXPORT_MIN, EXPORT_MAX, EXPORT_BUDGET_S = 3, 25, 1.5


def frame_order(n: int, order: str) -> list:
    if order == "pingpong" and n > 2:
        return list(range(n)) + list(range(n - 2, 0, -1))
    return list(range(n))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--bundle", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--side", type=float, required=True)
    ap.add_argument("--extent", type=float, required=True)
    ap.add_argument("--recenter", type=int, default=0)
    ap.add_argument("--order", default="cycle")
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import terramesh.cli as cli
    from terramesh.pipeline import EstimatorKind, Mapper, PipelineConfig

    tracer = None
    if args.trace:
        import terramesh.pipeline as pipeline
        from tracer import ALL_LAYERS, Tracer, keep_assignments

        tracer = Tracer()
        tracer.install(ALL_LAYERS)
        kept = keep_assignments(pipeline)

    manifest, frames = cli.read_bundle(args.bundle)
    cfg = cli.MeshConfig(side_length_m=args.side, half_extent_m=args.extent, num_classes=manifest["num_classes"])
    mapper = Mapper(cli.init_mesh(cfg), PipelineConfig(recenter=bool(args.recenter)))
    if args.setup_only:
        return 0

    order = frame_order(len(frames), args.order)
    frame_ms, traced, ok, processed = [], [], [], []
    pass_s = []
    clock = time.perf_counter
    start = p0 = clock()
    while clock() - start < args.seconds or not pass_s:
        pos = len(frame_ms) % len(order)
        # alternate traced/untraced frames, and flip the phase every pass so
        # that each distinct frame is timed both ways
        on = tracer is not None and (pos + len(pass_s)) % 2 == 0
        if tracer is not None:
            tracer.enabled = on
        t0 = clock()
        good = mapper.process(frames[order[pos]])
        t1 = clock()
        frame_ms.append(1e3 * (t1 - t0))
        traced.append(on)
        ok.append(bool(good))
        processed.append(order[pos])
        if pos == len(order) - 1:
            pass_s.append(t1 - p0)
            p0 = t1
    loop_s = clock() - start
    if tracer is not None:
        tracer.enabled = True

    out = Path(args.out)
    _, models = cli.load_models(None)
    export_s = []
    # ``run`` exports into a fresh directory, and so does each repeat here,
    # until the write path has run EXPORT_MIN times and EXPORT_BUDGET_S
    # seconds, or EXPORT_MAX times; the last export stays for the checks
    while len(export_s) < EXPORT_MAX and (len(export_s) < EXPORT_MIN or sum(export_s) < EXPORT_BUDGET_S):
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        t0 = clock()
        estimates = cli.estimate_properties(mapper.mesh, EstimatorKind.RECURSIVE, models)
        cli.save_map(mapper.mesh, out / "map.bin", class_names=manifest["class_names"], frame_count=mapper.frames_processed)
        cli.save_estimates(out / "estimates.bin", estimates, mapper.mesh, "recursive", None)
        export_s.append(clock() - t0)

    result = {
        "frame_ms": frame_ms,
        "traced": traced,
        "ok": ok,
        "processed": processed,
        "pass_s": pass_s,
        "loop_s": loop_s,
        "export_s": export_s,
    }
    if tracer is not None:
        from tracer import frame_counts

        result["spans"] = tracer.dump()
        result["counts"] = frame_counts(kept, mapper.mesh.face_vertex_ids)
    (out / "worker.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
