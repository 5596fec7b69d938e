"""Run one ``terramesh`` CLI command in this (fresh) interpreter, timed from outside.

    python cli_launch.py OUT.json TRACE -- <terramesh arguments>

Only public functions are wrapped, at the names through which the CLI calls
them.  With TRACE 0 the wrappers are bare timers around ``Mapper.process``
(per-frame wall time) and the write path of ``run``; with TRACE 1 every
layer of ``tracer.py`` is recorded as well, on every other frame so that the
untraced frames in between measure the tracing overhead.  The exit code is
the command's.
"""

from __future__ import annotations

import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    out_path, trace, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: cli_launch.py OUT.json TRACE -- ARGS...")
    import terramesh.cli as cli
    import terramesh.pipeline as pipeline
    from tracer import ALL_LAYERS, Tracer, frame_counts, keep_assignments

    clock = time.perf_counter
    record = {"frame_ms": [], "traced": [], "export_s": 0.0}
    tracer = Tracer()
    kept, meshes = [], []
    if trace == "1":
        tracer.install(ALL_LAYERS)
        kept = keep_assignments(pipeline)
    tracer.enabled = trace == "1"

    process = pipeline.Mapper.process

    def timed_process(self, frame):
        if not meshes:
            meshes.append(self.mesh)
        on = trace == "1" and len(record["frame_ms"]) % 2 == 0
        tracer.enabled = on
        t0 = clock()
        try:
            return process(self, frame)
        finally:
            record["frame_ms"].append(1e3 * (clock() - t0))
            record["traced"].append(on)
            tracer.enabled = trace == "1"

    pipeline.Mapper.process = timed_process

    def timed_export(fn):
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record["export_s"] += clock() - t0

        return wrapper

    for name in ("estimate_properties", "save_map", "save_estimates"):
        setattr(cli, name, timed_export(getattr(cli, name)))

    try:
        code = cli.main(argv)
    finally:
        if trace == "1":
            record["spans"] = tracer.dump()
            if meshes:
                record["counts"] = frame_counts(kept, meshes[0].face_vertex_ids)
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
