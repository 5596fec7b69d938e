"""Argument parsing for the ``terramesh`` command, and its one entry point.

This module imports the standard library only: :func:`main` parses the
arguments first and imports :mod:`terramesh.cli`, and with it numpy and the
data modules, only once they parse.  So ``--help``, ``<command> --help`` and
a usage error (exit code 2) load no numpy.  ``python -m terramesh``, the
``terramesh`` console script and ``terramesh.cli.main`` are this
:func:`main`.

The ``--estimator`` and ``--update-mode`` choices are literals here, and
``cli`` checks a run config's ``estimator`` and ``update_mode`` against the
same lists; they equal ``[k.value for k in EstimatorKind]`` and
``list(semantics.UPDATE_MODES)``.
"""

from __future__ import annotations

import argparse

ESTIMATORS = ["recursive", "unimodal_nonrecursive", "multimodal_nonrecursive"]
UPDATE_MODES = ["soft", "hard"]


def _entries(text: str, sep: str, convert) -> list:
    """The ``sep``-separated entries of a flag, each converted where it
    parses and kept as text where not, for a check that names the flag."""
    out = []
    for entry in text.split(sep):
        try:
            out.append(convert(entry))
        except ValueError:
            out.append(entry)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="terramesh",
        description="Probabilistic terrain mapping: simulate scenes, build maps, evaluate estimators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="render a synthetic scenario into a frame bundle")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", help="name from the built-in scenario library")
    group.add_argument("--spec", help="path to a world-spec JSON file")
    p.add_argument("--seed", type=int, required=True, help="RNG seed (mandatory)")
    p.add_argument("--out", required=True, help="output bundle directory")
    p.add_argument("--frames", type=int, default=None, help="limit the number of frames")

    p = sub.add_parser("run", help="process a frame bundle into a map export")
    p.add_argument("--bundle", required=True, help="frame-bundle directory")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON run-config file (flags win over it)")
    p.add_argument("--estimator", choices=ESTIMATORS)
    p.add_argument("--update-mode", dest="update_mode", choices=UPDATE_MODES)
    p.add_argument("--mesh-side", dest="mesh_side", type=float, help="triangle leg length [m]")
    p.add_argument("--mesh-extent", dest="mesh_extent", type=float, help="window half extent [m]")
    p.add_argument("--models", help="friction-model file (default: shipped)")
    p.add_argument("--noise", type=lambda text: _entries(text, ",", float), help="depth noise coefficients a,b,c")
    p.add_argument("--recenter", action="store_true", default=None, help="recenter the mesh under the camera")

    p = sub.add_parser("eval", help="score estimate files against ground truth")
    p.add_argument("--truth", required=True, help="truth.json written by simulate")
    p.add_argument("--estimates", nargs="+", required=True, help="estimates.bin files")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("fitdist", help="fit friction models from force logs")
    p.add_argument("--logs", required=True, help="directory of per-class force CSVs")
    p.add_argument("--out", required=True, help="output model file")
    p.add_argument("--mass", type=float, default=None, help="device mass [kg]")
    p.add_argument("--cutoff", type=float, default=5.0, help="low-pass cutoff [Hz]")

    p = sub.add_parser("validate", help="check a frame bundle against the documented format and a model catalog")
    p.add_argument("--bundle", required=True)
    p.add_argument("--models", help="friction-model file, as run takes it (default: shipped)")

    p = sub.add_parser("bench", help="time the map update across mesh resolutions")
    p.add_argument("--out", required=True, help="output CSV")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--sides", default="0.01,0.02,0.04,0.08", help="comma-separated element lengths [m]")
    p.add_argument("--extent", type=float, default=0.48, help="mesh half extent [m]")
    p.add_argument("--frame", default="424x240", help="synthetic frame size WxH")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    from . import cli

    return cli.run(args)
