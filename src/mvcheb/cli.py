"""Command-line front end.

Subcommands: estimate, ratio, bound, region, coverage, tail, figure,
sample. JSON goes to --out (default stdout); matrix/spec arguments accept
either inline JSON or a path to a JSON file.

Exit codes: 0 success; 2 for a :class:`~mvcheb.errors.UsageError` (the
input cannot be read as what the command needs: bad flags, malformed JSON
or CSV, a ragged or non-numeric array, an unknown spec kind); 3 for a
:class:`~mvcheb.errors.DomainError` (the input is well formed but the
mathematics rejects it: a matrix that is not positive definite, delta
outside (0, 1), ...); 4 for an output I/O error. Output files are written
to a temp file and renamed, so a failing run never leaves partial output.
A ``det``, ``trace`` or ``ratio`` outside (0, inf) prints as null; the
``log_det`` and ``log_ratio`` beside it stay finite.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .errors import DomainError, UsageError
from .experiments import (
    export_figure,
    figure_csv_texts,
    figure_manifest,
    run_coverage,
    run_coverage_estimated,
    run_tail_curve,
)
from .jsonio import atomic_write_many, atomic_write_text, dump_json
from .linalg import Covariance
from .moments import estimate_moments, read_samples_csv, samples_to_csv_text
from .regions import (
    chebyshev_bound,
    classical_bound,
    log_volume_ratio,
    make_ellipsoid,
    make_sphere,
    region_to_dict,
    volume_ratio,
)
from .sampler import SamplerSpec, draw, spec_from_dict


def _load_json_arg(value: str):
    """Parse an argument that is inline JSON (starts with '[' or '{') or a
    path to a JSON file."""
    text = value.strip()
    try:
        if not text.startswith(("[", "{")):
            with open(value) as fh:
                text = fh.read()
        return json.loads(text)
    except OSError as exc:
        raise UsageError(f"cannot read {value!r}: {exc}") from None
    except (ValueError, RecursionError) as exc:  # also undecodable bytes, a NUL in the path
        raise UsageError(f"not valid JSON: {exc}") from None


def _load_cov(value: str) -> Covariance:
    return Covariance.from_matrix(_load_json_arg(value))


def _load_spec(value: str, seed_flag: int | None) -> SamplerSpec:
    data = _load_json_arg(value)
    if seed_flag is not None and isinstance(data, dict):
        data = dict(data, seed=seed_flag)
    return spec_from_dict(data)


def _eps_grid(text: str) -> list[float]:
    try:
        grid = [float(f) for f in text.split(",") if f.strip()]
        if all(math.isfinite(e) for e in grid):
            return grid
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad eps grid {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        atomic_write_text(out, text)


def _in_range(x: float) -> float | None:
    """``x``, or None (JSON null) where it is outside (0, inf)."""
    return x if 0.0 < x < math.inf else None


def _cov_fields(cov: Covariance) -> dict:
    return {"trace": _in_range(cov.trace), "det": _in_range(cov.det), "log_det": cov.logdet}


def _coverage_pair_dict(pair) -> dict:
    return {"ellipsoid": pair[0].to_dict(), "sphere": pair[1].to_dict()}


def _cmd_estimate(args) -> int:
    try:
        fh = open(args.input, newline="")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise UsageError(f"cannot read {args.input!r}: {exc}") from None
    with fh:
        samples = read_samples_csv(fh)
    est = estimate_moments(samples, ddof=args.ddof, ridge=args.ridge)
    _emit(
        dump_json(
            {
                "mean": [float(v) for v in est.mean],
                "covariance": [[float(v) for v in row] for row in est.cov.entries],
                **_cov_fields(est.cov),
            }
        ),
        args.out,
    )
    return 0


def _cmd_ratio(args) -> int:
    cov = _load_cov(args.cov)
    ratio = {"ratio": _in_range(volume_ratio(cov)), "log_ratio": log_volume_ratio(cov)}
    _emit(dump_json(_cov_fields(cov) | ratio), args.out)
    return 0


def _cmd_bound(args) -> int:
    if args.classical:
        if args.var is None:
            raise UsageError("--classical requires --var")
        b = classical_bound(args.var, args.eps)
    else:
        if args.dim is None:
            raise UsageError("either --dim or --classical --var is required")
        b = chebyshev_bound(args.dim, args.eps)
    _emit(dump_json({"raw": b.raw, "clamped": b.clamped}), args.out)
    return 0


def _cmd_region(args) -> int:
    cov = _load_cov(args.cov)
    center = (
        np.zeros(cov.dim) if args.center is None else _load_json_arg(args.center)
    )
    if args.kind == "ellipsoid":
        region = make_ellipsoid(center, cov, args.delta)
    else:
        region = make_sphere(center, cov, args.delta)
    _emit(dump_json(region_to_dict(region, delta=args.delta)), args.out)
    return 0


def _cmd_coverage(args) -> int:
    spec = _load_spec(args.spec, args.seed)
    if args.estimated:
        both = run_coverage_estimated(spec, args.delta, args.n, streams=args.streams)
        payload = _coverage_pair_dict(both["true"])
        payload["estimated"] = _coverage_pair_dict(both["estimated"])
    else:
        payload = _coverage_pair_dict(run_coverage(spec, args.delta, args.n, streams=args.streams))
    _emit(dump_json(payload), args.out)
    return 0


def _cmd_tail(args) -> int:
    spec = _load_spec(args.spec, args.seed)
    curve = run_tail_curve(spec, args.eps, args.n)
    _emit(dump_json(curve.to_dict()), args.out)
    return 0


def _cmd_figure(args) -> int:
    fig = export_figure(
        sigma=args.sigma,
        k=args.k,
        delta=args.delta,
        n_samples=args.n,
        seed=args.seed if args.seed is not None else 0,
        boundary_points=args.points,
    )
    prefix = args.out_prefix
    csvs = figure_csv_texts(fig)
    paths = {name: f"{prefix}{name}.csv" for name in ("samples", "ellipse", "circle")}
    # manifest records basenames: the files sit next to it, and equivalent
    # runs in different directories stay byte-identical
    basenames = {name: os.path.basename(path) for name, path in paths.items()}
    outputs = {paths[name]: csvs[name] for name in paths}
    outputs[f"{prefix}manifest.json"] = dump_json(figure_manifest(fig, files=basenames))
    atomic_write_many(outputs)
    return 0


def _cmd_sample(args) -> int:
    spec = _load_spec(args.spec, args.seed)
    _emit(samples_to_csv_text(draw(spec, args.n)), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvcheb",
        description=(
            "Multivariate Chebyshev tail bounds, sphere/ellipsoid confidence "
            "regions, and seeded Monte Carlo verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, out: bool = True, seed: bool = False):
        p = sub.add_parser(name, help=help_text)
        if out:
            p.add_argument("--out", default=None, help="output path (default stdout)")
        if seed:
            p.add_argument(
                "--seed",
                type=int,
                default=None,
                help="64-bit seed; overrides any seed in the spec JSON (default: "
                "spec seed, else 0)",
            )
        return p

    p = add("estimate", "estimate mean/covariance from a sample CSV")
    p.add_argument("--input", required=True, help="CSV with header x1,...,xn")
    p.add_argument("--ddof", type=int, choices=(0, 1), default=1)
    p.add_argument("--ridge", type=float, default=0.0, help="add ridge*I before validation")
    p.set_defaults(func=_cmd_estimate)

    p = add("ratio", "sphere/ellipsoid volume ratio of a covariance matrix")
    p.add_argument("--cov", required=True, help="matrix as inline JSON or a JSON file path")
    p.set_defaults(func=_cmd_ratio)

    p = add("bound", "evaluate a tail bound (raw and clamped)")
    p.add_argument("--dim", type=int, default=None, help="dimension n for the n/eps bound")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--classical", action="store_true", help="use the Var/eps^2 bound")
    p.add_argument("--var", type=float, default=None, help="total variance (classical)")
    p.set_defaults(func=_cmd_bound)

    p = add("region", "construct a confidence region and print its JSON form")
    p.add_argument("--kind", choices=("ellipsoid", "sphere"), required=True)
    p.add_argument("--cov", required=True, help="matrix as inline JSON or a JSON file path")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--center", default=None, help="center as JSON list (default zeros)")
    p.set_defaults(func=_cmd_region)

    p = add("coverage", "Monte Carlo coverage of both regions", seed=True)
    p.add_argument("--spec", required=True, help="sampler spec as inline JSON or file path")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--streams",
        type=_positive_int,
        default=1,
        help="worker count; never changes the drawn samples or counts",
    )
    p.add_argument(
        "--estimated",
        action="store_true",
        help="also report coverage with moments re-fitted from the samples",
    )
    p.set_defaults(func=_cmd_coverage)

    p = add("tail", "empirical tails vs both bound curves", seed=True)
    p.add_argument("--spec", required=True, help="sampler spec as inline JSON or file path")
    p.add_argument("--eps", type=_eps_grid, required=True, help="comma list, ascending")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_tail)

    p = add("figure", "export the 2-D comparison figure data", out=False, seed=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--k", type=float, default=25.0)
    p.add_argument("--delta", type=float, default=0.1)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--points", type=int, default=256, help="boundary points per curve")
    p.add_argument(
        "--out-prefix",
        default="figure_",
        help="prefix for samples/ellipse/circle.csv and manifest.json",
    )
    p.set_defaults(func=_cmd_figure)

    p = add("sample", "draw a sample set and write it as CSV", seed=True)
    p.add_argument("--spec", required=True, help="sampler spec as inline JSON or file path")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_sample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"mvcheb: error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"mvcheb: error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"mvcheb: error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
