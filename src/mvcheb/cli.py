"""Command-line front end.

Subcommands: estimate, ratio, bound, region, coverage, tail, figure,
sample. Matrix/spec arguments accept either inline JSON or a path to a
JSON file. The CLI parses flags and formats results; every other rule
(``--streams`` at least 1, the figure's reference setting, what a spec
may hold) is the library's. Each handler writes its output into the text
stream :func:`main` gives it, a temp file staged for --out or else stdout;
``figure`` stages its four files the same way. Each handler imports the
modules it runs: ``bound`` loads only ``errors``, ``jsonio`` and
``bounds``, and so no numpy; ``ratio`` and ``region`` add ``linalg`` and
``regions``, and the handlers that sample or fit add ``experiments``,
``sampler`` and ``moments``.

Exit codes: 0 success; 2 for a :class:`~mvcheb.errors.UsageError` (the
input cannot be read as what the command needs: bad flags, malformed JSON
or CSV, a ragged, non-numeric or empty array, an unknown spec kind); 3 for a
:class:`~mvcheb.errors.DomainError` (the input is well formed but the
mathematics rejects it: a matrix that is not positive definite, delta
outside (0, 1), ...) or for a run larger than memory; 4 for an output I/O
error, checked first: --out is staged as a temp file before the command
runs and renamed after it, so a failing run never leaves partial output.
A ``det``, ``trace`` or ``ratio`` outside (0, inf), and a bound's ``raw``
of inf, print as null; the ``log_det`` and ``log_ratio`` stay finite.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .bounds import chebyshev_bound, classical_bound
from .errors import DomainError, UsageError
from .jsonio import atomic_files, dump_json


def _open_input(path: str, **kw):
    """``open(path, **kw)``; a path that cannot be opened raises :class:`UsageError`."""
    try:
        return open(path, **kw)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise UsageError(f"cannot read {path!r}: {exc}") from None


def _load_json_arg(value: str):
    """Parse an argument that is inline JSON (starts with '[' or '{') or a
    path to a JSON file."""
    text = value.strip()
    fh = None if text.startswith(("[", "{")) else _open_input(value)
    try:
        return json.loads(text if fh is None else fh.read())
    except (ValueError, RecursionError) as exc:  # also undecodable bytes
        raise UsageError(f"not valid JSON: {exc}") from None
    finally:
        if fh is not None:
            fh.close()


def _load_spec(value: str, seed_flag: int | None):
    from .sampler import spec_from_dict
    data = _load_json_arg(value)
    if seed_flag is not None and isinstance(data, dict):
        data = dict(data, seed=seed_flag)
    return spec_from_dict(data)


def _eps_grid(text: str) -> list[float]:
    try:
        return [float(f) for f in text.split(",") if f.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad eps grid {text!r}") from None


def _in_range(x: float) -> float | None:
    """``x``, or None (JSON null) where it is outside (0, inf)."""
    return x if 0.0 < x < math.inf else None


def _cov_fields(cov) -> dict:
    return {"trace": _in_range(cov.trace), "det": _in_range(cov.det), "log_det": cov.logdet}


def _reports_dict(reports) -> dict:
    return {r.kind: r.to_dict() for r in reports}


def _cmd_estimate(args, out) -> None:
    from .moments import estimate_moments, read_samples_csv
    with _open_input(args.input, newline="") as fh:
        samples = read_samples_csv(fh)
    est = estimate_moments(samples, ddof=args.ddof, ridge=args.ridge)
    out.write(dump_json({
        "mean": [float(v) for v in est.mean],
        "covariance": [[float(v) for v in row] for row in est.cov.entries],
        **_cov_fields(est.cov),
    }))


def _cmd_ratio(args, out) -> None:
    from .linalg import Covariance
    from .regions import log_volume_ratio, volume_ratio
    cov = Covariance(_load_json_arg(args.cov))
    ratio = {"ratio": _in_range(volume_ratio(cov)), "log_ratio": log_volume_ratio(cov)}
    out.write(dump_json(_cov_fields(cov) | ratio))


def _cmd_bound(args, out) -> None:
    if args.classical:
        if args.var is None or args.dim is not None:
            raise UsageError("--classical takes --var and not --dim")
        b = classical_bound(args.var, args.eps)
    else:
        if args.var is not None:
            raise UsageError("--var needs --classical")
        if args.dim is None:
            raise UsageError("either --dim or --classical --var is required")
        b = chebyshev_bound(args.dim, args.eps)
    out.write(dump_json({"raw": b.raw if b.raw < math.inf else None, "clamped": b.clamped}))


def _cmd_region(args, out) -> None:
    from .linalg import Covariance
    from .regions import make_ellipsoid, make_sphere, region_to_dict
    cov = Covariance(_load_json_arg(args.cov))
    center = [0.0] * cov.dim if args.center is None else _load_json_arg(args.center)
    make = make_ellipsoid if args.kind == "ellipsoid" else make_sphere
    out.write(dump_json(region_to_dict(make(center, cov, args.delta), delta=args.delta)))


def _cmd_coverage(args, out) -> None:
    from .experiments import run_coverage, run_coverage_estimated
    spec = _load_spec(args.spec, args.seed)
    if args.estimated:
        both = run_coverage_estimated(spec, args.delta, args.n, streams=args.streams)
        payload = _reports_dict(both["true"]) | {"estimated": _reports_dict(both["estimated"])}
    else:
        payload = _reports_dict(run_coverage(spec, args.delta, args.n, streams=args.streams))
    out.write(dump_json(payload))


def _cmd_tail(args, out) -> None:
    from .experiments import run_tail_curve
    spec = _load_spec(args.spec, args.seed)
    out.write(dump_json(run_tail_curve(spec, args.eps, args.n, streams=args.streams).to_dict()))


def _cmd_figure(args, out) -> None:
    from .experiments import export_figure, figure_csv_texts
    from .sampler import STREAM_FORMAT
    # a flag not given is None, so export_figure's defaults are the reference setting
    skip = ("command", "func", "out_prefix")
    fig = export_figure(**{k: v for k, v in vars(args).items() if k not in skip and v is not None})
    csvs = figure_csv_texts(fig)  # samples, ellipse, circle
    # manifest records basenames: the files sit next to it, and equivalent
    # runs in different directories stay byte-identical
    base = os.path.basename(args.out_prefix)
    manifest = {"params": dict(fig.params), "threshold": fig.threshold, "radius_sq": fig.radius_sq,
                "files": {name: f"{base}{name}.csv" for name in csvs},
                "stream_format": STREAM_FORMAT}
    texts = {f"{name}.csv": text for name, text in csvs.items()}
    texts["manifest.json"] = dump_json(manifest)
    with atomic_files([args.out_prefix + name for name in texts]) as files:
        for fh, text in zip(files, texts.values()):
            fh.write(text)


def _cmd_sample(args, out) -> None:
    from .moments import write_samples_csv
    from .sampler import draw
    write_samples_csv(draw(_load_spec(args.spec, args.seed), args.n), out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvcheb",
        description=(
            "Multivariate Chebyshev tail bounds, sphere/ellipsoid confidence "
            "regions, and seeded Monte Carlo verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, func, *, out: bool = True, seed: bool = False,
            streams: bool = False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, out=None)  # figure has no --out
        if out:
            p.add_argument("--out", default=None, help="output path (default stdout)")
        if seed:
            p.add_argument("--seed", type=int, help="64-bit seed; overrides any seed in the "
                           "spec JSON (default: spec seed, else 0)")
        if streams:
            p.add_argument("--streams", type=int, default=1, help="worker count; changes no result")
        return p

    p = add("estimate", "estimate mean/covariance from a sample CSV", _cmd_estimate)
    p.add_argument("--input", required=True, help="CSV with header x1,...,xn")
    p.add_argument("--ddof", type=int, choices=(0, 1), default=1)
    p.add_argument("--ridge", type=float, default=0.0, help="add ridge*I before validation")

    p = add("ratio", "sphere/ellipsoid volume ratio of a covariance matrix", _cmd_ratio)
    p.add_argument("--cov", required=True, help="matrix as inline JSON or a JSON file path")

    p = add("bound", "evaluate a tail bound (raw and clamped)", _cmd_bound)
    p.add_argument("--dim", type=int, default=None, help="dimension n for the n/eps bound")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--classical", action="store_true", help="use the Var/eps^2 bound")
    p.add_argument("--var", type=float, default=None, help="total variance (classical)")

    p = add("region", "construct a confidence region and print its JSON form", _cmd_region)
    p.add_argument("--kind", choices=("ellipsoid", "sphere"), required=True)
    p.add_argument("--cov", required=True, help="matrix as inline JSON or a JSON file path")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--center", default=None, help="center as JSON list (default zeros)")

    p = add("coverage", "Monte Carlo coverage of both regions", _cmd_coverage,
            seed=True, streams=True)
    p.add_argument("--spec", required=True, help="sampler spec as inline JSON or file path")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--estimated", action="store_true",
                   help="also report coverage with moments re-fitted from the samples")

    p = add("tail", "empirical tails vs both bound curves", _cmd_tail, seed=True, streams=True)
    p.add_argument("--spec", required=True, help="sampler spec as inline JSON or file path")
    p.add_argument("--eps", type=_eps_grid, required=True, help="comma list, ascending")
    p.add_argument("--n", type=int, required=True)

    p = add("figure", "export the 2-D comparison figure data", _cmd_figure, out=False, seed=True)
    p.add_argument("--sigma", type=float)
    p.add_argument("--k", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--n", dest="n_samples", metavar="N", type=int)
    p.add_argument(
        "--points", dest="boundary_points", metavar="POINTS", type=int,
        help="boundary points per curve",
    )
    p.add_argument("--out-prefix", default="figure_",
                   help="prefix for samples/ellipse/circle.csv and manifest.json")

    p = add("sample", "draw a sample set and write it as CSV", _cmd_sample, seed=True)
    p.add_argument("--spec", required=True, help="sampler spec as inline JSON or file path")
    p.add_argument("--n", type=int, required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with atomic_files([] if args.out is None else [args.out]) as files:
            out = files[0] if files else sys.stdout
            args.func(args, out)
            out.flush()  # so a closed stdout shows here, not at exit
    except BrokenPipeError:  # the reader has gone (`| head`): exit 0, as a pipeline expects
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (UsageError, DomainError, MemoryError, OSError) as exc:
        msg = f"out of memory: {exc}".removesuffix(": ") if isinstance(exc, MemoryError) else exc
        print(f"mvcheb: error: {msg}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 4 if isinstance(exc, OSError) else 3
    return 0
