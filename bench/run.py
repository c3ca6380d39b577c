"""mvcheb benchmark: one workload, closed loop, one caller.

    python3 bench/run.py --workload coverage_2d --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; mvcheb is imported from its ``src/``.
Untraced (``--trace 0``) it prints the end-to-end metrics; traced
(``--trace 1``) it alternates untraced and traced ops and prints the
per-layer metrics. The last line of stdout is the JSON result; the lines
above it are the machine record and the metrics in readable form. Spans and
the full result are written under ``bench/out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from time import perf_counter, process_time

import numpy as np

from tracing import Tracer, import_seconds, layer_metrics
from workloads import BENCH, OUT, ROOT, WORKLOADS, CheckFailed, import_mvcheb, run_child

SETUP_PROBES = 5  # fresh processes per run; setup_s is their median
WARMUP_S = 1.0  # untimed ops before measuring, at least one rotation
MIN_OPS = 20  # timed ops even if --seconds runs out first
TAIL_BEYOND = 10  # samples above the tail percentile

UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "samples_per_s": "1/s",
    "cpu_s_per_op": "s",
    "peak_mem_mb": "MB",
}


def layer_unit(name: str) -> str:
    if ".ns_per_" in name:
        return "ns"
    if name.startswith("trace.") or name.endswith(("_ratio", "_per_sample")):
        return "ratio"
    if name.endswith("_s"):
        return "s"
    if name.startswith(("moments.bytes", "jsonio.bytes")):
        return "bytes"
    return "count"


@dataclass
class OpRecord:
    index: int
    wall_s: float
    cpu_s: float
    traced: bool
    error: str | None
    imports: tuple[float, float] | None = None  # (mvcheb, scipy) import s of a traced child
    maxrss_mb: float | None = None  # peak resident memory of a child


def run_op(workload, index: int, tracer: Tracer | None = None) -> OpRecord:
    """Run, time and check one op. A raised exception or a failed check is
    recorded as the op's error rather than stopping the run."""
    cpu0, start = process_time(), perf_counter()
    try:
        if tracer is None:
            out = workload.op(index)
        else:
            with tracer.op(index):
                out = workload.op(index, traced=True)
    except Exception as exc:  # one failed op must not end the run
        return OpRecord(index, perf_counter() - start, process_time() - cpu0, tracer is not None, repr(exc))
    wall = perf_counter() - start
    cpu = out.cpu_s if workload.child_process else process_time() - cpu0
    imports = import_seconds(out.stderr.decode()) if tracer and workload.child_process else None
    maxrss = out.maxrss_mb if workload.child_process else None
    error = None
    try:
        workload.check(index, out)
    except CheckFailed as exc:
        error = f"check failed: {exc}"
    except Exception as exc:  # a malformed output is a failed check too
        error = f"check raised {exc!r}"
    return OpRecord(index, wall, cpu, tracer is not None, error, imports, maxrss)


def peak_mem_mb(workload, index: int) -> tuple[float, OpRecord]:
    """Peak memory of one untimed op: tracemalloc in-process, ru_maxrss of
    the child for a CLI op."""
    if workload.child_process:
        record = run_op(workload, index)
        return record.maxrss_mb or 0.0, record  # 0 only if the child never ran
    tracemalloc.start()
    try:
        record = run_op(workload, index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6, record


def setup_probes(name: str, seed: int, importtime: bool) -> tuple[list[float], list[tuple[float, float]]]:
    """Set-up seconds of fresh processes, and their import times if asked."""
    flags = ["-X", "importtime"] if importtime else []
    cmd = [sys.executable, *flags, str(BENCH / "probe.py"), name, str(seed)]
    times, imports = [], []
    for _ in range(SETUP_PROBES):
        child, ready_s = run_child(cmd)
        if child.returncode != 0 or ready_s is None:
            raise RuntimeError(f"set-up probe failed ({child.returncode}): {child.stderr[-2000:].decode()}")
        times.append(ready_s)
        if importtime:
            imports.append(import_seconds(child.stderr.decode()))
    return times, imports


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it; the maximum when there are too few samples."""
    ordered = sorted(walls)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def machine_record(seed: int) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    cpu_model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    try:  # the ceiling keeps git from reporting an enclosing repository
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        )
        commit = git.stdout.strip() if git.returncode == 0 else None
    except OSError:
        commit = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_commit": commit,
        "seed": seed,
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full record)."""
    mv = import_mvcheb()
    probe_s, probe_imports = setup_probes(name, seed, importtime=trace)
    workload = WORKLOADS[name](seed)
    records: list[OpRecord] = []

    index = 0
    warm_end = perf_counter() + WARMUP_S
    while perf_counter() < warm_end or index < workload.cycle:
        records.append(run_op(workload, index))
        index += 1
    warm = len(records)

    peak_mb = None
    if not trace:
        peak_mb, record = peak_mem_mb(workload, index)
        records.append(record)
        index += 1

    tracer = Tracer(mv) if trace else None
    timed: list[OpRecord] = []
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or len(timed) < MIN_OPS:
        # traced runs alternate whole rotations: untraced, traced, ...
        traced = trace and (len(timed) // workload.cycle) % 2 == 1
        timed.append(run_op(workload, index, tracer if traced else None))
        index += 1
    records += timed

    failed = sum(r.error is not None for r in records)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine_record(seed),
        "warmup_ops": warm,
        "timed_ops": len(timed),
        "attempted": len(records),
        "failed": failed,
        "error_rate": failed / len(records),
        "errors": [f"op {r.index}: {r.error}" for r in records if r.error][:20],
    }
    if trace:
        metrics = _layer_metrics(workload, tracer, timed, probe_imports)
        tracer.write(OUT / f"spans-{name}-{seed}.json")
    else:
        walls = [r.wall_s for r in timed]
        tail_s, tail_pct = tail(walls)
        per_op = workload.n_samples or 1  # cli_short: one call per op
        metrics = {
            "setup_s": statistics.median(probe_s),
            "op_p50_s": statistics.median(walls),
            "op_tail_s": tail_s,
            "samples_per_s": per_op * len(walls) / sum(walls),
            "cpu_s_per_op": statistics.median(r.cpu_s for r in timed),
            "peak_mem_mb": peak_mb,
        }
        record["op_tail"] = {"percentile": tail_pct, "samples": len(walls)}
        record["op_walls_s"] = walls
        record["setup_probes_s"] = probe_s
    units = {k: UNITS.get(k) or layer_unit(k) for k in metrics}
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record["metrics"] = result["metrics"]
    (OUT / f"result-{name}-{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")
    return result, record


def _layer_metrics(workload, tracer: Tracer, timed: list[OpRecord], probe_imports) -> dict:
    traced = [r for r in timed if r.traced]
    untraced = [r for r in timed if not r.traced]
    # counts are taken over whole rotations so they repeat exactly
    used = {r.index for r in traced[: len(traced) // workload.cycle * workload.cycle]}
    spans = [s for s in tracer.spans if s.op in used]
    used_ops = [r for r in traced if r.index in used]
    op_imports = [r.imports for r in used_ops if r.imports]
    imports = list(probe_imports) + op_imports
    # a CLI op's import happens in the child, which no span can see
    child_import_s = statistics.fmean(i[0] for i in op_imports) if op_imports else 0.0
    op_wall = statistics.fmean(r.wall_s for r in used_ops)
    metrics = layer_metrics(spans, len(used), workload.n_samples, op_wall, child_import_s)
    metrics["cli.import_s"] = statistics.median(i[0] for i in imports)
    metrics["cli.import_scipy_s"] = statistics.median(i[1] for i in imports)
    metrics["trace.overhead"] = (
        statistics.median(r.wall_s for r in traced) / statistics.median(r.wall_s for r in untraced) - 1.0
    )
    return {k: metrics[k] for k in sorted(metrics)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="mvcheb benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("machine " + json.dumps(record["machine"]))
    for key, metric in result["metrics"].items():
        print(f"  {key:40s} {metric['value']:.6g} {metric['unit']}")
    if "op_tail" in record:
        print(f"  op_tail_s is p{record['op_tail']['percentile']:.1f} of {record['op_tail']['samples']} timed ops")
    print(f"  error_rate {record['error_rate']:.6g} ({record['failed']}/{record['attempted']} ops failed)")
    for line in record["errors"]:
        print(f"  {line}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
