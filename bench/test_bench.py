"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py -q"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MV = workloads.import_mvcheb()


def traced_rotation(name: str, seed: int = 3) -> dict:
    """Layer metrics of one traced rotation of a fresh workload."""
    workload = workloads.WORKLOADS[name](seed)
    tracer = tracing.Tracer(MV)
    for i in range(workload.cycle):
        record = run.run_op(workload, i, tracer)
        assert record.error is None, record.error
    return tracing.layer_metrics(tracer.spans, workload.cycle, workload.n_samples, 1.0, 0.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_computed_counts_repeat_exactly(name):
    first = traced_rotation(name)
    second = traced_rotation(name)
    assert {k: first[k] for k in tracing.COMPUTED} == {k: second[k] for k in tracing.COMPUTED}


def test_computed_counts_match_the_workload_shapes():
    cov = traced_rotation("coverage_2d")
    assert cov["sampler.words_generated"] == (1 << 20) * 4
    assert cov["sampler.word_use_ratio"] == 0.5
    assert cov["sampler.draws_per_sample"] == 1.0
    assert cov["experiments.chunks"] == 2
    assert cov["regions.points_tested"] == 2 * (1 << 20)
    est = traced_rotation("estimated_d64")
    assert est["sampler.draws_per_sample"] == 2.0
    assert est["sampler.word_use_ratio"] == 1.0
    assert est["moments.bytes_held_computed"] == (1 << 16) * 64 * 8
    # one ellipsoid test in run_coverage, two (true and fitted) in the estimated path
    assert est["linalg.quad_form.flops_computed"] == 3 * 2 * (1 << 16) * 64 * 65
    cli = traced_rotation("cli_short")
    assert cli["sampler.draw_range.calls"] == 0
    assert cli["jsonio.bytes_out"] > 0


def test_printed_metrics_match_the_manifest():
    manifest = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} == run.UNITS
    layers = set(traced_rotation("coverage_2d")) | {"cli.import_s", "cli.import_scipy_s", "trace.overhead"}
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == {k: run.layer_unit(k) for k in layers}


def test_untraced_ops_run_the_original_functions():
    workload = workloads.Coverage2D(3)
    tracer = tracing.Tracer(MV)
    originals = [(ns, attr, vars(ns)[attr]) for ns, attr, _, _ in tracer._bindings]
    run.run_op(workload, 0, tracer)
    assert all(vars(ns)[attr] is fn for ns, attr, fn in originals)


def test_failed_check_makes_error_rate_nonzero(monkeypatch):
    monkeypatch.setattr(workloads, "expected_ratio", lambda k: (k + 2.0) / (2.0 * k**0.5) + 1e-9)
    result, record = run.run("cli_short", 3, 0.0, False)
    assert result["failed"] > 0 and not result["correct"]
    assert record["error_rate"] > 0
    assert all("ratio" in line for line in record["errors"])


@pytest.mark.parametrize("name", ["coverage_2d", "tail_2d_g200", "estimated_d64"])
def test_check_rejects_a_corrupted_output(name):
    workload = workloads.WORKLOADS[name](3)
    out = workload.op(0)
    workload.check(0, out)
    if name == "coverage_2d":
        bad = (dataclasses.replace(out[0], hits=out[0].hits - 1), out[1])
    elif name == "tail_2d_g200":
        # still under both bounds and non-increasing: only the recount sees it
        bad = dataclasses.replace(out, empirical_tail=out.empirical_tail * 0.5)
    else:
        pair, both = out
        bad = (pair, dict(both, true=(dataclasses.replace(both["true"][0], hits=1), both["true"][1])))
    with pytest.raises(workloads.CheckFailed):
        workload.check(1, bad)


def test_correct_workload_has_no_errors():
    workload = workloads.CliShort(3)
    records = [run.run_op(workload, i) for i in range(2 * workload.cycle)]
    assert [r.error for r in records] == [None] * len(records)


def test_tail_percentile_leaves_ten_samples_above():
    value, percentile = run.tail([float(v) for v in range(1, 31)])
    assert value == 20.0
    assert percentile == pytest.approx(100 * 20 / 30)


def test_self_times_split_parallel_leaves_and_sum_to_the_op():
    def span(i, name, start, end, parent):
        s = tracing.Span(i, name, parent, 0)
        s.start, s.end = start, end
        return s

    spans = [span(0, "root", 0.0, 10.0, None), span(1, "a", 2.0, 6.0, 0), span(2, "b", 4.0, 8.0, 0)]
    own = tracing.self_times(spans)
    assert own == {"root": 4.0, "a": 3.0, "b": 3.0}


def test_import_seconds_reads_nesting():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         scipy._lib",
        "import time:       200 |        300 |       scipy",
        "import time:       400 |        700 |     scipy.linalg",
        "import time:        50 |        750 |   mvcheb.linalg",
        "import time:        50 |        800 | mvcheb",
    ])
    assert tracing.import_seconds(text) == (800e-6, 700e-6)


def test_fails_without_mvcheb_sources(tmp_path):
    bench = Path(__file__).resolve().parent
    shutil.copytree(bench, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    manifest = bench.parent / "BENCHMARK.json"
    if manifest.exists():
        shutil.copy(manifest, tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "coverage_2d", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    lines = proc.stdout.strip().splitlines()
    with pytest.raises((IndexError, json.JSONDecodeError)):
        json.loads(lines[-1])
