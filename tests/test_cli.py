"""End-to-end CLI tests: output schemas, determinism, exit codes."""

import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mvcheb import cli, sampler

EXAMPLE_COV = "[[1,1],[1,26]]"
PAPER_SPEC = '{"kind":"paper_example","sigma":1.0,"k":25.0,"seed":42}'


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "mvcheb", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def run_json(*args, cwd=None):
    proc = run_cli(*args, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestEstimate:
    def test_two_row_variance(self, tmp_path):
        path = tmp_path / "two.csv"
        path.write_text("x1\n-1.0\n1.0\n")
        out = run_json("estimate", "--input", str(path), "--ddof", "1")
        assert out["covariance"] == [[2.0]]
        assert out["mean"] == [0.0]
        assert out["trace"] == 2.0
        assert out["det"] == pytest.approx(2.0, rel=1e-12)

    def test_round_trip_with_sample(self, tmp_path):
        csv_path = tmp_path / "draws.csv"
        proc = run_cli("sample", "--spec", PAPER_SPEC, "--n", "100000", "--out", str(csv_path))
        assert proc.returncode == 0, proc.stderr
        out = run_json("estimate", "--input", str(csv_path))
        target = np.array([[1.0, 1.0], [1.0, 26.0]])
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / 100000)
        assert np.all(np.abs(np.array(out["covariance"]) - target) <= 5 * se)
        assert np.all(np.abs(out["mean"]) <= 5 * np.sqrt(np.diag(target) / 100000))

    def test_empty_file_exits_2(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert run_cli("estimate", "--input", str(path)).returncode == 2

    def test_ragged_file_exits_2(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("x1,x2\n1.0,2.0\n3.0\n")
        proc = run_cli("estimate", "--input", str(path))
        assert proc.returncode == 2
        assert "line 3" in proc.stderr

    def test_degenerate_covariance_exits_3(self, tmp_path):
        path = tmp_path / "flat.csv"
        path.write_text("x1,x2\n0.0,0.0\n1.0,1.0\n2.0,2.0\n")
        assert run_cli("estimate", "--input", str(path)).returncode == 3

    def test_missing_input_exits_2(self, tmp_path):
        assert run_cli("estimate", "--input", str(tmp_path / "nope.csv")).returncode == 2

    def test_nan_row_exits_3(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("x1,x2\n1.0,2.0\nnan,3.0\n")
        assert run_main("estimate", "--input", str(path)) == 3
        assert capsys.readouterr().err == "mvcheb: error: sample entries must be finite\n"


class TestRatio:
    def test_example_matrix(self):
        out = run_json("ratio", "--cov", EXAMPLE_COV)
        assert out["ratio"] == pytest.approx(2.7, rel=1e-12)
        assert out["trace"] == 27.0 and out["det"] == pytest.approx(25.0, rel=1e-12)
        assert out["log_det"] == pytest.approx(np.log(25.0), rel=1e-12)
        assert out["log_ratio"] == pytest.approx(np.log(2.7), rel=1e-12)

    @pytest.mark.parametrize(
        "matrix, expect",
        [
            (1e300 * np.eye(3), {"trace": 3e300, "det": None, "ratio": 1.0, "log_ratio": 0.0}),
            (1e308 * np.eye(2), {"trace": None, "det": None, "ratio": 1.0, "log_ratio": 0.0}),
            (np.diag([1e-5] * 200 + [1e5] * 200), {"det": 1.0, "ratio": None}),
        ],
        ids=["1e300_I3", "1e308_I2", "split_diag_400"],
    )
    def test_out_of_range_values_print_null_under_warnings_as_errors(self, matrix, expect, tmp_path):
        path = tmp_path / "cov.json"
        path.write_text(json.dumps(matrix.tolist()))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "mvcheb", "ratio", "--cov", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout, parse_constant=lambda c: pytest.fail(f"non-strict JSON {c}"))
        assert {key: out[key] for key in expect} == pytest.approx(expect, rel=1e-12)
        assert np.isfinite(out["log_det"]) and np.isfinite(out["log_ratio"])

    def test_identity(self):
        assert run_json("ratio", "--cov", "[[1,0],[0,1]]")["ratio"] == pytest.approx(1.0)

    def test_diag_1_4(self):
        assert run_json("ratio", "--cov", "[[1,0],[0,4]]")["ratio"] == pytest.approx(1.25, rel=1e-12)

    def test_cov_from_file(self, tmp_path):
        path = tmp_path / "cov.json"
        path.write_text(EXAMPLE_COV)
        assert run_json("ratio", "--cov", str(path))["ratio"] == pytest.approx(2.7, rel=1e-12)

    def test_non_pd_exits_3(self):
        assert run_cli("ratio", "--cov", "[[1,2],[2,1]]").returncode == 3

    def test_malformed_json_exits_2(self):
        assert run_cli("ratio", "--cov", "[[1,2],[2,").returncode == 2


class TestBound:
    def test_dimension_bound(self):
        out = run_json("bound", "--dim", "2", "--eps", "20")
        assert out["raw"] == pytest.approx(0.1, rel=1e-15)
        assert out["clamped"] == out["raw"]

    def test_classical(self):
        out = run_json("bound", "--classical", "--var", "27", "--eps", "16.43168")
        assert out["raw"] == pytest.approx(0.1, rel=1e-4)

    def test_zero_eps_exits_2(self):
        assert run_cli("bound", "--dim", "2", "--eps", "0").returncode == 2

    def test_clamping(self):
        assert run_json("bound", "--dim", "2", "--eps", "1")["clamped"] == 1.0

    @pytest.mark.parametrize(
        "argv, raw, clamped",
        [
            (("--dim", "3", "--eps", "1e-320"), None, 1.0),
            (("--classical", "--var", "1", "--eps", "1e-200"), None, 1.0),
            (("--classical", "--var", "1", "--eps", "1e200"), 0.0, 0.0),
        ],
    )
    def test_raw_beyond_float_range_prints_null(self, argv, raw, clamped, capsys):
        # an inf raw bound is null, as ratio prints its fields; a raw 0.0 stays a number
        assert run_main("bound", *argv) == 0
        assert json.loads(capsys.readouterr().out) == {"raw": raw, "clamped": clamped}


@pytest.mark.parametrize(
    "argv",
    [
        ("bound", "--dim", "2", "--eps", "nan"),
        ("bound", "--dim", "2", "--eps", "inf"),
        ("bound", "--classical", "--var", "nan", "--eps", "2"),
        ("bound", "--classical", "--var", "inf", "--eps", "2"),
        ("tail", "--spec", PAPER_SPEC, "--eps", "2,nan", "--n", "10"),
        ("tail", "--spec", PAPER_SPEC, "--eps", "2,inf", "--n", "10"),
    ],
)
def test_non_finite_input_exits_2(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "JSON compliant" not in proc.stderr


class TestRegion:
    def test_ellipsoid_schema(self):
        out = run_json("region", "--kind", "ellipsoid", "--cov", EXAMPLE_COV, "--delta", "0.1")
        assert out["kind"] == "ellipsoid"
        assert out["threshold"] == pytest.approx(20.0, rel=1e-15)
        assert out["center"] == [0.0, 0.0]
        assert out["cov"] == [[1.0, 1.0], [1.0, 26.0]]
        assert out["delta"] == 0.1

    def test_sphere_schema(self):
        out = run_json("region", "--kind", "sphere", "--cov", EXAMPLE_COV, "--delta", "0.1")
        assert out == {"kind": "sphere", "center": [0.0, 0.0], "radius_sq": 270.0}

    def test_delta_out_of_range_exits_3(self):
        proc = run_cli("region", "--kind", "sphere", "--cov", EXAMPLE_COV, "--delta", "1.5")
        assert proc.returncode == 3


class TestCoverage:
    def test_paper_example_guarantee(self):
        out = run_json("coverage", "--spec", PAPER_SPEC, "--delta", "0.1", "--n", "1000")
        assert out["ellipsoid"]["empirical_coverage"] >= 0.9
        assert out["sphere"]["empirical_coverage"] >= 0.9
        assert out["ellipsoid"]["n_samples"] == 1000

    def test_byte_identical_reruns(self):
        args = ("coverage", "--spec", PAPER_SPEC, "--delta", "0.1", "--n", "2000")
        a, b = run_cli(*args), run_cli(*args)
        assert a.returncode == 0 and a.stdout == b.stdout

    def test_streams_equal_hit_for_hit(self):
        args = ("coverage", "--spec", PAPER_SPEC, "--delta", "0.1", "--n", "10000")
        one = run_cli(*args, "--streams", "1")
        four = run_cli(*args, "--streams", "4")
        assert one.returncode == 0
        assert one.stdout == four.stdout

    def test_seed_flag_overrides_spec_seed(self):
        args = ("sample", "--spec", PAPER_SPEC, "--n", "20")
        default = run_cli(*args)
        reseeded = run_cli(*args, "--seed", "7")
        same = run_cli(*args, "--seed", "42")
        assert default.stdout == same.stdout  # spec carries seed 42
        assert default.stdout != reseeded.stdout

    def test_estimated_mode(self):
        out = run_json(
            "coverage", "--spec", PAPER_SPEC, "--delta", "0.1", "--n", "2000", "--estimated"
        )
        assert set(out) == {"ellipsoid", "sphere", "estimated"}
        assert set(out["estimated"]) == {"ellipsoid", "sphere"}

    def test_bad_kind_exits_2(self):
        spec = '{"kind":"laplace","seed":1}'
        assert run_cli("coverage", "--spec", spec, "--delta", "0.1", "--n", "10").returncode == 2

    @pytest.mark.parametrize("streams", ["0", "-2"])
    def test_streams_below_one_exits_2(self, streams):
        args = ("coverage", "--spec", PAPER_SPEC, "--delta", "0.1", "--n", "10")
        assert run_cli(*args, "--streams", streams).returncode == 2

    def test_bad_spec_scalar_exits_2(self):
        for spec in (
            '{"kind":"paper_example","sigma":"abc","k":25.0}',
            '{"kind":"paper_example","sigma":1.0,"k":25.0,"seed":1.7}',
        ):
            proc = run_cli("coverage", "--spec", spec, "--delta", "0.1", "--n", "10")
            assert proc.returncode == 2
            assert "Traceback" not in proc.stderr

    def test_non_pd_gaussian_cov_exits_3(self):
        spec = '{"kind":"gaussian","mean":[0,0],"cov":[[1,2],[2,1]]}'
        assert run_cli("coverage", "--spec", spec, "--delta", "0.1", "--n", "10").returncode == 3

    def test_bad_delta_exits_3(self):
        assert (
            run_cli("coverage", "--spec", PAPER_SPEC, "--delta", "2.0", "--n", "10").returncode
            == 3
        )


class TestTail:
    def test_schema_and_bound(self):
        out = run_json("tail", "--spec", PAPER_SPEC, "--eps", "2,4,20", "--n", "5000")
        assert list(out) == [
            "eps_grid", "empirical_tail", "new_bound", "classical_tail", "classical_bound",
        ]
        assert out["new_bound"][2] == pytest.approx(0.1, rel=1e-12)
        assert out["empirical_tail"][2] <= 0.01

    def test_empty_grid_exits_2(self):
        assert run_cli("tail", "--spec", PAPER_SPEC, "--eps", ",", "--n", "10").returncode == 2

    def test_streams_equal_byte_for_byte(self):
        # N spans four chunks, so three workers reduce them out of step
        args = ("tail", "--spec", PAPER_SPEC, "--eps", "1,2,5,10,20,40", "--n", "200000")
        one = run_cli(*args, "--streams", "1")
        three = run_cli(*args, "--streams", "3")
        assert one.returncode == 0, one.stderr
        assert one.stdout == three.stdout == run_cli(*args).stdout

    @pytest.mark.parametrize("streams", ["0", "-2"])
    def test_streams_below_one_exits_2(self, streams):
        args = ("tail", "--spec", PAPER_SPEC, "--eps", "2", "--n", "10", "--streams", streams)
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stderr == f"mvcheb: error: streams must be a positive integer, got {streams}\n"


class TestFigure:
    def test_default_run_manifest(self, tmp_path):
        proc = run_cli("figure", "--out-prefix", str(tmp_path / "fig_"), "--seed", "0")
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((tmp_path / "fig_manifest.json").read_text())
        assert manifest["threshold"] == pytest.approx(20.0, rel=1e-15)
        assert manifest["radius_sq"] == pytest.approx(270.0, rel=1e-15)
        assert manifest["params"] == {
            "sigma": 1.0, "k": 25.0, "delta": 0.1, "seed": 0, "N": 1000,
        }
        samples = (tmp_path / "fig_samples.csv").read_text().splitlines()
        assert samples[0] == "x,y" and len(samples) == 1001
        assert len((tmp_path / "fig_ellipse.csv").read_text().splitlines()) == 257

    def test_rerun_identical_files(self, tmp_path):
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            assert (
                run_cli("figure", "--out-prefix", str(d / "fig_"), "--seed", "3").returncode
                == 0
            )
        for name in ("samples.csv", "ellipse.csv", "circle.csv", "manifest.json"):
            assert (tmp_path / "a" / f"fig_{name}").read_bytes() == (
                tmp_path / "b" / f"fig_{name}"
            ).read_bytes()

    def test_four_point_circle_is_axis_aligned(self, tmp_path):
        proc = run_cli("figure", "--points", "4", "--out-prefix", str(tmp_path / "q_"))
        assert proc.returncode == 0
        rows = (tmp_path / "q_circle.csv").read_text().splitlines()[1:]
        pts = np.array([[float(v) for v in r.split(",")] for r in rows])
        r = np.sqrt(270.0)
        assert np.allclose(pts, [[r, 0], [0, r], [-r, 0], [0, -r]], atol=1e-12)

    def test_unwritable_prefix_exits_4(self, tmp_path):
        prefix = str(tmp_path / "missing" / "sub" / "fig_")
        proc = run_cli("figure", "--out-prefix", prefix)
        assert proc.returncode == 4
        assert not (tmp_path / "missing").exists()


class TestSample:
    def test_row_count_and_header(self):
        proc = run_cli("sample", "--spec", PAPER_SPEC, "--n", "5")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "x1,x2" and len(lines) == 6

    def test_invalid_kind_exits_2(self):
        assert run_cli("sample", "--spec", '{"kind":"bogus"}', "--n", "5").returncode == 2

    @pytest.mark.parametrize("text, shown", [
        ("Unable to allocate 1.49 GiB", "out of memory: Unable to allocate 1.49 GiB"),
        ("", "out of memory"),
    ], ids=["numpy", "bare"])
    def test_memory_exhaustion_exits_3_without_traceback(self, monkeypatch, capsys, text, shown):
        def exhausted(spec, n_samples, stream_index=0):
            raise MemoryError(text)

        monkeypatch.setattr(sampler, "draw", exhausted)
        assert cli.main(["sample", "--spec", PAPER_SPEC, "--n", "100000000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"mvcheb: error: {shown}\n"

    def test_out_file_matches_stdout(self, tmp_path, capsys):
        csv_path = tmp_path / "in.csv"
        csv_path.write_text("x1,x2\n0.0,0.0\n1.0,2.0\n2.0,1.0\n")
        table = {
            "estimate": ("--input", str(csv_path)),
            "ratio": ("--cov", EXAMPLE_COV),
            "bound": ("--dim", "2", "--eps", "20"),
            "region": ("--kind", "ellipsoid", "--cov", EXAMPLE_COV, "--delta", "0.1"),
            "coverage": ("--spec", PAPER_SPEC, "--delta", "0.1", "--n", "100"),
            "tail": ("--spec", PAPER_SPEC, "--eps", "2,4,20", "--n", "100"),
            "sample": ("--spec", PAPER_SPEC, "--n", "20"),
        }
        for command, args in table.items():
            path = tmp_path / f"{command}.out"
            assert cli.main([command, *args, "--out", str(path)]) == 0, command
            assert capsys.readouterr().out == "", command
            assert cli.main([command, *args]) == 0, command
            assert path.read_text() == capsys.readouterr().out, command


class TestUsage:
    def test_runtime_imports_no_scipy(self):
        # the namespace is lazy, so every submodule is named
        code = (
            "import mvcheb, mvcheb.cli, mvcheb.errors, mvcheb.experiments, mvcheb.jsonio, "
            "mvcheb.linalg, mvcheb.moments, mvcheb.regions, mvcheb.sampler, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("argv", [
        ("ratio", "--cov", EXAMPLE_COV),
        ("bound", "--dim", "2", "--eps", "20"),
        ("region", "--kind", "ellipsoid", "--cov", EXAMPLE_COV, "--delta", "0.1"),
    ], ids=lambda argv: argv[0])
    def test_closed_form_commands_start_without_the_sampling_stack(self, argv):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "mvcheb", *argv],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = {
            line.rsplit("|", 1)[1].strip()
            for line in proc.stderr.splitlines() if line.startswith("import time:")
        }
        assert "mvcheb.regions" in loaded
        # numpy 1.x imports numpy.random itself; only what mvcheb adds counts
        numpy_alone = subprocess.run(
            [sys.executable, "-c", "import numpy, sys; print(*sys.modules)"],
            capture_output=True, text=True, check=True,
        ).stdout.split()
        unwanted = {"mvcheb.experiments", "mvcheb.sampler", "mvcheb.moments", "numpy.random",
                    "concurrent.futures"}
        assert not loaded & (unwanted - set(numpy_alone))

    def test_no_subcommand_exits_2(self):
        assert run_cli().returncode == 2

    def test_unknown_flag_exits_2(self):
        assert run_cli("ratio", "--covariance", "[[1]]").returncode == 2


def run_main(*argv):
    """Exit code of ``cli.main`` run in this process."""
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code


def coverage_args(spec):
    return ("coverage", "--spec", json.dumps(spec), "--delta", "0.1", "--n", "10")


@pytest.mark.parametrize(
    "argv, code",
    [
        # arrays that do not convert to floats are usage errors
        (("ratio", "--cov", '{"a":1}'), 2),
        (("ratio", "--cov", "[[1,2],[3]]"), 2),
        (("ratio", "--cov", '[["a","b"],["c","d"]]'), 2),
        (("region", "--kind", "sphere", "--cov", "[[1]]", "--delta", "0.1", "--center", '{"x":1}'), 2),
        (coverage_args({"kind": "gaussian", "mean": {"a": 1}, "cov": [[1]]}), 2),
        (coverage_args({"kind": "tight_radial", "eps": 5.0, "dim": -1}), 2),
        (coverage_args({"kind": "tight_radial", "eps": 5.0, "dim": 0}), 2),
        # values beyond the float range end in a message, not a traceback
        (("ratio", "--cov", "[[1e-170,0],[0,1e-170]]"), 0),
        (("bound", "--classical", "--var", "1", "--eps", "1e200"), 0),
        (("bound", "--classical", "--var", "1", "--eps", "1e-200"), 0),
        (("bound", "--dim", "1" + "0" * 400, "--eps", "1"), 3),
        (coverage_args({"kind": "paper_example", "sigma": 1e200, "k": 1.0}), 3),
        (("sample", "--spec", '{"kind":"paper_example","sigma":1e200,"k":1}', "--n", "3"), 3),
        # sizes beyond the largest array are refused before anything is allocated
        (("sample", "--spec", PAPER_SPEC, "--n", str(10**20)), 3),
        (("figure", "--points", str(10**20), "--out-prefix", "unwritten_"), 3),
        (coverage_args({"kind": "tight_radial", "eps": 1e30, "dim": 10**10}), 3),
        # a spec whose dim and cov disagree
        (coverage_args({"kind": "tight_radial", "eps": 8, "dim": 5, "cov": [[1, 0], [0, 1]]}), 3),
        # a flag the chosen bound does not read is refused, not ignored
        (("bound", "--dim", "2", "--var", "5", "--eps", "3"), 2),
        (("bound", "--classical", "--var", "27", "--dim", "2", "--eps", "3"), 2),
        # so is a spec field its kind does not read
        (coverage_args({"kind": "gaussian", "mean": [0], "cov": [[1]], "eps": -5}), 2),
        # an eps grid that is not strictly ascending and positive, as a non-positive eps in bound
        (("bound", "--dim", "2", "--eps", "0"), 2),
        (("tail", "--spec", PAPER_SPEC, "--eps", "0", "--n", "10"), 2),
        (("tail", "--spec", PAPER_SPEC, "--eps=-1,2", "--n", "10"), 2),
        (("tail", "--spec", PAPER_SPEC, "--eps", "4,2", "--n", "10"), 2),
    ],
)
def test_in_process_exit_codes(argv, code, capsys):
    assert run_main(*argv) == code
    assert capsys.readouterr().err.startswith("mvcheb: error: ") == (code != 0)


TINY = {"kind": "gaussian", "mean": [0, 0], "cov": [[1e-310, 0], [0, 1e-310]]}
HUGE = {"kind": "gaussian", "mean": [0, 0], "cov": [[1e308, 0], [0, 1e308]]}


@pytest.mark.parametrize("argv", [coverage_args(HUGE)], ids=["coverage_huge_sphere"])
def test_levels_beyond_float_range_exit_3_without_warning(argv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_main(*argv) == 3
    assert capsys.readouterr().err.startswith("mvcheb: error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("region", "--kind", "ellipsoid", "--cov", json.dumps(TINY["cov"]), "--delta", "0.1"),
        coverage_args(TINY),
    ],
    ids=["region_tiny_precision", "coverage_tiny_precision"],
)
def test_tiny_covariance_exits_0_without_warning(argv, capsys):
    # Sigma^-1 = 1e310 I is beyond the float range; the whitener 1e155 I is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_main(*argv) == 0
    assert capsys.readouterr().err == ""


def test_tiny_covariance_hits_equal_identity_hits(capsys):
    # a scaled covariance scales every sample and the ellipsoid alike
    def hits(cov):
        spec = {"kind": "gaussian", "mean": [0, 0], "cov": cov, "seed": 3}
        argv = ("coverage", "--spec", json.dumps(spec), "--delta", "0.1", "--n", "100000")
        assert run_main(*argv) == 0
        return json.loads(capsys.readouterr().out)["ellipsoid"]["hits"]

    assert hits(TINY["cov"]) == hits([[1, 0], [0, 1]])


def test_tiny_isotropic_ratio_is_one(capsys):
    assert run_main("ratio", "--cov", "[[1e-170,0],[0,1e-170]]") == 0
    assert json.loads(capsys.readouterr().out)["ratio"] == 1.0


def test_huge_finite_entry_ratio_is_one(capsys):
    # symmetrizing must not overflow an entry that is finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_main("ratio", "--cov", "[[1e308]]") == 0
    assert json.loads(capsys.readouterr().out)["ratio"] == 1.0


@pytest.mark.parametrize("ridge", ["-1", "nan", "inf"])
def test_ridge_outside_zero_to_inf_exits_3(ridge, tmp_path, capsys):
    path = tmp_path / "s.csv"
    path.write_text("x1,x2\n0.0,0.0\n1.0,2.0\n2.0,1.0\n")
    assert run_main("estimate", "--input", str(path), f"--ridge={ridge}") == 3
    assert "ridge must be nonnegative and finite" in capsys.readouterr().err


def test_undecodable_input_exits_2(tmp_path):
    path = tmp_path / "bin"
    path.write_bytes(b"x1\n\xd0\xff\n")
    assert run_main("estimate", "--input", str(path)) == 2
    assert run_main("ratio", "--cov", str(path)) == 2
    assert run_main("estimate", "--input", "a\0b") == 2


@pytest.mark.parametrize(
    "command", ["estimate", "ratio", "bound", "region", "coverage", "tail", "figure", "sample"]
)
def test_help_exits_0(command, capsys):
    assert run_main(command, "--help") == 0
    assert capsys.readouterr().out.startswith(f"usage: mvcheb {command}")


def test_out_naming_a_directory_exits_4_and_leaves_no_temp_file(tmp_path, capsys):
    target = tmp_path / "target"
    target.mkdir()
    assert run_main("ratio", "--cov", EXAMPLE_COV, "--out", str(target)) == 4
    err = capsys.readouterr().err
    assert err.startswith("mvcheb: error: ") and repr(str(target)) in err and ".tmp-" not in err
    assert list(tmp_path.glob(".tmp-*~")) == [] and list(target.iterdir()) == []


def test_out_in_a_missing_directory_exits_4_naming_the_target(tmp_path, capsys):
    target = tmp_path / "missing" / "f.csv"
    assert run_main("sample", "--spec", PAPER_SPEC, "--n", "3", "--out", str(target)) == 4
    err = capsys.readouterr().err
    assert err == f"mvcheb: error: [Errno 2] No such file or directory: {str(target)!r}\n"
    assert list(tmp_path.rglob("*")) == []


def test_tail_level_beyond_float_range_exits_0(capsys):
    # eps * Var(X) overflows: no sample reaches that level, and 1/eps is finite
    spec = '{"kind":"gaussian","cov":[[25.0]],"mean":[0.0]}'
    eps = "7.190772539449264e+306"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_main("tail", "--spec", spec, "--eps", eps, "--n", "1") == 0
    out = json.loads(capsys.readouterr().out)
    assert out["classical_tail"] == [0.0] and out["classical_bound"] == [1 / float(eps)]


@pytest.mark.parametrize("argv, code, message", [
    (("tail", "--spec", json.dumps(HUGE), "--eps", "2", "--n", "10"), 3,
     "total variance must be positive and finite, got inf"),
    (("figure", "--points", "0", "--out-prefix", "unwritten_"), 2,
     "boundary point count must be a positive integer, got 0"),
    (("figure", "--points", "-5", "--out-prefix", "unwritten_"), 2,
     "boundary point count must be a positive integer, got -5"),
    (("figure", "--points", "2", "--out-prefix", "unwritten_"), 3,
     "need at least 3 boundary points, got 2"),
    (coverage_args({"kind": "tight_radial", "eps": 5}), 2, "needs either dim or cov"),
    (("region", "--kind", "sphere", "--cov", "[[1,0],[0,1]]", "--delta", "0.1",
      "--center", "[[0,0]]"), 3, "expected a 1-D vector"),
], ids=["tail_trace_overflow", "figure_points_0", "figure_points_-5", "figure_points_2",
        "tight_radial_without_dim", "region_2d_center"])
def test_error_messages_and_exit_codes(argv, code, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_main(*argv) == code
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
