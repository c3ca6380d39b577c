"""Moment estimation, the worked-example covariance, and the CSV format."""

import io
import itertools
import tracemalloc
import types
import warnings

import numpy as np
import pytest

from mvcheb import (
    Covariance,
    DomainError,
    UsageError,
    estimate_moments,
    example_covariance,
    paper_example_spec,
    read_samples_csv,
    write_samples_csv,
)
from mvcheb.moments import _CSV_BLOCK_ROWS, moment_sums
from mvcheb.sampler import draw


class TestSampleMean:
    def test_two_points(self):
        assert np.array_equal(moment_sums([[0.0, 0.0], [2.0, 2.0]])[1], [1.0, 1.0])

    def test_single_sample(self):
        assert np.array_equal(moment_sums([[5.0]])[1], [5.0])

    def test_empty_rejected(self):
        with pytest.raises(UsageError, match=r"sample must not be empty, got shape \(0, 2\)"):
            moment_sums(np.empty((0, 2)))

    def test_paper_example_mean_converges(self):
        # generator is zero-mean by construction; SE per component sqrt(var_i/N)
        n = 100_000
        x = draw(paper_example_spec(1.0, 25.0, seed=2024), n)
        se = np.sqrt(np.array([1.0, 26.0]) / n)
        assert np.all(np.abs(moment_sums(x)[1]) <= 5.0 * se)


class TestSampleCovariance:
    def test_pm_one_ddof0(self):
        c = estimate_moments([[-1.0], [1.0]], ddof=0).cov
        assert c.entries[0, 0] == pytest.approx(1.0, rel=1e-12)

    def test_pm_one_ddof1(self):
        c = estimate_moments([[-1.0], [1.0]], ddof=1).cov
        assert c.entries[0, 0] == pytest.approx(2.0, rel=1e-12)

    def test_insufficient_for_ddof(self):
        with pytest.raises(DomainError, match="need at least 2 rows"):
            estimate_moments([[1.0]], ddof=1)

    def test_degenerate_is_error(self):
        # two points in the plane span one direction only
        with pytest.raises(DomainError, match="<= tolerance"):
            estimate_moments([[0.0, 0.0], [1.0, 1.0]], ddof=1)

    def test_ridge_escape_hatch(self):
        c = estimate_moments([[0.0, 0.0], [1.0, 1.0]], ddof=1, ridge=1e-6).cov
        assert c.det > 0

    def test_ridge_outside_zero_to_inf_rejected(self):
        x = [[0.0, 0.0], [1.0, 1.0]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ridge in (-1.0, float("nan"), float("inf")):
                with pytest.raises(DomainError, match="ridge must be nonnegative and finite"):
                    estimate_moments(x, ridge=ridge)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((50, 4))
        c = estimate_moments(x).cov
        assert np.array_equal(c.entries, c.entries.T)

    def test_paper_example_cov_converges(self):
        # entrywise 5-sigma check; Var(s_ij) ~ (s_ii s_jj + s_ij^2)/N for Gaussians
        n = 100_000
        x = draw(paper_example_spec(1.0, 25.0, seed=31), n)
        c = estimate_moments(x, ddof=1).cov
        target = np.array([[1.0, 1.0], [1.0, 26.0]])
        se = np.sqrt((np.outer(np.diag(target), np.diag(target)) + target**2) / n)
        assert np.all(np.abs(c.entries - target) <= 5.0 * se)

    def test_estimate_moments_bundle(self):
        x = [[0.0, 1.0], [2.0, 3.0], [1.0, 0.0]]
        est = estimate_moments(x)
        assert est.ddof == 1
        assert np.allclose(est.mean, [1.0, 4.0 / 3.0])
        assert isinstance(est.cov, Covariance)


class TestExampleCovariance:
    def test_figure_parameters(self):
        c = example_covariance(1.0, 25.0)
        assert np.array_equal(c.entries, [[1.0, 1.0], [1.0, 26.0]])
        assert c.trace == 27.0

    def test_direct_substitution(self):
        c = example_covariance(2.0, 1.0)
        assert np.array_equal(c.entries, [[4.0, 4.0], [4.0, 8.0]])

    def test_trace_and_det_closed_forms(self):
        # trace (k+2) s^2, det k s^4 from expanding the 2x2 matrix
        for sigma in (0.5, 1.0, 3.0):
            for k in np.geomspace(0.01, 100.0, 17):
                c = example_covariance(sigma, k)
                assert c.trace == pytest.approx((k + 2.0) * sigma**2, rel=1e-12)
                assert c.det == pytest.approx(k * sigma**4, rel=1e-12)

    def test_sigma_square_beyond_float_range(self):
        with pytest.raises(DomainError, match="beyond the float range"):
            example_covariance(1e200, 1.0)

    def test_sigma_square_below_float_range(self):
        # (1e-200)**2 underflows to 0, and (1e-160)**2 = 1e-320 is subnormal: its
        # few digits would put the regions off the law the sampler draws
        for sigma in (1e-200, 1e-161, 1e-160, 1e-155):
            with pytest.raises(DomainError, match=r"sigma\*\*2 is beyond the float range"):
                example_covariance(sigma, 1.0)
            with pytest.raises(DomainError, match=r"sigma\*\*2 is beyond the float range"):
                paper_example_spec(sigma, 1.0)
        assert example_covariance(1e-150, 1.0).entries[0, 0] == 1e-150 ** 2
        assert np.all(np.isfinite(draw(paper_example_spec(1e-150, 1.0, seed=1), 3)))

    def test_nonpositive_parameters(self):
        # the one sigma/k rule, which a paper_example spec meets through this function
        for sigma, k in [(0.0, 25.0), (1.0, -1.0), (float("inf"), 1.0), (1.0, float("nan"))]:
            with pytest.raises(UsageError, match="must be positive and finite"):
                example_covariance(sigma, k)

    @pytest.mark.parametrize("sigma, k, name", [("a", 1.0, "sigma"), (1.0, None, "k")])
    def test_parameters_not_numbers(self, sigma, k, name):
        with pytest.raises(UsageError, match=f"{name} must be a number"):
            example_covariance(sigma, k)


class TestCsv:
    def test_round_trip(self):
        rng = np.random.default_rng(17)
        x = rng.standard_normal((20, 3))
        buf = io.StringIO()
        write_samples_csv(x, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "x1,x2,x3"
        back = read_samples_csv(io.StringIO(text))
        assert np.array_equal(back, x)

    def test_round_trip_via_file(self, tmp_path):
        path = tmp_path / "s.csv"
        x = np.array([[1.5, -2.25], [0.1, 1e-17]])
        with open(path, "w", newline="") as fh:
            write_samples_csv(x, fh)
        with open(path, newline="") as fh:
            assert np.array_equal(read_samples_csv(fh), x)

    def test_a_path_is_not_a_stream(self, tmp_path):
        path = tmp_path / "s.csv"
        with pytest.raises(TypeError):
            write_samples_csv([[1.0]], str(path))
        assert not path.exists()
        # a string is read as the CSV text itself, never opened
        with pytest.raises(UsageError, match="bad header"):
            read_samples_csv("a\0b")

    def test_ragged_row_rejected(self):
        text = "x1,x2\n1.0,2.0\n3.0\n"
        with pytest.raises(UsageError, match="line 3"):
            read_samples_csv(io.StringIO(text))

    def test_bad_header_rejected(self):
        with pytest.raises(UsageError, match="bad header"):
            read_samples_csv(io.StringIO("a,b\n1,2\n"))

    def test_non_numeric_rejected(self):
        with pytest.raises(UsageError, match="line 2"):
            read_samples_csv(io.StringIO("x1\nfoo\n"))

    def test_empty_file(self):
        with pytest.raises(UsageError, match="empty file"):
            read_samples_csv(io.StringIO(""))

    def test_header_only(self):
        with pytest.raises(UsageError, match=r"sample must not be empty, got shape \(0, 2\)"):
            read_samples_csv(io.StringIO("x1,x2\n"))

    def test_one_column_reads_as_two_dimensional(self):
        back = read_samples_csv(io.StringIO("x1\n1.5\n-2.0\n"))
        assert back.shape == (2, 1) and back.tolist() == [[1.5], [-2.0]]

    def test_bytes_are_the_repr_of_each_value(self):
        # two blocks of 1024 rows and a remainder; the values include a signed
        # zero, a subnormal and the largest float
        values = [-0.0, 0.1, 1e-17, 5e-324, 1.7976931348623157e308, -2.5]
        x = np.resize(np.array(values), (2 * 1024 + 7, 3))
        buf = io.StringIO()
        write_samples_csv(x, buf)
        rows = [",".join(repr(float(v)) for v in row) for row in x]
        assert buf.getvalue().split("\n") == ["x1,x2,x3", *rows, ""]

    def test_formatted_in_bounded_blocks(self):
        calls = []
        x = np.full((3000, 2), -2.2250738585072014e-308)
        write_samples_csv(x, types.SimpleNamespace(write=calls.append))
        header, *blocks = [text.splitlines(keepends=True) for text in calls]
        assert header == ["x1,x2\n"] and len(blocks) > 1
        assert max(map(len, blocks)) <= _CSV_BLOCK_ROWS
        assert set(itertools.chain(*blocks)) == {"-2.2250738585072014e-308,-2.2250738585072014e-308\n"}
        assert sum(map(len, blocks)) == 3000

    def test_read_holds_the_floats_in_one_flat_buffer(self):
        # 8 bytes a value, not a Python float in a list per row (12x at 2^16 rows)
        x = np.random.default_rng(3).standard_normal((1 << 16, 2))
        buf = io.StringIO()
        write_samples_csv(x, buf)
        source = io.StringIO(buf.getvalue())
        tracemalloc.start()
        try:
            back = read_samples_csv(source)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back, x)
        assert peak <= 3 * back.nbytes

    def test_refused_sample_set_writes_nothing(self):
        buf = io.StringIO()
        with pytest.raises(DomainError, match="finite"):
            write_samples_csv([[1.0], [np.nan]], buf)
        assert buf.getvalue() == ""


class TestShape:
    def test_one_dimensional_array_refused(self):
        with pytest.raises(DomainError, match=r"expected a 2-D sample, got shape \(3,\)"):
            estimate_moments([1.0, 2.0, 4.0])

    def test_three_dimensional_array_refused(self):
        with pytest.raises(DomainError, match=r"expected a 2-D sample, got shape \(2, 2, 2\)"):
            moment_sums(np.zeros((2, 2, 2)))
