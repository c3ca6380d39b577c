"""Acceptance suite: one test per release criterion, each at its stated
tolerance. Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion pass lines."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import chi2

from mvcheb import (
    Covariance,
    chebyshev_bound,
    classical_bound,
    det_spd,
    example_covariance,
    example_ratio,
    gaussian_spec,
    invert_spd,
    mahalanobis_sq,
    make_ellipsoid,
    make_sphere,
    paper_example_spec,
    run_coverage,
    run_tail_curve,
    tight_radial_spec,
    trace_identity_check,
    volume,
    volume_ratio,
)

EXAMPLE = Covariance.from_matrix([[1.0, 1.0], [1.0, 26.0]])


def _pass(number: int, text: str) -> None:
    print(f"criterion {number:2d}: PASS  {text}")


def random_spd(rng, n):
    a = rng.standard_normal((n, n))
    return a @ a.T + 0.5 * np.eye(n)


def is_scalar_identity(m, rtol=1e-12) -> bool:
    m = np.asarray(m)
    scale = float(np.max(np.abs(m)))
    off = m - np.diag(np.diag(m))
    if np.max(np.abs(off)) > rtol * scale:
        return False
    d = np.diag(m)
    return float(np.max(d) - np.min(d)) <= rtol * scale


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "mvcheb", *args], capture_output=True, text=True
    )


def test_criterion_01_volume_ratio_replication():
    vr = volume_ratio(EXAMPLE)
    er = example_ratio(25.0)
    assert vr == pytest.approx(2.7, rel=1e-12)
    assert er == pytest.approx(2.7, rel=1e-12)
    assert vr == pytest.approx(er, rel=1e-12)
    assert example_ratio(2.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)
    _pass(1, "volume_ratio = example_ratio(25) = 2.7; example_ratio(2) = sqrt(2)")


def test_criterion_02_formula_consistency_sweep():
    grid = np.geomspace(0.01, 100.0, 50)
    for sigma in (0.5, 1.0, 3.0):
        for k in grid:
            direct = volume_ratio(example_covariance(sigma, float(k)))
            closed = example_ratio(float(k))
            assert direct == pytest.approx(closed, rel=1e-10)
    _pass(2, "(k+2)/(2 sqrt(k)) closed form matches on 50-point grid x 3 sigmas")


def test_criterion_03_ratio_property_suite():
    rng = np.random.default_rng(20260809)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(1, 7))
        if checked % 10 == 0:
            m = float(rng.uniform(0.1, 10.0)) * np.eye(n)  # planted equality case
        else:
            m = random_spd(rng, n)
        cov = Covariance.from_matrix(m)
        r = volume_ratio(cov)
        assert r >= 1.0 - 1e-12
        scalar = is_scalar_identity(cov.entries)
        if n == 1:
            scalar = True  # 1x1 matrices are trivially isotropic
        assert (abs(r - 1.0) <= 1e-12) == scalar, (r, cov.entries)
        center = np.zeros(n)
        for delta in (0.01, 0.1, 0.5):
            explicit = volume(make_sphere(center, cov, delta)) / volume(
                make_ellipsoid(center, cov, delta)
            )
            assert explicit == pytest.approx(r, rel=1e-10)
        checked += 1
    _pass(3, "1000 random SPD: ratio >= 1, equality iff isotropic, delta-free")


def _bound_specs():
    rng = np.random.default_rng(7)
    cov4 = Covariance.from_matrix(random_spd(rng, 4))
    return [
        ("gaussian n=1", gaussian_spec([0.0], Covariance.from_matrix([[4.0]]), seed=101), 1),
        ("gaussian n=2", gaussian_spec([0.0, 0.0], example_covariance(1.0, 25.0), seed=102), 2),
        ("gaussian n=4", gaussian_spec(np.zeros(4), cov4, seed=103), 4),
        ("paper_example", paper_example_spec(1.0, 25.0, seed=104), 2),
        ("tight_radial eps=4", tight_radial_spec(4.0, dim=2, seed=105), 2),
        ("tight_radial eps=8", tight_radial_spec(8.0, dim=2, seed=106), 2),
        ("tight_radial eps=20", tight_radial_spec(20.0, dim=2, seed=107), 2),
    ]


def test_criterion_04_bound_holds_empirically():
    n_samples = 100_000
    for label, spec, n in _bound_specs():
        grid = [float(n * f) for f in (1, 2, 5, 10, 20)]
        curve = run_tail_curve(spec, grid, n_samples)
        for eps, emp in zip(grid, curve.empirical_tail):
            bound = min(1.0, n / eps)
            se = math.sqrt(emp * (1.0 - emp) / n_samples)
            assert emp <= bound + 5.0 * se, (label, eps, emp, bound)
    _pass(4, "empirical Pr{d^2 >= eps} <= min(1, n/eps) + 5 SE for 7 specs x 5 eps")


def test_criterion_05_bound_tightness():
    n_samples = 100_000
    spec = tight_radial_spec(8.0, dim=2, seed=20260809)
    curve = run_tail_curve(spec, [8.0], n_samples)
    tol = 5.0 * math.sqrt(0.25 * 0.75 / n_samples)
    assert abs(float(curve.empirical_tail[0]) - 0.25) <= tol
    _pass(5, f"tight_radial tail at eps=8 within {tol:.4f} of n/eps = 0.25")


def test_criterion_06_trace_identity():
    n_samples = 100_000
    gaussian = gaussian_spec([0.0, 0.0], example_covariance(1.0, 25.0), seed=301)
    tol_gauss = 5.0 * math.sqrt(4.0 / n_samples)  # Var(chi2_2) = 4
    assert abs(trace_identity_check(gaussian, n_samples) - 2.0) <= tol_gauss
    radial = tight_radial_spec(8.0, dim=2, seed=302)
    tol_radial = 5.0 * math.sqrt(12.0 / n_samples)  # Var(d^2) = n eps - n^2
    assert abs(trace_identity_check(radial, n_samples) - 2.0) <= tol_radial
    _pass(6, f"mean d^2 = n within {tol_gauss:.4f} (gaussian) / {tol_radial:.4f} (radial)")


def test_criterion_07_figure_replication(tmp_path):
    prefix = tmp_path / "fig_"
    args = ("figure", "--seed", "11", "--out-prefix", str(prefix))
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr

    manifest = json.loads((tmp_path / "fig_manifest.json").read_text())
    assert manifest["threshold"] == pytest.approx(20.0, rel=1e-12)
    assert manifest["radius_sq"] == pytest.approx(270.0, rel=1e-12)

    def read_xy(name):
        lines = (tmp_path / f"fig_{name}.csv").read_text().splitlines()
        assert lines[0] == "x,y"
        return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])

    samples, ellipse = read_xy("samples"), read_xy("ellipse")
    assert samples.shape == (1000, 2) and ellipse.shape == (256, 2)

    precision = invert_spd(EXAMPLE)
    d2_boundary = mahalanobis_sq(ellipse, np.zeros(2), precision)
    assert np.max(np.abs(d2_boundary - 20.0)) <= 1e-9

    d2 = mahalanobis_sq(samples, np.zeros(2), precision)
    coverage = float((d2 <= 20.0).mean())
    assert coverage >= 0.9
    assert chi2.sf(20.0, 2) == pytest.approx(math.exp(-10.0), rel=1e-12)

    rerun_dir = tmp_path / "rerun"
    rerun_dir.mkdir()
    proc2 = run_cli("figure", "--seed", "11", "--out-prefix", str(rerun_dir / "fig_"))
    assert proc2.returncode == 0
    for name in ("samples.csv", "ellipse.csv", "circle.csv", "manifest.json"):
        assert (tmp_path / f"fig_{name}").read_bytes() == (
            rerun_dir / f"fig_{name}"
        ).read_bytes()
    _pass(7, f"figure: threshold 20, radius^2 270, coverage {coverage:.3f}, reruns identical")


def test_criterion_08_scalar_reduction():
    rng = np.random.default_rng(42)
    for _ in range(100):
        var = float(rng.uniform(0.01, 100.0))
        eps = float(rng.uniform(0.01, 100.0))
        new = chebyshev_bound(1, eps**2 / var).raw
        classic = classical_bound(var, eps).raw
        assert new == pytest.approx(classic, rel=1e-12)
    _pass(8, "n=1 bound equals Var/eps^2 on 100 (var, eps) pairs")


def test_criterion_09_linalg_oracle_equivalence():
    rng = np.random.default_rng(99)
    matrices = [EXAMPLE.entries, np.diag([1.0, 4.0]), np.eye(2)]
    matrices += [example_covariance(s, float(k)).entries
                 for s in (0.5, 1.0, 3.0) for k in np.geomspace(0.01, 100.0, 10)]
    matrices += [random_spd(rng, 2) for _ in range(100)]
    for m in matrices:
        (a, b), (c, d) = np.asarray(m)
        det_adj = a * d - b * c
        inv_adj = np.array([[d, -b], [-c, a]]) / det_adj
        cov = Covariance.from_matrix(m)
        assert det_spd(cov) == pytest.approx(det_adj, rel=1e-12)
        p = invert_spd(cov)
        assert np.all(np.abs(p - inv_adj) <= 1e-12 * np.abs(inv_adj) + 1e-300)
    _pass(9, f"Cholesky-path det/inverse match adjugate oracles on {len(matrices)} matrices")


def test_criterion_10_parallel_invariance():
    spec = '{"kind":"paper_example","sigma":1.0,"k":25.0,"seed":5}'
    args = ("coverage", "--spec", spec, "--delta", "0.1", "--n", "10000")
    one = run_cli(*args, "--streams", "1")
    four = run_cli(*args, "--streams", "4")
    assert one.returncode == 0 and four.returncode == 0
    assert one.stdout == four.stdout
    hits = json.loads(one.stdout)["ellipsoid"]["hits"]
    library_pair = run_coverage(
        paper_example_spec(1.0, 25.0, seed=5), 0.1, 10_000, streams=4
    )
    assert library_pair[0].hits == hits
    _pass(10, "coverage with --streams 4 equals --streams 1 hit-for-hit at N=1e4")
