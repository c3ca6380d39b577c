"""Multivariate Chebyshev tail bounds and the confidence regions they induce.

The classical vector Chebyshev inequality bounds Pr{||X - mu|| >= eps} by
Var(X)/eps^2 and yields a sphere of squared radius tr(Sigma)/delta with
coverage above 1 - delta. The Mahalanobis-form inequality bounds
Pr{(X-mu)^T Sigma^-1 (X-mu) >= eps} by n/eps and yields an ellipsoid at
threshold n/delta with the same guarantee but never more volume. This
package builds both regions, computes the exact volume ratio
(tr(Sigma)/n)^(n/2)/sqrt(det Sigma), and verifies every bound with seeded
Monte Carlo experiments.
"""

from .errors import DomainError, UsageError
from .experiments import (
    CoverageReport,
    FigureData,
    TailCurve,
    export_figure,
    figure_csv_texts,
    figure_manifest,
    run_coverage,
    run_coverage_estimated,
    run_tail_curve,
    trace_identity_check,
)
from .linalg import (
    Covariance,
    cholesky,
    det_spd,
    invert_spd,
    quad_form,
    symmetrize,
    trace,
)
from .moments import (
    MomentEstimate,
    estimate_moments,
    example_covariance,
    read_samples_csv,
    sample_covariance,
    sample_mean,
    write_samples_csv,
)
from .regions import (
    BoundValue,
    EllipsoidRegion,
    SphereRegion,
    chebyshev_bound,
    classical_bound,
    contains,
    ellipse_boundary,
    example_ratio,
    log_volume_ratio,
    mahalanobis_sq,
    make_ellipsoid,
    make_sphere,
    region_from_dict,
    region_to_dict,
    unit_ball_volume,
    volume,
    volume_ratio,
)
from .sampler import (
    SamplerSpec,
    draw,
    draw_range,
    gaussian_spec,
    paper_example_spec,
    spec_from_dict,
    spec_to_dict,
    tight_radial_spec,
    true_moments,
)

__version__ = "0.1.0"

__all__ = [
    "BoundValue",
    "Covariance",
    "CoverageReport",
    "DomainError",
    "EllipsoidRegion",
    "FigureData",
    "MomentEstimate",
    "SamplerSpec",
    "SphereRegion",
    "TailCurve",
    "UsageError",
    "chebyshev_bound",
    "cholesky",
    "classical_bound",
    "contains",
    "det_spd",
    "draw",
    "draw_range",
    "ellipse_boundary",
    "estimate_moments",
    "example_covariance",
    "example_ratio",
    "export_figure",
    "figure_csv_texts",
    "figure_manifest",
    "gaussian_spec",
    "invert_spd",
    "log_volume_ratio",
    "mahalanobis_sq",
    "make_ellipsoid",
    "make_sphere",
    "paper_example_spec",
    "quad_form",
    "read_samples_csv",
    "region_from_dict",
    "region_to_dict",
    "run_coverage",
    "run_coverage_estimated",
    "run_tail_curve",
    "sample_covariance",
    "sample_mean",
    "spec_from_dict",
    "spec_to_dict",
    "symmetrize",
    "tight_radial_spec",
    "trace",
    "trace_identity_check",
    "true_moments",
    "unit_ball_volume",
    "volume",
    "volume_ratio",
    "write_samples_csv",
]
