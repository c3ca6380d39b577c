"""Multivariate Chebyshev tail bounds and the confidence regions they induce.

The classical vector Chebyshev inequality bounds Pr{||X - mu|| >= eps} by
Var(X)/eps^2 and yields a sphere of squared radius tr(Sigma)/delta with
coverage at least 1 - delta. The Mahalanobis-form inequality bounds
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
    run_coverage,
    run_coverage_estimated,
    run_tail_curve,
    trace_identity_check,
)
from .linalg import (
    Covariance,
    invert_spd,
    quad_form,
    symmetrize,
)
from .moments import (
    MomentEstimate,
    estimate_moments,
    example_covariance,
    read_samples_csv,
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
    make_ellipsoid,
    make_sphere,
    region_from_dict,
    region_to_dict,
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
