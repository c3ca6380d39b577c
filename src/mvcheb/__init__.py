"""Multivariate Chebyshev tail bounds and the confidence regions they induce.

The classical vector Chebyshev inequality bounds Pr{||X - mu|| >= eps} by
Var(X)/eps^2 and yields a sphere of squared radius tr(Sigma)/delta with
coverage at least 1 - delta. The Mahalanobis-form inequality bounds
Pr{(X-mu)^T Sigma^-1 (X-mu) >= eps} by n/eps and yields an ellipsoid at
threshold n/delta with the same guarantee but never more volume. This
package builds both regions, computes the exact volume ratio
(tr(Sigma)/n)^(n/2)/sqrt(det Sigma), and verifies every bound with seeded
Monte Carlo experiments.

The namespace is lazy (PEP 562): ``import mvcheb`` loads no submodule, and
a public name or a submodule is imported on first access. So the CLI's
closed-form subcommands never load the Monte Carlo stack.
"""

from importlib import import_module

# the public names of each submodule, the one list of them
_EXPORTS = {
    "errors": ("DomainError", "UsageError"),
    "experiments": (
        "CoverageReport", "FigureData", "TailCurve", "export_figure", "figure_csv_texts",
        "run_coverage", "run_coverage_estimated", "run_tail_curve", "trace_identity_check",
    ),
    "linalg": ("Covariance", "invert_spd", "quad_form", "symmetrize"),
    "moments": (
        "MomentEstimate", "estimate_moments", "example_covariance", "read_samples_csv",
        "write_samples_csv",
    ),
    "regions": (
        "BoundValue", "EllipsoidRegion", "SphereRegion", "chebyshev_bound", "classical_bound",
        "contains", "ellipse_boundary", "example_ratio", "log_volume_ratio", "make_ellipsoid",
        "make_sphere", "region_from_dict", "region_to_dict", "volume", "volume_ratio",
    ),
    "sampler": (
        "SamplerSpec", "draw", "draw_range", "gaussian_spec", "paper_example_spec",
        "spec_from_dict", "spec_to_dict", "tight_radial_spec", "true_moments",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    """A submodule, or a public name from its submodule, imported on first
    access and then held in the package's globals."""
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
