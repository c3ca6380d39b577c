"""Reproduce the 2-D sphere-vs-ellipsoid comparison data set.

Exports 1000 draws of the worked example (sigma=1, k=25) together with
the delta=0.1 ellipsoid and circle boundaries, then renders a PNG if
matplotlib is importable (the library itself only exports data; plotting
stays external).

Run from the repository root:  python demos/figure_data.py
"""

from mvcheb import export_figure, figure_csv_texts

fig = export_figure(sigma=1.0, k=25.0, delta=0.1, n_samples=1000, seed=42)

for name, text in figure_csv_texts(fig).items():
    path = f"comparison_{name}.csv"
    with open(path, "w") as fh:
        fh.write(text)
    print(f"wrote {path}")

print(f"ellipsoid threshold {fig.threshold}, circle radius^2 {fig.radius_sq}")
print(f"{len(fig.samples)} samples exported")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available - skipping the rendering step")
else:
    ax = plt.subplots(figsize=(6, 6))[1]
    ax.plot(fig.samples[:, 0], fig.samples[:, 1], ".", ms=2, alpha=0.5, label="samples")
    ax.plot(fig.ellipse_boundary[:, 0], fig.ellipse_boundary[:, 1], "-", label="ellipsoid")
    ax.plot(fig.circle_boundary[:, 0], fig.circle_boundary[:, 1], "--", label="sphere")
    ax.set_aspect("equal")
    ax.legend()
    ax.set_title("Chebyshev confidence regions, delta = 0.1")
    plt.savefig("comparison.png", dpi=120)
    print("wrote comparison.png")
