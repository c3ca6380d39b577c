"""How much smaller is the ellipsoid region than the sphere?

Sweeps the anisotropy parameter k of the worked-example covariance
[[s^2, s^2], [s^2, (k+1) s^2]] and prints the exact volume ratio
vol(sphere)/vol(ellipsoid) next to its closed form (k+2)/(2 sqrt(k)).
The ratio bottoms out at sqrt(2) at k = 2 and grows without bound in
either direction: the more anisotropic the covariance, the more the
classical sphere overshoots. An isotropic covariance c*I gives exactly 1.0
at any dimension and scale, as the last lines show.
"""

import numpy as np

from mvcheb import Covariance, example_covariance, example_ratio, volume_ratio

print(f"{'k':>10} {'volume ratio':>14} {'closed form':>14}")
for k in np.geomspace(0.01, 100.0, 13):
    cov = example_covariance(sigma=1.0, k=float(k))
    print(f"{k:10.4f} {volume_ratio(cov):14.6f} {example_ratio(float(k)):14.6f}")

print()
print(f"minimum at k=2: ratio = {example_ratio(2.0):.12f} (sqrt(2) = {np.sqrt(2):.12f})")
print(f"figure setting k=25: ratio = {example_ratio(25.0)} (27/10)")

for c, n in ((1e-5, 37), (4.274858436817779e81, 31)):
    print(f"isotropic {c!r} * I_{n}: ratio = {volume_ratio(Covariance(c * np.eye(n)))!r}")
