"""Dispersive decay of the Schrodinger flow and its certification sweep.

The kernel blows up like 1/|sin(t b0)| at the magnetic revival times and is
otherwise uniformly bounded; with the flux-distance weight the bound
improves by |sin|^{-kappa}.  The sweep reports the empirical constant of
the reduced angular series and checks it saturates under grid refinement.
"""

import math

from magcone import ConeConfig, flux_distance, make_point, schrodinger_kernel_series
from magcone.verify import SweepGrids, weighted_dispersive_constant

cfg = ConeConfig(sigma=1.5, b0=1.0, alpha=0.4)
p = make_point(cfg, 1.0, 0.3)
q = make_point(cfg, 0.9, 1.1)

print("kernel magnitude vs distance to the singular time t b0 = pi:")
for sin_target in (0.5, 0.1, 0.02):
    t = (math.pi - math.asin(sin_target)) / cfg.b0
    val = abs(schrodinger_kernel_series(t, p, q, cfg).value)
    print(f"  |sin(t b0)|={sin_target:5.2f}:  |K| = {val:10.5f}   |K| |sin|/b0 = "
          f"{val * sin_target / cfg.b0:.5f}")

print("\ncertification sweeps (constants in reduced-kernel units):")
grids = SweepGrids(n_time=4, n_radius=6, n_angle=10)
kappa = flux_distance(cfg)
print(f"  flux distance kappa = {kappa:.4f}")
# one family call: the unweighted sweep, then each gamma, from one grid pair
for r in weighted_dispersive_constant(cfg, (kappa / 2.0, kappa), grids):
    print(f"  {r.name:>22}: constant={r.empirical_constant:.4f} "
          f"ratio={r.refinement_ratio:.4f} pass={r.passed}")
