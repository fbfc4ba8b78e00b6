"""Spectrum basics: Landau ladders, flux splitting, and eigenfunction shapes.

The operator on the cone has purely discrete spectrum
    lambda_{k,m} = (2m + 1 + |k/sigma + alpha| + k/sigma + alpha) b0.
Every angular mode k <= -1 sits exactly on the Landau ladder (2m+1) b0;
modes k >= 0 are shifted upward by the flux.  This script prints the bottom
of the spectrum and samples a few normalized radial profiles.
"""

import numpy as np

from magcone import ConeConfig, eigenvalue
from magcone.spectrum import log_norm_sq, radial_profiles

cfg = ConeConfig(sigma=1.5, b0=1.0, alpha=0.4)
print(f"cone: sigma={cfg.sigma}, b0={cfg.b0}, alpha={cfg.alpha}")
print(f"angular period 2 pi sigma = {cfg.period:.6f}\n")

print("lowest eigenvalues (k, m, lambda, ||V||^2):")
table = []
for k in range(-3, 4):
    for m in range(3):
        table.append((float(eigenvalue(cfg, k, m)), k, m, float(np.exp(log_norm_sq(cfg, k, m)))))
for lam, k, m, nsq in sorted(table)[:12]:
    print(f"  k={k:+d} m={m}  lambda={lam:8.4f}   norm_sq={nsq:.6f}")

print("\nevery k <= -1 shares the Landau ladder exactly (no rounding drift):")
for k in (-1, -5, -40):
    lams = [float(eigenvalue(cfg, k, m)) for m in range(3)]
    print(f"  k={k:+d}: {lams}")

print("\nnormalized radial profiles R_(k,m)(r) at a few radii:")
r = np.array([0.5, 1.0, 2.0, 3.0])
for k, m in [(0, 0), (2, 1), (-2, 1)]:
    vals = radial_profiles(cfg, k, m, r)[m]
    print(f"  (k={k:+d}, m={m}): " + "  ".join(f"{v:+.5f}" for v in vals))

print("\nthe tip r=0 annihilates every mode (r^{|k/sigma+alpha|} with positive exponent):")
print("  R_(0,0)(0) =", radial_profiles(cfg, 0, 0, np.array([0.0]))[0, 0])
