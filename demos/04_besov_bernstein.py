"""Littlewood-Paley shells, norm equivalence, and Bernstein ratios.

The dyadic cutoff is an exact smooth partition of unity with at most two
shells overlapping anywhere, which pins the Besov(2,2) / Sobolev ratio
inside [1/sqrt2, sqrt2] at s = 0.  Bernstein constants, probed with random
plus point-kernel trial fields, stay uniform across shells.
"""

import math

import numpy as np

from magcone import ConeConfig, besov_norm, bernstein_ratio, make_cutoff, sobolev_norm
from magcone.quadrature import evaluation_grid
from magcone.spectrum import ModeWindow, random_field

cfg = ConeConfig(sigma=1.5, b0=1.0, alpha=0.4)
cutoff = make_cutoff()

lam = np.geomspace(1e-3, 1e3, 200)
print(f"partition-of-unity residual on 200 log-spaced points: "
      f"{cutoff.partition_residual(lam):.2e}")

rng = np.random.default_rng(3)
window = ModeWindow(4, 4)
print("\nBesov(2,2)/Sobolev ratio at s=0 for random band-limited fields:")
ratios = []
for _ in range(8):
    f = random_field(window, rng)
    ratios.append(besov_norm(f, 0.0, 2.0, 2.0, cfg) / sobolev_norm(f, 0.0, cfg))
print("  " + "  ".join(f"{r:.4f}" for r in ratios))
print(f"  sharp band: [{1 / math.sqrt(2):.4f}, {math.sqrt(2):.4f}]")

print("\nempirical Bernstein constants, p=inf, q=2 (uniform across shells):")
grid = evaluation_grid(cfg, n_theta=512)
for j in (0, 1, 2):
    lam_hi = 4.0 ** (j + 1)
    win = ModeWindow(int(lam_hi / cfg.b0 * cfg.sigma / 2) + 8,
                     int((lam_hi / cfg.b0 - 1) / 2) + 1)
    r = bernstein_ratio(j, math.inf, 2.0, cfg, win, trials=4, seed=7, grid=grid)
    print(f"  shell j={j}: ratio = {r:.4f}")
