"""Frequency-truncated half-wave propagator: the square-root decay rate.

There is no closed kernel for e^{it sqrt(H)} (the square root breaks the
ladder structure), so the truncated kernel is assembled spectrally.  Its
sup over space decays like (1 + 2^j t)^{-1/2} until the magnetic revival at
the admissible-window edge; the sweep fits the onset slope.
"""

import math

import numpy as np

from magcone import ConeConfig
from magcone.kernels import halfwave_sup_curve
from magcone.lpbesov import shell_window
from magcone.verify import halfwave_decay_fit

cfg = ConeConfig(sigma=1.0, b0=1.0, alpha=0.25)
j = 2

window = shell_window(j, cfg)  # the smallest window covering shell j
t_lo, t_hi = 2.0 ** -j, 2.0 ** j * math.pi / (2.0 * cfg.b0)
ts = np.geomspace(t_lo, t_hi, 12)
r_nodes = np.linspace(0.25, 9.0, 30)
# 48 uniform angle gaps -pi sigma + 0.013 + 2 pi sigma n / 48: one FFT per time reads them all
dtheta0, n_angle = -0.5 * cfg.period + 0.013, 48

sups = halfwave_sup_curve(j, ts, r_nodes, dtheta0, n_angle, cfg, window).max(axis=(1, 2))  # sup over every pair
print(f"shell j={j}: sqrt(lambda) in (2^{j - 1}, 2^{j + 1}), window "
      f"k_max={window.k_max}, m_max={window.m_max}")
print(f"{'2^j t':>8}  {'sup|K|':>9}  {'sup * (1+2^j t)^1/2':>20}")
for t, s in zip(ts, sups):
    tau = 2.0 ** j * t
    print(f"{tau:8.2f}  {s:9.4f}  {s * math.sqrt(1 + tau):20.4f}")

print("\nfitted onset slope (target -1/2):")
for jj in (1, 2, 3):
    rep = halfwave_decay_fit(cfg, jj)[0]
    print(f"  j={jj}: slope = {rep.empirical_constant:+.4f}   "
          f"band [-0.75, -0.35] pass={rep.passed}")
