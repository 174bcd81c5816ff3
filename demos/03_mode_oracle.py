"""The semi-analytic kernel e_lam(t) and its discrete shadow.

For f = 0 each spatial eigenmode evolves by a scalar kernel with Laplace
transform 1 / (z + lam + lam * gamma * z^alpha), evaluated here by
quadrature on a sectorial contour.  The scalar CQ recursion is the exact
time-stepper restricted to that mode, so driving its step to zero must
reproduce the kernel; that cross-check is what makes the oracle useful.
"""
import numpy as np

from frstokes.spectral_oracle import (
    laplacian_eigenvalue,
    mode_response,
    scalar_cq_response,
    smoothing_probe,
)

ALPHA, GAMMA = 0.5, 1.0
lam = laplacian_eigenvalue(1, 1)
print(f"lowest eigenvalue 2 pi^2 = {lam:.6f}")

print("\nkernel values, lam = 2 pi^2:")
for t in (0.01, 0.1, 0.5, 1.0, 2.0):
    print(f"  e(t={t:4}) = {mode_response(lam, t, ALPHA, GAMMA):.10f}")

print("\nlam = 0 is frozen at 1 (no diffusion):",
      mode_response(0.0, 1.0, ALPHA, GAMMA))

print("\nscalar CQ marching toward the kernel at t = 1:")
exact = mode_response(lam, 1.0, ALPHA, GAMMA)
for N in (10, 100, 1000, 10_000, 100_000):
    approx = scalar_cq_response(lam, ALPHA, GAMMA, 1.0, N)[-1]
    print(f"  N = {N:6d}: error {abs(approx - exact):.3e}")

# sup over modes and times of lam^(p/2) |e_lam(t)| t^((1-alpha)p/2):
# order 0 says the kernel never amplifies; orders 1 and 2 quantify how
# much spatial roughness it forgives at positive time
t_grid = np.logspace(-4, 0, 9)
lam_grid = np.logspace(0, 6, 25)
print("\nsmoothing constants:")
for order in (0, 1, 2):
    c = smoothing_probe(ALPHA, GAMMA, order, t_grid, lam_grid)
    print(f"  order {order}: {c:.4f}")
