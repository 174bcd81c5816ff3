"""Backward-Euler convolution quadrature in isolation.

The weights q_j^(beta) are the Taylor coefficients of (1 - z)^(-beta).
Convolving them against samples of a function approximates its
Riemann-Liouville integral of order beta to first order in the step.
"""
import math

import numpy as np

from frstokes.cq_time_stepper import cq_fractional_integral, cq_weights

q = cq_weights(0.5, 8)
print("q^(1/2), j = 0..8:", np.round(q, 6))

# partial sums of order-beta weights are exactly the order-(beta+1) weights
q1 = cq_weights(0.3, 40)
q2 = cq_weights(1.3, 40)
print("partial-sum identity residual:", np.max(np.abs(np.cumsum(q1) - q2)))

# I^(1/2) t = t^(3/2) / Gamma(5/2); watch the error halve with the step
exact = 1.0 / math.gamma(2.5)
print("\n  N      I^(1/2) t at t=1      error")
for N in (16, 32, 64, 128, 256):
    tau = 1.0 / N
    t = np.arange(N + 1) * tau
    val = cq_fractional_integral(t, 0.5, tau)
    print(f"{N:5d}   {val:.12f}   {abs(val - exact):.3e}")
print(f"exact   {exact:.12f}")
