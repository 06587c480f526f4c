"""Normal forms: every two-qubit state meets a Bell-diagonal representative.

Local filtering drives both marginals to I/2, exposing the Bell-diagonal
state SLOCC-equivalent to the input; `classify` reads the same weights off
the Lorentz normal form in closed form.  Rank-deficient entangled states
resist filtering: they form a one-parameter family rho_nd(b) whose
Bell-diagonal partner is only reached in the quasi-distillation limit, yet
the reverse direction is an honest two-term separable map.
"""

import numpy as np

from slocc import (apply_map_density, bd_equivalent, can_convert_two_qubit,
                   classify, concurrence, filter_iteration, quasi_reverse_map,
                   rho_nd, rho_nd_prime, weights_to_density)

rng = np.random.default_rng(0)

# filter a randomly twisted Bell-diagonal state back to its weights
lam = np.array([0.65, 0.2, 0.1, 0.05])
K = np.kron(rng.normal(size=(2, 2)) + 0.8 * np.eye(2),
            rng.normal(size=(2, 2)) + 0.8 * np.eye(2))
rho = K @ weights_to_density(lam) @ K.conj().T
rho /= np.trace(rho).real
res = filter_iteration(rho)
recovered = np.sort(np.linalg.eigvalsh(res.state))[::-1]
print(f"filtering a twisted Bell-diagonal state:")
print(f"  converged in {res.iterations} sweeps, "
      f"marginal deviation {res.marginal_deviation:.1e}")
print(f"  original lambda:  {lam}")
print(f"  recovered lambda: {recovered.round(10)}")
print(f"  closed form:      {classify(rho).weights.round(10)}")

# the three classes; b is exact even after a local filter
print("\nclassification:")
K = np.kron(rng.normal(size=(2, 2)) + 0.8 * np.eye(2), np.eye(2))
filtered_nd = K @ rho_nd(0.3) @ K.T
filtered_nd /= np.trace(filtered_nd).real
for name, state in (("maximally mixed", np.eye(4) / 4),
                    ("Bell-diagonal 0.7", weights_to_density([0.7, .1, .1, .1])),
                    ("rho_nd(0.3)", rho_nd(0.3)),
                    ("filtered rho_nd(0.3)", filtered_nd)):
    c = classify(state)
    extra = ""
    if c.kind == "bell_diagonal":
        extra = f", lambda {c.weights.round(6)}"
    elif c.kind == "nd_class":
        extra = f", b = {c.b:.4f}"
    print(f"  {name}: {c.kind}{extra}")

# quasi-distillation and its reverse
b = 0.3
print(f"\nquasi-distillation pair at b = {b}:")
print(f"  concurrence of rho_nd: {concurrence(rho_nd(b)):.4f}")
print(f"  concurrence of the limit state: {concurrence(rho_nd_prime(b)):.4f}"
      f" (= 2b, approached but never attained)")
out, weight = apply_map_density(quasi_reverse_map(b), rho_nd_prime(b))
print(f"  reverse map residual: {np.abs(out - rho_nd(b)).max():.1e} "
      f"(success weight {weight:.4f})")
print(f"  Bell-diagonal equivalent of rho_nd: {bd_equivalent(rho_nd(b))}")

d = can_convert_two_qubit(rho_nd_prime(b), rho_nd(b))
print(f"  rho_nd' -> rho_nd convertible: {d.convertible} ({d.reason})")
