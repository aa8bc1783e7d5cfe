"""Smallest complete pipeline: one qubit, two coefficients, exact curves.

Take H = sigma_3 and the observable O = sigma_1 + sigma_3. The commutator
chain closes after two steps (b = [sqrt(2), sqrt(2)], three Krylov
directions), and the complexity is K(t) = 2 sin^2 t on the nose. This script
runs every stage by hand so the object flow is visible:

    matrix -> run_lanczos -> coefficients -> evolve_amplitudes -> profile

and finishes with the coefficient-law test that recognizes the chain as a
finite-dimensional (su(2)-type) family.
"""

import numpy as np

from kbound import (
    closure_test,
    complexity_profile,
    evolve_amplitudes,
    run_lanczos,
)

sigma1 = np.array([[0.0, 1.0], [1.0, 0.0]])
sigma3 = np.array([[1.0, 0.0], [0.0, -1.0]])

result = run_lanczos(sigma3, sigma1 + sigma3)
print("coefficients:", result.b)
print("Krylov dimension:", result.D, "(operator space of a qubit: 2^2 - 2 + 1)")
print(f"basis orthogonality error: {result.ortho_error:.2e}")

times = np.linspace(0.0, 2.0 * np.pi, 13)
traj = evolve_amplitudes(result.b, times)
prof = complexity_profile(traj)

print("\n  t        K(t)      2 sin^2 t   ratio")
for k, t in enumerate(times):
    r = prof.ratio[k]
    print(f"  {t:5.3f}  {prof.complexity[k]:9.6f}  {2*np.sin(t)**2:9.6f}   "
          + (f"{r:.6f}" if np.isfinite(r) else "  --"))

# The two-coefficient chain satisfies b_n^2 = alpha n(n-1)/4 + gamma n/2
# with alpha = -4, gamma = 4: a spin-1/2 family. closure_test recovers both.
rep = closure_test(result.b, D=result.D)
print(f"\nclosed: {rep.closed}, alpha = {rep.alpha:.3f}, gamma = {rep.gamma:.3f}")
print("saturation holds at every defined time:",
      bool(np.all(np.abs(prof.ratio[~np.isnan(prof.ratio)] - 1.0) < 1e-10)))
