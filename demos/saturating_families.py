"""The three saturating families and the growth-rate pairs that name them.

Any chain obeying b_n^2 = alpha n(n-1)/4 + gamma n/2 saturates the dispersion
bound at all times, and the sign of alpha picks the curve shape:

    alpha > 0   sl(2,R)   K = (2 gamma / alpha) sinh^2(sqrt(alpha) t / 2)
    alpha = 0   h(1)      K = (gamma / 2) t^2
    alpha < 0   su(2)     K = (D - 1) sin^2(omega t)

Here each family is built from its (alpha, gamma) pair with
AlgebraModel.from_rates, evolved numerically site by site, and compared
against its closed-form K(t); then the coefficient law
is broken on purpose to show the ratio dip below 1. Writes a PNG when
matplotlib is importable, prints a summary either way.
"""

import numpy as np

from kbound import (
    AlgebraModel,
    closure_test,
    complexity_profile,
    evolve_amplitudes,
    model_observables,
)

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

CASES = [
    (4.0, 202.0, None, np.linspace(0.0, 1.5, 301)),
    (0.0, 200.0, None, np.linspace(0.0, 2.0, 301)),
    (-4.0, 198.0, 100, np.linspace(0.0, np.pi, 301)),
]

curves = []
for alpha, gamma, D, grid in CASES:
    model = AlgebraModel.from_rates(alpha, gamma, D)
    if model.D is not None:
        chain = model.b(np.arange(1, model.D))
    else:
        chain = lambda n, m=model: m.b(np.asarray(n))
    prof = complexity_profile(evolve_amplitudes(chain, grid))
    # The closed form needs no eigensolve: K(t) straight from the model.
    exact = model_observables(model, grid).complexity
    err = np.max(np.abs(prof.complexity - exact) / np.maximum(1.0, exact))
    defined = ~np.isnan(prof.ratio)
    dev = np.max(np.abs(prof.ratio[defined] - 1.0))
    print(f"{model.label():22s} max rel K error {err:.2e}   "
          f"max |ratio - 1| {dev:.2e}")
    curves.append((model, grid, prof, exact))

    # Recover (alpha, gamma) back from the raw coefficients.
    n = np.arange(1, 40 if model.D is None else model.D)
    rep = closure_test(model.b(n), D=model.D)
    print(f"{'':22s} recovered alpha {rep.alpha:+.6f}, gamma {rep.gamma:.6f}")

# Break the law in one place: the bound is then strictly missed somewhere.
model = AlgebraModel.from_rates(4.0, 202.0)
def bumped(n):
    ns = np.asarray(n)
    vals = np.array(model.b(ns), dtype=np.float64, copy=True)
    vals[ns == 4] *= 1.1
    return vals
grid = np.linspace(0.0, 1.5, 301)
prof = complexity_profile(evolve_amplitudes(bumped, grid))
print(f"\nafter a 10% bump of b_4: min ratio {np.nanmin(prof.ratio):.4f} "
      f"(saturating chains hold ratio = 1)")

if plt is not None:
    fig, axes = plt.subplots(1, 3, figsize=(12, 3.4))
    for ax, (model, grid, prof, exact) in zip(axes, curves):
        ax.plot(grid, exact, lw=3, alpha=0.35, label="closed form")
        ax.plot(grid, prof.complexity, "k--", lw=1, label="chain evolution")
        ax.set_title(model.label())
        ax.set_xlabel("t")
        ax.set_ylabel("K")
        ax.legend(frameon=False)
    fig.tight_layout()
    fig.savefig("saturating_families.png", dpi=150)
    print("\nwrote saturating_families.png")
