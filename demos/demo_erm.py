"""Supervised fitting, one exact solver per loss: a kernel ridge fit (the
conditional mean) against exact quantile fits with the pinball loss, on
heteroscedastic data.

Run:  python3 demos/demo_erm.py
"""

import numpy as np

from probdense import (
    Dataset,
    GaussianRBF,
    PinballLoss,
    SquaredLoss,
    empirical_risk,
    fit_kernel_ridge,
    fit_quantile,
)


def make_data(rng, n=120):
    # noise grows with x, so the conditional quantiles fan out
    x = np.sort(rng.uniform(0.0, 1.0, n))
    y = 0.5 * np.sin(2.0 * np.pi * x) + (0.05 + 0.25 * x) * rng.normal(size=n)
    return Dataset(x[:, None], y)


def main():
    rng = np.random.default_rng(2)
    data = make_data(rng)
    kernel = GaussianRBF(0.2)
    lam = 0.005

    mean = fit_kernel_ridge(data, kernel, lam)
    print(f"ridge (squared loss, direct solve): risk = {empirical_risk(mean, data, SquaredLoss()):.6f}")
    quantiles = {"q10": 0.1, "median": 0.5, "q90": 0.9}
    fits = {name: fit_quantile(data, kernel, PinballLoss(tau), lam) for name, tau in quantiles.items()}
    print("quantile fits (pinball loss, exact dual solve):")
    for name, (_, info) in fits.items():
        print(f"  {name:>6}: {info.n_iters} steps, duality gap {info.duality_gap:.1e}")

    grid = np.linspace(0.0, 1.0, 9)[:, None]
    print(f"\n  {'x':>5}  {'mean':>8}" + "".join(f"  {name:>8}" for name in fits))
    columns = [mean(grid)] + [f(grid) for f, _ in fits.values()]
    for xv, *values in zip(grid[:, 0], *columns):
        print(f"  {xv:5.2f}" + "".join(f"  {v:8.4f}" for v in values))
    print("\nfraction of points above each fit:")
    for name, f in [("mean", mean)] + [(name, f) for name, (f, _) in fits.items()]:
        print(f"  {name:>6}: {float(np.mean(data.outputs > f(data.inputs))):.2f}")
    print("  (want about 0.90, 0.50 and 0.10 above q10, median and q90)")


if __name__ == "__main__":
    main()
