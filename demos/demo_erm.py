"""Supervised fitting: ridge vs subgradient descent, and exact quantile
fits with the pinball loss on heteroscedastic data.

Run:  python3 demos/demo_erm.py
"""

import numpy as np

from probdense import (
    Dataset,
    FitConfig,
    GaussianRBF,
    PinballLoss,
    SquaredLoss,
    empirical_risk,
    fit_erm,
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

    ridge = fit_kernel_ridge(data, kernel, lam)
    cfg = FitConfig(lam, max_iters=3000, step_size0=0.05)
    sub, info = fit_erm(data, kernel, SquaredLoss(), cfg)
    print("squared loss, two solvers:")
    print(f"  ridge (direct solve)  risk = {empirical_risk(ridge, data, SquaredLoss()):.6f}")
    print(f"  subgradient descent   risk = {empirical_risk(sub, data, SquaredLoss()):.6f}")
    print(f"  descent objective {info.objective:.6f} after {info.n_iters} iterations")

    med, med_info = fit_quantile(data, kernel, PinballLoss(0.5), FitConfig(lam))
    hi, hi_info = fit_quantile(data, kernel, PinballLoss(0.9), FitConfig(lam))
    grid = np.linspace(0.0, 1.0, 9)[:, None]
    print("\nquantile fits (pinball loss, exact dual solve):")
    for name, info in (("median", med_info), ("q90", hi_info)):
        print(f"  {name:>6}: {info.n_iters} steps, duality gap {info.duality_gap:.1e}")
    print(f"  {'x':>5}  {'median':>8}  {'q90':>8}")
    for xv, mv, hv in zip(grid[:, 0], med(grid), hi(grid)):
        print(f"  {xv:5.2f}  {mv:8.4f}  {hv:8.4f}")
    above_med = float(np.mean(data.outputs > med(data.inputs)))
    above_hi = float(np.mean(data.outputs > hi(data.inputs)))
    print(f"  fraction of points above the median fit: {above_med:.2f} (want about 0.50)")
    print(f"  fraction above the 0.9-quantile fit:     {above_hi:.2f} (want about 0.10)")


if __name__ == "__main__":
    main()
