"""The dense least-squares core: plain fits and the seeded
cross-validation used to score candidate subsets.
"""
import numpy as np

from benchsel.linreg import cross_validated_mse, fit_ols

rng = np.random.default_rng(0)
X = rng.uniform(0.0, 3.0, size=(80, 4))
true_weights = np.array([0.5, 0.0, 1.2, 0.3])
t = X @ true_weights + rng.normal(0.0, 0.05, size=80)

ols = fit_ols(X, t, environment_ids=("a", "b", "c", "d"))
print("ols coefficients:  ", np.round(ols.coefficients, 4))
print("ols r_squared:     ", round(ols.stats.r_squared, 5))

# k-fold CV is a pure function of (data, folds, seed): same seed, same answer
for seed in (0, 0, 1):
    mse = cross_validated_mse(X, t, folds=10, seed=seed)
    print(f"10-fold cv mse (seed={seed}): {mse:.6f}")

# overfitting shows up as CV degradation: add pure-noise predictors
X_noisy = np.hstack([X, rng.normal(size=(80, 7))])
print("cv mse with 7 junk columns:",
      round(cross_validated_mse(X_noisy, t, folds=10, seed=0), 6))
