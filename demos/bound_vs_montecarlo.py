"""
Closed-form bound vs Monte Carlo
================================

The difficulty-aware margin loss under Gaussian embedding perturbation
has a closed-form upper bound on its expectation.  Sampling the
expectation directly shows the bound from the other side: the estimate
climbs toward it as the sample count grows but never crosses it beyond
noise.
"""

import numpy as np

from semaug.covariance import CovarianceBank
from semaug.losses import ClassifierHead, LossConfig, dasa_bound
from semaug.montecarlo import mc_expected_margin
from semaug.rng import philox_rng

rng = philox_rng(7)

# a small head and a covariance bank filled from synthetic class samples
C, F = 6, 8
head = ClassifierHead(rng.standard_normal((C, F)), None, scale=12.0, margin=0.2)
bank = CovarianceBank(C, F)
for c in range(C):
    center = rng.standard_normal(F)
    for _ in range(30):
        bank.update(center + 0.4 * rng.standard_normal(F), c)

f = rng.standard_normal(F)
f /= np.linalg.norm(f)
label = 2

cfg = LossConfig(variant="dasa", difficulty="DA", strength_mode="constant",
                 lambda0=0.6, gamma=2.0, ramp_total_iters=10, deferred_fraction=0.0)
out = dasa_bound(f, head, bank, label, cfg, t=10)
lam = out.per_sample_terms["lambda"][0]
coef = out.per_sample_terms["coef"][0]
print(f"closed-form bound: {out.value[0]:.6f}   (lam={lam}, difficulty coef={coef:.4f})")

print("\n      M        MC mean        SE     slack  slack/SE")
for M in (1000, 10000, 100000, 1000000):
    rep = mc_expected_margin(f, head, bank.stats[label], lam, label,
                             margin_coef=coef, count=M, seed=(7, M))
    print(f"{M:7d}   {rep.mean:.6f}   {rep.std_error:.2e}   {rep.slack:.5f}   {rep.z_score:8.1f}")

print("\nslack stays positive: the expectation sits below the bound, and the")
print("gap that remains is the price of the log-sum-exp convexity step.")
