"""
Margin variants head to head
============================

Same data, same backbone, three losses: plain additive margin (am), the
difficulty-scaled margin (daam), and the full augmentation bound (dasa).
Medians over a few seeds show the intended ordering on data with
confusable class pairs.
"""

import statistics

from semaug.config import build, resolve, to_train_settings
from semaug.data import SynthSpec, generate
from semaug.losses import LossConfig
from semaug.trainer import train

# a reduced version of the registry defaults; still large enough for the
# ordering to emerge, takes about ten seconds
cfg = resolve(overrides={
    "data.num_classes": 12,
    "data.samples_per_class": 40,
})

variants = ("am", "daam", "dasa")
eers = {v: [] for v in variants}
print("seed   " + "   ".join(f"{v:>6s}" for v in variants))
for seed in range(3):
    data = generate(build(SynthSpec, cfg, seed=seed))
    for v in variants:
        run = train(data, build(LossConfig, cfg, variant=v),
                    to_train_settings(cfg, seed=seed))
        eers[v].append(run.final_eer)
    print(f"{seed:4d}   " + "   ".join(f"{eers[v][-1]:.4f}" for v in variants))

print("med    " + "   ".join(f"{statistics.median(eers[v]):.4f}" for v in variants))
print("\nthe dedicated comparison command runs the full-size version of this:")
print("  semaug compare --out out/cmp --set compare.seeds=0,1,2,3,4")
