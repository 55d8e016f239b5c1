"""Personalized top-k recommendation from binary click data.

Rankings are simulated, binarized into clicks (top-ranked items clicked),
and then re-inferred by the alternating sampler. Recommendations come with
posterior probabilities whose calibration we can check against the held-out
true ranks.
"""

import numpy as np

from pseudomallows import (
    PseudoConfig,
    TruncatedPoisson,
    binarize,
    make_dataset,
    pseudo_clicking,
    recommend_all,
)

n, n_users, alpha0, k = 20, 200, 5.0, 3
rho0 = np.arange(1, n + 1)
rng = np.random.default_rng(5)

data = make_dataset(rho0, alpha0, n_users, rng)
clicks = binarize(data, TruncatedPoisson(mean=4.0, low=1, high=n - 3), rng)
print(f"{n_users} users, mean clicks {clicks.click_counts().mean():.1f} of {n} items")

rho_ss, user_samples = pseudo_clicking(
    clicks, PseudoConfig(alpha=alpha0, sigma=0.0, n_samples=300, seed=1), warmup=10
)
print(f"alternating sampler: 300 sweeps in {rho_ss.wall_clock:.2f} s")

all_recs = recommend_all(user_samples, clicks, k)
hits = total = 0
for j, recs in enumerate(all_recs):
    c = int(clicks.click_counts()[j])
    for item, prob in recs:
        hits += c + 1 <= data.rankings[j, item - 1] <= c + k
        total += 1
baseline = np.mean(k / (n - clicks.click_counts()))
print(f"accuracy {hits/total:.3f} vs random baseline {baseline:.3f}")

j = 0
print(f"\nuser 0 clicked items {np.flatnonzero(clicks.clicks[j]) + 1}; recommendations:")
for item, prob in all_recs[j]:
    true_rank = data.rankings[j, item - 1]
    print(f"  item {item:>2} with probability {prob:.2f} (held-out true rank {true_rank})")
