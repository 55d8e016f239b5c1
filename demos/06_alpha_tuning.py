"""Estimating the scale parameter by similarity matching.

Mean pairwise cosine similarity between users is monotone in the scale, so
matching the observed similarity against simulated datasets on a grid
recovers the generating value, for complete rankings and for clicks alike.
"""

import numpy as np

from pseudomallows import (
    TruncatedPoisson,
    binarize,
    estimate_alpha_clicks,
    estimate_alpha_full,
    make_dataset,
    mean_pairwise_similarity,
)

n, n_users, alpha0 = 15, 300, 3.0
rng = np.random.default_rng(9)
data = make_dataset(np.arange(1, n + 1), alpha0, n_users, rng)

print(f"data generated at alpha = {alpha0}")
print(f"observed ranking similarity: {mean_pairwise_similarity(data.rankings):.4f}")
est = estimate_alpha_full(data, (0.5, 1.0, 2.0, 3.0, 5.0, 8.0), rng=rng)
print(f"estimate from complete rankings: {est}")

model = TruncatedPoisson(mean=4.0, low=1, high=n)
clicks = binarize(data, model, rng)
print(f"observed click similarity: {mean_pairwise_similarity(clicks.clicks):.4f}")
est = estimate_alpha_clicks(clicks, (1.0, 3.0, 8.0), count_model=model, rng=rng)
print(f"estimate from clicks: {est}")
