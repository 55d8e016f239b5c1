"""Assignment-driven search for a good factorization ordering.

Starts from a V-ranking knocked off target by random neighbor swaps, scores
single-item relocations by marginal KL, and recombines them through a
minimum-cost matching. The trace shows the search sliding back onto (or
next to) a V-ranking.
"""

import numpy as np

from pseudomallows import adjacent_swaps, iterative_search, make_dataset, v_set

n, alpha0, n_users = 5, 1.5, 100
rho0 = np.arange(1, n + 1)
rng = np.random.default_rng(7)
data = make_dataset(rho0, alpha0, n_users, rng)
vset = v_set(rho0)

init = adjacent_swaps(vset.sample(rng), 2 * n, rng)
print(f"start: {init.tolist()} (footrule {vset.nearest_distance(init)} from the V-set)")

trace = iterative_search(data, alpha0, init, max_iters=12, eval_mode="exact", rng=rng)
for i, (ranking, kl) in enumerate(zip(trace.rankings, trace.kl_values)):
    print(f"iter {i:>2}: {ranking.tolist()}  KL {kl:.6f}  V-distance {vset.nearest_distance(ranking)}")
print(f"\nbest iterate: {trace.best_ranking.tolist()} "
      f"(KL {trace.best_kl:.6f}, V-distance {vset.nearest_distance(trace.best_ranking)})")
