"""Import footprint: the sampling path loads no scipy.

scipy.optimize and scipy.special cost about 45 MB of resident memory and
0.5 s of start-up, so only ``assignment_solve`` loads scipy, on its first
call. Other test files import ``scipy.stats``, so the check runs in a fresh
interpreter: it imports the package and its CLI, runs the benchmark's calls
on tiny inputs, and reports the scipy modules loaded before and after one
``assignment_solve`` call.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pseudomallows

SCRIPT = """
import json, sys
from pathlib import Path
import numpy as np
import pseudomallows as pm
import pseudomallows.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

tmp = Path(sys.argv[1])
rankings = pm.make_dataset(np.arange(1, 7), 2.0, 30, np.random.default_rng(0)).rankings
np.savetxt(tmp / "rankings.csv", rankings, fmt="%d", delimiter=",")
np.savetxt(tmp / "clicks.csv", (rankings <= 2).astype(np.int64), fmt="%d", delimiter=",")
data, clicks = pm.load_rankings(tmp / "rankings.csv"), pm.load_clicks(tmp / "clicks.csv")
cfg = pm.PseudoConfig(2.0, 0.0, 50, seed=1)
draws = pm.sample_rho(data, cfg).samples
fit, users = pm.pseudo_clicking(clicks, cfg, warmup=2)
pm.recommend_all(users, clicks.clicks, 2)
chain = pm.mcmc_rho(data, 2.0, pm.McmcConfig(200, seed=2))
pm.mcmc_clicking(clicks, 2.0, pm.McmcConfig(200, seed=3))
pm.cp_consensus(draws)
exact = pm.posterior_profile(data, 2.0)
pm.marginal_kl(pm.MarginalProfile.from_samples(draws), exact)
pm.marginal_kl(pm.MarginalProfile.from_samples(chain.rho_samples), exact)
before = scipy_modules()
pm.assignment_solve(np.eye(3))
print(json.dumps([before, scipy_modules()]))
"""


def test_only_assignment_solve_loads_scipy(tmp_path):
    src = str(Path(pseudomallows.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    before, after = json.loads(done.stdout.splitlines()[-1])
    assert before == []
    assert "scipy.optimize" in after
