"""Seeded output streams, pinned by SHA-256 digest.

Each case runs a public sampler at a fixed shape and seed and compares the
digest of its int64 output bytes with the digest recorded here. The cases
cover each path of the draw kernel (row-add, two-level and the log-space
fallback), the click loop, one-shot click augmentation, both MCMC chains and
the exact inverse-CDF draws of ``sample_mallows`` at n <= 8.
A change that moves a seeded stream on purpose updates the digest here and
names the change in CHANGES.md; any other mismatch is a regression.
"""

import hashlib

import numpy as np
import pytest

from pseudomallows import pseudo
from pseudomallows.mcmc import McmcConfig, mcmc_clicking, mcmc_rho
from pseudomallows.pseudo import PseudoConfig, pseudo_clicking, sample_rho, sample_user_rankings
from pseudomallows.simulate import sample_mallows


def digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()


def noisy_rankings(n_users: int, n: int, seed: int) -> np.ndarray:
    """Rankings of the identity jittered by Gaussian noise of scale n/4."""
    rng = np.random.default_rng(seed)
    scores = np.arange(n) + rng.normal(0.0, n / 4, (n_users, n))
    return np.argsort(np.argsort(scores, axis=1), axis=1) + 1


def top_clicks(n_users: int, n: int, seed: int) -> np.ndarray:
    """Clicks on each user's top 1-4 items of ``noisy_rankings``."""
    counts = np.random.default_rng(seed + 1).integers(1, 5, n_users)
    return (noisy_rankings(n_users, n, seed) <= counts[:, None]).astype(np.int64)


SAMPLE_RHO = {
    # (n, N, T, alpha, sigma): the row-add path, the two-level path below and from
    # _ROW_ADD_MIN draws on, the log-space fallback
    (20, 200, 300, 2.0, 0.0): "7b952dd124bb8d6c417d2c04702939797208d547f89387d7687812e4303b2014",
    (20, 200, 300, 2.0, 0.7): "5a8b1d98b2ef9c49938db5a49cdec1545e88870d3ab61502650d3d2240f73343",
    (150, 100, 150, 2.0, 0.0): "93b0b24ea1c2453a3427f355a6b1b31223964489fc2ce3d52216b0606a9f7ef6",
    (200, 100, 300, 5.0, 0.0): "31e7f43059c42fca7a306460bf8f29b9ef293308dd30abddfa68d3201df4f947",
    (200, 100, 300, 5.0, 0.7): "940e155f24de03311201b943ee780e99f46b4f925585d9b631a6380b5ff0d120",
    (20, 200, 50, 1e4, 0.0): "2472f86eab05e84237b340203f42791ade885d877bc676a6d74a3771f68aa66b",
}


@pytest.mark.parametrize("shape", SAMPLE_RHO, ids=str)
def test_sample_rho(shape, monkeypatch):
    n, n_users, t, alpha, sigma = shape
    fallbacks = []  # one entry per log-space redo, of some draws of a step or of all
    for name in ("_log_space", "_log_space_step"):
        inner = getattr(pseudo, name)
        monkeypatch.setattr(pseudo, name, lambda *a, inner=inner: fallbacks.append(1) or inner(*a))
    cfg = PseudoConfig(alpha=alpha, sigma=sigma, n_samples=t, seed=11)
    draws = sample_rho(noisy_rankings(n_users, n, 3), cfg).samples
    assert digest(draws) == SAMPLE_RHO[shape]
    assert bool(fallbacks) == (alpha >= 1e4)


PSEUDO_CLICKING = {
    0.0: "3e020f432fa8e43443719d8fe4254751bb8acf2d2c408ed3ed295e153cb57667",
    0.7: "bed523711fcb328aa54da3f3a824cd270c97fc3345ac30597f77af4069a29ab9",
}


@pytest.mark.parametrize("sigma", PSEUDO_CLICKING)
def test_pseudo_clicking(sigma):
    cfg = PseudoConfig(alpha=3.0, sigma=sigma, n_samples=30, seed=17)
    fit, users = pseudo_clicking(top_clicks(40, 12, 5), cfg, warmup=3)
    assert digest(fit.samples, users) == PSEUDO_CLICKING[sigma]


PSEUDO_CLICKING_BENCH = {
    # the benchmark's clicks shape: n=20, N=200, alpha=5, warm-up 10, 60 kept
    # iterations, so the kept draws cross the 50-iteration chunk boundary
    0.0: "b81f421a37318702d095523928119a39ff896ad7a16577c54a70fd5d560f175d",
    0.7: "fd59be6bb39e80dd69609ff6d439e44deaa8e993daf2ffd9a795d5cea8fad10a",
}


@pytest.mark.parametrize("sigma", PSEUDO_CLICKING_BENCH)
def test_pseudo_clicking_at_the_benchmark_shape(sigma):
    cfg = PseudoConfig(alpha=5.0, sigma=sigma, n_samples=60, seed=31)
    fit, users = pseudo_clicking(top_clicks(200, 20, 9), cfg, warmup=10)
    assert digest(fit.samples, users) == PSEUDO_CLICKING_BENCH[sigma]


def test_sample_user_rankings():
    rho = np.random.default_rng(7).permutation(12) + 1
    drawn = sample_user_rankings(top_clicks(40, 12, 5), 3.0, rho, np.random.default_rng(19))
    assert digest(drawn) == "16dcc07f3bcfa0f49a7b2e85c278189464f83bdf886f3ba81b33712b7b31345b"


def test_mcmc_clicking():
    trace, users = mcmc_clicking(top_clicks(40, 12, 5), 3.0, McmcConfig(iterations=600, seed=23))
    assert digest(trace.rho_samples, users, [round(trace.acceptance_rate * 1e12)]) == (
        "15e2ce9f590edfaa8af944d31ef9712b01b1ed5851f9228f3a1b2eeac173bc60"
    )


def test_mcmc_rho():
    trace = mcmc_rho(noisy_rankings(200, 20, 3), 2.0, McmcConfig(iterations=3000, seed=29))
    assert digest(trace.rho_samples, [round(trace.acceptance_rate * 1e12)]) == (
        "0e0d9b98c3d327bfc58b4fbde2c575802b07a5c3eddb1f66897b892f4fa8b9c0"
    )


SAMPLE_MALLOWS = {
    # alpha at n=6: each draw inverts the CDF of exact_posterior's probabilities
    0.5: "e2130e22d7063004dd5c3222d8077861d643762ded50f11afdae24fc6c3ed9f9",
    2.0: "44df150a5aeac71f79486c5e25272c2284914e605fc6d4269ff74af852a81193",
    6.0: "dea177b119087fc77754887517c3185d5d7b7a88326b546d3e8e0392e80e34cd",
}


@pytest.mark.parametrize("alpha", SAMPLE_MALLOWS)
def test_sample_mallows_by_enumeration(alpha):
    rho0 = np.random.default_rng(43).permutation(6) + 1
    assert digest(sample_mallows(rho0, alpha, 400, 37)) == SAMPLE_MALLOWS[alpha]
