import itertools

import numpy as np
import pytest
from scipy.stats import chi2

from pseudomallows.perms import (
    CapacityError,
    VSet,
    adjacent_swaps,
    check_alpha,
    check_count,
    footrule_distance,
    is_permutation,
    ordering_of,
    permutation_matrix,
    rank_of,
    v_set,
)


def perturbed_v_ranking(rho_hat, sigma, rng, size=None):
    """The reference law of ``VSet.orderings0``: V-set members of
    ``rho_hat`` (a ranking or its VSet), each entry jittered with Gaussian
    noise of scale ``sigma`` and ranked; ``sigma = 0`` gives the members.
    One ranking with ``size=None``, otherwise ``size`` rankings as rows."""
    sigma = check_alpha(sigma, True, "sigma")
    v = (rho_hat if isinstance(rho_hat, VSet) else v_set(rho_hat)).sample(rng, size)
    return v if sigma == 0 else rank_of(v + rng.normal(0.0, sigma, size=v.shape))


class TestFootrule:
    def test_identity_is_zero(self):
        assert footrule_distance((1, 2, 3), (1, 2, 3)) == 0

    def test_reversal_n3(self):
        assert footrule_distance((1, 2, 3), (3, 2, 1)) == 4

    def test_reversal_n4(self):
        assert footrule_distance((1, 2, 3, 4), (4, 3, 2, 1)) == 8

    def test_symmetry_and_zero_iff_equal(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.permutation(6) + 1
            b = rng.permutation(6) + 1
            assert footrule_distance(a, b) == footrule_distance(b, a)
            assert (footrule_distance(a, b) == 0) == np.array_equal(a, b)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            footrule_distance((1, 2), (1, 2, 3))

    def test_right_invariance_brute_force(self):
        """d(a o s, b o s) = d(a, b) for every relabeling s, n <= 5."""
        rng = np.random.default_rng(1)
        for n in (2, 3, 4, 5):
            a = rng.permutation(n) + 1
            b = rng.permutation(n) + 1
            base = footrule_distance(a, b)
            for s in itertools.permutations(range(n)):
                s = np.array(s)
                assert footrule_distance(a[s], b[s]) == base


class TestRankOperator:
    def test_sorted_input(self):
        assert rank_of((1.0, 2.0, 3.0)).tolist() == [1, 2, 3]

    def test_unsorted(self):
        assert rank_of((0.3, 1.2, 0.7)).tolist() == [1, 3, 2]

    def test_tie_break_by_index(self):
        # the raw count-of-smaller-or-equal definition would give (2, 2)
        assert rank_of((1.0, 1.0)).tolist() == [1, 2]

    def test_rows_ranked_along_last_axis(self):
        assert rank_of([[0.3, 1.2, 0.7], [1.0, 1.0, 0.0]]).tolist() == [[1, 3, 2], [2, 3, 1]]

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            rank_of((1.0, float("nan")))

    def test_rank_of_permutation_is_identity_map(self):
        for n in range(1, 7):
            for p in permutation_matrix(n):
                assert rank_of(p).tolist() == p.tolist()


class TestOrderingConversion:
    def test_identity_self_inverse(self):
        assert ordering_of((1, 2, 3)).tolist() == [1, 2, 3]

    def test_example(self):
        assert ordering_of((2, 3, 1)).tolist() == [3, 1, 2]

    def test_round_trip(self):
        assert ordering_of(ordering_of((4, 1, 3, 2))).tolist() == [4, 1, 3, 2]

    def test_mutual_inverse_property(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            r = rng.permutation(8) + 1
            o = ordering_of(r)
            assert all(r[o[m] - 1] == m + 1 for m in range(8))

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError, match="permutation"):
            ordering_of((1, 1, 2))


class TestVSet:
    def test_n3(self):
        members = sorted(tuple(m) for m in v_set((1, 2, 3)).members())
        assert members == [(2, 1, 3), (3, 1, 2)]

    def test_n4(self):
        members = sorted(tuple(m) for m in v_set((1, 2, 3, 4)).members())
        assert members == [(3, 1, 2, 4), (3, 2, 1, 4), (4, 1, 2, 3), (4, 2, 1, 3)]

    def test_n1(self):
        assert [tuple(m) for m in v_set((1,)).members()] == [(1,)]

    def test_sample_size_must_be_an_integer(self):
        with pytest.raises(ValueError, match="size must be an integer"):
            v_set((1, 2, 3)).sample(np.random.default_rng(0), 2.5)

    def test_n2(self):
        assert sorted(tuple(m) for m in v_set((1, 2)).members()) == [(1, 2), (2, 1)]

    def test_cardinality_matches_pair_structure(self):
        for n in range(1, 9):
            vs = v_set(np.arange(1, n + 1))
            m = (n + 1) // 2
            expected = 2 ** (m - 1) if n % 2 == 1 else 2**m
            assert vs.size == expected
            assert len(list(vs.members())) == expected

    def test_members_are_valid_rankings(self):
        rng = np.random.default_rng(3)
        for n in range(1, 9):
            base = rng.permutation(n) + 1
            for member in v_set(base).members():
                assert is_permutation(member)

    def test_membership_test_agrees_with_enumeration(self):
        vs = v_set((2, 4, 1, 5, 3))
        member_set = {tuple(m) for m in vs.members()}
        for p in map(tuple, permutation_matrix(5).tolist()):
            assert (np.array(p) in vs) == (p in member_set)

    def test_uniform_sampling_frequencies(self):
        """Every one of the four members for n = 5 shows up 0.25 +/- 0.02."""
        vs = v_set(np.arange(1, 6))
        rng = np.random.default_rng(10)
        counts = {}
        for _ in range(10000):
            key = tuple(vs.sample(rng))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 4
        for c in counts.values():
            assert abs(c / 10000 - 0.25) < 0.02

    def test_of_scores_is_the_v_set_of_their_rank(self):
        """Tied scores included: the base, the members and a seeded sample
        equal those of ``v_set(rank_of(scores))``."""
        rng = np.random.default_rng(11)
        for n in range(1, 9):
            scores = rng.integers(0, 4, n)
            built, want = VSet.of_scores(scores), v_set(rank_of(scores))
            assert np.array_equal(built.base, want.base)
            assert [m.tolist() for m in built.members()] == [m.tolist() for m in want.members()]
            draws = built.sample(np.random.default_rng(n), 6)
            assert np.array_equal(draws, want.sample(np.random.default_rng(n), 6))

    @pytest.mark.parametrize("scores,message", [
        ([[1, 2], [3, 4]], "1-d"), ([], "nonempty"), ([0.5, np.nan], "NaN"),
    ])
    def test_of_scores_rejects_bad_scores(self, scores, message):
        with pytest.raises(ValueError, match=message):
            VSet.of_scores(scores)

    def test_nearest_distance_matches_enumeration(self):
        rng = np.random.default_rng(4)
        for n in (3, 4, 5, 6):
            vs = v_set(rng.permutation(n) + 1)
            for _ in range(20):
                x = rng.permutation(n) + 1
                brute = min(footrule_distance(x, m) for m in vs.members())
                assert vs.nearest_distance(x) == brute


class TestPerturbedVRanking:
    def test_sigma_zero_returns_member(self):
        vs = v_set((1, 2, 3))
        rng = np.random.default_rng(5)
        for _ in range(20):
            assert tuple(perturbed_v_ranking((1, 2, 3), 0.0, rng)) in {
                (2, 1, 3),
                (3, 1, 2),
            }

    @pytest.mark.parametrize("sigma", [0.0, 1.5])
    def test_a_v_set_draws_as_its_base(self, sigma):
        base = np.random.default_rng(3).permutation(7) + 1
        draws = perturbed_v_ranking(v_set(base), sigma, np.random.default_rng(4), 9)
        assert np.array_equal(draws, perturbed_v_ranking(base, sigma, np.random.default_rng(4), 9))

    def test_single_item(self):
        rng = np.random.default_rng(6)
        assert perturbed_v_ranking((1,), 5.0, rng).tolist() == [1]

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="sigma"):
            perturbed_v_ranking((1, 2, 3), -1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("sigma", [np.inf, np.nan])
    def test_sigma_must_be_finite(self, sigma):
        with pytest.raises(ValueError, match="sigma must be nonnegative and finite"):
            perturbed_v_ranking((1, 2, 3), sigma, np.random.default_rng(0))

    def test_huge_sigma_is_uniform(self):
        """Noise dominates the member ranks, so the output ranks i.i.d.
        Gaussians: uniform over P_5 by a chi-square test."""
        rng = np.random.default_rng(8)
        draws = 100000
        counts = {}
        for _ in range(draws):
            key = tuple(perturbed_v_ranking(np.arange(1, 6), 1e9, rng))
            counts[key] = counts.get(key, 0) + 1
        expected = draws / 120
        stat = sum((counts.get(tuple(p), 0) - expected) ** 2 / expected
                   for p in permutation_matrix(5))
        assert stat < chi2.ppf(0.999, 119)


class TestVSetOrderings:
    @pytest.mark.parametrize("sigma", [0.0, 0.7, 5.0])
    def test_equal_the_sorted_perturbed_rankings(self, sigma):
        """Tied integer scores at n = 1..11, 20 seeds each: the sequences
        and the generator's next draw match ``perturbed_v_ranking``'s."""
        for n in range(1, 12):
            for seed in range(20):
                vs = VSet.of_scores(np.random.default_rng(seed).integers(0, 4, n))
                got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                got = vs.orderings0(sigma, got_rng, 7)
                want = np.argsort(perturbed_v_ranking(vs, sigma, want_rng, 7), axis=1, kind="stable")
                assert got.dtype == np.int64 and np.array_equal(got, want)
                assert got_rng.random() == want_rng.random()

    @pytest.mark.parametrize("sigma", [-1.0, np.inf, np.nan])
    def test_bad_sigma_rejected(self, sigma):
        with pytest.raises(ValueError, match="sigma must be nonnegative and finite"):
            v_set((1, 2, 3)).orderings0(sigma, np.random.default_rng(0), 2)

    @pytest.mark.parametrize("sigma", [0.0, 0.7])
    def test_no_members(self, sigma):
        assert v_set((2, 1, 3, 4)).orderings0(sigma, np.random.default_rng(0), 0).shape == (0, 4)


class TestEnumeration:
    def test_n1(self):
        assert permutation_matrix(1).tolist() == [[1]]
        with pytest.raises(ValueError, match="n must be"):
            permutation_matrix(0)

    def test_n3_lexicographic(self):
        perms = permutation_matrix(3).tolist()
        assert len(perms) == 6
        assert perms[0] == [1, 2, 3]
        assert perms[-1] == [3, 2, 1]
        assert perms == sorted(perms)

    def test_n4_count(self):
        mat = permutation_matrix(4)
        assert mat.shape == (24, 4) and len(set(map(tuple, mat.tolist()))) == 24

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            permutation_matrix(11)

    def test_matrix_cache_read_only(self):
        mat = permutation_matrix(4)
        assert mat.shape == (24, 4)
        with pytest.raises(ValueError):
            mat[0, 0] = 9


class TestScalarChecks:
    @pytest.mark.parametrize("bad", [True, False, np.bool_(True), "2", b"2", None, [2.0], np.array([2.0])])
    def test_alpha_must_be_a_real_number(self, bad):
        with pytest.raises(ValueError, match="alpha must be a real number"):
            check_alpha(bad)

    @pytest.mark.parametrize("bad", [True, False, np.bool_(True), "2", 2.0])
    def test_count_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="size must be an integer"):
            check_count(bad, "size", 0)

    def test_numpy_scalars_pass(self):
        assert check_alpha(np.float32(2.5)) == 2.5 and check_alpha(np.int64(3)) == 3.0
        assert check_alpha(np.float64(0.0), allow_zero=True) == 0.0
        assert check_count(np.int64(3), "size", 0) == 3 and check_count(np.uint8(0), "size", 0) == 0


def test_adjacent_swaps_valid_and_local():
    rng = np.random.default_rng(9)
    r = np.arange(1, 8)
    out = adjacent_swaps(r, 7, rng)
    assert is_permutation(out)
    assert footrule_distance(out, r) <= 2 * 7
