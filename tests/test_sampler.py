import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats as sstats

from bisector_words import enumeration, sampler, words
from oracles import enumerate_walks_plus


def chi_square_p(counts: dict, cells: int) -> float:
    observed = np.array(list(counts.values()) + [0] * (cells - len(counts)), dtype=float)
    return float(sstats.chisquare(observed).pvalue)


class CountingRng:
    """A generator that records the upper bound of every ``integers`` call."""

    def __init__(self, rng):
        self.rng = rng
        self.highs = []

    def integers(self, low, high, *args, **kwargs):
        self.highs.append(high)
        return self.rng.integers(low, high, *args, **kwargs)


def pool_cells(observed, expected, minimum=5.0):
    """Merge neighbouring cells until every expected count is at least ``minimum``."""
    cells = []
    for o, e in zip(observed, expected):
        if cells and cells[-1][1] < minimum:
            cells[-1][0] += o
            cells[-1][1] += e
        else:
            cells.append([o, e])
    if len(cells) > 1 and cells[-1][1] < minimum:
        o, e = cells.pop()
        cells[-1][0] += o
        cells[-1][1] += e
    return cells


def special_count_pvalue(n: int, trials: int, rng) -> float:
    """Chi-square p-value of the number p of 0 letters in sampled signatures.

    The signature has 2p letters 0 or 2 with weight 2 C(n,2p) 2^(n-2p).
    """
    observed: dict = {}
    for _ in range(trials):
        sig = words.signature(sampler.sample_uniform_word(n, rng))
        p = sig.count(0)
        observed[p] = observed.get(p, 0) + 1
    total_words = enumeration.count_words(n)
    ps = range(1, n // 2 + 1)
    expected = [trials * 2 * math.comb(n, 2 * p) * 2 ** (n - 2 * p) / total_words for p in ps]
    cells = pool_cells([observed.get(p, 0) for p in ps], expected)
    stat = sum((o - e) ** 2 / e for o, e in cells)
    return float(sstats.chi2.sf(stat, df=len(cells) - 1))


class TestUniformWords:
    def test_always_realizable(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            assert words.is_realizable(sampler.sample_uniform_word(5, rng))

    def test_chi_square_uniformity_n3(self):
        rng = np.random.default_rng(1)
        counts: dict = {}
        for _ in range(60_000):
            w = sampler.sample_uniform_word(3, rng)
            counts[w] = counts.get(w, 0) + 1
        assert len(counts) == 12
        assert chi_square_p(counts, 12) > 1e-3

    def test_special_count_marginal_n6(self):
        assert special_count_pvalue(6, 100_000, np.random.default_rng(2)) > 1e-3

    def test_special_count_marginal_n41(self):
        # n=41 makes two draws per attempt, one of 39 letters and one of 2
        assert special_count_pvalue(41, 50_000, np.random.default_rng(41)) > 1e-3

    @pytest.mark.parametrize("n", [39, 40, 79])
    def test_draw_block_boundary(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            w = sampler.sample_uniform_word(n, rng)
            assert len(w) == 2 * n
            assert words.is_realizable(w)

    @pytest.mark.parametrize("n", [3, 4, 39, 40, 79])
    def test_one_draw_per_block_of_39_letters(self, n):
        rng = CountingRng(np.random.default_rng(n))
        sampler.sample_uniform_word(n, rng)
        blocks = [min(39, n - start) for start in range(0, n, 39)]
        attempt = [2 * 3 ** blocks[0]] + [3**b for b in blocks[1:]]
        attempts = len(rng.highs) // len(attempt)
        assert attempts >= 1 and rng.highs == attempt * attempts


class TestUniformBracelets:
    def test_n3_point_mass(self):
        rng = np.random.default_rng(3)
        only = words.canonical_bracelet(words.run_word(3))
        for _ in range(50):
            assert sampler.sample_uniform_bracelet(3, rng) == only

    def test_chi_square_uniformity_n5(self):
        rng = np.random.default_rng(4)
        counts: dict = {}
        for _ in range(20_000):
            b = sampler.sample_uniform_bracelet(5, rng)
            counts[b.word] = counts.get(b.word, 0) + 1
        assert len(counts) == 9
        assert chi_square_p(counts, 9) > 1e-3

    @pytest.mark.parametrize("n", range(3, 9))
    def test_acceptance_rate_bound(self, n):
        # mean acceptance probability is classes/words, at least 1/(4n)
        ratio = enumeration.count_bracelets(n) / enumeration.count_words(n)
        assert ratio >= 1 / (4 * n)


class TestWalkBijection:
    def test_worked_example(self):
        walk = sampler.word_to_walk(("11", "00", "10"))
        assert walk.steps == (0, 0, 1)
        assert walk.s == (0, 0, 0, 1)
        assert walk.k == (0, 1, 2, 2)
        assert sampler.walk_to_word(walk, True) == ("11", "00", "10")

    def test_rejects_bad_zero_counts(self):
        with pytest.raises(ValueError):
            sampler.walk_to_word(sampler.walk_from_steps((1, -1, 1)))
        with pytest.raises(ValueError):
            sampler.walk_to_word(sampler.walk_from_steps((0, 1, -1)))

    def test_step_validation(self):
        with pytest.raises(ValueError):
            sampler.walk_from_steps((0, 2, 1))

    @pytest.mark.parametrize("n", range(3, 7))
    def test_bijection_with_walks_plus(self, n):
        folded_plus = set()
        for w in enumeration.enumerate_words(n):
            f = words.fold(w)
            balanced = [a for a in f if a in ("00", "11")]
            if balanced[0] == "11":
                folded_plus.add(f)
        walks = enumerate_walks_plus(n)
        assert len(folded_plus) == len(walks) == enumeration.count_words(n) // 2

        images = {sampler.word_to_walk(f).steps for f in folded_plus}
        assert images == walks
        for f in folded_plus:
            assert sampler.walk_to_word(sampler.word_to_walk(f), True) == f

    def test_walk_state_formulas(self):
        assert sampler.counts_from_walk_state(3, 1, 2) == (1, 1, 1, 0)
        for n in (4, 5):
            for w in enumeration.enumerate_words(n):
                f = words.fold(w)
                balanced = [a for a in f if a in ("00", "11")]
                if balanced[0] != "11":
                    continue
                walk = sampler.word_to_walk(f)
                for i in range(n + 1):
                    counts = sampler.folded_prefix_counts(f, i)
                    predicted = sampler.counts_from_walk_state(i, walk.s[i], walk.k[i])
                    assert predicted == (counts["11"], counts["00"], counts["10"], counts["01"])


class TestPrefixConsistency:
    def test_signature_and_folded_counts_agree(self):
        for w in enumeration.enumerate_words(5):
            f = words.fold(w)
            sig = words.signature(w)
            for x in (0, 2, 3.7, 5):
                f0, f1, f2 = words.prefix_counts(sig, x)
                s = sampler.folded_prefix_counts(f, x)
                assert f0 + f2 == s["00"] + s["11"]
                assert f0 == s["00"] and f2 == s["11"]
                assert f1 == s["10"] + s["01"]
                assert sum(s.values()) == math.floor(x)


class TestBinomialParity:
    def test_small_values(self):
        assert sampler.binomial_parity_check(1) == (Fraction(2, 3), Fraction(1, 3))
        assert sampler.binomial_parity_check(2) == (Fraction(5, 9), Fraction(4, 9))

    @pytest.mark.parametrize("n", [1, 5, 17, 40])
    def test_difference_identity(self, n):
        even, odd = sampler.binomial_parity_check(n)
        assert even - odd == Fraction(1, 3**n)
        assert even + odd == 1


class TestCltExperiment:
    def test_moments_and_correlation(self):
        report = sampler.lln_clt_experiment(2000, 2000, (0.5, 1.0), seed=5)
        means = report.letter_means
        assert abs(means["s00"] - 1 / 6) < 0.01
        assert abs(means["s11"] - 1 / 6) < 0.01
        assert abs(means["s10"] - 1 / 3) < 0.015
        assert abs(means["s01"] - 1 / 3) < 0.015
        for c, v_f0, v_s10 in zip(report.c_grid, report.var_f0, report.var_s10):
            assert abs(v_f0 - 2 / 9 * c) < 0.25 * 2 / 9 * c
            assert abs(v_s10 - 8 / 9 * c) < 0.25 * 8 / 9 * c
        assert report.corr_f0_f1[-1] < -0.999  # exact anti-correlation at c=1

    def test_deterministic(self):
        a = sampler.lln_clt_experiment(500, 300, (1.0,), seed=6)
        b = sampler.lln_clt_experiment(500, 300, (1.0,), seed=6)
        assert a == b

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sampler.lln_clt_experiment(100, 10, (0.0, 1.0), seed=7)
