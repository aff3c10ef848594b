import dataclasses
import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from bisector_words import geometry, random_points as rp, sampler, words
from bisector_words.geometry import PointConfig, occupancy_word, region_stats

from oracles import (
    count_non_interlacing,
    exp_below_erlangs_prob,
    path_rows_by_grid_loop,
    words_by_stable_argsort,
)


RUN4 = words.canonical_bracelet(words.run_word(4))


def exp_config(sample):
    """The positions of an exponential-model sample on the unit circle, as a configuration."""
    pos = rp._exp_positions(np.array([sample.dots]), np.array([sample.colors[:-1]]))
    return PointConfig(tuple(sorted(pos[0].tolist())))


class TestClosedForms:
    def test_frozen_values(self):
        assert rp.closed_form("h2", 3) == 2
        assert rp.closed_form("h2", 4) == Fraction(20, 9)
        assert rp.closed_form("l0", 3) == Fraction(1, 9)
        assert rp.closed_form("l1", 3) == Fraction(5, 18)
        assert rp.closed_form("l2", 3) == Fraction(11, 18)
        assert rp.closed_form("le", 3) == Fraction(1, 4)
        assert [rp.closed_form("pbn", n) for n in (3, 4, 5, 6)] == [
            1,
            Fraction(1, 3),
            Fraction(5, 48),
            Fraction(1, 32),
        ]

    @pytest.mark.parametrize("n", range(3, 51))
    def test_lengths_partition_the_circle(self, n):
        total = sum(rp.closed_form(k, n) for k in ("l0", "l1", "l2"))
        assert total == 1
        assert rp.closed_form("le", n) == rp.closed_form("l0", n) + rp.closed_form("l1", n) / 2

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            rp.closed_form("h1", 4)


class TestPhi:
    def test_n3_is_quarter_x(self):
        for x in (Fraction(1, 5), Fraction(1, 3), Fraction(2, 5)):
            assert rp.phi(x, 3) == x / 4
            assert rp.phi_series(x, 3) == x / 4

    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("x", [Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)])
    def test_closed_form_equals_series(self, x, n):
        assert rp.phi(x, n) == rp.phi_series(x, n)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_value_at_one_third(self, n):
        assert rp.phi(Fraction(1, 3), n) == rp.closed_form("phi13", n)

    def test_domain(self):
        with pytest.raises(ValueError):
            rp.phi(Fraction(1, 2), 5)
        with pytest.raises(ValueError):
            rp.phi_series(Fraction(3, 5), 5)
        for n in (2, -5):
            with pytest.raises(ValueError, match="need 3 <= n"):
                rp.phi(Fraction(1, 3), n)
            with pytest.raises(ValueError, match="need 3 <= n"):
                rp.phi_series(Fraction(1, 3), n)


class TestErlang:
    """phi at 1/3 as a weighted sum of exponential-below-Erlang probabilities."""

    def test_simplest_case(self):
        assert exp_below_erlangs_prob(1, 1) == Fraction(1, 3)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_symmetry_and_monte_carlo(self, k, l):
        exact = exp_below_erlangs_prob(k, l)
        assert exact == exp_below_erlangs_prob(l, k)
        rng = rp.batch_rng(100 + 10 * k + l, 0)
        trials = 200_000
        x = rng.standard_exponential(trials)
        u = rng.standard_exponential((trials, k)).sum(axis=1)
        v = rng.standard_exponential((trials, l)).sum(axis=1)
        hits = int(((x < u) & (x < v)).sum())
        p = float(exact)
        z = (hits / trials - p) / math.sqrt(p * (1 - p) / trials)
        assert abs(z) <= 4, (k, l, hits, z)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_phi_series_is_the_erlang_sum(self, n):
        erlang_sum = sum(
            Fraction(1, 2 ** min(1 + k + l, n - 1)) * exp_below_erlangs_prob(k, l)
            for k in range(1, n - 1)
            for l in range(1, n - k)
        )
        assert rp.phi_series(Fraction(1, 3), n) == erlang_sum


class TestUniformConfig:
    def test_deterministic_given_seed(self):
        a = rp.sample_uniform_config(5, np.random.default_rng(42))
        b = rp.sample_uniform_config(5, np.random.default_rng(42))
        assert a == b

    def test_signature_interlaces(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            w = occupancy_word(rp.sample_uniform_config(4, rng))
            assert words.is_interlacing(words.signature(w))

    def test_triangle_bracelet_point_mass(self):
        rng = np.random.default_rng(2)
        target = words.canonical_bracelet(words.run_word(3))
        for _ in range(100):
            w = occupancy_word(rp.sample_uniform_config(3, rng))
            assert words.canonical_bracelet(w) == target

    class _ScriptedDraws:
        """Generator stand-in whose ``random`` returns the given draws in turn."""

        def __init__(self, *draws):
            self.draws = list(draws)

        def random(self, n):
            return np.array(self.draws.pop(0))

    def test_redraws_on_duplicate_and_on_tie(self):
        rng = self._ScriptedDraws([0.3, 0.1, 0.3], [0.0, 1 / 3, 2 / 3], [0.75, 0.1, 0.3])
        config = rp.sample_uniform_config(3, rng)
        assert config.positions == (0.1, 0.3, 0.75) and not rng.draws

    def test_n_bounded_before_any_draw(self):
        rng = self._ScriptedDraws()
        with pytest.raises(ValueError, match=f"n <= {rp.MAX_CONFIG_N}"):
            rp.sample_uniform_config(rp.MAX_CONFIG_N + 1, rng)

    def test_other_errors_propagate(self):
        rng = self._ScriptedDraws([0.2, 0.5, 1.5], [0.75, 0.1, 0.3])
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            rp.sample_uniform_config(3, rng)


class TestExpModel:
    def test_conventions(self):
        rng = np.random.default_rng(3)
        s = rp.sample_exp_model(6, rng)
        assert s.colors[0] == 1 and s.colors[6] == 0
        assert s.dots[0] == 0
        assert all(a < b for a, b in zip(s.dots, s.dots[1:]))

    def test_n_bounded_before_any_draw(self):
        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"rng.{name} was used")

        with pytest.raises(ValueError, match=f"n <= {rp.MAX_GEOMETRY_N}"):
            rp.sample_exp_model(rp.MAX_GEOMETRY_N + 1, NoDraws())

    def test_mean_total_is_n(self):
        spac, y, _ = rp._exp_draw(6, 200_000, rp.batch_rng(5, 0))
        assert np.allclose(y[:, 1:] - y[:, :-1], spac) and (y[:, 0] == 0).all()
        total = y[:, -1]
        z = (total.mean() - 6) / (total.std(ddof=1) / math.sqrt(len(total)))
        assert abs(z) <= 4

    def test_spacings_are_unit_exponentials(self):
        spac, _, _ = rp._exp_draw(5, 40_000, rp.batch_rng(45, 0))
        assert (spac >= 0).all()
        assert sstats.kstest(spac.ravel(), "expon").pvalue > 1e-3

    @pytest.mark.parametrize("shift", [0, 1])
    def test_colors_are_fair_and_independent_of_the_spacings(self, shift):
        # dot i against spacing i (from Y_i to Y_i+1), then against spacing i - 1
        n, rows = 6, 40_000
        spac, _, colors = rp._exp_draw(n, rows, rp.batch_rng(46, shift))
        assert (colors[:, 0] == 1).all()
        black = colors[:, 1:].ravel() == 1
        cells = black.size
        assert abs(black.sum() - cells / 2) <= 4 * math.sqrt(cells / 4)
        long = spac[:, 1 - shift : n - shift].ravel() > math.log(2)  # median of Exp(1)
        table = [[int((b & l).sum()) for l in (long, ~long)] for b in (black, ~black)]
        assert sstats.chi2_contingency(table).pvalue > 1e-3

    @pytest.mark.parametrize("n,a,b", [(3, 1, 4), (7, 50, 13)])
    def test_rows_drawn_in_two_calls_equal_rows_drawn_in_one(self, n, a, b):
        whole = rp._exp_draw(n, a + b, rp.batch_rng(47, n))
        rng = rp.batch_rng(47, n)
        parts = zip(rp._exp_draw(n, a, rng), rp._exp_draw(n, b, rng))
        for array, (first, second) in zip(whole, parts):
            assert np.array_equal(array, np.concatenate([first, second]))

    def test_config_has_interlacing_signature(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            cfg = exp_config(rp.sample_exp_model(5, rng))
            assert words.is_interlacing(words.signature(occupancy_word(cfg)))

    def test_bracelet_probabilities_match_circle_model(self):
        # the two models induce the same bracelet distribution
        trials = 1_000_000
        target = words.canonical_bracelet(words.run_word(4))
        circle = rp.estimate_bracelet_prob(4, target, trials, seed=7, model="circle")
        exp = rp.estimate_bracelet_prob(4, target, trials, seed=8, model="exp")
        assert abs(rp.z_between(circle, exp)) <= 4
        assert abs(circle.z) <= 4 and abs(exp.z) <= 4

    def test_empty_black_interior_probability(self):
        # all interior dots white has probability 2^-(n-1)
        rng = np.random.default_rng(9)
        n, trials = 5, 200_000
        hits = sum(
            all(c == 0 for c in rp.sample_exp_model(n, rng).colors[1:n]) for _ in range(trials)
        )
        p = hits / trials
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(p - 2 ** -(n - 1)) <= 4 * se


class TestBatchEngine:
    def test_words_match_scalar_geometry(self):
        rng = rp.batch_rng(11, 0)
        pos = rp._uniform_rows(5, 64, rng)
        wmat = rp._words_rows(pos)
        for row, w in zip(pos, wmat):
            cfg = PointConfig(tuple(float(x) for x in row))
            assert tuple(int(b) for b in w) == occupancy_word(cfg)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(3, 64),
        rows=st.integers(1, 12),
        seed=st.integers(0, 2**32),
        model=st.sampled_from(["uniform", "exp"]),
    )
    @example(n=5, rows=64, seed=11, model="uniform")
    @example(n=4, rows=32, seed=12, model="uniform")
    def test_region_data_matches_scalar_stats(self, n, rows, seed, model):
        rng = rp.batch_rng(seed, 0)
        if model == "uniform":
            pos = rp._uniform_rows(n, rows, rng)
        else:
            pos, _ = rp._exp_model_rows(n, rows, rng)
        wmat, types, _, lengths = rp._region_rows(pos)
        assert (rp._words_rows(pos) == wmat).all()
        for row, w, t, ln in zip(pos, wmat, types, lengths):
            cfg = PointConfig(tuple(float(x) for x in row))
            rs = region_stats(cfg)
            assert tuple(int(b) for b in w) == occupancy_word(cfg) == rs.occupied
            assert tuple(int(x) for x in t) == rs.types
            assert np.allclose(ln, rs.lengths)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        n=st.integers(3, 128),
        rows=st.integers(1, 12),
        seed=st.integers(0, 2**32),
        model=st.sampled_from(["uniform", "exp"]),
    )
    def test_words_match_stable_argsort(self, n, rows, seed, model):
        rng = rp.batch_rng(seed, 0)
        if model == "uniform":
            pos = rp._uniform_rows(n, rows, rng)
        else:
            pos, _ = rp._exp_model_rows(n, rows, rng)
        assert (rp._words_rows(pos) == words_by_stable_argsort(pos)).all()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.lists(st.sets(st.integers(1, 63), min_size=2, max_size=40), min_size=1, max_size=8))
    def test_words_match_stable_argsort_on_dyadic_ties(self, rows):
        # points on the grid of 1/64 make bisectors and their antipodes exact,
        # so many of them tie with points
        n = min(len(r) for r in rows) + 1
        pos = np.array([[0.0] + sorted(r)[: n - 1] for r in rows]) / 64
        assert (rp._words_rows(pos) == words_by_stable_argsort(pos)).all()

    @pytest.mark.parametrize(
        "row,tie,word",
        [
            # the last antipodal bisector equals p_1
            ((0, 1 / 4, 1 / 2), (2, 1 / 4), (1, 1, 0, 1, 0, 0)),
            # an antipodal bisector is exactly 0.0, the value of p_0
            ((0, 3 / 8, 5 / 8), (1, 0.0), (1, 0, 0, 1, 1, 0)),
        ],
    )
    def test_point_goes_before_an_equal_antipodal_bisector(self, row, tie, word):
        pos = np.array([row])
        _, anti = rp._bisectors_rows(pos)
        assert anti[0, tie[0]] == tie[1]
        assert tuple(rp._words_rows(pos)[0].tolist()) == word
        assert (rp._words_rows(pos) == words_by_stable_argsort(pos)).all()

    @pytest.mark.parametrize(
        "run,bound",
        [
            (lambda: rp.estimate_region_stats(128, rp.BATCH_SIZE, seed=36), 8 << 20),
            # a 64 x 4096 batch of 201-point path grids would be 40 MB
            (lambda: rp.equidistribution_paths(64, np.linspace(0, 1, 201), 4096, seed=38), 16 << 20),
            # three batches of four 4 MB chunks; no batch result may keep a chunk alive
            (
                lambda: rp.equidistribution_paths(4, np.linspace(0, 1, 21), 3 * rp.BATCH_SIZE, 40),
                10 << 20,
            ),
            # chunks sized by the grid as well as by n: 152 MB when a chunk's
            # rows were set by 2n alone
            (lambda: rp.equidistribution_paths(3, np.linspace(0, 1, 400), 6000, 1), 16 << 20),
            # the exponential model draws chunk by chunk too: a whole batch was 770 MB
            (lambda: rp.transfer_check(1000, rp.BATCH_SIZE, seed=53), 8 << 20),
            # per-batch integer sums, not per-trial arrays: 20 MB when rounds grew with the trials
            (lambda: sampler.lln_clt_experiment(10, 3 * rp.BATCH_SIZE, seed=54), 12 << 20),
            # one column per distinct cut, not per grid value: 69 MB with a column for each
            (lambda: sampler.lln_clt_experiment(10, 2000, (0.5,) * 499 + (1.0,), 1), 5 << 20),
        ],
        ids=[
            "region-stats",
            "paths-64x4096",
            "paths-3-batches",
            "paths-400-grid",
            "transfer-1000",
            "clt-3-batches",
            "clt-500-grid",
        ],
    )
    def test_full_batch_allocates_little(self, run, bound):
        # a batch holds one cache-sized chunk (or one CLT round) at a time, not all its rows
        tracemalloc.start()
        try:
            run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_paths_and_spacings_check_the_seed(self, seed):
        with pytest.raises(ValueError, match="seed"):
            rp.max_spacing_check(1000, 5, seed)
        with pytest.raises(ValueError, match="seed"):
            rp.equidistribution_paths(64, [0.5, 1.0], 5, seed)

    @pytest.mark.parametrize("n", [3, 5])
    def test_paths_and_spacings_read_rows_of_batch_streams(self, monkeypatch, n):
        # trial j is row j mod BATCH_SIZE of batch_rng(seed, j // BATCH_SIZE)
        seed, trials, grid = 39, rp.BATCH_SIZE + 3, np.array([0.25, 0.5, 1.0])
        sizes = (rp.BATCH_SIZE, 3)
        rows = [rp._uniform_rows(n, size, rp.batch_rng(seed, b)) for b, size in enumerate(sizes)]
        real_rng, requested = rp.batch_rng, []

        def recording_rng(seed, index):
            requested.append(index)
            return real_rng(seed, index)

        monkeypatch.setattr(rp, "batch_rng", recording_rng)
        paths = rp.equidistribution_paths(n, grid, trials, seed)
        assert requested == [0, 1]
        requested.clear()
        spacing = rp.max_spacing_check(n, trials, seed)
        assert requested == [0, 1]

        # each batch summed row by row, the batch sums added in batch order
        h, l = sum(sum(rp._path_rows(p, grid)) for p in rows) / trials
        assert paths.region_fraction == tuple(map(tuple, h.tolist()))
        assert paths.length_fraction == tuple(map(tuple, l.tolist()))
        stats = [n * (np.diff(p, axis=1).max(axis=1) / 2) / math.log(n) for p in rows]
        total = sum(float(s.sum()) for s in stats)
        total_sq = sum(float((s * s).sum()) for s in stats)
        target = n * math.fsum(1 / k for k in range(1, n)) / (2 * (n + 1) * math.log(n))
        assert spacing == rp._make_result(total, total_sq, trials, seed, target)

    @pytest.mark.parametrize(
        "name,run,seeds",
        [
            ("bracelet_prob:circle", lambda t, s: rp.estimate_bracelet_prob(4, RUN4, t, s), (0,)),
            ("bracelet_prob:exp", lambda t, s: rp.estimate_bracelet_prob(4, RUN4, t, s, model="exp"), (0,)),
            ("region_stats", lambda t, s: rp.estimate_region_stats(5, t, s), (0,)),
            ("interlacing_failures", lambda t, s: rp.interlacing_failures(5, t, s), (0,)),
            ("transfer_check", lambda t, s: rp.transfer_check(4, t, s), (1, 2)),
            ("equidistribution_paths", lambda t, s: rp.equidistribution_paths(4, [0.5, 1.0], t, s), (0,)),
            ("max_spacing_check", lambda t, s: rp.max_spacing_check(3, t, s), (0,)),
            ("lln_clt_experiment", lambda t, s: sampler.lln_clt_experiment(7, t, (0.5, 1.0), s), (0,)),
        ],
    )
    def test_every_monte_carlo_path_reads_batch_streams(self, monkeypatch, name, run, seeds):
        # BATCH_SIZE + 3 trials are batches 0 and 1 of each stream seed, nothing else
        seed, requested, real_rng = 52, [], rp.batch_rng

        def recording_rng(seed, index):
            requested.append((seed, index))
            return real_rng(seed, index)

        monkeypatch.setattr(rp, "batch_rng", recording_rng)
        run(rp.BATCH_SIZE + 3, seed)
        assert requested == [(seed + d, i) for d in seeds for i in (0, 1)]

    @pytest.mark.parametrize("n", [3, 31, 32])
    def test_pack_words_matches_word_to_int(self, n):
        rng = np.random.default_rng(200 + n)
        w = rng.integers(0, 2, (64, 2 * n)).astype(np.uint8)
        w[0] = 1  # every bit set, the top one included
        w[1] = 0
        packed = rp._pack_words(w)
        assert packed.dtype == np.uint64
        assert [int(x) for x in packed] == [words.word_to_int(row.tolist()) for row in w]

    def test_seed_is_a_64_bit_key(self):
        last = (1 << 64) - 1
        assert rp.batch_rng(last, 0).random() != rp.batch_rng(0, 0).random()
        for seed in (-1, 1 << 64):
            with pytest.raises(ValueError, match="seed"):
                rp.batch_rng(seed, 0)

    def test_type_counts_balanced_per_trial(self):
        rng = rp.batch_rng(13, 0)
        _, types, _, _ = rp._region_rows(rp._uniform_rows(6, 256, rng))
        assert ((types == 0).sum(axis=1) == (types == 2).sum(axis=1)).all()

    def test_interlacing_failure_counter(self):
        assert rp.interlacing_failures(5, 20_000, seed=14) == 0
        assert rp._count_non_interlacing(np.array([[1, 1, 1], [0, 1, 2]])) == 1

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8])
    @pytest.mark.parametrize("n", [*range(3, 13), 300])
    def test_non_interlacing_count_matches_loop(self, n, dtype):
        rng = np.random.default_rng(100 + n)
        sig = rng.integers(0, 3, (2000, n))
        sig[::7] = 1  # all-1 rows
        sig[1::7] = rng.integers(0, 2, (len(sig[1::7]), n)) * 2  # only 0s and 2s
        # 2, 0, 2, ... at random places, an odd last one dropped: these interlace
        special = rng.random((len(sig[2::7]), n)) < 0.5
        rank = np.cumsum(special, axis=1)
        special &= (rank < rank[:, -1:]) | (rank % 2 == 0)
        sig[2::7] = np.where(special, rank % 2 * 2, 1)
        sig = sig.astype(dtype)
        expected = count_non_interlacing(sig)
        assert 0 < expected < len(sig)
        assert rp._count_non_interlacing(sig) == expected


# Estimator payloads for seed 2024, each over two batches (one full, one
# partial), recorded from the (rows, n, 2n) comparison kernel that the rank
# kernel replaced.  The batched geometry must reproduce them bit for bit.
# The exponential-model cases (bracelet_prob:exp, transfer_check:4 and
# sample_exp_model) were re-recorded when the model began to draw 2n - 1
# uniforms per row, spacings by inversion and colors by u < 1/2: the stream
# changed, not the law.  max_spacing_check was re-recorded when its target
# became the exact mean; only its target and z fields changed.
PIN_SEED = 2024
PINNED_PAYLOADS = {
    "region_stats:3": "bf6a1d4096bcc77ece03d1b00b91c1e1f84ec44ab8b37a80f27333ec138de029",
    "region_stats:8": "9b62e619a36f61e5af7356dde90068ae18d9cc7561d166b75187a069d449dc54",
    "region_stats:32": "fbf75b9cddccf66addf8c9ea77998ca54ae4139cb2787f22226a2fd03b8be457",
    "region_stats:128": "96629b7cc7cd5f56ef879aac793fface6571df4cba4cdf9b82b45b564a2cafb4",
    "bracelet_prob:circle": "21598a97acb56a695ceb50195c8f6b4bb839dfe7f37a87bb7fe93f6778c0f58c",
    "bracelet_prob:exp": "0d2a6d216b87ca196438f871d17b75b13d0a412b24f6b4ac82e3567787cfbfac",
    "interlacing_failures:12": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    "transfer_check:4": "a5477df21ebfd1e83d067071a3a30c3b2c2e0f2db59dfddfd523e01037928edb",
    # paths and spacings run 2 to 50 trials: the first rows of the one batch
    # stream batch_rng(2024, 0), recorded from the batch engine
    "equidistribution_paths:64": "1cee0ba988b5471714dc11de3a15b7c1dd94488757e303031f419cbb74d40ec3",
    "equidistribution_paths:5000": "112d22dac8590e03b901cb11a952b9f829d411b20ef4bbbcb6a11b31379d81ce",
    "max_spacing_check:1000": "a3777af785dd24c0bed8c9c227e17a486c90609f2f27791b24417537f62a8290",
    "max_spacing_check:3": "14d573e197b7054b29ec6bcbcce644b0dae8304ab68c6cf44a8633b423e4c7a5",
    # five samples of sample_exp_model from one generator
    "sample_exp_model:3": "157707e629154854a263f8137efb66371da2c107fa6df457d6e9d37e4941b21a",
    "sample_exp_model:4": "cdab028db7a94ca2f5b233b824b1dcb84eddd4cc397184f744f12200b9c2f186",
    "sample_exp_model:5": "f044ffb5241a24d054e5e95d72adfd91ac6c7e5aa012534758b9e10040ddd1a4",
    "sample_exp_model:6": "2e3db8365b98a7fd74439693f002c24363e0702a532239f51a6e18ddb046646f",
    "sample_exp_model:7": "1c99e415a10841d50c532abc14b1b2f03c9a6f707eaa095d9f226615d0330bdb",
    "sample_exp_model:8": "fef3892905ceda49427df880517431e55a52696011f24692bfd72ea3328445d2",
    "sample_exp_model:9": "80d2f9b9c7e775d17b0f639155309f58bd28e062f1f2a4a6bf73e56a4e3708c0",
    "sample_exp_model:10": "6d023e3ad767f9c936a64a14fc52fff5dd866386c214e1bff7ec6d7cb82df14c",
    "sample_exp_model:11": "5aa41343dff2ad66579341973d79721628f488c2cad8e6cad62a9402cae89eed",
    "sample_exp_model:12": "e469590f73cad09fb677bbfcffaaf4eb6c824d005f3525b75581c0847af20bf5",
}


def _pinned_payload(case: str):
    trials = rp.BATCH_SIZE + 4096
    kind, _, arg = case.partition(":")
    if kind == "region_stats":
        results = rp.estimate_region_stats(int(arg), trials, PIN_SEED)
        return {k: r.to_json_dict() for k, r in results.items()}
    if kind == "bracelet_prob":
        target = words.canonical_bracelet(words.run_word(4))
        return rp.estimate_bracelet_prob(4, target, trials, PIN_SEED, model=arg).to_json_dict()
    if kind == "interlacing_failures":
        return rp.interlacing_failures(int(arg), trials, PIN_SEED)
    if kind == "transfer_check":
        return dataclasses.asdict(rp.transfer_check(int(arg), trials, PIN_SEED))
    if kind == "equidistribution_paths":
        n = int(arg)
        grid = [j / 8 for j in range(9)]
        return dataclasses.asdict(rp.equidistribution_paths(n, grid, 50 if n < 100 else 2, PIN_SEED))
    if kind == "max_spacing_check":
        n = int(arg)
        return rp.max_spacing_check(n, 50 if n >= 100 else 5, PIN_SEED).to_json_dict()
    if kind == "sample_exp_model":
        rng = rp.batch_rng(PIN_SEED, int(arg))
        samples = [rp.sample_exp_model(int(arg), rng) for _ in range(5)]
        return [[dataclasses.asdict(s), exp_config(s).positions] for s in samples]
    raise AssertionError(case)


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class TestPinnedPayloads:
    @pytest.mark.parametrize("case", sorted(PINNED_PAYLOADS))
    def test_payload_is_bit_identical(self, case):
        assert _digest(_pinned_payload(case)) == PINNED_PAYLOADS[case]

    @pytest.mark.parametrize("chunk", [2_000, 1 << 22])
    @pytest.mark.parametrize(
        "case",
        [
            "region_stats:8",
            "region_stats:32",
            "region_stats:128",
            "bracelet_prob:exp",
            "interlacing_failures:12",
            "transfer_check:4",
            "equidistribution_paths:64",
            "max_spacing_check:1000",
        ],
    )
    def test_chunk_boundaries_leave_payload_unchanged(self, monkeypatch, case, chunk):
        # 2_000 regions: chunks of 250 rows at n=4, 125 at n=8, 83 at n=12,
        # 31 at n=32, 15 trials at n=64, 7 rows at n=128 and 1 trial at
        # n=1000, so every batch, and the 50 trials of paths and of spacings,
        # span several chunks.  1 << 22 regions: a full batch at n <= 128 is
        # a single chunk.
        monkeypatch.setattr(rp, "_CHUNK_ELEMENTS", chunk)
        assert _digest(_pinned_payload(case)) == PINNED_PAYLOADS[case]


class TestEstimators:
    def test_bracelet_prob_exact_at_n3(self):
        target = words.canonical_bracelet(words.run_word(3))
        res = rp.estimate_bracelet_prob(3, target, 50_000, seed=15)
        assert res.estimate == 1.0 and res.std_error == 0.0 and res.z == 0.0

    def test_region_stats_within_bands(self):
        for n in (3, 4):
            results = rp.estimate_region_stats(n, 100_000, seed=16 + n)
            for key, res in results.items():
                assert abs(res.z) <= 4, (n, key, res)

    def test_worker_count_is_invisible(self):
        target = words.canonical_bracelet(words.run_word(4))
        lone = rp.estimate_bracelet_prob(4, target, 40_000, seed=17, workers=1)
        pooled = rp.estimate_bracelet_prob(4, target, 40_000, seed=17, workers=3)
        assert lone == pooled
        a = rp.estimate_region_stats(4, 40_000, seed=18, workers=1)
        b = rp.estimate_region_stats(4, 40_000, seed=18, workers=2)
        assert a == b
        lone = rp.estimate_bracelet_prob(4, target, 40_000, seed=17, workers=1, model="exp")
        pooled = rp.estimate_bracelet_prob(4, target, 40_000, seed=17, workers=2, model="exp")
        assert lone == pooled

    def test_disjoint_seeds_agree(self):
        target = words.canonical_bracelet(words.run_word(4))
        a = rp.estimate_bracelet_prob(4, target, 200_000, seed=19)
        b = rp.estimate_bracelet_prob(4, target, 200_000, seed=20)
        assert abs(rp.z_between(a, b)) <= 4

    def test_z_between_results_without_spread(self):
        # at n = 3 every configuration has the run word's bracelet, so the standard error is 0
        target = words.canonical_bracelet(words.run_word(3))
        a = rp.estimate_bracelet_prob(3, target, 100, seed=21)
        b = rp.estimate_bracelet_prob(3, target, 200, seed=22)
        assert a.std_error == b.std_error == 0.0
        assert rp.z_between(a, b) == 0.0
        assert rp.z_between(a, dataclasses.replace(b, estimate=0.5)) == math.inf

    def test_region_stats_within_bands_at_large_n(self):
        results = rp.estimate_region_stats(1000, 4000, seed=29)
        for key, res in results.items():
            assert abs(res.z) <= 4, (key, res)

    def test_workers_below_one_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            rp.estimate_region_stats(4, 1000, seed=30, workers=0)

    def test_workers_capped_at_cpu_count(self, monkeypatch):
        seen = []

        class RecordingExecutor:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(rp, "ProcessPoolExecutor", RecordingExecutor)
        monkeypatch.setattr(rp.os, "cpu_count", lambda: 3)
        monkeypatch.setattr(rp, "BATCH_SIZE", 100)
        rp.estimate_region_stats(4, 1000, seed=31, workers=64)
        assert seen == [3]

    def test_unknown_model_names_the_choices(self):
        target = words.canonical_bracelet(words.run_word(4))
        with pytest.raises(ValueError, match="'circle', 'exp'"):
            rp.estimate_bracelet_prob(4, target, 100, seed=32, model="gauss")

    def test_bracelet_prob_at_packed_limit(self):
        # the target is the class of the first configuration drawn, so it is hit
        first = rp._words_rows(rp._uniform_rows(32, 1, rp.batch_rng(33, 0)))[0]
        target = words.canonical_bracelet(first.tolist())
        res = rp.estimate_bracelet_prob(32, target, 2000, seed=33)
        assert res.trials == 2000 and 1 <= res.estimate * 2000 < 2000

    def test_bracelet_prob_rejects_n_above_packed_limit(self, monkeypatch):
        def no_batches(*args):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(rp, "_run_batches", no_batches)
        target = words.canonical_bracelet(words.run_word(33))
        with pytest.raises(ValueError, match="n <= 32"):
            rp.estimate_bracelet_prob(33, target, 2000, seed=34)

    def test_region_stats_rejects_n_above_geometry_limit(self, monkeypatch):
        def no_batches(*args):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(rp, "_run_batches", no_batches)
        assert rp.MAX_GEOMETRY_N >= 10**5  # criterion 10 runs at n = 10**5
        with pytest.raises(ValueError, match=f"n <= {rp.MAX_GEOMETRY_N}"):
            rp.estimate_region_stats(rp.MAX_GEOMETRY_N + 1, 1000, seed=37)

    def test_bracelet_prob_rejects_target_of_other_n(self, monkeypatch):
        def no_batches(*args):
            raise AssertionError("a batch was drawn")

        monkeypatch.setattr(rp, "_run_batches", no_batches)
        target = words.canonical_bracelet(words.run_word(5))
        with pytest.raises(ValueError, match="n=5.*n=4"):
            rp.estimate_bracelet_prob(4, target, 1000, seed=1)

    @pytest.mark.parametrize(
        "name,args",
        [
            ("max_spacing_check", (1000, 0, 35)),
            ("max_spacing_check", (1, 5, 35)),
            ("estimate_region_stats", (2, 10**6, 35)),
            ("estimate_region_stats", (4, 0, 35)),
            ("interlacing_failures", (2, 1000, 35)),
            ("interlacing_failures", (0, 1000, 35)),
            ("interlacing_failures", (4, 0, 35)),
            ("equidistribution_paths", (1, [0.5, 1.0], 10, 35)),
            ("equidistribution_paths", (2, [0.5, 1.0], 10, 35)),
            ("equidistribution_paths", (64, [0.5, 1.0], 0, 35)),
            ("estimate_bracelet_prob", (4, words.canonical_bracelet(words.run_word(4)), 0, 35)),
            ("transfer_check", (2, 1000, 35)),
            ("transfer_check", (4, 0, 35)),
            ("equidistribution_paths", (64, [0.5, 2.0], 10, 35)),
            ("equidistribution_paths", (64, [-0.25, 1.0], 10, 35)),
            ("equidistribution_paths", (64, [float("nan")], 10, 35)),
            ("transfer_check", (4, 20000, 2**64 - 2)),
            ("transfer_check", (4, 20000, -1)),
            ("estimate_region_stats", (rp.MAX_GEOMETRY_N + 1, 1000, 35)),
            ("interlacing_failures", (rp.MAX_GEOMETRY_N + 1, 1000, 35)),
            ("transfer_check", (rp.MAX_GEOMETRY_N + 1, 1000, 35)),
            ("equidistribution_paths", (rp.MAX_GEOMETRY_N + 1, [0.5, 1.0], 1, 35)),
            ("max_spacing_check", (rp.MAX_GEOMETRY_N + 1, 1, 35)),
        ],
    )
    def test_inputs_bounded_before_any_draw(self, monkeypatch, name, args):
        drawn = []

        def recording_rng(seed, index):
            drawn.append(index)
            return np.random.default_rng(0)

        monkeypatch.setattr(rp, "batch_rng", recording_rng)
        with pytest.raises(ValueError, match="need"):
            getattr(rp, name)(*args)
        assert drawn == []

    def test_estimator_result_fields(self):
        res = rp.estimate_region_stats(3, 1000, seed=21)["h2"]
        assert res.trials == 1000 and res.seed == 21
        assert set(res.to_json_dict()) == {"estimate", "std_error", "trials", "seed", "target", "z"}


class TestTransfer:
    def test_n3_identities_and_n4_consistency(self):
        report = rp.transfer_check(3, 150_000, seed=22)
        for comp in report.comparisons:
            assert abs(comp.exp_model.z) <= 4
            assert abs(comp.circle_model.z) <= 4
            assert abs(comp.z_between) <= 4
        assert report.comparisons[1].exp_model.target == pytest.approx(5 / 18)
        se = report.total_length_se
        assert abs(report.total_length_mean - 6) <= 4 * se

    def test_exp_lengths_sum_to_circumference(self):
        rng = rp.batch_rng(23, 0)
        pos, circumference = rp._exp_model_rows(4, 128, rng)
        assert (pos[:, 0].view(np.uint64) == 0).all()  # dot 0 at +0.0 starts every sorted row
        _, types, _, lengths = rp._region_rows(pos)
        total = sum((lengths * (types == k)).sum(axis=1) for k in (0, 1, 2))
        assert np.allclose(total, 1.0)
        assert (circumference > 0).all()


PATH_GRIDS = ["unsorted-repeats", "region-ends", "zero-and-one", "empty"]


def _path_grid(case: str, p: np.ndarray) -> np.ndarray:
    """A t-grid of the named kind for the rows ``p``."""
    if case == "unsorted-repeats":
        return np.array([0.7, 0.2, 0.7, 0.45, 0.2, 0.9, 0.45])
    if case == "region-ends":
        # values equal to region ends of the first rows, in no order and repeated
        bnd = rp._region_rows(p[:2])[2]
        return np.concatenate([bnd[0, ::-1], bnd[1, ::2], bnd[0, 1:3]])
    if case == "zero-and-one":
        return np.array([1.0, 0.0, 0.5, 0.0, 1.0])
    return np.array([])


class TestPaths:
    @pytest.mark.parametrize("case", PATH_GRIDS)
    @pytest.mark.parametrize("n", [3, 8])
    def test_path_rows_match_the_grid_loop(self, n, case):
        p = rp._uniform_rows(n, 40, rp.batch_rng(56, n))
        grid = _path_grid(case, p)
        assert rp._path_rows(p, grid).tobytes() == path_rows_by_grid_loop(p, grid).tobytes()

    @pytest.mark.parametrize("case", PATH_GRIDS)
    def test_paths_match_the_grid_loop(self, case):
        n, trials, seed = 4, 300, 57
        p = rp._uniform_rows(n, trials, rp.batch_rng(seed, 0))
        grid = _path_grid(case, p)
        report = rp.equidistribution_paths(n, grid.tolist(), trials, seed)
        # rows summed in row order, as the running sum of each batch adds them
        h, l = sum(path_rows_by_grid_loop(p, grid)) / trials
        assert report.region_fraction == tuple(map(tuple, h.tolist()))
        assert report.length_fraction == tuple(map(tuple, l.tolist()))

    def test_endpoint_matches_length_expectations(self):
        report = rp.equidistribution_paths(50, [0.5, 1.0], trials=2000, seed=24)
        for k in (0, 1, 2):
            target = float(rp.closed_form(f"l{k}", 50))
            assert abs(report.length_fraction[k][-1] - target) < 0.01
        h2_fraction = float(rp.closed_form("h2", 50)) / 100
        assert abs(report.region_fraction[2][-1] - h2_fraction) < 0.01

    def test_fractions_track_the_linear_limits(self):
        report = rp.equidistribution_paths(30_000, [0.25, 0.5, 0.75, 1.0], trials=1, seed=25)
        slopes_h = (0.25, 0.5, 0.25)
        slopes_l = (0.125, 0.5, 0.375)
        for k in (0, 1, 2):
            for t, h, l in zip(report.t_grid, report.region_fraction[k], report.length_fraction[k]):
                assert abs(h - slopes_h[k] * t) < 0.03
                assert abs(l - slopes_l[k] * t) < 0.03


class TestMaxSpacing:
    @pytest.mark.parametrize("n,trials,seed", [(3, 200_000, 48), (10, 200_000, 49), (1000, 20_000, 50)])
    def test_z_against_the_exact_mean(self, n, trials, seed):
        res = rp.max_spacing_check(n, trials, seed)
        assert abs(res.z) <= 4, res

    @pytest.mark.parametrize("n", [2, 3, 10, 1000])
    def test_target_is_the_mean_largest_interior_spacing(self, n):
        # E[largest of the n - 1 interior spacings of n uniform points] = H_{n-1} / (n + 1)
        mean_gap = sum(Fraction(1, k) for k in range(1, n)) / (n + 1)
        target = rp.max_spacing_check(n, 2, 51).target
        assert target == pytest.approx(float(n * mean_gap / 2) / math.log(n), rel=1e-14)

    def test_band_at_large_n(self):
        res = rp.max_spacing_check(1_000_000, trials=20, seed=26)
        assert 0.4 <= res.estimate <= 0.6

    def test_never_exceeds_half(self):
        for i in range(10):
            rng = rp.batch_rng(27, i)
            u = np.sort(rng.random(1000)) / 2
            assert float(np.diff(u).max()) <= 0.5

    def test_mean_gap_decreases_with_n(self):
        means = []
        for n in (1000, 10_000, 100_000):
            gaps = []
            for i in range(10):
                rng = rp.batch_rng(28 + n, i)
                gaps.append(float(np.diff(np.sort(rng.random(n)) / 2).max()))
            means.append(sum(gaps) / len(gaps))
        assert means[0] > means[1] > means[2]
