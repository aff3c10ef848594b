import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bisector_words import geometry, random_points as rp, words
from bisector_words.geometry import PointConfig, occupancy_word, region_stats

from oracles import count_non_interlacing


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


class TestErlang:
    def test_simplest_case(self):
        assert rp.exp_below_erlangs_prob(1, 1) == Fraction(1, 3)

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_symmetry_and_monte_carlo(self, k, l):
        exact = rp.exp_below_erlangs_prob(k, l)
        assert exact == rp.exp_below_erlangs_prob(l, k)
        res = rp.estimate_exp_below_erlangs(k, l, 200_000, seed=100 + 10 * k + l)
        assert abs(res.z) <= 4, (k, l, res)


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

    def test_extension_identity(self):
        rng = np.random.default_rng(4)
        s = rp.sample_exp_model(5, rng)
        n = 5
        for i in range(0, n):
            y, c = s.dot_at(i)
            yp, cp = s.dot_at(i + n)
            ym, cm = s.dot_at(i - n)
            assert yp == pytest.approx(y + s.dots[n]) and cp == 1 - c
            assert ym == pytest.approx(y - s.dots[n]) and cm == 1 - c
        with pytest.raises(IndexError):
            s.dot_at(2 * n)

    def test_mean_total_is_n(self):
        rng = rp.batch_rng(5, 0)
        y = rng.standard_exponential((200_000, 6)).sum(axis=1)
        z = (y.mean() - 6) / (y.std(ddof=1) / math.sqrt(len(y)))
        assert abs(z) <= 4

    def test_config_has_interlacing_signature(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            cfg = rp.sample_exp_model(5, rng).to_point_config()
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
        wmat, types, lengths = rp._region_rows(pos)
        assert (rp._words_rows(pos) == wmat).all()
        for row, w, t, ln in zip(pos, wmat, types, lengths):
            cfg = PointConfig(tuple(float(x) for x in row))
            rs = region_stats(cfg)
            assert tuple(int(b) for b in w) == occupancy_word(cfg) == rs.occupied
            assert tuple(int(x) for x in t) == rs.types
            assert np.allclose(ln, rs.lengths)

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
        _, types, _ = rp._region_rows(rp._uniform_rows(6, 256, rng))
        assert ((types == 0).sum(axis=1) == (types == 2).sum(axis=1)).all()

    def test_interlacing_failure_counter(self):
        assert rp.interlacing_failures(5, 20_000, seed=14) == 0
        assert rp._count_non_interlacing(np.array([[1, 1, 1], [0, 1, 2]])) == 1

    @pytest.mark.parametrize("n", range(3, 13))
    def test_non_interlacing_count_matches_loop(self, n):
        rng = np.random.default_rng(100 + n)
        sig = rng.integers(0, 3, (2000, n))
        sig[::7] = 1  # all-1 rows
        sig[1::7] = rng.integers(0, 2, (len(sig[1::7]), n)) * 2  # only 0s and 2s
        assert rp._count_non_interlacing(sig) == count_non_interlacing(sig)


# Estimator payloads for seed 2024, each over two batches (one full, one
# partial), recorded from the (rows, n, 2n) comparison kernel that the rank
# kernel replaced.  The batched geometry must reproduce them bit for bit.
PIN_SEED = 2024
PINNED_PAYLOADS = {
    "region_stats:3": "bf6a1d4096bcc77ece03d1b00b91c1e1f84ec44ab8b37a80f27333ec138de029",
    "region_stats:8": "9b62e619a36f61e5af7356dde90068ae18d9cc7561d166b75187a069d449dc54",
    "region_stats:32": "fbf75b9cddccf66addf8c9ea77998ca54ae4139cb2787f22226a2fd03b8be457",
    "region_stats:128": "96629b7cc7cd5f56ef879aac793fface6571df4cba4cdf9b82b45b564a2cafb4",
    "bracelet_prob:circle": "21598a97acb56a695ceb50195c8f6b4bb839dfe7f37a87bb7fe93f6778c0f58c",
    "bracelet_prob:exp": "c3ac3fd380aef7f588ce1599042fc410e643ebe5c31df5d0c007f923c96accde",
    "interlacing_failures:12": "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    "transfer_check:4": "334c1f62afd85a48958e9f27c97958518b472b0ef26b7d79a5a69ebc77b4925f",
    "equidistribution_paths:64": "fbb396388666b78a6c9c03b90ce28105c07a984161a94946b27abf93eaa02962",
    "equidistribution_paths:5000": "969195de0bdf7ccdb6b706c28fde5f982ca4e5a959c43e598bfd2056ef633b12",
    # recorded from the one-generator-per-trial loop of max_spacing_check and
    # the scalar draw of sample_exp_model (five samples from one generator)
    "max_spacing_check:1000": "298a7765d5307e2744fda95edfc93b73d14f965ba02447f47e250771acb2d925",
    "max_spacing_check:3": "504e8bff461a4a8aaba14eb50376cadb78f2840a1a06f0c76c4ce618d8340b8f",
    "sample_exp_model:3": "e6bfad923e277c57c5583f3de64ca5542ea2097ad472032a50c9cd72d8818937",
    "sample_exp_model:4": "273d78db9ff758077ea722be5691343048c16af2a546b84c49b9939e3beb5507",
    "sample_exp_model:5": "3b05c56c76849c226078164780b12632673973c1e44ef0f37b26cbae6bce2d48",
    "sample_exp_model:6": "828c946052bdd91022d1466ce9d896fa05bd33504a08c4c5a6c900eeffb4433b",
    "sample_exp_model:7": "6df6888c9825632d929363297b01e4f15a2b56032e5b4eb66b0b95ef27a29859",
    "sample_exp_model:8": "f34438b0297281ec26b91a21ff427d7df09227ecb2e5ed76e7304a61111fb7e0",
    "sample_exp_model:9": "025a77f3d39e55dd7e87ed7d4627719f27856ead629e9959bbca1be5cee0e0d8",
    "sample_exp_model:10": "e5e42d7c229b2ede3a6cd23a6fe981570aeb814c0e51d50435efdbd2b224c2e6",
    "sample_exp_model:11": "10fcc96e1c5473eab23d7cf013d1e6d66b79282b3010f5f391869e4b2e574ff9",
    "sample_exp_model:12": "d053bc7e872df77d2699f1d28e226ea19926542389ff2ac85a8bf10de494ccd7",
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
        return [[dataclasses.asdict(s), s.to_point_config().positions] for s in samples]
    raise AssertionError(case)


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


class TestPinnedPayloads:
    @pytest.mark.parametrize("case", sorted(PINNED_PAYLOADS))
    def test_payload_is_bit_identical(self, case):
        assert _digest(_pinned_payload(case)) == PINNED_PAYLOADS[case]

    @pytest.mark.parametrize(
        "case",
        [
            "region_stats:8",
            "bracelet_prob:exp",
            "interlacing_failures:12",
            "transfer_check:4",
            "equidistribution_paths:64",
            "max_spacing_check:1000",
        ],
    )
    def test_chunk_boundaries_leave_payload_unchanged(self, monkeypatch, case):
        # chunks of 250 rows at n=4, 125 at n=8, 83 at n=12, 15 trials at n=64
        # and 1 at n=1000: every batch, and the 50 trials of paths and of
        # spacings, span several chunks
        monkeypatch.setattr(rp, "_CHUNK_ELEMENTS", 2_000)
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
        for estimator, args in ((rp.interlacing_failures, (5,)), (rp.transfer_check, (4,))):
            assert estimator(*args, 40_000, 18, workers=1) == estimator(*args, 40_000, 18, workers=2)

    def test_disjoint_seeds_agree(self):
        target = words.canonical_bracelet(words.run_word(4))
        a = rp.estimate_bracelet_prob(4, target, 200_000, seed=19)
        b = rp.estimate_bracelet_prob(4, target, 200_000, seed=20)
        assert abs(rp.z_between(a, b)) <= 4

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
            ("estimate_exp_below_erlangs", (0, 1, 1000, 35)),
            ("estimate_exp_below_erlangs", (1, 1, 0, 35)),
            ("estimate_bracelet_prob", (4, words.canonical_bracelet(words.run_word(4)), 0, 35)),
            ("transfer_check", (2, 1000, 35)),
            ("transfer_check", (4, 0, 35)),
            ("equidistribution_paths", (64, [0.5, 2.0], 10, 35)),
            ("equidistribution_paths", (64, [-0.25, 1.0], 10, 35)),
            ("equidistribution_paths", (64, [float("nan")], 10, 35)),
            ("transfer_check", (4, 20000, 2**64 - 2)),
            ("transfer_check", (4, 20000, -1)),
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
        _, types, lengths = rp._region_rows(pos)
        total = sum((lengths * (types == k)).sum(axis=1) for k in (0, 1, 2))
        assert np.allclose(total, 1.0)
        assert (circumference > 0).all()


class TestPaths:
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
