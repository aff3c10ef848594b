"""Per-layer metrics of the traced run.

Each probe times calls into one module's public functions from here, on
inputs derived from the workload seed, and checks what the calls return.
The same probes run on every workload, so every traced run reports every
per-layer metric; README.md says which end-to-end metric each should move.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
import tracemalloc

import numpy as np

from bisector_words import cli, enumeration, geometry, random_points, realization, sampler, words

import oracles
from workloads import BATCH, T_GRID, derive, input_rng

RP = "random_points"


def _median_time(fn, reps: int):
    """Median wall seconds of ``reps`` calls, and the last result."""
    times = []
    out = None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times), out


def _per_call_us(fn, args_list):
    """Per-call microseconds for each argument tuple, and the results."""
    times = []
    outs = []
    for args in args_list:
        t0 = time.perf_counter_ns()
        outs.append(fn(*args))
        times.append((time.perf_counter_ns() - t0) / 1e3)
    return times, outs


def _p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


class Probes:
    def __init__(self, seed: int):
        self.seed = seed
        self.metrics: dict[str, dict] = {}
        self.attempted = 0
        self.failures: list[str] = []
        self._path = 0

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def next_seed(self) -> int:
        self._path += 1
        return derive(self.seed, 1 << 31, self._path)

    def rng(self) -> np.random.Generator:
        self._path += 1
        return input_rng(self.seed, 1 << 31, self._path)

    def run_all(self) -> None:
        self.random_points()
        self.sampler()
        self.words()
        self.enumeration()
        self.realization()
        self.cli()

    # -- random_points -----------------------------------------------------

    def _region(self, n: int, reps: int) -> float:
        seed = self.next_seed()
        sec, res = _median_time(lambda: random_points.estimate_region_stats(n, BATCH, seed), reps)
        self.check(all(oracles.z_ok(r.z) for r in res.values()), f"probe region_stats n={n}: z out of band")
        self.put(f"{RP}.region_stats.configs_per_s.n{n}", BATCH / sec, "configs/s")
        return sec

    def random_points(self) -> None:
        call_s = {n: self._region(n, 5 if n <= 8 else 3) for n in (3, 5, 8, 32, 64, 128)}

        for n in (8, 128):
            # Same-shape draws and sort: the floor no geometry kernel can beat.
            seed = self.next_seed()
            draw_s, _ = _median_time(
                lambda: np.sort(random_points.batch_rng(seed, 0).random((BATCH, n)), axis=1), 3
            )
            self.put(f"{RP}.draw_share.n{n}", draw_s / call_s[n], "ratio")

            seed = self.next_seed()
            tracemalloc.start()
            try:
                random_points.estimate_region_stats(n, BATCH, seed)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.put(f"{RP}.peak_alloc_mb.n{n}", peak / 2**20, "MB")

        for n, model, name in ((4, "circle", "bracelet_prob"), (6, "circle", "bracelet_prob"), (4, "exp", "bracelet_prob_exp")):
            seed = self.next_seed()
            target = words.canonical_bracelet(words.run_word(n))
            sec, res = _median_time(
                lambda: random_points.estimate_bracelet_prob(n, target, BATCH, seed, model=model), 5
            )
            self.check(oracles.z_ok(res.z), f"probe {name} n={n}: z={res.z:.2f}")
            self.put(f"{RP}.{name}.configs_per_s.n{n}", BATCH / sec, "configs/s")

        seed = self.next_seed()
        sec, bad = _median_time(lambda: random_points.interlacing_failures(12, BATCH, seed), 3)
        self.check(bad == 0, f"probe interlacing n=12: {bad} failures")
        self.put(f"{RP}.interlacing.configs_per_s.n12", BATCH / sec, "configs/s")

        seed = self.next_seed()
        sec, rep = _median_time(lambda: random_points.transfer_check(4, BATCH, seed), 3)
        self.check(
            all(oracles.z_ok(c.z_between) for c in rep.comparisons), "probe transfer n=4: z out of band"
        )
        self.put(f"{RP}.transfer.configs_per_s.n4", 2 * BATCH / sec, "configs/s")

        for n, trials, bound in ((64, 200, 0.05), (100_000, 1, 0.02)):
            seed = self.next_seed()
            sec, rep = _median_time(lambda: random_points.equidistribution_paths(n, T_GRID, trials, seed), 5)
            h_end = sum(row[-1] for row in rep.region_fraction)
            self.check(abs(h_end - 1) < 1e-9, f"probe equidistribution n={n}: type fractions sum to {h_end}")
            self.put(f"{RP}.equidistribution.call_ms.n{n}", sec * 1e3, "ms")

        seed = self.next_seed()
        sec, res = _median_time(lambda: random_points.max_spacing_check(1000, 1000, seed), 3)
        z = (res.estimate - oracles.expected_max_spacing_stat(1000)) / res.std_error
        self.check(oracles.z_ok(z), f"probe max_spacing n=1000: z={z:.2f}")
        self.put(f"{RP}.max_spacing.trials_per_s.n1000", 1000 / sec, "trials/s")

    # -- sampler -----------------------------------------------------------

    def sampler(self) -> None:
        for n, count in ((4, 2000), (32, 2000)):
            rng = random_points.batch_rng(self.next_seed(), 0)
            times, ws = _per_call_us(sampler.sample_uniform_word, [(n, rng)] * count)
            self.check(all(oracles.realizable(w) for w in ws), f"probe sample_uniform_word n={n}: unrealizable")
            self.put(f"sampler.word.p50_us.n{n}", statistics.median(times), "us")
            self.put(f"sampler.word.p90_us.n{n}", _p90(times), "us")

        for n, count in ((4, 400), (6, 200)):
            rng = random_points.batch_rng(self.next_seed(), 0)
            times, bs = _per_call_us(sampler.sample_uniform_bracelet, [(n, rng)] * count)
            ok = all(oracles.bracelet(b.word) == (words.word_to_string(b.word), b.orbit_size) for b in bs)
            self.check(ok, f"probe sample_uniform_bracelet n={n}: non-canonical class")
            self.put(f"sampler.bracelet.p50_us.n{n}", statistics.median(times), "us")
            self.put(f"sampler.bracelet.p90_us.n{n}", _p90(times), "us")

        seed = self.next_seed()
        trials = 1000
        sec, rep = _median_time(lambda: sampler.lln_clt_experiment(10_000, trials, seed=seed), 3)
        self.check(abs(rep.letter_means["s00"] - 1 / 6) < 0.01, "probe lln_clt_experiment: mean F0/n")
        self.put("sampler.clt.words_per_s.n10000", trials / sec, "words/s")

    # -- words -------------------------------------------------------------

    def words(self) -> None:
        for n in (4, 10):
            rng = self.rng()
            ws = [oracles.random_realizable_word(n, rng) for _ in range(2000)]
            sec, bs = _median_time(lambda: [words.canonical_bracelet(w) for w in ws], 3)
            ok = all(
                oracles.bracelet(w) == (words.word_to_string(b.word), b.orbit_size)
                for w, b in zip(ws[:200], bs[:200])
            )
            self.check(ok, f"probe canonical_bracelet n={n}: wrong class")
            self.put(f"words.canonical_bracelet.per_s.n{n}", len(ws) / sec, "calls/s")

        queries = oracles.random_binary_words(10, 2000, self.rng())
        sec, got = _median_time(lambda: [words.is_realizable(w) for w in queries], 3)
        self.check(got == [oracles.realizable(w) for w in queries], "probe is_realizable n=10: wrong answer")
        self.put("words.is_realizable.per_s.n10", len(queries) / sec, "calls/s")

    # -- enumeration -------------------------------------------------------

    def enumeration(self) -> None:
        sec, ws = _median_time(lambda: list(enumeration.enumerate_words(10)), 2)
        self.check(len(ws) == oracles.word_count(10), f"probe enumerate_words(10): {len(ws)} words")
        self.put("enumeration.enumerate.words_per_s.n10", len(ws) / sec, "words/s")

        count_s = {}
        for n in (8, 9):
            count_s[n], got = _median_time(lambda: enumeration.count_bracelets(n), 3)
            self.check(got == oracles.TABLE_BRACELETS[n], f"probe count_bracelets({n}) = {got}")
            self.put(f"enumeration.count_bracelets.s.n{n}", count_s[n], "s")
        enum_s, _ = _median_time(lambda: list(enumeration.enumerate_words(9)), 3)
        self.put("enumeration.canonicalize_share.n9", 1 - enum_s / count_s[9], "ratio")

    # -- realization and geometry ------------------------------------------

    def realization(self) -> None:
        for n in (8, 16, 32, 64):
            rng = self.rng()
            ws = [oracles.random_realizable_word(n, rng) for _ in range(15)]
            t_real, configs = _per_call_us(realization.realize, [(w,) for w in ws])
            t_read, back = _per_call_us(geometry.occupancy_word, [(c,) for c in configs])
            ok = all(oracles.bracelet(a) == oracles.bracelet(b) for a, b in zip(ws, back))
            self.check(ok, f"probe realize round-trip n={n}: wrong class")
            self.put(f"realization.realize.p50_us.n{n}", statistics.median(t_real), "us")
            self.put(f"geometry.occupancy_word.p50_us.n{n}", statistics.median(t_read), "us")

    # -- cli ---------------------------------------------------------------

    def cli(self) -> None:
        """What the CLI adds to an estimate: parsing, formatting, printing.

        The call is small (n=3, one 1024-row batch) so that its own jitter
        stays far below the overhead, and CLI and direct calls alternate so
        that a slow spell of the host hits both alike.
        """
        seed = self.next_seed()
        n, trials = 3, 1024
        argv = ["estimate", "--n", str(n), "--stat", "h2", "--trials", str(trials), "--seed", str(seed)]

        def via_cli():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue()

        diffs = []
        for _ in range(41):
            cli_s, (code, text) = _median_time(via_cli, 1)
            direct_s, res = _median_time(lambda: random_points.estimate_region_stats(n, trials, seed), 1)
            diffs.append(cli_s - direct_s)
        want = {"stat": "h2", "n": n, **res["h2"].to_json_dict()}
        self.check(code == 0 and json.loads(text) == want, "probe cli estimate: payload differs from direct call")
        self.put("cli.estimate.overhead_ms", statistics.median(diffs) * 1e3, "ms")
