"""The four benchmark workloads.

A workload is a cycle of steps.  Each step makes one or more calls into the
library through a tracer, finishes a stated number of items, and has a
check that runs on its output outside the timed part.  Every seed and input
of cycle c comes from (workload seed, c, step index), so cycle 0 can be run
twice and compared.  Why each workload exists, and which layers it should
and should not move, is in README.md next to this file.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

from bisector_words import enumeration, geometry, random_points, realization, sampler, words

import oracles

BATCH = random_points.BATCH_SIZE
T_GRID = tuple(j / 20 for j in range(21))
H_SLOPES = (0.25, 0.5, 0.25)
L_SLOPES = (0.125, 0.5, 0.375)


def derive(seed: int, *path: int) -> int:
    """A 62-bit seed that is a pure function of (workload seed, path)."""
    state = np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0]
    return int(state >> 2)


def input_rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *path]))


@dataclass(frozen=True)
class Step:
    name: str
    items: int
    run: Callable  # run(tracer) -> output
    check: Callable  # check(output) -> failure message or None
    # True when the step streams arrays far larger than the CPU caches, so
    # that memory bandwidth, not the core, sets its speed.
    memory_bound: bool = False


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def steps(self, cycle: int) -> list[Step]:
        raise NotImplementedError

    def finish(self) -> tuple[int, list[str]]:
        """Checks over the whole run: (checks attempted, failure messages)."""
        return 0, []


# ---------------------------------------------------------------------------
# checks shared by the Monte Carlo workloads


def _check_results(label: str, results: dict) -> str | None:
    bad = {k: r.z for k, r in results.items() if not oracles.z_ok(r.z)}
    return f"{label}: z outside +-{oracles.Z_BAND}: {bad}" if bad else None


def _check_bracelet(n: int):
    def check(res):
        if n == 3 and res.estimate != 1.0:
            return f"bracelet n=3: estimate {res.estimate} != 1"
        return _check_results(f"bracelet n={n}", {"p": res})

    return check


def _check_transfer(report) -> str | None:
    zs = {}
    for c in report.comparisons:
        zs[f"exp l{c.k}"] = c.exp_model.z
        zs[f"circle l{c.k}"] = c.circle_model.z
        zs[f"between l{c.k}"] = c.z_between
    zs["total"] = (report.total_length_mean - report.total_length_target) / report.total_length_se
    bad = {k: z for k, z in zs.items() if not oracles.z_ok(z)}
    return f"transfer: z outside +-{oracles.Z_BAND}: {bad}" if bad else None


def _check_paths(bound: float):
    def check(report):
        worst = max(
            max(abs(h - H_SLOPES[k] * t), abs(l - L_SLOPES[k] * t))
            for k in range(3)
            for t, h, l in zip(report.t_grid, report.region_fraction[k], report.length_fraction[k])
        )
        if not worst < bound:
            return f"equidistribution n={report.n}: deviation {worst:.4f} >= {bound}"
        return None

    return check


def _check_max_spacing(n: int):
    def check(res):
        z = (res.estimate - oracles.expected_max_spacing_stat(n)) / res.std_error
        return None if oracles.z_ok(z) else f"max spacing n={n}: z={z:.2f}"

    return check


def _region_step(seed: int, n: int) -> Step:
    return Step(
        f"region_stats n={n}",
        BATCH,
        lambda tr: tr.call(
            "random_points.estimate_region_stats", random_points.estimate_region_stats, n, BATCH, seed
        ),
        lambda res: _check_results(f"region_stats n={n}", res),
        # The batch's (rows, n, 2n) comparison tensor is 32 MB at n=32.
        memory_bound=n >= 32,
    )


# ---------------------------------------------------------------------------
# workloads


class McSmallN(Workload):
    """Estimator traffic of the acceptance gate at n <= 12, full batches."""

    name = "mc-small-n"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.targets = {n: words.canonical_bracelet(words.run_word(n)) for n in (3, 4, 5, 6)}

    def steps(self, cycle):
        seeds = iter([derive(self.seed, cycle, j) for j in range(10)])
        out = [_region_step(next(seeds), n) for n in (3, 5, 8)]
        for n, model in ((3, "circle"), (4, "circle"), (5, "circle"), (6, "circle"), (4, "exp")):
            s = next(seeds)
            out.append(
                Step(
                    f"bracelet_prob n={n} {model}",
                    BATCH,
                    lambda tr, n=n, s=s, model=model: tr.call(
                        "random_points.estimate_bracelet_prob",
                        random_points.estimate_bracelet_prob,
                        n,
                        self.targets[n],
                        BATCH,
                        s,
                        model=model,
                    ),
                    _check_bracelet(n),
                )
            )
        s = next(seeds)
        out.append(
            Step(
                "interlacing n=12",
                BATCH,
                lambda tr: tr.call(
                    "random_points.interlacing_failures", random_points.interlacing_failures, 12, BATCH, s
                ),
                lambda bad: None if bad == 0 else f"interlacing n=12: {bad} failures",
            )
        )
        s2 = next(seeds)
        out.append(
            Step(
                "transfer n=4",
                2 * BATCH,  # one circle-model and one exponential-model batch
                lambda tr: tr.call("random_points.transfer_check", random_points.transfer_check, 4, BATCH, s2),
                _check_transfer,
            )
        )
        return out

    def finish(self):
        """Worker-count invariance and repeatability of one estimator call.

        Runs outside the timed part.  Four batches so that two workers each
        get work; at most os.cpu_count() workers.
        """
        seed = derive(self.seed, 1 << 30)
        workers = min(2, os.cpu_count() or 1)

        def payload(w):
            res = random_points.estimate_region_stats(5, 4 * BATCH, seed, workers=w)
            return json.dumps({k: r.to_json_dict() for k, r in res.items()}).encode()

        one, again, many = payload(1), payload(1), payload(workers)
        failures = []
        if one != again:
            failures.append("determinism: same seed gave different estimates")
        if one != many:
            failures.append(f"determinism: workers=1 and workers={workers} differ")
        return 2, failures


class McLargeN(Workload):
    """The (rows, n, 2n) comparison tensor and the per-trial Python loops."""

    name = "mc-large-n"

    def steps(self, cycle):
        seeds = [derive(self.seed, cycle, j) for j in range(6)]
        out = [_region_step(s, n) for s, n in zip(seeds, (32, 64, 128))]
        for s, n, trials, bound in ((seeds[3], 100_000, 1, 0.02), (seeds[4], 64, 200, 0.05)):
            out.append(
                Step(
                    f"equidistribution n={n}x{trials}",
                    trials,
                    lambda tr, n=n, trials=trials, s=s: tr.call(
                        "random_points.equidistribution_paths",
                        random_points.equidistribution_paths,
                        n,
                        T_GRID,
                        trials,
                        s,
                    ),
                    _check_paths(bound),
                )
            )
        out.append(
            Step(
                "max_spacing n=1000",
                1000,
                lambda tr: tr.call(
                    "random_points.max_spacing_check", random_points.max_spacing_check, 1000, 1000, seeds[5]
                ),
                _check_max_spacing(1000),
            )
        )
        return out


class UniformWords(Workload):
    """Exact uniform samplers, in the call mix of acceptance criterion 11.

    Criterion 11 makes 10^6 ``sample_uniform_word`` calls at n=3 and at n=4
    and 10^5 ``sample_uniform_bracelet`` calls at n=4; a cycle makes them in
    the same 10:10:1 proportion.  The calls the gate does not make (words at
    n=32, bracelets at n=6, and the criterion-12 CLT experiment) ride along
    at a small share of the cycle's time; README.md gives the measured
    shares.
    """

    name = "uniform-words"
    CLT_TRIALS = 100

    def __init__(self, seed: int):
        super().__init__(seed)
        self.word_counts: dict[int, Counter] = {3: Counter(), 4: Counter()}
        self.bracelet_counts: Counter = Counter()

    def _words(self, n, count, s, pool):
        def run(tr):
            rng = random_points.batch_rng(s, 0)
            return [tr.call("sampler.sample_uniform_word", sampler.sample_uniform_word, n, rng) for _ in range(count)]

        def check(ws):
            bad = [w for w in ws if len(w) != 2 * n or not oracles.realizable(w)]
            if bad:
                return f"sample_uniform_word n={n}: {len(bad)} words not realizable"
            if pool is not None:
                pool.update(ws)
            return None

        return Step(f"sample_uniform_word n={n} x{count}", count, run, check)

    def _bracelets(self, n, count, s, pool):
        def run(tr):
            rng = random_points.batch_rng(s, 0)
            return [
                tr.call("sampler.sample_uniform_bracelet", sampler.sample_uniform_bracelet, n, rng)
                for _ in range(count)
            ]

        def check(bs):
            bad = [
                b
                for b in bs
                if not oracles.realizable(b.word)
                or oracles.bracelet(b.word) != (words.word_to_string(b.word), b.orbit_size)
            ]
            if bad:
                return f"sample_uniform_bracelet n={n}: {len(bad)} not canonical realizable classes"
            if pool is not None:
                pool.update(b.word for b in bs)
            return None

        return Step(f"sample_uniform_bracelet n={n} x{count}", count, run, check)

    def steps(self, cycle):
        s = [derive(self.seed, cycle, j) for j in range(6)]
        trials = self.CLT_TRIALS

        def check_clt(report):
            # Bands of acceptance criterion 12, widened for the cycle's
            # trials: the sample variance of T normal draws has relative sd
            # sqrt(2/(T-1)).
            var_band = oracles.Z_BAND * (2 / (trials - 1)) ** 0.5
            checks = {
                "mean F0/n": abs(report.letter_means["s00"] - 1 / 6) < 0.01,
                "var F0": abs(report.var_f0[-1] / (2 / 9) - 1) < var_band,
                "var S10": abs(report.var_s10[-1] / (8 / 9) - 1) < var_band,
            }
            bad = [k for k, ok in checks.items() if not ok]
            return f"lln_clt_experiment: {bad} outside band" if bad else None

        return [
            # Criterion 11's calls, 10:10:1.
            self._words(3, 2000, s[0], self.word_counts[3]),
            self._words(4, 2000, s[1], self.word_counts[4]),
            self._bracelets(4, 200, s[2], self.bracelet_counts),
            # Calls outside criterion 11, at a small share.
            self._words(32, 100, s[3], None),
            self._bracelets(6, 5, s[4], None),
            Step(
                f"lln_clt_experiment n=10000 x{trials}",
                trials,
                lambda tr: tr.call(
                    "sampler.lln_clt_experiment", sampler.lln_clt_experiment, 10_000, trials, seed=s[5]
                ),
                check_clt,
            ),
        ]

    def finish(self):
        from scipy import stats as sstats  # only this workload pays for the import

        failures = []
        for label, counts, cells in (
            ("words n=3", self.word_counts[3], oracles.word_count(3)),
            ("words n=4", self.word_counts[4], oracles.word_count(4)),
            ("bracelets n=4", self.bracelet_counts, oracles.TABLE_BRACELETS[4]),
        ):
            observed = np.zeros(cells)
            observed[: len(counts)] = list(counts.values())
            p = float(sstats.chisquare(observed).pvalue)
            if len(counts) != cells or not p > oracles.CHI_SQUARE_P_MIN:
                failures.append(f"chi-square {label}: {len(counts)}/{cells} cells, p={p:.2e}")
        return len(self.word_counts) + 1, failures


class ExactWords(Workload):
    """Exact Fraction path: enumeration, bracelet counting and realization."""

    name = "exact-words"

    def _count_step(self, n):
        def check(got):
            want = oracles.TABLE_BRACELETS[n]
            return None if got == want else f"count_bracelets({n}) = {got}, want {want}"

        return Step(
            f"count_bracelets n={n}",
            oracles.word_count(n),
            lambda tr: tr.call("enumeration.count_bracelets", enumeration.count_bracelets, n),
            check,
        )

    def _report_step(self, n):
        def check(rep):
            total = oracles.word_count(n)
            in_orbits = sum(o * c for o, c in rep.orbit_size_histogram.items())
            if (rep.word_count, rep.formula_count, in_orbits) != (total, total, total):
                return f"enumeration_report({n}): word counts {rep.word_count}/{rep.formula_count}/{in_orbits} != {total}"
            if rep.bracelet_count != oracles.TABLE_BRACELETS[n]:
                return f"enumeration_report({n}): {rep.bracelet_count} bracelets"
            return None

        return Step(
            f"enumeration_report n={n}",
            oracles.word_count(n),
            lambda tr: tr.call("enumeration.enumeration_report", enumeration.enumeration_report, n),
            check,
        )

    def _roundtrip_step(self, w):
        n = len(w) // 2

        def run(tr):
            config = tr.call("realization.realize", realization.realize, w)
            return tr.call("geometry.occupancy_word", geometry.occupancy_word, config)

        def check(back):
            ok = oracles.bracelet(back) == oracles.bracelet(w)
            return None if ok else f"round-trip n={n}: {words.word_to_string(w)} read back in another class"

        return Step(f"roundtrip n={n}", 1, run, check)

    def steps(self, cycle):
        rng = input_rng(self.seed, cycle)
        n_enum = 10
        spot = rng.integers(0, oracles.word_count(n_enum), size=200)

        def check_enum(ws):
            total = oracles.word_count(n_enum)
            if len(ws) != total or len(set(ws)) != total:
                return f"enumerate_words({n_enum}): {len(ws)} words, {len(set(ws))} distinct, want {total}"
            bad = [i for i in spot.tolist() if not oracles.realizable(ws[i])]
            return f"enumerate_words({n_enum}): {len(bad)} unrealizable words" if bad else None

        queries = oracles.random_binary_words(n_enum, 2000, rng)

        def check_decide(got):
            want = [oracles.realizable(w) for w in queries]
            wrong = sum(a != b for a, b in zip(got, want))
            return f"is_realizable n={n_enum}: {wrong} wrong answers" if wrong else None

        out = [
            Step(
                f"enumerate_words n={n_enum}",
                oracles.word_count(n_enum),
                lambda tr: tr.call("enumeration.enumerate_words", lambda: list(enumeration.enumerate_words(n_enum))),
                check_enum,
            ),
            self._count_step(8),
            self._count_step(9),
            self._report_step(8),
            self._report_step(9),
        ]
        for n in (8, 16, 32, 64):
            out += [self._roundtrip_step(oracles.random_realizable_word(n, rng)) for _ in range(4)]
        out.append(
            Step(
                f"is_realizable n={n_enum} x{len(queries)}",
                len(queries),
                lambda tr: [tr.call("words.is_realizable", words.is_realizable, w) for w in queries],
                check_decide,
            )
        )
        return out


WORKLOADS = {cls.name: cls for cls in (McSmallN, McLargeN, UniformWords, ExactWords)}
