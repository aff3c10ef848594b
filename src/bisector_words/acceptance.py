"""Full-scale verification of every documented exact result and moment band.

Each criterion is a callable returning (passed, detail); the test suite and
the ``verify`` CLI subcommand both run this list.  Seeds are fixed so the
whole gate is reproducible; statistical checks use |z| <= 4 bands, making
false alarms negligible.
"""

from __future__ import annotations

import io
import math
import time
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from . import enumeration, random_points, realization, sampler, words
from .geometry import occupancy_word

Z_BAND = 4.0
_SEED = 20240915

TABLE_BRACELETS = {3: 1, 4: 5, 5: 9, 6: 30, 7: 69, 8: 203, 9: 519, 10: 1466}


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.number:2d} [{self.seconds:7.2f}s] {self.name}: {self.detail}"


def _criterion_word_counts():
    rows = []
    for n in range(3, 13):
        formula = enumeration.count_words(n)
        if formula != 3**n - 2 ** (n + 1) + 1:
            return False, f"formula mismatch at n={n}"
        enumerated = sum(1 for _ in enumeration.enumerate_words(n))
        if enumerated != formula:
            return False, f"n={n}: enumerated {enumerated} != formula {formula}"
        rows.append(f"{n}:{formula}")
    return True, "enumerated == formula for " + " ".join(rows)


def _criterion_bracelet_table():
    got = {n: enumeration.count_bracelets(n) for n in range(3, 11)}
    if got != TABLE_BRACELETS:
        return False, f"bracelet counts {got}"
    for n in range(3, 13):
        enumerated = enumeration.enumeration_report(n).bracelet_count
        counted = enumeration.count_bracelets(n)
        if enumerated != counted:
            return False, f"n={n}: enumerated {enumerated} classes != count {counted}"
    return True, f"bracelet counts {got}; enumerated classes == count for n in 3..12"


def _criterion_interlacing_necessity():
    per_n = 100_000
    for n in range(3, 13):
        bad = random_points.interlacing_failures(n, per_n, _SEED + n)
        if bad:
            return False, f"n={n}: {bad} non-interlacing signatures in {per_n} draws"
    return True, f"0 failures over {per_n} configurations for each n in 3..12"


def _criterion_realization_roundtrip():
    total = 0
    for n in range(3, 8):
        for w in enumeration.enumerate_words(n):
            total += 1
            got = words.canonical_bracelet(occupancy_word(realization.realize(w)))
            want = words.canonical_bracelet(w)
            if got != want:
                return False, f"word {words.word_to_string(w)} realized into wrong class"
    return True, f"{total} words round-tripped exactly at bracelet level (n <= 7)"


def _criterion_run_bracelet_prob():
    trials = 1_000_000
    zs = []
    for n in (3, 4, 5, 6):
        target = words.canonical_bracelet(words.run_word(n))
        res = random_points.estimate_bracelet_prob(n, target, trials, _SEED + 50 + n)
        if n == 3 and res.estimate != 1.0:
            return False, f"n=3 estimate {res.estimate} != 1.0"
        if abs(res.z) > Z_BAND:
            return False, f"n={n}: z={res.z:.2f} outside +-{Z_BAND}"
        zs.append(f"n={n}:z={res.z:+.2f}")
    return True, f"{trials} trials each; " + " ".join(zs)


def _criterion_two_dot_region_count():
    trials = 1_000_000
    zs = []
    for n in (3, 5, 8):
        res = random_points.estimate_region_stats(n, trials, _SEED + 100 + n)["h2"]
        if abs(res.z) > Z_BAND:
            return False, f"n={n}: z={res.z:.2f} outside +-{Z_BAND}"
        zs.append(f"n={n}:z={res.z:+.2f}")
    return True, f"{trials} trials each; " + " ".join(zs)


def _criterion_length_expectations():
    trials = 1_000_000
    zs = []
    for n in (3, 5, 8):
        results = random_points.estimate_region_stats(n, trials, _SEED + 200 + n)
        for key in ("l0", "l1", "l2", "le"):
            res = results[key]
            if abs(res.z) > Z_BAND:
                return False, f"n={n} {key}: z={res.z:.2f} outside +-{Z_BAND}"
            zs.append(f"{key}(n={n}):{res.z:+.2f}")
    return True, f"{trials} trials each; z " + " ".join(zs)


def _criterion_phi_identity():
    for x in (Fraction(1, 4), Fraction(1, 3), Fraction(2, 5)):
        for n in range(3, 9):
            if random_points.phi(x, n) != random_points.phi_series(x, n):
                return False, f"phi({x}, {n}) != series value"
    for n in range(3, 9):
        if random_points.phi(Fraction(1, 3), n) != random_points.closed_form("phi13", n):
            return False, f"phi(1/3, {n}) != closed form"
    return True, "closed form == literal sum for x in {1/4,1/3,2/5}, n in 3..8 (exact)"


def _criterion_transfer():
    trials = 1_000_000
    report = random_points.transfer_check(4, trials, _SEED + 300)
    comp = report.comparisons[2]
    zs = (comp.exp_model.z, comp.circle_model.z, comp.z_between)
    if any(abs(z) > Z_BAND for z in zs):
        return False, f"k=2 z-scores {tuple(round(z, 2) for z in zs)} exceed +-{Z_BAND}"
    return True, (
        f"n=4, k=2, {trials} trials: exp z={zs[0]:+.2f}, circle z={zs[1]:+.2f}, "
        f"between z={zs[2]:+.2f}"
    )


def _criterion_equidistribution():
    n = 100_000
    grid = [j / 20 for j in range(21)]
    report = random_points.equidistribution_paths(n, grid, trials=1, seed=_SEED + 400)
    slopes_h = (0.25, 0.5, 0.25)
    slopes_l = (0.125, 0.5, 0.375)
    worst = 0.0
    for k in (0, 1, 2):
        for t, h, l in zip(report.t_grid, report.region_fraction[k], report.length_fraction[k]):
            worst = max(worst, abs(h - slopes_h[k] * t), abs(l - slopes_l[k] * t))
    return worst < 0.02, f"n={n}: sup grid deviation {worst:.4f} (bound 0.02)"


def _chi_square_tail(x: float, df: int) -> float:
    """P(X >= x) for X chi-square with integer df >= 1 (Abramowitz & Stegun 26.4.4-5).

    With h = x/2 the tail is e^-h Σ_{k < df/2} h^k / k! for even df, and
    erfc(√h) + e^-h Σ h^k / Γ(k+1) over k = 1/2, 3/2, ..., (df-2)/2 for odd
    df.  The terms are summed in log space, shifted by the largest, so none
    underflows at large df.
    """
    h = x / 2
    if h == 0:
        return 1.0
    logs = [k * math.log(h) - math.lgamma(k + 1) - h for k in (j + df % 2 / 2 for j in range(df // 2))]
    top = max(logs, default=0.0)
    series = math.exp(top) * math.fsum(math.exp(v - top) for v in logs)
    return series + (math.erfc(math.sqrt(h)) if df % 2 else 0.0)


def _chi_square_pvalue(counts: dict, expected_cells: int) -> float:
    """Pearson's test of equal cell frequencies; cells missing from ``counts`` count 0."""
    e = sum(counts.values()) / expected_cells
    observed = [*counts.values(), *[0] * (expected_cells - len(counts))]
    return _chi_square_tail(math.fsum((o - e) ** 2 for o in observed) / e, expected_cells - 1)


def _table_counts(table, size: int, rng) -> Counter:
    """How often each value of a sampler's ``table`` comes out of ``size`` of its draws.

    The draws are counted as table indices, by :func:`sampler._table_draws`,
    which reads the stream that ``size`` sampler calls read.
    """
    hits = np.zeros(len(table), dtype=np.int64)
    for values in sampler._table_draws(len(table), size, rng):
        hits += np.bincount(values, minlength=len(table))
    counts = Counter()
    for value, count in zip(table, hits.tolist()):
        if count:
            counts[value] += count
    return counts


def _criterion_sampler_uniformity():
    details = []
    for n, trials in ((3, 1_000_000), (4, 1_000_000)):
        rng = random_points.batch_rng(_SEED + 500 + n, 0)
        counts = _table_counts(sampler._word_table(n), trials, rng)
        cells = enumeration.count_words(n)
        p = _chi_square_pvalue(counts, cells)
        if len(counts) != cells or p <= 1e-3:
            return False, f"words n={n}: {len(counts)}/{cells} cells, p={p:.2e}"
        details.append(f"words n={n}: p={p:.3f}")
    rng = random_points.batch_rng(_SEED + 510, 0)
    counts = _table_counts([b.word for b in sampler._bracelet_table(4)], 100_000, rng)
    p = _chi_square_pvalue(counts, 5)
    if len(counts) != 5 or p <= 1e-3:
        return False, f"bracelets n=4: {len(counts)}/5 cells, p={p:.2e}"
    details.append(f"bracelets n=4: p={p:.3f}")
    return True, "; ".join(details)


def _criterion_clt_moments():
    report = sampler.lln_clt_experiment(10_000, 10_000, (0.25, 0.5, 0.75, 1.0), _SEED + 600)
    mean_f0 = report.letter_means["s00"]
    var_f0 = report.var_f0[-1]
    var_s10 = report.var_s10[-1]
    checks = [
        ("mean F0/n", abs(mean_f0 - 1 / 6) < 0.01),
        ("var F0 fluct", abs(var_f0 - 2 / 9) < 0.1 * 2 / 9),
        ("var S10 fluct", abs(var_s10 - 8 / 9) < 0.1 * 8 / 9),
    ]
    bad = [name for name, ok in checks if not ok]
    detail = (
        f"mean F0/n={mean_f0:.4f} (1/6), var F0={var_f0:.4f} (2/9={2 / 9:.4f}), "
        f"var S10={var_s10:.4f} (8/9={8 / 9:.4f})"
    )
    return not bad, detail + (f"; failed: {bad}" if bad else "")


def _criterion_binomial_parity():
    for n in range(1, 41):
        even, odd = sampler.binomial_parity_check(n)
        if even - odd != Fraction(1, 3**n):
            return False, f"n={n}: P(even)-P(odd) != 3^-{n}"
        if even + odd != 1:
            return False, f"n={n}: probabilities do not sum to 1"
    return True, "P(even) - P(odd) == 3^-n exactly for n = 1..40"


def _criterion_cli_determinism():
    from . import cli

    outputs = []
    for workers in ("1", "3"):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(
                [
                    "estimate",
                    "--n",
                    "4",
                    "--stat",
                    "h2",
                    "--trials",
                    "200000",
                    "--seed",
                    "17",
                    "--workers",
                    workers,
                ]
            )
        if code != 0:
            return False, f"estimate exited with {code}"
        outputs.append(buf.getvalue())
    ok = outputs[0] == outputs[1]
    return ok, "workers=1 and workers=3 outputs byte-identical" if ok else "outputs differ"


CRITERIA = (
    (1, "word count formula vs enumeration, n=3..12", _criterion_word_counts),
    (2, "bracelet counts for n=3..10, enumerated classes for n=3..12", _criterion_bracelet_table),
    (3, "every sampled signature interlaces, n=3..12", _criterion_interlacing_necessity),
    (4, "realization round-trip for all words, n<=7", _criterion_realization_roundtrip),
    (5, "run-word bracelet probability n/(3*2^(2n-6))", _criterion_run_bracelet_prob),
    (6, "expected two-dot region count (n/2)(1+3^(2-n))", _criterion_two_dot_region_count),
    (7, "expected type lengths and empty length", _criterion_length_expectations),
    (8, "phi closed form == literal sum (exact)", _criterion_phi_identity),
    (9, "transfer identity between the two models", _criterion_transfer),
    (10, "equidistribution of region counts and lengths", _criterion_equidistribution),
    (11, "chi-square uniformity of word/bracelet samplers", _criterion_sampler_uniformity),
    (12, "LLN/CLT moment bands for uniform words", _criterion_clt_moments),
    (13, "binomial parity identity (exact)", _criterion_binomial_parity),
    (14, "estimates byte-identical across worker counts", _criterion_cli_determinism),
)


def run_criterion(number: int) -> CriterionResult:
    words._check_int(number, "criterion", 1, len(CRITERIA))
    num, name, fn = CRITERIA[number - 1]
    start = time.perf_counter()
    passed, detail = fn()
    return CriterionResult(number=num, name=name, passed=passed, detail=detail, seconds=time.perf_counter() - start)


def run_all(numbers=None) -> Iterator[CriterionResult]:
    """Results of the wanted criteria (default: all, numbered 1.. in ``CRITERIA`` order), each run as it is consumed.

    Every number is checked before any criterion runs, and the numbers are
    read only up to the first bad one, so a bad range fails at once, however
    long it is.
    """
    wanted = []
    for number in range(1, len(CRITERIA) + 1) if numbers is None else numbers:
        words._check_int(number, "criterion", 1, len(CRITERIA))
        wanted.append(number)
    return map(run_criterion, wanted)
