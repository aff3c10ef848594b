"""Full-scale acceptance gate: one test per criterion, each printing its line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or ``bisector-words
verify``) to see the per-criterion PASS/FAIL lines; the whole gate takes
4-6 s on a 2-vCPU Xeon VM, 0.03-0.05 s of it criterion 11.

Criterion 11's chi-square tail is written with ``math``; scipy, a test
dependency only, is its oracle here.
"""

import hashlib
import itertools
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from bisector_words import acceptance, random_points, sampler, words

ROOT = Path(__file__).resolve().parent.parent

# Criterion 11's detail line at its fixed seeds.
CRITERION_11_DETAIL = "words n=3: p=0.068; words n=4: p=0.895; bracelets n=4: p=0.959"


@pytest.mark.acceptance
@pytest.mark.parametrize(
    "number,name",
    [(num, name) for num, name, _ in acceptance.CRITERIA],
    ids=[f"criterion_{num:02d}" for num, _, _ in acceptance.CRITERIA],
)
def test_criterion(number, name):
    result = acceptance.run_criterion(number)
    print(result.line(), flush=True)
    assert result.passed, result.line()


def test_criteria_are_numbered_from_1_in_order():
    assert [num for num, _, _ in acceptance.CRITERIA] == list(range(1, 15))


def test_run_all_reads_numbers_only_up_to_the_first_bad_one(monkeypatch):
    # run_all listed every number before checking any: 1..10**7 peaked at 1.27 GB
    def numbers():
        for k in itertools.count(1):
            assert k <= 20, "read past the first bad number"
            yield k

    monkeypatch.setattr(acceptance, "CRITERIA", tuple((num, name, None) for num, name, _ in acceptance.CRITERIA))
    with pytest.raises(ValueError) as raised:
        acceptance.run_all(numbers())
    assert str(raised.value) == "need 1 <= criterion <= 14, got 15"


@pytest.mark.parametrize(
    "number, message",
    [
        (0, "need 1 <= criterion <= 14, got 0"),
        (15, "need 1 <= criterion <= 14, got 15"),
        (10**5000, "need 1 <= criterion <= 14, got a value of type int"),
        (True, "need criterion to be an integer, got True"),
        (13.0, "need criterion to be an integer, got 13.0"),
        (np.int64(13), "need criterion to be an integer, got np.int64(13)"),
    ],
    ids=["zero", "above", "huge", "bool", "float", "numpy"],
)
def test_a_criterion_number_is_an_int_from_1_to_14_before_any_runs(monkeypatch, number, message):
    monkeypatch.setattr(acceptance, "CRITERIA", tuple((num, name, None) for num, name, _ in acceptance.CRITERIA))
    for call in (acceptance.run_criterion, lambda k: acceptance.run_all([13, k])):
        with pytest.raises(ValueError) as raised:
            call(number)
        assert str(raised.value) == message


@pytest.mark.parametrize("df", [*range(1, 61), 100, 203, 519, 1000, 1465])
def test_chi_square_tail_matches_scipy_down_to_1e_minus_200(df):
    assert acceptance._chi_square_tail(0.0, df) == 1.0
    xs = np.linspace(0, stats.chi2.isf(1e-200, df), 301)[1:]
    want = stats.chi2.sf(xs, df)
    assert want.min() < 1e-199
    got = np.array([acceptance._chi_square_tail(float(x), df) for x in xs])
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


@pytest.mark.parametrize(
    "cells, total, missing",
    [(12, 10**6, 0), (50, 10**6, 0), (5, 10**5, 0), (12, 120, 1), (50, 500, 2), (5, 40, 1)],
)
def test_chi_square_pvalue_is_pearsons_test_with_missing_cells_as_zero(cells, total, missing):
    drawn = np.random.default_rng(cells + total).multinomial(total, [1 / cells] * cells)
    drawn[:missing] = 0
    counts = Counter({cell: int(k) for cell, k in enumerate(drawn) if k})
    assert len(counts) == cells - missing
    want = stats.chisquare(drawn)
    got = acceptance._chi_square_pvalue(counts, cells)
    assert got == pytest.approx(acceptance._chi_square_tail(float(want.statistic), cells - 1), rel=1e-12)
    assert got == pytest.approx(want.pvalue, rel=1e-10)


# sha256 of criterion 11's draws at its seeds, one word or bracelet per line,
# and the next raw word of the generator after them, as (kind, n, draws, seed
# offset from acceptance._SEED).  Recorded with one scalar sampler call per
# draw, before the criterion drew through the batch samplers.
CRITERION_11_DRAWS = {
    ("words", 3, 1_000_000, 503): (
        "8f660dada37216f7ba8d7d10370cd23613ea003b94d087903015a76b0ee1f2d1",
        12984022426738318661,
    ),
    ("words", 4, 1_000_000, 504): (
        "3b737c7490361a9a94ac64240ef1e7f6c8ac9b9c2f9d9e325f1500daa63c4f3e",
        386219400982762041,
    ),
    ("bracelets", 4, 100_000, 510): (
        "96c03989ca2bf57f01a0672c9ae03f8d406ca540ddb11c2e480d5d993ce05079",
        9246291637326761072,
    ),
}


@pytest.mark.parametrize("kind, n, size, offset", sorted(CRITERION_11_DRAWS))
def test_criterion_11_draws_are_pinned(kind, n, size, offset):
    rng = random_points.batch_rng(acceptance._SEED + offset, 0)
    if kind == "words":
        drawn, text = sampler.sample_uniform_words(n, size, rng), words.word_to_string
    else:
        drawn, text = sampler.sample_uniform_bracelets(n, size, rng), str
    lines = {x: f"{text(x)}\n" for x in set(drawn)}
    digest = hashlib.sha256("".join(map(lines.__getitem__, drawn)).encode()).hexdigest()
    assert (digest, rng.bit_generator.random_raw()) == CRITERION_11_DRAWS[kind, n, size, offset]


@pytest.mark.parametrize("size", [0, 1, 3000, 70_000])
@pytest.mark.parametrize("kind, n", [("words", 3), ("words", 4), ("bracelets", 4)])
def test_criterion_11_counts_are_the_counts_of_the_sampler_calls(kind, n, size):
    # the criterion counts table indices; 70_000 draws take two rounds of raw words
    ours, theirs = random_points.batch_rng(n, size), random_points.batch_rng(n, size)
    if kind == "words":
        counts = acceptance._table_counts(sampler._word_table(n), size, ours)
        want = Counter(sampler.sample_uniform_words(n, size, theirs))
    else:
        counts = acceptance._table_counts([b.word for b in sampler._bracelet_table(n)], size, ours)
        want = Counter(b.word for b in sampler.sample_uniform_bracelets(n, size, theirs))
    assert counts == want and all(counts.values())
    assert ours.bit_generator.random_raw() == theirs.bit_generator.random_raw()


def test_criterion_11_runs_without_scipy():
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import bisector_words, bisector_words.cli\n"
        "from bisector_words import acceptance\n"
        "result = acceptance.run_criterion(11)\n"
        "print(result.passed)\n"
        "print(result.detail)\n"
    )
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == f"True\n{CRITERION_11_DETAIL}\n"
