"""Exact uniform sampling of realizable words and the lattice-walk encoding.

A realizable word is equivalent to a letter string in {0, 1, S}^n with an
even nonzero number of S letters plus one extra bit: S positions carry the
balanced folded letters 11/00 (strictly alternating, the bit choosing which
comes first) and 0/1 positions carry the unbalanced letters 01/10.  Uniform
words are therefore sampled by rejection on i.i.d. uniform letters, which
needs no precomputed weight tables and accepts with probability about 1/2
(2/9 at n = 3).

Each rejection attempt makes one integer draw per block of at most 39
letters.  The first draw is uniform on [0, 2 * 3^b) with b = min(n, 39):
its lowest bit is the phase bit and the rest gives b letters as base-3
digits.  Each further block of m <= 39 letters draws from [0, 3^m).  As
2 * 3^39 < 2^63, every draw is one int64 draw.  ``Generator.integers`` is
exactly uniform on its range, and the base-3 digits of an integer uniform
on [0, 3^m) are i.i.d. uniform letters, so an attempt is a uniform letter
string plus an independent fair bit.  Attempts are i.i.d., so the accepted
word is exactly uniform.  The digits are split in plain Python: at the
small n of exact sampling, numpy calls on arrays of a few letters would
cost several times more than the letters themselves.

Folding a realizable word and mapping letters 11/00 to step 0, 10 to +1 and
01 to -1 gives a walk; tracking the running count of 0 steps makes the map
a bijection onto walks with an even nonzero number of 0 steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import words
from .random_points import batch_rng
from .words import Bracelet, FoldedWord, Word

_STEP_OF_LETTER = {"00": 0, "11": 0, "10": 1, "01": -1}
# Letters per integer draw: 2 * 3**39 < 2**63, so the first block and the
# phase bit fit one int64 draw.
_BLOCK = 39


def _base3_digits(x: int, count: int) -> list[int]:
    """The ``count`` lowest base-3 digits of x, least significant first."""
    digits = []
    for _ in range(count):
        x, d = divmod(x, 3)
        digits.append(d)
    return digits


def sample_uniform_word(n: int, rng: np.random.Generator) -> Word:
    """Exactly uniform over the 3^n - 2^(n+1) + 1 realizable words of length 2n."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    head = min(n, _BLOCK)
    high = 2 * 3**head
    while True:
        x = int(rng.integers(0, high))
        letters = _base3_digits(x >> 1, head)
        for start in range(head, n, _BLOCK):
            size = min(_BLOCK, n - start)
            letters += _base3_digits(int(rng.integers(0, 3**size)), size)
        balanced = letters.count(2)
        if balanced and balanced % 2 == 0:
            break
    next_is_11 = x & 1
    word = [0] * (2 * n)
    for i, u in enumerate(letters):
        if u == 2:
            if next_is_11:
                word[i] = word[i + n] = 1
            next_is_11 ^= 1
        elif u == 1:
            word[i] = 1
        else:
            word[i + n] = 1
    return tuple(word)


def sample_uniform_bracelet(n: int, rng: np.random.Generator) -> Bracelet:
    """Exactly uniform over bracelet classes, by 1/orbit-size rejection.

    Every class is hit with probability (orbit/total) * (1/orbit); the
    acceptance rate is the class/word ratio, at least 1/(4n).  Candidates
    stay packed ints until one is accepted (see :func:`words.canonical_bracelet`).
    """
    while True:
        orbit = words.bracelet_orbit(sample_uniform_word(n, rng))
        if int(rng.integers(0, len(orbit))) == 0:
            return Bracelet(n=n, word=words.int_to_word(min(orbit), n), orbit_size=len(orbit))


@dataclass(frozen=True)
class LatticeWalk:
    """Walk with steps in {-1, 0, +1}; s are partial sums, k counts 0 steps."""

    steps: tuple[int, ...]
    s: tuple[int, ...]
    k: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.steps)


def walk_from_steps(steps: Sequence[int]) -> LatticeWalk:
    st = tuple(int(x) for x in steps)
    if any(x not in (-1, 0, 1) for x in st):
        raise ValueError("walk steps must be -1, 0 or +1")
    s = [0]
    k = [0]
    for x in st:
        s.append(s[-1] + x)
        k.append(k[-1] + (x == 0))
    return LatticeWalk(steps=st, s=tuple(s), k=tuple(k))


def word_to_walk(folded) -> LatticeWalk:
    """Map folded letters to steps: 11 and 00 to 0, 10 to +1, 01 to -1."""
    f = words.check_folded(folded)
    return walk_from_steps(_STEP_OF_LETTER[a] for a in f)


def walk_to_word(walk: LatticeWalk, first_zero_is_11: bool = True) -> FoldedWord:
    """Decode a walk back to a folded word; 0 steps alternate 11/00 from the flag.

    Only walks with an even nonzero number of 0 steps decode to the folded
    word of a realizable word; others are rejected.
    """
    zeros = walk.k[-1]
    if zeros == 0 or zeros % 2:
        raise ValueError(f"walk has {zeros} zero steps; need an even nonzero count")
    letters = []
    next_is_11 = first_zero_is_11
    for x in walk.steps:
        if x == 0:
            letters.append("11" if next_is_11 else "00")
            next_is_11 = not next_is_11
        else:
            letters.append("10" if x == 1 else "01")
    return tuple(letters)


def counts_from_walk_state(i: int, a: int, p: int) -> tuple[int, int, int, int]:
    """Prefix letter counts (#11, #00, #10, #01) from the walk state (S_i, K_i).

    Valid for walks of folded words whose first balanced letter is 11.
    """
    alpha = (p + 1) // 2
    beta = p // 2
    gamma = (i - p + a) // 2
    delta = (i - p - a) // 2
    return alpha, beta, gamma, delta


def folded_prefix_counts(folded, x: float) -> dict[str, int]:
    """Occurrences of each folded letter among the first floor(x) letters."""
    f = words.check_folded(folded)
    if not 0 <= x <= len(f):
        raise ValueError(f"prefix bound must lie in [0, {len(f)}], got {x}")
    head = f[: math.floor(x)]
    return {a: head.count(a) for a in words.FOLDED_ALPHABET}


def binomial_parity_check(n: int) -> tuple[Fraction, Fraction]:
    """(P(even), P(odd)) for a Binomial(n, 1/3) count, by exact summation."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    even = Fraction(0)
    for k in range(0, n + 1, 2):
        even += Fraction(math.comb(n, k) * 2 ** (n - k), 3**n)
    return even, 1 - even


@dataclass(frozen=True)
class CltReport:
    """Empirical moments of prefix letter counts of uniform realizable words.

    Fluctuations are the classically rescaled 2 * (count - mean) / sqrt(n).
    Expected large-n values: letter means (1/6, 1/6, 1/3, 1/3); fluctuation
    variances (2/9) * c for the balanced counts and (8/9) * c for the
    unbalanced ones; correlation of the 0-letter and 1-letter signature
    fluctuations tending to -1.
    """

    n: int
    trials: int
    seed: int
    c_grid: tuple[float, ...]
    letter_means: dict[str, float]
    var_f0: tuple[float, ...]
    var_f2: tuple[float, ...]
    var_s10: tuple[float, ...]
    var_s01: tuple[float, ...]
    corr_f0_f1: tuple[float, ...]


def lln_clt_experiment(
    n: int,
    trials: int,
    c_grid: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    seed: int = 0,
) -> CltReport:
    """Sample uniform realizable words and collect LLN/CLT statistics.

    Works on the letter-string representation directly, so n of order 10^4
    with 10^4 trials stays cheap.  Deterministic given (n, trials, seed).
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    grid = tuple(float(c) for c in c_grid)
    if any(not 0 < c <= 1 for c in grid):
        raise ValueError("grid values must lie in (0, 1]")
    cuts = [math.floor(c * n) for c in grid]

    max_rows = max(1, (1 << 22) // n)
    collected = 0
    index = 0
    f0 = np.empty((trials, len(grid)))
    f2 = np.empty((trials, len(grid)))
    s10 = np.empty((trials, len(grid)))
    s01 = np.empty((trials, len(grid)))
    sums_full = np.zeros(4)  # s00, s11, s10, s01 at full length

    while collected < trials:
        rng = batch_rng(seed, index)
        index += 1
        rows = min(max_rows, 2 * (trials - collected) + 64)
        letters = rng.integers(0, 3, size=(rows, n), dtype=np.int8)
        phase = rng.integers(0, 2, size=rows)
        balanced = (letters == 2).sum(axis=1)
        keep = (balanced > 0) & (balanced % 2 == 0)
        letters = letters[keep]
        phase = phase[keep]
        take = min(trials - collected, letters.shape[0])
        letters = letters[:take]
        phase = phase[:take]
        sl = slice(collected, collected + take)
        for j, m in enumerate(cuts):
            k_m = (letters[:, :m] == 2).sum(axis=1)
            ones = (letters[:, :m] == 1).sum(axis=1)
            # phase 1: the first balanced letter is 11
            f2_m = (k_m + phase) // 2
            f0[sl, j] = k_m - f2_m
            f2[sl, j] = f2_m
            s10[sl, j] = ones
            s01[sl, j] = m - k_m - ones
        collected += take
        kn = (letters == 2).sum(axis=1)
        ones_n = (letters == 1).sum(axis=1)
        half = kn / 2  # full-length balanced counts split evenly
        sums_full += np.array(
            [half.sum(), half.sum(), ones_n.sum(), (n - kn - ones_n).sum()]
        )

    scale = 2 / math.sqrt(n)

    def _var(values: np.ndarray) -> tuple[float, ...]:
        return tuple(float(np.var(scale * values[:, j], ddof=1)) for j in range(len(grid)))

    corr = []
    for j in range(len(grid)):
        f1 = cuts[j] - f0[:, j] - f2[:, j]
        corr.append(float(np.corrcoef(f0[:, j], f1)[0, 1]))

    means = sums_full / (trials * n)
    return CltReport(
        n=n,
        trials=trials,
        seed=seed,
        c_grid=grid,
        letter_means={
            "s00": float(means[0]),
            "s11": float(means[1]),
            "s10": float(means[2]),
            "s01": float(means[3]),
        },
        var_f0=_var(f0),
        var_f2=_var(f2),
        var_s10=_var(s10),
        var_s01=_var(s01),
        corr_f0_f1=tuple(corr),
    )
