"""Independent checks and input generators for the benchmark.

Nothing here calls the library's decision, canonicalisation or sampling
code: outputs are checked against literal definitions written from
scratch, exact tables and closed forms.
"""

from __future__ import annotations

import math

import numpy as np

# Bracelet counts for n = 3..10 as tabulated in the paper.
TABLE_BRACELETS = {3: 1, 4: 5, 5: 9, 6: 30, 7: 69, 8: 203, 9: 519, 10: 1466}

# Estimates are checked against closed forms with |z| <= Z_BAND.  The band is
# wider than the acceptance gate's 4 because one benchmark run makes hundreds
# of these tests and a regression check thousands; at 6 a false alarm has
# probability ~2e-9 per test.
Z_BAND = 6.0

# Loose p-value floor for the pooled chi-square uniformity tests.
CHI_SQUARE_P_MIN = 1e-6


def word_count(n: int) -> int:
    """3^n - 2^(n+1) + 1 realizable words of length 2n."""
    return 3**n - 2 ** (n + 1) + 1


def interlaces(sig) -> bool:
    """Literal definition: a 0 and a 2 occur, and between each cyclically
    consecutive pair of 0s there is exactly one 2."""
    zeros = [i for i, v in enumerate(sig) if v == 0]
    if not zeros or 2 not in sig:
        return False
    n = len(sig)
    for a, b in zip(zeros, zeros[1:] + [zeros[0] + n]):
        if sum(1 for k in range(a + 1, b) if sig[k % n] == 2) != 1:
            return False
    return True


def realizable(word) -> bool:
    n = len(word) // 2
    return interlaces([word[i] + word[i + n] for i in range(n)])


def bracelet(word) -> tuple[str, int]:
    """(least member as a bitstring, orbit size) under rotation and reversal."""
    s = "".join(map(str, word))
    r = s[::-1]
    orbit = {s[i:] + s[:i] for i in range(len(s))} | {r[i:] + r[:i] for i in range(len(r))}
    return min(orbit), len(orbit)


def z_ok(z: float) -> bool:
    return math.isfinite(z) and abs(z) <= Z_BAND


def expected_max_spacing_stat(n: int) -> float:
    """E[n * max gap / log n] for n uniform points on [0, 1/2], to O(1/n).

    The largest of the n+1 spacings of n uniform points on an interval of
    length L has mean L * H_{n+1} / (n+1); the library drops the two end
    spacings, which moves the mean by O(1/n).
    """
    harmonic = sum(1.0 / k for k in range(1, n + 2))
    return n * 0.5 * harmonic / (n + 1) / math.log(n)


def random_realizable_word(n: int, rng: np.random.Generator) -> tuple[int, ...]:
    """A realizable word of length 2n built from an interlacing signature.

    Each letter is special with probability 1/3, as in a uniform word, until the special count is
    even and nonzero; specials alternate 0/2 from a random phase and each
    letter 1 splits into 10 or 01 at random.  Not uniform over words; it is
    only an input generator.
    """
    while True:
        special = rng.random(n) < 1 / 3
        k = int(special.sum())
        if k and k % 2 == 0:
            break
    two = bool(rng.integers(0, 2))
    first = [0] * n
    second = [0] * n
    for i in range(n):
        if special[i]:
            first[i] = second[i] = int(two)
            two = not two
        elif rng.integers(0, 2):
            first[i] = 1
        else:
            second[i] = 1
    return tuple(first + second)


def random_binary_words(n: int, count: int, rng: np.random.Generator) -> list[tuple[int, ...]]:
    bits = rng.integers(0, 2, size=(count, 2 * n))
    return [tuple(row) for row in bits.tolist()]
