"""Exact uniform sampling of realizable words and bracelets, and the lattice-walk encoding.

A realizable word is equivalent to a letter string in {0, 1, S}^n with an
even nonzero number of S letters plus one extra bit, the phase: S positions
carry the balanced folded letters 11/00 (strictly alternating, the phase
choosing which comes first) and 0/1 positions carry the unbalanced letters
01/10.

Words are drawn without rejection up to n = 39.  The last n - k letters,
k = min(n, 39), form the tail: one ``integers(0, 3^m)`` draw per block of
m <= 39 letters, whose base-3 digits are i.i.d. uniform letters.  The tail's
S count leaves the head (the first k letters) a requirement: an even number
of S with at least one, an even number, or an odd number.  The counts of
length-L strings meeting each are (3^L + 1)/2 - 2^L, (3^L + 1)/2 and
(3^L - 1)/2, tabled for L <= 39, so every count is below 2^63.  One more
draw x on [0, 2H) gives the phase bit x & 1 and a rank r = x >> 1, and the
head is decoded from r letter by letter: 0 and 1 take the first two equal
shares of the count and S the rest, which flips the parity.  H is the
largest head count among the requirements the tail can leave, and an
attempt with r >= count(requirement) is rejected and redrawn whole.

This is exact: ``Generator.integers`` is exactly uniform on its range, so a
valid (tail, phase, head) is produced with probability
3^-(n-k) · 1/(2H), the same for all of them.  With no tail (n <= 39) there
is one requirement and H is its count, 2H = 3^n - 2^(n+1) + 1: exactly one
draw per word and no rejection.  Above n = 39 a requirement's count falls
short of H by at most 2^39 (no S yet; 2^39 - 1 when H is the odd count), so
an attempt is rejected with probability at most 2^39 / ((3^39 + 1)/2), below
3e-7.  The head is not widened
to the whole word: a rank of more than 63 bits would make every letter
cost big-int arithmetic.

Bracelets (classes under shifts and reversal) are drawn by Burnside
sampling (Jerrum 1994): pick a group element g with probability
|Fix(g)| / Σ|Fix|, then a uniform word fixed by g, and canonicalise it.  A
class C of orbit size |C| contains |C| words, each fixed by 4n/|C| elements,
so it is hit with probability 4n / Σ|Fix| = 1/#classes.  The terms come
from :func:`enumeration._fixed_point_counts`, as the count does.  One
exactly uniform t on [0, Σ mult·|Fix|) picks the type and, as remainder,
the fixed word; the decoders are described at :func:`_fixed_word`.

Digits and letters are handled in plain Python: at the small n of exact
sampling, numpy calls on arrays of a few letters would cost several times
more than the letters themselves.

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

from . import enumeration, words
from .random_points import batch_rng
from .words import Bracelet, FoldedWord, Word

_STEP_OF_LETTER = {"00": 0, "11": 0, "10": 1, "01": -1}
# Letters per integer draw: 2 * 3**39 < 2**63, so every head and tail draw
# is one int64 draw.
_BLOCK = 39
# Head requirements on the S count, and _COUNTS[requirement][L], the number
# of length-L letter strings that meet it.
_EVEN_WITH_S, _EVEN, _ODD = 0, 1, 2
_COUNTS = (
    tuple((3**L + 1) // 2 - 2**L for L in range(40)),
    tuple((3**L + 1) // 2 for L in range(40)),
    tuple((3**L - 1) // 2 for L in range(40)),
)
_AFTER_S = (_ODD, _ODD, _EVEN)


def _base3_digits(x: int, count: int) -> list[int]:
    """The ``count`` lowest base-3 digits of x, least significant first."""
    digits = []
    for _ in range(count):
        x, d = divmod(x, 3)
        digits.append(d)
    return digits


def _uniform_below(high: int, rng: np.random.Generator) -> int:
    """Exactly uniform on [0, high): one ``integers`` draw while high <= 2^63.

    Above that, a uniform x of high's bit length is assembled from blocks of
    at most 63 bits and redrawn while x >= high (acceptance over 1/2).
    """
    if high <= 1 << 63:
        return int(rng.integers(0, high))
    bits = (high - 1).bit_length()
    while True:
        x = 0
        for start in range(0, bits, 63):
            size = min(63, bits - start)
            x = (x << size) | int(rng.integers(0, 1 << size))
        if x < high:
            return x


def _head_letters(rank: int, size: int, requirement: int) -> list[int]:
    """The letter string of the given rank among those of length ``size`` <= 39 meeting it."""
    letters = []
    counts = _COUNTS[requirement]
    for rest in range(size - 1, -1, -1):
        c = counts[rest]
        if rank < c:
            letters.append(0)
        elif rank < 2 * c:
            letters.append(1)
            rank -= c
        else:
            letters.append(2)
            rank -= 2 * c
            requirement = _AFTER_S[requirement]
            counts = _COUNTS[requirement]
    return letters


def _word_letters(n: int, rng: np.random.Generator) -> tuple[int, list[int]]:
    """Phase bit and letter string of a uniform realizable word, n >= 2."""
    head = min(n, _BLOCK)
    # t tail letters can hold no S, an odd number (t >= 1) or an even nonzero
    # number (t >= 2) of them.  For L >= 1 the head counts of the three
    # requirements grow in this order, so the last reachable one is H.
    high = 2 * _COUNTS[(_EVEN_WITH_S, _ODD, _EVEN)[min(n - head, 2)]][head]
    while True:
        tail = []
        for start in range(head, n, _BLOCK):
            size = min(_BLOCK, n - start)
            tail += _base3_digits(int(rng.integers(0, 3**size)), size)
        specials = tail.count(2)
        requirement = _ODD if specials % 2 else _EVEN if specials else _EVEN_WITH_S
        x = int(rng.integers(0, high))
        if x >> 1 < _COUNTS[requirement][head]:
            return x & 1, _head_letters(x >> 1, head, requirement) + tail


def _word_bits(phase: int, letters: list[int]) -> list[int]:
    """The word of a letter string: S alternates 11/00 from the phase, 1 is 10, 0 is 01."""
    n = len(letters)
    next_is_11 = phase
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
    return word


def sample_uniform_word(n: int, rng: np.random.Generator) -> Word:
    """Exactly uniform over the 3^n - 2^(n+1) + 1 realizable words of length 2n."""
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    return tuple(_word_bits(*_word_letters(n, rng)))


def _mirror_word(n: int, q: int) -> list[int]:
    """Fixed word number q of the reflection w_i -> w_{-i mod 2n}, n even.

    The letter at position i is (w_i, w_{i+n}), and the mirror puts the
    swapped letter at n - i.  Bit 0 of q picks the special s_0 (2 if set,
    else 0).  Base-3 digit i - 1 of q >> 1 fills the mirror pair (i, n - i)
    for 1 <= i < n/2: digit 0 puts 10 at i and 01 at n - i, digit 1 the
    reverse, and digit 2 puts the next special at both, alternating from
    s_0.  The special at n/2 then follows the last one, and the specials
    alternate around the cycle (see :func:`enumeration._fixed_point_counts`).
    """
    half = n // 2
    bits = [0] * (2 * n)
    special = q & 1  # 1 for a 2 (both bits set), 0 for a 0
    bits[0] = bits[n] = special
    for i, digit in enumerate(_base3_digits(q >> 1, half - 1), 1):
        if digit == 2:
            special ^= 1
            bits[i] = bits[i + n] = bits[n - i] = bits[2 * n - i] = special
        elif digit:
            bits[i + n] = bits[n - i] = 1
        else:
            bits[i] = bits[2 * n - i] = 1
    bits[half] = bits[half + n] = special ^ 1
    return bits


def _fixed_word(n: int, kind: int | None, q: int, rng: np.random.Generator) -> list[int]:
    """Word number q, 0 <= q < |Fix|, fixed by the representative of a Burnside type.

    - Reflection (``kind`` None): :func:`_mirror_word`.
    - Rotation with d = ``kind`` dividing n: the alternation word 0101...
      (q = 0) or 1010... (q = 1).
    - Rotation with d not dividing n: a realizable word of size d/2,
      repeated 2n/d times.  Up to size 39, q is its draw: the phase bit
      and the head rank of the word sampler.  Above, q would need a big
      rank, so the word is drawn afresh; those draws are independent of
      the type, so the word is still uniform on the fixed set.
    """
    if kind is None:
        return _mirror_word(n, q)
    if n % kind == 0:
        return [q, 1 - q] * n
    size = kind // 2
    if size <= _BLOCK:
        phase, letters = q & 1, _head_letters(q >> 1, size, _EVEN_WITH_S)
    else:
        phase, letters = _word_letters(size, rng)
    return _word_bits(phase, letters) * (n // size)


def sample_uniform_bracelet(n: int, rng: np.random.Generator) -> Bracelet:
    """Exactly uniform over bracelet classes, by Burnside sampling, 3 <= n <= 5000.

    One uniform t on [0, Σ mult·|Fix|) over the terms of
    :func:`enumeration._fixed_point_counts` (one draw while that is below
    2^63, i.e. up to n = 39) picks the group element type g with
    probability mult·|Fix(g)| / Σ, and t mod |Fix(g)|, uniform given the
    type, picks the fixed word.  Each class C is then hit with probability
    Σ_g |Fix(g) ∩ C| / Σ = |C| · (4n/|C|) / Σ = 1/#classes; grouping
    rotations by gcd and reflections by conjugacy does not change these
    sums.  The word is canonicalised once; there is no rejection loop.
    """
    terms = enumeration._fixed_point_counts(n)
    t = _uniform_below(sum(mult * fixed for _, mult, fixed in terms), rng)
    for kind, mult, fixed in terms:
        if t < mult * fixed:
            break
        t -= mult * fixed
    return words.canonical_bracelet(_fixed_word(n, kind, t % fixed, rng))


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
