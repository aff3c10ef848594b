"""Exact uniform sampling of realizable words and bracelets, and the lattice-walk encoding.

A realizable word is a letter string in {0, 1, S}^n with an even nonzero
number of S letters plus a phase bit (see :mod:`words`); the samplers draw
the letters and the phase.

Every draw of the word and bracelet samplers is one call of
:func:`_uniform_below`, exactly uniform on its range: one raw 64-bit word
of the bit generator while the range is at most 2^64, multiplied by the
range and rejected while the low half of the product falls below a
threshold (Lemire 2019).  None goes through ``Generator.integers``, whose
per-call argument handling costs several times the raw word.  Above 2^32,
``integers`` draws this way from the same words, so there the draws equal
its draws.  The CLT experiment draws arrays of letter counts with
``integers`` on the batch engine of :mod:`random_points`: batch i draws rounds
of rows from stream (seed, i) until it has kept its trials, so trial j is
the (j mod ``BATCH_SIZE``)-th kept row of batch j // ``BATCH_SIZE``.  A row
splits into head and tail as a word does below, with a head of at most 10
letters whose counts a table gives: with a head of 10 letters and a tail
of more than 100, a row is rejected with probability below 1.7e-5.

Words are drawn without rejection up to n = 39.  The last n - k letters,
k = min(n, 39), form the tail: one draw on [0, 3^m) per block of m <= 39
letters, whose base-3 digits are i.i.d. uniform letters.  The tail's S
count leaves the head (the first k letters) a requirement: an even number
of S with at least one, an even number, or an odd number.  The counts of
length-L strings meeting each are (3^L + 1)/2 - 2^L, (3^L + 1)/2 and
(3^L - 1)/2, tabled for L <= 39, so every draw is below 2^64: one raw
word.  One more draw x on [0, 2H) gives the phase bit x & 1 and a rank
r = x >> 1, and the head is decoded from r letter by letter: 0 and 1 take
the first two equal shares of the count and S the rest, which flips the
parity.  H is the largest head count among the requirements the tail can
leave, and an attempt with r >= count(requirement) is rejected and
redrawn whole.

This is exact: every draw is exactly uniform on its range, so a valid
(tail, phase, head) is produced with probability 3^-(n-k) · 1/(2H), the
same for all of them.  With no tail (n <= 39) there is one requirement and
H is its count, 2H = 3^n - 2^(n+1) + 1: exactly one draw per word and no
rejection.  Above n = 39 a requirement's count falls short of H by at most
2^39 (no S yet; 2^39 - 1 when H is the odd count), so an attempt is
rejected with probability at most 2^39 / ((3^39 + 1)/2), below 3e-7.  The
head is not widened to the whole word: a rank of more than 64 bits would
make every letter cost big-int arithmetic.

Bracelets (classes under shifts and reversal) are drawn by Burnside
sampling (Jerrum 1994): pick a group element g with probability
|Fix(g)| / Σ|Fix|, then a uniform word fixed by g, and canonicalise it.  A
class C of orbit size |C| contains |C| words, each fixed by 4n/|C| elements,
so it is hit with probability 4n / Σ|Fix| = 1/#classes.  The terms come
from :func:`enumeration._fixed_point_counts` and Σ mult·|Fix| from
:func:`enumeration._burnside_total`, as the count does.  One exactly
uniform t on [0, Σ mult·|Fix|) picks the type and, as remainder, the fixed
word (:func:`_bracelet_of_draw`; the fixed-word decoders are described at
:func:`_fixed_word`).

Each sampler draw has one decoder: :func:`_word_of_draw` for the head draw
of a word and :func:`_bracelet_of_draw` for the bracelet draw.  At small n
both samplers read their result from a lookup table: when the one draw has
at most 2^10 values (n <= 6 for words and for bracelets), the table is the
decoder applied to every value of the draw, built on first use, once per
n, so a draw's output is the decoder's by construction.  Once the
table of n is built, a call finds it with one dict lookup, which also
proves n valid, checks the generator and draws: about 600 ns per call on a
2-vCPU Xeon VM (2.1 GHz), of which the raw word is about 250 ns.  Above
that, digits and letters are decoded in plain Python: at the n of exact
sampling, numpy calls on arrays of a few letters would cost several times
more than the letters themselves.

The batch samplers :func:`sample_uniform_words` and
:func:`sample_uniform_bracelets` return what as many scalar calls return,
and leave the generator where those calls leave it.  Up to n = 6 they
apply the rule of :func:`_uniform_below` to arrays of raw words
(:func:`_table_draws`): 10^6 words at n = 3 or 4 take about 0.1 s, against
0.55 s for the scalar calls.  Above n = 6 they make the scalar calls, so
each n keeps one decoder and one table.

Folding a realizable word and mapping letters 11/00 to step 0, 10 to +1 and
01 to -1 gives a walk; tracking the running count of 0 steps makes the map
a bijection onto walks with an even nonzero number of 0 steps.  Every
decoding, of draws, fixed words and walks alike, goes through
:func:`words.letters_to_word`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import enumeration, words
from .geometry import _check_grid
from .random_points import MAX_TRIALS, _run_batches
from .words import MAX_BRACELET_N, Bracelet, FoldedWord, Word, _check_int

_STEP_OF_LETTER = {"00": 0, "11": 0, "10": 1, "01": -1}
_LETTER_OF_STEP = {-1: 0, 1: 1, 0: 2}
# Letters per draw: 2 * 3**39 < 2**64, and a draw is one raw word while its
# range is <= 2^64, so every head and tail draw reads one raw word.
_BLOCK = 39
# Head requirements on the S count, and _COUNTS[requirement][L], the number
# of length-L letter strings that meet it: for _EVEN_WITH_S, half the
# realizable words of length 2L, whose other half differ in the phase bit.
_EVEN_WITH_S, _EVEN, _ODD = 0, 1, 2
_COUNTS = (
    tuple(enumeration._word_count(L) // 2 for L in range(40)),
    tuple((3**L + 1) // 2 for L in range(40)),
    tuple((3**L - 1) // 2 for L in range(40)),
)
_AFTER_S = (_ODD, _ODD, _EVEN)
# Most values of a sampler's one draw for which it reads a lookup table of
# every outcome, decoded once, instead of decoding each draw: words and
# bracelets up to n = 6.
_TABLE_SIZE = 1 << 10
# The tables built so far, by n, each on a sampler's first call at its n.
# Only an n that passed the checks and has a table is a key, so finding an
# int n here proves 3 <= n <= 6: later calls skip the checks but the one
# for MT19937, whose raw words the samplers cannot read.
_WORD_TABLES: dict[int, tuple[Word, ...]] = {}
_BRACELET_TABLES: dict[int, tuple[Bracelet, ...]] = {}
_MT19937 = np.random.MT19937
# Largest word length n sampled: a word of n letters takes about 0.5 s and
# 30 MB at this bound, growing linearly.
MAX_WORD_N = 10**6
# Largest n of binomial_parity_check: its exact sum holds n / 2 terms of up
# to 1.6 n bits, so its time grows about as n^2 (0.1 s at n = 2000 on a
# 2-vCPU VM).  Criterion 13 checks n <= 40.
_MAX_PARITY_N = 2000
# Letters per draw of the CLT experiment's letter counts: 3^10 < 2^16, so a
# block is one uint16 draw and its counts one lookup in a 3^10-entry table.
_COUNT_BLOCK = 10
# Low bits of a packed (2s, 1s) count that hold the 1s: room for the 1s of
# any segment of a word of at most MAX_WORD_N letters.
_ONES_BITS = MAX_WORD_N.bit_length()
# Raw words of the bit generator are uniform on [0, _WORD).
_WORD = 1 << 64
_MASK = _WORD - 1
_LOW32 = (1 << 32) - 1
# Most letters, size times n, of one call of the batch samplers, checked
# before any draw.  Up to n = 6 the list holds one 8-byte reference per
# value (11 MiB at n = 3).  Above, each value is one scalar call: at the
# bound words take about 1 s at any n, and bracelets, whose images cost
# grows as n^2, about 23 s at n = 5000 (2-vCPU VM).  Criterion 11 draws
# 4 * 10^6 letters in one call.
MAX_SAMPLE_LETTERS = 1 << 22
# Most raw words one round of a batch draw reads: 512 KiB of uint64, with
# a few temporaries of the same size.
_RAW_ROUND = 1 << 16


def _base3_digits(x: int, count: int) -> list[int]:
    """The ``count`` lowest base-3 digits of x, least significant first."""
    digits = []
    for _ in range(count):
        x, d = divmod(x, 3)
        digits.append(d)
    return digits


def _check_raw_words(rng: np.random.Generator) -> None:
    """Reject, before any draw, a generator whose raw words are not 64-bit.

    numpy's MT19937 yields 32-bit raw words; PCG64, PCG64DXSM, Philox and
    SFC64 yield 64-bit words, which :func:`_uniform_below` reads.
    """
    if isinstance(rng.bit_generator, _MT19937):
        raise ValueError(
            "the samplers read 64-bit raw words, and MT19937 yields 32-bit ones;"
            " use PCG64, PCG64DXSM, Philox or SFC64"
        )


def _uniform_below(high: int, rng: np.random.Generator) -> int:
    """Exactly uniform on [0, high), high >= 1: one raw word while high <= 2^64.

    Lemire's multiply-and-reject ("Fast Random Integer Generation in an
    Interval", ACM TOMACS 29(1), 2019) on K = 64k raw bits, where k is the
    number of 64-bit words that high needs, the high word drawn first: a
    uniform r < 2^K gives r·high >> K, and r is rejected while the low K
    bits of r·high are below T = 2^K mod high.  A value v is then given by
    the r whose r·high lies in [v·2^K + T, (v+1)·2^K), an interval of
    2^K - T = high·floor(2^K / high) integers, so by exactly
    floor(2^K / high) words r each.  T < high, so a low part of at least
    high is accepted without computing T.  The public samplers call
    :func:`_check_raw_words` first, so the raw words are 64-bit.
    """
    if high <= _WORD:
        m = rng.bit_generator.random_raw() * high
        if m & _MASK < high:
            threshold = _WORD % high
            while m & _MASK < threshold:
                m = rng.bit_generator.random_raw() * high
        return m >> 64
    width = 64 * -(-(high - 1).bit_length() // 64)  # K
    threshold = (1 << width) % high
    while True:
        r = 0
        for _ in range(width // 64):
            r = r << 64 | rng.bit_generator.random_raw()
        m = r * high
        if m & ((1 << width) - 1) >= threshold:
            return m >> width


def _table_draws(high: int, size: int, rng: np.random.Generator):
    """The values of ``size`` calls of ``_uniform_below(high, rng)``, 1 <= high < 2^32, as int64 arrays, one per round.

    Lemire's rule of :func:`_uniform_below` on arrays of raw words: a word
    r gives the value r·high >> 64, and it is skipped while the low 64 bits
    of r·high are below 2^64 mod high, as :func:`_uniform_below` redraws it.
    The values kept, in order, are therefore the scalar draws.  r·high is
    split at r's 32-bit halves, r = a·2^32 + b: a·high and b·high are below
    2^64, the low bits are (a·high << 32) + b·high mod 2^64 and the value is
    (a·high + (b·high >> 32)) >> 32.  Each round reads as many raw words as
    values are still missing, at most ``_RAW_ROUND``, so no round reads past
    the last value kept, and the generator ends where the scalar draws leave
    it.  The caller checks the generator (:func:`_check_raw_words`).
    """
    threshold, high = np.uint64(_WORD % high), np.uint64(high)
    while size:
        raw = rng.bit_generator.random_raw(min(size, _RAW_ROUND))
        lo = (raw & np.uint64(_LOW32)) * high  # b·high
        hi = (raw >> np.uint64(32)) * high  # a·high
        kept = (hi << np.uint64(32)) + lo >= threshold
        values = ((hi[kept] + (lo[kept] >> np.uint64(32))) >> np.uint64(32)).view(np.int64)
        size -= len(values)
        yield values


def _batch(sample, table_of, most: int, n: int, size: int, rng: np.random.Generator) -> list:
    """What ``size`` calls of ``sample(n, rng)`` return.

    Before any draw: 3 <= n <= ``most``, 0 <= size * n <=
    ``MAX_SAMPLE_LETTERS``, and ``rng`` is no MT19937.  Above the table path
    (``table_of(n)`` is None) the calls are made; on it, the draws of
    :func:`_table_draws` index the table.
    """
    _check_int(n, "n", 3, most)
    _check_int(size, "size", 0, MAX_SAMPLE_LETTERS // n)
    _check_raw_words(rng)
    table = table_of(n)
    if table is None:
        return [sample(n, rng) for _ in range(size)]
    drawn: list = []
    for values in _table_draws(len(table), size, rng):
        drawn += map(table.__getitem__, values.tolist())
    return drawn


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


def _head_count(head: int, tail: int) -> int:
    """H: the most length-``head`` strings that meet a requirement ``tail`` letters can leave.

    ``tail`` letters can hold no S, an odd number (tail >= 1) or an even
    nonzero number (tail >= 2) of them.  For head >= 1 the head counts of
    the three requirements grow in this order, so the last reachable one is H.
    """
    return _COUNTS[(_EVEN_WITH_S, _ODD, _EVEN)[min(tail, 2)]][head]


def _word_letters(n: int, rng: np.random.Generator) -> tuple[int, list[int]]:
    """Phase bit and letter string of a uniform realizable word, n >= 2."""
    head = min(n, _BLOCK)
    high = 2 * _head_count(head, n - head)
    while True:
        tail = []
        for start in range(head, n, _BLOCK):
            size = min(_BLOCK, n - start)
            tail += _base3_digits(_uniform_below(3**size, rng), size)
        specials = tail.count(2)
        requirement = _ODD if specials % 2 else _EVEN if specials else _EVEN_WITH_S
        x = _uniform_below(high, rng)
        if x >> 1 < _COUNTS[requirement][head]:
            return x & 1, _head_letters(x >> 1, head, requirement) + tail


def _word_of_draw(size: int, x: int) -> Word:
    """The realizable word of length 2·size <= 78 of head draw x: phase bit x & 1, head rank x >> 1."""
    return words.letters_to_word(x & 1, _head_letters(x >> 1, size, _EVEN_WITH_S))


def sample_uniform_word(n: int, rng: np.random.Generator) -> Word:
    """Exactly uniform over the 3^n - 2^(n+1) + 1 realizable words of length 2n, 3 <= n <= 10^6.

    ``rng`` must yield 64-bit raw words (PCG64, PCG64DXSM, Philox, SFC64);
    one backed by MT19937, whose raw words are 32-bit, is rejected with a
    ValueError before any draw.
    """
    table = _WORD_TABLES.get(n) if type(n) is int else None
    if table is None or isinstance(rng.bit_generator, _MT19937):
        _check_int(n, "n", 3, MAX_WORD_N)
        _check_raw_words(rng)
        table = _word_table(n)
        if table is None:
            return words.letters_to_word(*_word_letters(n, rng))
    return table[_uniform_below(len(table), rng)]


def _word_table(n: int) -> tuple[Word, ...] | None:
    """The table of a checked n, built on first use; None when the draw has more than ``_TABLE_SIZE`` values."""
    if n not in _WORD_TABLES:
        if n > _BLOCK or enumeration._word_count(n) > _TABLE_SIZE:
            return None
        _WORD_TABLES[n] = tuple(_word_of_draw(n, x) for x in range(enumeration._word_count(n)))
    return _WORD_TABLES[n]


def sample_uniform_words(n: int, size: int, rng: np.random.Generator) -> list[Word]:
    """The ``size`` words that ``size`` calls of :func:`sample_uniform_word` return, size * n <= 2^22.

    ``rng`` ends in the state those calls leave.  Up to n = 6 the draws
    read raw words in arrays (see :func:`_table_draws`); above, the calls are
    made one by one.  n, size and the generator are checked before any draw.
    """
    return _batch(sample_uniform_word, _word_table, MAX_WORD_N, n, size, rng)


def _mirror_word(n: int, q: int) -> Word:
    """Fixed word number q of the reflection w_i -> w_{-i mod 2n}, n even.

    The letter at position i is (w_i, w_{i+n}), and the mirror puts the
    swapped letter at n - i.  Positions 0 and n/2 hold S, and base-3 digit
    i - 1 of q >> 1 fills the mirror pair (i, n - i) for 1 <= i < n/2:
    digit d < 2 puts letters 1 - d at i and d at n - i (10 and 01, or the
    reverse), and digit 2 puts S at both.  Decoded with phase q & 1, the S
    at i and at n - i get the same balanced letter: the S strictly between
    them sit symmetrically around the one at n/2, so they are odd in
    number (see :func:`enumeration._fixed_point_counts`).
    """
    letters = [2] * n
    for i, digit in enumerate(_base3_digits(q >> 1, n // 2 - 1), 1):
        if digit < 2:
            letters[i], letters[n - i] = 1 - digit, digit
    return words.letters_to_word(q & 1, letters)


def _fixed_word(n: int, kind: int | None, q: int, rng: np.random.Generator) -> Word:
    """Word number q, 0 <= q < |Fix|, fixed by the representative of a Burnside type.

    - Reflection (``kind`` None): :func:`_mirror_word`.
    - Rotation with d = ``kind`` dividing n: the alternation word 0101...
      (q = 0) or 1010... (q = 1).
    - Rotation with d not dividing n: a realizable word of size d/2,
      repeated 2n/d times.  Up to size 39, q is its head draw, decoded
      by :func:`_word_of_draw` as in the word sampler.  Above, q would
      need a big rank, so the word is drawn afresh; those draws are
      independent of the type, so the word is still uniform on the fixed
      set.
    """
    if kind is None:
        return _mirror_word(n, q)
    if n % kind == 0:
        return (q, 1 - q) * n
    size = kind // 2
    w = _word_of_draw(size, q) if size <= _BLOCK else words.letters_to_word(*_word_letters(size, rng))
    return w * (n // size)


def _bracelet_of_draw(n: int, t: int, rng: np.random.Generator | None) -> Bracelet:
    """The bracelet of the sampler's draw t on [0, Σ mult·|Fix|) (see :func:`sample_uniform_bracelet`).

    t falls in the block of mult·|Fix| values of one Burnside type, and its
    remainder mod |Fix| is the fixed word, which is canonicalised.
    """
    for kind, mult, fixed in enumeration._fixed_point_counts(n):
        if t < mult * fixed:
            return words.canonical_bracelet(_fixed_word(n, kind, t % fixed, rng))
        t -= mult * fixed


def sample_uniform_bracelet(n: int, rng: np.random.Generator) -> Bracelet:
    """Exactly uniform over bracelet classes, by Burnside sampling, 3 <= n <= 5000.

    One uniform t on [0, Σ mult·|Fix|) over the terms of
    :func:`enumeration._fixed_point_counts` (one raw word while that is
    <= 2^64, i.e. up to n = 40) picks the group element type g with
    probability mult·|Fix(g)| / Σ, and t mod |Fix(g)|, uniform given the
    type, picks the fixed word.  Each class C is then hit with probability
    Σ_g |Fix(g) ∩ C| / Σ = |C| · (4n/|C|) / Σ = 1/#classes; grouping
    rotations by gcd and reflections by conjugacy does not change these
    sums.  The word is canonicalised once; there is no rejection loop.
    Up to n = 6, Σ <= 2^10 and t indexes the table of
    :func:`_bracelet_of_draw` over every t instead.

    ``rng`` must yield 64-bit raw words (PCG64, PCG64DXSM, Philox, SFC64);
    one backed by MT19937, whose raw words are 32-bit, is rejected with a
    ValueError before any draw.
    """
    table = _BRACELET_TABLES.get(n) if type(n) is int else None
    if table is None or isinstance(rng.bit_generator, _MT19937):
        _check_int(n, "n", 3, MAX_BRACELET_N)
        _check_raw_words(rng)
        table = _bracelet_table(n)
        if table is None:
            return _bracelet_of_draw(n, _uniform_below(enumeration._burnside_total(n), rng), rng)
    return table[_uniform_below(len(table), rng)]


def _bracelet_table(n: int) -> tuple[Bracelet, ...] | None:
    """The table of a checked n, built on first use; None when the draw has more than ``_TABLE_SIZE`` values."""
    if n not in _BRACELET_TABLES:
        total = enumeration._burnside_total(n)
        if total > _TABLE_SIZE:
            return None
        _BRACELET_TABLES[n] = tuple(_bracelet_of_draw(n, t, None) for t in range(total))
    return _BRACELET_TABLES[n]


def sample_uniform_bracelets(n: int, size: int, rng: np.random.Generator) -> list[Bracelet]:
    """The ``size`` bracelets that ``size`` calls of :func:`sample_uniform_bracelet` return, size * n <= 2^22.

    ``rng`` ends in the state those calls leave.  Up to n = 6 the draws
    read raw words in arrays (see :func:`_table_draws`); above, the calls are
    made one by one.  n, size and the generator are checked before any draw.
    """
    return _batch(sample_uniform_bracelet, _bracelet_table, MAX_BRACELET_N, n, size, rng)


@dataclass(frozen=True)
class LatticeWalk:
    """Walk with steps in {-1, 0, +1}; s are partial sums, k counts 0 steps."""

    steps: tuple[int, ...]
    s: tuple[int, ...]
    k: tuple[int, ...]


def walk_from_steps(steps: Sequence[int]) -> LatticeWalk:
    st = words._as_ints(steps, "walk steps")
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

    Only walks of at least 3 steps with an even nonzero number of 0 steps
    decode to the folded word of a realizable word; others are rejected.
    The steps are decoded and counted; ``walk.s`` and ``walk.k`` are not read.
    """
    steps = walk_from_steps(walk.steps).steps
    if len(steps) < 3:
        raise ValueError(f"walk has {len(steps)} steps; need at least 3")
    zeros = steps.count(0)
    if zeros == 0 or zeros % 2:
        raise ValueError(f"walk has {zeros} zero steps; need an even nonzero count")
    letters = [_LETTER_OF_STEP[x] for x in steps]
    return words.fold(words.letters_to_word(1 if first_zero_is_11 else 0, letters))


def binomial_parity_check(n: int) -> tuple[Fraction, Fraction]:
    """(P(even), P(odd)) for a Binomial(n, 1/3) count, by exact summation."""
    _check_int(n, "n", 1, _MAX_PARITY_N)
    even = Fraction(sum(math.comb(n, k) * 2 ** (n - k) for k in range(0, n + 1, 2)), 3**n)
    return even, 1 - even


@lru_cache(maxsize=None)
def _block_counts() -> np.ndarray:
    """(number of 2s) << _ONES_BITS | (number of 1s) among the base-3 digits of every x < 3^_COUNT_BLOCK.

    Built digit by digit: x = 3y + d has the counts of y plus those of its
    lowest digit d, so no array larger than the table is made.  Entries
    are uint32, half the bytes that a lookup of many blocks moves at int64.
    """
    table = np.zeros(1, dtype=np.uint32)
    for _ in range(_COUNT_BLOCK):
        table = np.add.outer(table, np.array([0, 1, 1 << _ONES_BITS], dtype=np.uint32)).ravel()
    table.setflags(write=False)  # cached: every caller gets this array
    return table


def _letter_counts(length: int, rows: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Counts of 2s and of 1s in each of ``rows`` uniform letter strings of the given length.

    Each string takes one draw on [0, 3^B) per block of B = ``_COUNT_BLOCK``
    letters, then one on [0, 3^r) for the r letters left over.  Each draw
    is exactly uniform, so its base-3 digits are i.i.d. uniform letters (a
    value below 3^r has only 0 digits above the r-th), and the counts have
    the law of counting ``length`` uniform letters one by one.  Both counts
    of a block are read from :func:`_block_counts` and summed packed, which
    is exact for ``length`` <= MAX_WORD_N < 2^_ONES_BITS.
    """
    table = _block_counts()
    blocks, rest = divmod(length, _COUNT_BLOCK)
    packed = np.zeros(rows, dtype=np.int64)
    if blocks:
        draws = rng.integers(0, 3**_COUNT_BLOCK, size=(rows, blocks), dtype=np.uint16)
        packed += np.take(table, draws).sum(axis=1, dtype=np.int64)
    if rest:
        packed += np.take(table, rng.integers(0, 3**rest, size=rows, dtype=np.uint16))
    return packed >> _ONES_BITS, packed & ((1 << _ONES_BITS) - 1)


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


@lru_cache(maxsize=None)
def _head_table(size: int) -> np.ndarray:
    """Packed (2s, 1s) counts of the strings of ``size`` <= ``_COUNT_BLOCK`` letters meeting each requirement, by rank.

    Row r holds, in increasing base-3 value, the :func:`_block_counts`
    entries x < 3^size whose S count meets requirement r (one mask per
    requirement): _COUNTS[r][size] of them, padded with zeros to the longest
    row, _COUNTS[_EVEN][size].
    """
    counts = _block_counts()[: 3**size]
    twos = counts >> _ONES_BITS
    even = twos % 2 == 0
    table = np.zeros((3, _COUNTS[_EVEN][size]), dtype=np.uint32)
    for requirement, mask in ((_EVEN_WITH_S, even & (twos > 0)), (_EVEN, even), (_ODD, ~even)):
        table[requirement, : _COUNTS[requirement][size]] = counts[mask]
    table.setflags(write=False)  # cached: every caller gets this array
    return table


def _clt_rows(rng: np.random.Generator, rows: int, lengths: list[int], segment: int, head: int) -> np.ndarray:
    """v = (S count, F2, S10) at every bound for the kept ones of ``rows`` rows, a (3, len(lengths) + 1, kept) array.

    A row draws the counts of its tail, ``lengths[i]`` letters in segment i,
    segment by segment with :func:`_letter_counts`.  Then one draw x on
    [0, 2H), H = :func:`_head_count` of the ``head`` letters of the head
    block in segment ``segment``, gives the phase bit x & 1 and the rank
    x >> 1 of the head among the strings meeting the requirement that the
    tail's S count leaves.  As in the word sampler, the row is rejected when
    the rank is at or above that requirement's count; a kept row reads its
    head counts from :func:`_head_table`.
    """
    counts = np.zeros((2, len(lengths) + 1, rows), dtype=np.int64)  # 2s and 1s before each bound
    for i, length in enumerate(lengths, 1):
        counts[:, i] = counts[:, i - 1] + _letter_counts(length, rows, rng)
    x = rng.integers(0, 2 * _head_count(head, sum(lengths)), size=rows)
    specials = counts[0, -1]
    requirement = np.where(specials % 2, _ODD, np.where(specials, _EVEN, _EVEN_WITH_S))
    rank = x >> 1
    kept = np.flatnonzero(rank < np.array([c[head] for c in _COUNTS])[requirement])
    packed = _head_table(head)[requirement[kept], rank[kept]]
    v = np.empty((3, len(lengths) + 1, len(kept)), dtype=np.int64)
    v[0], v[2] = counts[..., kept]
    v[0, segment + 1 :] += packed >> _ONES_BITS
    v[2, segment + 1 :] += packed & ((1 << _ONES_BITS) - 1)
    v[1] = (v[0] + (x[kept] & 1)) >> 1  # phase 1: the first balanced letter is 11
    return v


def _clt_sums(n: int, rng: np.random.Generator, size: int, bounds: list[int]):
    """Exact sums over the first ``size`` uniform realizable words kept from ``rng``.

    The head block is the first h = min(10, L) letters of the first longest
    segment between consecutive ``bounds``, of L letters; every other letter
    is tail.  Rounds of :func:`_clt_rows` draw rows until ``size`` are kept.
    Each valid (tail, phase, head) is drawn with probability
    3^-(n-h) · 1/(2H), so kept rows are uniform realizable words.  A row
    is kept with probability p, the share of the 2H · 3^(n-h) draws that are
    valid; with h = 10, p is 1 - 6.2e-4 at n = 20 and, to float precision,
    1 - 1/(2H) = 1 - 1.7e-5 from n = 110.  A round draws
    min(2^22 // n, ceil((m + 2 sqrt(m (1 - p))) / p) + 8) rows, m the trials
    still missing: about two standard deviations of the kept count above m,
    so a round below the cap keeps them all with probability above 0.977
    (binomial law, checked for h = 1..10, n - h <= 100 and m <= ``BATCH_SIZE``).
    At the prefix ``bounds[c]`` of every c, v is (S count, F2, S10); the
    result holds Σv and Σ v vᵀ as a (4, 3, len(bounds)) array of Python ints.
    """
    lengths = np.diff(bounds).tolist()
    segment = lengths.index(max(lengths))
    head = min(_COUNT_BLOCK, lengths[segment])
    lengths[segment] -= head
    # p correctly rounded, from exact integers.  A valid (tail, head) is one
    # letter string of length head + t with an even nonzero S count, read as
    # tail then head, and there are half as many of them as realizable words.
    # Above 100 tail letters p moves by less than 2^-58, a 32nd of its last bit.
    t = min(n - head, 100)
    p = enumeration._word_count(head + t) // 2 / (3**t * _head_count(head, t))
    total = np.zeros((4, 3, len(bounds)), dtype=np.int64)
    missing = size
    while missing:
        rows = min((1 << 22) // n, math.ceil((missing + 2 * math.sqrt(missing * (1 - p))) / p) + 8)
        v = _clt_rows(rng, rows, lengths, segment, head)[..., :missing]
        total[0] += v.sum(axis=2)
        total[1:] += np.einsum("ick,jck->ijc", v, v)
        missing -= v.shape[2]
    return total.astype(object)


def lln_clt_experiment(
    n: int,
    trials: int,
    c_grid: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    seed: int = 0,
) -> CltReport:
    """Sample uniform realizable words and collect LLN/CLT statistics, 3 <= n <= 10^6.

    Works on the letter-string representation directly, and only on the
    counts of 2s (S letters) and 1s that the statistics need, so n of order
    10^4 with 10^4 trials stays cheap.  Each batch draws, for every segment
    between the sorted distinct cuts (and 0 and n), its counts by
    :func:`_letter_counts`: one draw per block of 10 letters, whose counts a
    table gives.  A head block of up to 10 letters is left out of the
    longest segment and drawn last, in one draw under the parity the rest
    leaves, so a row is rejected with probability about 1/(2H) = 1.7e-5
    when the head has 10 letters and the rest 100 or more (see
    :func:`_clt_sums`).  Batches return exact integer sums, so memory does
    not grow with the trials, and the moments are exact.

    The correlation of F0 and F1 is NaN at a cut where either is constant
    over the trials, as both are at an empty prefix (a cut c·n < 1): a
    correlation is undefined there.  Deterministic given (n, trials, seed);
    trials >= 2, since the moments are sample variances.  ``c_grid`` must be
    a flat sequence of at most ``geometry.MAX_T_GRID`` reals in (0, 1], as
    a t-grid is: each value costs a segment of draws per round.  n, trials
    and the grid are checked before any draw.
    """
    _check_int(n, "n", 3, MAX_WORD_N)
    _check_int(trials, "trials", 2, MAX_TRIALS)
    grid = tuple(map(float, _check_grid(c_grid, "c-grid", "(0, 1]")))
    cuts = [math.floor(c * n) for c in grid]
    bounds = sorted({0, n, *cuts})
    sums = _run_batches(_clt_sums, n, trials, seed, 1, bounds)
    sums = sums[..., [bounds.index(m) for m in cuts] + [-1]]  # and n, for the means
    # F0, F2, S10, S01 and F1 are each a constant plus a·v, v = (S count, F2,
    # S10), for the rows a of coef; cov[j] is trials * (trials - 1) times
    # their sample covariance matrix at cut j.
    coef = np.array([(1, -1, 0), (0, 1, 0), (0, 0, 1), (-1, 0, -1), (-1, 0, 0)])
    cov, corr = [], []
    for j in range(len(grid)):
        total = coef @ sums[0, :, j]
        cov.append(trials * coef @ sums[1:, :, j] @ coef.T - np.outer(total, total))
        c04, spreads = cov[-1][0, 4], cov[-1][0, 0] * cov[-1][4, 4]
        r = math.sqrt(Fraction(c04 * c04, spreads)) if spreads else math.nan
        corr.append(math.copysign(r, c04))
    scale = Fraction(4, n * trials * (trials - 1))  # fluctuations are 2 * (count - mean) / sqrt(n)
    var = [tuple(float(scale * c[i, i]) for c in cov) for i in range(4)]
    # full-length letter counts; the S letters split evenly into 00 and 11
    specials, ones = sums[0, 0, -1], sums[0, 2, -1]
    counts = (Fraction(specials, 2), Fraction(specials, 2), ones, trials * n - specials - ones)
    return CltReport(
        n=n,
        trials=trials,
        seed=seed,
        c_grid=grid,
        letter_means={k: float(c / (trials * n)) for k, c in zip(("s00", "s11", "s10", "s01"), counts)},
        var_f0=var[0],
        var_f2=var[1],
        var_s10=var[2],
        var_s01=var[3],
        corr_f0_f1=tuple(corr),
    )
