"""Random configurations: sampling models, closed forms, Monte Carlo estimators.

Two sampling models are provided.  The circle model draws n i.i.d. uniform
points on the unit-length circle.  The exponential spacing model places
dots at partial sums of i.i.d. unit exponentials, colors them with fair
coins (the first dot black), and maps back to the circle by scaling the
half circle to the dot span; up to rotation this reproduces the circle
model, and the expected type-k length on the unit circle equals the
expected unnormalized type-k length divided by 2n.

Every random stream is a counter-based :func:`batch_rng` keyed by (seed, i),
and every estimator draws through one engine, :func:`_run_batches`: batch i of
``BATCH_SIZE`` trials and stream i go to a top-level worker function, serially
or in a process pool, and partial results are combined in batch order, so
results are bit-identical for any worker count.  Trial j is thus row
j mod ``BATCH_SIZE`` of the rows drawn from ``batch_rng(seed, j // BATCH_SIZE)``.
Both models draw rows chunk by chunk, each row reading a fixed number of raw
words in row order (n uniforms, or 2n - 1 in the exponential model), so no row
depends on the chunk size.  In the CLT experiment of :mod:`sampler`, trial j is
the (j mod ``BATCH_SIZE``)-th row that its batch keeps after rejection.

The batched geometry is exact: it runs on int64 values in units of 2^-54 of
the circle, as :mod:`geometry` runs on 2U units with U = 2^53.  A row of the
circle model is n raw words shifted right by 11 bits, k, the words that
``rng.random()`` turns into k * 2^-53, sorted and rotated so that k_0 = 0.
Point j is then 2k_j, bisector i is k_i + k_{i+1} (the wrap bisector
k_{n-1} + 2^53), and an antipodal bisector is that plus 2^53, mod 2^54.
The region of p_j is j plus the number of antipodal bisectors below p_j, its
rank among the 2n values [points, antipodal bisectors], where a point goes
before an antipodal bisector equal to it.  Each value v becomes the key
2v + 1 for an antipodal bisector and 2v for a point, one sort per row orders
the keys, and the occupancy word is the complement of their low bits.
Values are exact, so a tie is a true tie and takes this rule.

Regions come from half the circle.  A bisector is a line through the
center, so it meets the circle at a position b and at b + 1/2: the 2n region
boundaries are symmetric under x -> x + 1/2, and each bisector has exactly
one boundary in [0, 1/2), h_i = bisector i mod 2^53.  With h sorted, the
sorted boundaries are therefore h followed by h + 2^53.  Region j > 0 runs
from boundary j - 1 to boundary j and region 0 wraps through 0, so region
j + n is region j turned by 1/2: both have length L_j = h_j - h_{j-1}, and
L_0 = 2^53 + h_0 - h_{n-1}.  The type of region j is w_j + w_{j+n}, the
signature letter sig_j, and so is the type of region j + n.  Hence h2 =
2 #{j : sig_j = 2}, the type-k length is l_k = 2^-53 sum of L_j over
sig_j = k (twice the n half-circle regions, in units of 2^-54), and the
unoccupied length is le = l0 + l1 / 2, since one region of a type-1 pair is
empty.  So one sort of n values gives every length and type.  The L_j are
integers summing to 2^53, so l0, l1 and l2 = 1 - l0 - l1 are exact floats.

The exponential model enters the same kernel through k = floor(x * 2^53) of
its unit-circle positions x.  This moves each position down by less than
2^-53, onto the grid that the circle model's points lie on, so a word can
change only where a point lies within 2^-53 of a boundary.

One region kernel, :func:`_region_rows`, turns rows into words, signatures,
half-circle boundaries and lengths, each computed once per chunk.  Every
worker draws a batch through one chunk loop, :func:`_chunks`, in cache-sized
row chunks of at most ``_CHUNK_ELEMENTS`` regions, and per-row values are
gathered before summing or added in one running sum across chunks, so
chunking never changes a result.  The scalar APIs stay strict and reject
near-degenerate input.

Layout: at n <= 12 a row holds a few values, and a numpy step over row
slices starts one inner loop per row.  So the kernel's elementwise steps
run over a chunk's contiguous memory as one flat array: the bisectors, the
lengths and the non-interlacing balance as one flat add, subtract or
running sum, with the one column that crosses a row boundary fixed up
after; the antipodal keys and the exponential model's values in place;
packing as two dot products.  Only the row sorts, the row sums (einsum)
and the dots' running sums go row by row, and so do the steps that read
a row in two parts (the sort keys, signatures, spacings and colors) or
against its own first or last value (the rotation to k_0 = 0, the dot span).
"""

from __future__ import annotations

import itertools
import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import words
from .geometry import NonGenericConfiguration, PointConfig, _check_grid, ensure_generic
from .words import Bracelet, _check_int

BATCH_SIZE = 1 << 14
# Most regions (rows * 2n) the batched geometry holds at once: the 2n-wide
# int64 keys take 256 KiB and each n-wide int64 array (rows, bisectors,
# lengths) 128 KiB, so a chunk's temporaries stay in the L2 cache.  Measured
# on the flat kernel by perfbench throughput (items/ref, 2-vCPU Xeon VM with
# 2 MiB of L2 per core), mc-small-n read 267k, 285k, 306k and 246k at 2**14,
# 2**15, 2**16 and 2**17, and mc-large-n 22.3k, 23.9k, 24.2k and 24.7k
# (medians of 3 to 8 runs).  2**16 won on mc-small-n only: on mc-large-n it
# won 5 of 8 rounds, within the runs' spread, and its traced region
# statistics at n = 32..128 were 5-30% slower.
_CHUNK_ELEMENTS = 1 << 15
# The circle in the units 2**-53 of drawn rows, and half the circle in the
# batched geometry's units of 2**-54.
_HALF = 1 << 53
# Largest n whose words of 2n bits pack into one uint64.
MAX_PACKED_N = 32
# Largest n the batched geometry takes: one configuration is then a single
# chunk whose temporaries peak at about 100 MB in equidistribution_paths and
# 50 MB in estimate_region_stats (tracemalloc).  It also bounds the rows
# of n values that max_spacing_check and sample_exp_model draw, and the n of
# closed_form, whose largest caller is an estimator; phi13 is bounded as phi
# is at x = 1/3.
MAX_GEOMETRY_N = 10**6
# Largest n * (bits of x's numerator + bits of its denominator) of phi, the
# size of its exact result, checked before any arithmetic.  At the bound
# phi took 1.9 s at x = 1/3 (n = 349525), 1.4 s at 3/7, 1.0 s at 2/5, 0.39 s
# at the float 0.3 and 0.15 s at 1/10**20 (2-vCPU Xeon VM); its callers,
# criterion 8 and the tests, take n <= 10.
_MAX_PHI_BITS = 2**20
# Largest n of one scalar configuration (see :func:`sample_uniform_config`).
MAX_CONFIG_N = 10**5
# Largest n of the literal sum phi_series: it has about n^4 / 24 exact
# Fraction terms, so its time grows about as n^4.5 (about 1 s at n = 40 on a
# 2-vCPU VM).  It cross-checks phi, which criterion 8 does for n <= 8.
_MAX_SERIES_N = 40
# Largest n * (bits of x's numerator + bits of its denominator) of
# phi_series, whose terms take up to about that many bits.  On the bound it
# took 0.02, 0.14, 0.8 and 2.4 s at n = 12, 20, 30 and 40 (2-vCPU Xeon VM);
# x = 2**-2000 at n = 12 had taken 0.34 s, and each doubling of x's bits
# about three times as long.
_MAX_SERIES_BITS = 2**11
# Most trials of one call: results multiply trials as a float, which holds
# every int only up to 2**53.  An estimator needs at least two, since one
# has no sample variance, so no z.
MAX_TRIALS = 2**53


def batch_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for batch ``index``: a pure function of (seed, index), 0 <= seed < 2**64."""
    _check_int(seed, "seed", 0, 2**64 - 1)
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


# ---------------------------------------------------------------------------
# closed forms (exact rationals)


def closed_form(name: str, n: int) -> Fraction:
    """Exact value of a named statistic of n uniform points on the circle.

    h2: expected number of two-dot regions; l0/l1/l2: expected total length
    of regions by type; le: expected total length of unoccupied regions;
    pbn: probability of the bracelet of :func:`bisector_words.words.run_word`;
    phi13: value at 1/3 of the weighted binomial double sum phi.
    """
    _check_int(n, "n", 3, _phi_max_n(Fraction(1, 3)) if name == "phi13" else MAX_GEOMETRY_N)
    if name == "h2":
        return Fraction(n, 2) * (1 + Fraction(1, 3 ** (n - 2)))
    if name == "l0":
        return Fraction(3 ** (n - 1) + 2 * n - 7, 8 * 3 ** (n - 1))
    if name == "l1":
        return Fraction(3 ** (n - 1) - n - 1, 2 * 3 ** (n - 1))
    if name == "l2":
        return Fraction(3**n + 2 * n + 11, 8 * 3 ** (n - 1))
    if name == "le":
        return Fraction(3, 8) - Fraction(1, 8 * 3 ** (n - 3))
    if name == "pbn":
        return Fraction(n, 3 * 2 ** (2 * n - 6))
    if name == "phi13":
        return Fraction(1, 4) - Fraction(1, 2 ** (n - 1)) + Fraction(1, 4 * 3 ** (n - 2))
    raise ValueError(f"unknown closed form {name!r}")


# For each region statistic: an n from which float(closed_form(name, n)) is
# its limit, and that limit (see _float_target for the proof).
_FLOAT_LIMITS = {
    "h2": (37, lambda n: n / 2),
    "l0": (39, lambda n: 1 / 8),
    "l1": (39, lambda n: 1 / 2),
    "l2": (38, lambda n: 3 / 8),
    "le": (36, lambda n: 3 / 8),
}


def _float_target(name: str, n: int) -> float:
    """``float(closed_form(name, n))`` for h2, l0, l1, l2 and le, without big integers for large n.

    Each value is a float limit c plus a correction d:
    h2 = n/2 + n / (2 * 3^(n-2)), l0 = 1/8 + (2n - 7) / (8 * 3^(n-1)),
    l1 = 1/2 - (n + 1) / (2 * 3^(n-1)), l2 = 3/8 + (2n + 11) / (8 * 3^(n-1))
    and le = 3/8 - 1 / (8 * 3^(n-3)).  The float nearest to c + d is c when
    |d| is below half the gap from c to the next float on the side of d:
    2^-56 above 1/8, 2^-55 below 1/2 and on either side of 3/8, and more than
    n * 2^-55 above n/2 (the float n/2 lies in some [2^e, 2^(e+1)) with
    2^e > n/4, where floats are 2^(e-52) apart).  So it suffices that
    3^(n-2) > 2^54 (h2), 3^(n-1) > (2n - 7) * 2^53 (l0),
    3^(n-1) > (n + 1) * 2^54 (l1), 3^(n-1) > (2n + 11) * 2^52 (l2) and
    3^(n-3) > 2^52 (le).  Each holds at the bound in ``_FLOAT_LIMITS``, and
    from n to n + 1 its left side grows threefold, its right side less, so it
    holds above the bound too.  Below the bound the exact value is rounded.
    """
    bound, limit = _FLOAT_LIMITS[name]
    return limit(n) if n >= bound else float(closed_form(name, n))


def _phi_x(x) -> Fraction:
    """x exactly, once it is checked to be a real with 0 < x < 1/2: the domain of phi and phi_series."""
    if not (isinstance(x, numbers.Real) and 0 < x < Fraction(1, 2)):
        raise ValueError(f"need x to be a real with 0 < x < 1/2, got {words._shown(x)}")
    return Fraction(x) if isinstance(x, numbers.Rational) else Fraction(float(x))


def _phi_max_n(x: Fraction) -> int:
    """Largest n of phi at x: n times the bits of x's numerator and denominator is at most ``_MAX_PHI_BITS``."""
    bits = x.numerator.bit_length() + x.denominator.bit_length()
    if bits > _MAX_PHI_BITS // 3:
        raise ValueError(
            f"x is too large for phi: its numerator and denominator take {bits} bits,"
            f" and n >= 3 allows at most {_MAX_PHI_BITS // 3}"
        )
    return _MAX_PHI_BITS // bits


def phi(x, n: int) -> Fraction:
    """Closed form of the double sum :func:`phi_series` for 0 < x < 1/2."""
    x = _phi_x(x)
    _check_int(n, "n", 3, _phi_max_n(x))
    lead = (x / 2) * (1 - x ** (n - 2)) / (1 - x)
    tail = (x / 2 ** (n - 1)) * (1 - (2 * x) ** (n - 2)) / (1 - 2 * x)
    return lead - tail


def phi_series(x, n: int) -> Fraction:
    """Literal quadruple sum defining phi; exact, for cross-checking :func:`phi`.

    n is at most ``_MAX_SERIES_N``, and n times the bits of x's numerator and
    denominator at most ``_MAX_SERIES_BITS``, both checked before any term.
    """
    x = _phi_x(x)
    _check_int(n, "n", 3, _MAX_SERIES_N)
    bits = x.numerator.bit_length() + x.denominator.bit_length()
    if n * bits > _MAX_SERIES_BITS:
        raise ValueError(
            f"x is too large for phi_series at n = {n}: its numerator and denominator take {bits} bits,"
            f" and n times that may be at most {_MAX_SERIES_BITS}"
        )
    total = Fraction(0)
    for k in range(1, n - 1):
        for l in range(1, n - k):
            weight = Fraction(1, 2 ** min(1 + k + l, n - 1))
            for i in range(k):
                for j in range(l):
                    total += weight * math.comb(i + j, j) * x ** (i + j + 1)
    return total


# ---------------------------------------------------------------------------
# estimator plumbing


@dataclass(frozen=True)
class EstimatorResult:
    """A Monte Carlo mean, its standard error, and its z score against ``target``.

    z is (estimate - target) / std_error, and NaN when the estimate or the
    target is NaN.  A sample without spread (std_error 0) has z = 0 when the
    estimate equals the target and z = +inf or -inf, by the sign of
    estimate - target, otherwise; the CLI's JSON prints every non-finite z
    as ``null``.  :func:`z_between` follows the same rule.
    """

    estimate: float
    std_error: float
    trials: int
    seed: int
    target: float
    z: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def _make_result(total: float, total_sq: float, trials: int, seed: int, target) -> EstimatorResult:
    mean = total / trials
    var = max((total_sq - trials * mean * mean) / (trials - 1), 0.0)
    se = math.sqrt(var / trials)
    target = float(target)
    return EstimatorResult(
        estimate=mean, std_error=se, trials=trials, seed=seed, target=target, z=_z(mean, target, se)
    )


def _z(estimate: float, target: float, se: float) -> float:
    """The z score of ``estimate`` against ``target`` (see :class:`EstimatorResult`)."""
    diff = estimate - target
    if se != 0.0:
        return diff / se
    return diff if diff == 0.0 or math.isnan(diff) else math.copysign(math.inf, diff)


def z_between(a: EstimatorResult, b: EstimatorResult) -> float:
    return _z(a.estimate, b.estimate, math.hypot(a.std_error, b.std_error))


def _moments(values: np.ndarray) -> np.ndarray:
    """Per row of ``values``, its sum and its sum of squares, as a (rows, 2) array."""
    return np.stack([values.sum(axis=1), (values * values).sum(axis=1)], axis=1)


def _call_batch(task: tuple):
    fn, n, rng, size, args = task
    return fn(n, rng, size, *args)


def _run_batches(fn, n: int, trials: int, seed: int, workers: int, *args):
    """The sum of ``fn(n, batch_rng(seed, i), size, *args)`` over the batches i, added in batch order.

    The batch results are added left to right whatever the worker count, so
    the sum is bit-identical for any number of workers.  A pool is fed
    rounds of 4 * workers tasks, so it holds a bounded number of batches
    (each with its generator) however many trials there are.  ``fn`` is a
    top-level function, so that it pickles into worker processes, and its
    results add with ``+`` (ints or numpy arrays).
    """
    _check_int(trials, "trials", 1, MAX_TRIALS)
    _check_int(workers, "workers", 1)
    starts = range(0, trials, BATCH_SIZE)
    tasks = (
        (fn, n, batch_rng(seed, i), min(BATCH_SIZE, trials - s), args) for i, s in enumerate(starts)
    )
    workers = min(workers, os.cpu_count() or 1)
    if workers == 1 or len(starts) == 1:
        return sum(map(_call_batch, tasks))
    total, per_round = 0, 4 * workers
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for _ in range(0, len(starts), per_round):
            total = sum(pool.map(_call_batch, itertools.islice(tasks, per_round)), total)
    return total


# ---------------------------------------------------------------------------
# vectorized circle geometry on batches of configurations, in units of 2**-54
# (see the module docstring)


def _mid_rows(k: np.ndarray) -> np.ndarray:
    """Bisector i of each row, k_i + k_{i+1}; rows sorted, first entry 0."""
    flat, mid = k.ravel(), np.empty(k.size, dtype=np.int64)
    np.add(flat[:-1], flat[1:], out=mid[:-1])
    mid = mid.reshape(k.shape)
    # the last column crosses a row boundary: the wrap bisector k_{n-1} + 2**53
    np.add(k[:, -1], _HALF, out=mid[:, -1])
    return mid


def _antipodal_keys(k: np.ndarray) -> np.ndarray:
    """Per row, the key 2v + 1 of each antipodal bisector v = bisector + 2**53 mod 2**54."""
    anti = _mid_rows(k)
    np.left_shift(anti, 1, out=anti)
    anti += 2 * _HALF + 1
    anti &= 4 * _HALF - 1
    return anti


def _words_rows(k: np.ndarray, anti: np.ndarray | None = None) -> np.ndarray:
    """Occupancy words per row by the rank kernel (see the module docstring).

    ``anti`` holds the :func:`_antipodal_keys` of ``k`` if the caller has them.
    """
    if anti is None:
        anti = _antipodal_keys(k)
    n = k.shape[1]
    keys = np.empty((k.shape[0], 2 * n), dtype=np.int64)
    np.left_shift(k, 2, out=keys[:, :n])
    keys[:, n:] = anti
    keys.sort(axis=1)
    return ((keys & 1) == 0).view(np.uint8)


def _region_rows(k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Occupancy words, signatures, sorted half-circle boundaries h and lengths L per row.

    The 2n sorted boundaries are h followed by h + 2**53; regions j and
    j + n both have type sig_j and length L_j (see the module docstring).
    """
    n = k.shape[1]
    anti = _antipodal_keys(k)
    w = _words_rows(k, anti)
    # bisector mod 2**53, read back from its antipodal key in the same buffer
    h = np.right_shift(anti, 1, out=anti)
    h &= _HALF - 1
    h.sort(axis=1)
    flat, lengths = h.ravel(), np.empty(h.size, dtype=np.int64)
    np.subtract(flat[1:], flat[:-1], out=lengths[1:])
    lengths = lengths.reshape(h.shape)
    # the first column crosses a row boundary: L_0 = 2**53 + h_0 - h_{n-1}
    np.subtract(h[:, 0] + _HALF, h[:, -1], out=lengths[:, 0])
    return w, w[:, :n] + w[:, n:], h, lengths


def _region_values(k: np.ndarray) -> np.ndarray:
    """Per-row h2, l0, l1, l2 and le as a (5, rows) array."""
    _, sig, _, lengths = _region_rows(k)
    # integer sums of at most 2**53, so l0 and l1 are exact and so is 1 - l0 - l1.
    # Row sums by einsum: on rows of a few values numpy's axis-1 sum costs
    # 2.5-3.5 times as much, and both give the same int64 sums.
    l0, l1 = (np.einsum("ij,ij->i", lengths, sig == t) * 2.0**-53 for t in (0, 1))
    twos = np.einsum("ij->i", sig == 2, dtype=np.int64)
    return np.stack([2 * twos, l0, l1, 1 - l0 - l1, l0 + l1 / 2])


def _pack_words(w: np.ndarray) -> np.ndarray:
    """Rows packed as :func:`words.word_to_int` packs a word; exact up to 64 bits.

    The last 32 letters, and the letters before them, are two float64 dot
    products with powers of two, whose partial sums are integers below
    2**32, so exact.
    """
    wf, m = w.astype(np.float64), w.shape[1]
    packed = (wf[:, -32:] @ np.exp2(np.arange(min(m, 32) - 1, -1, -1))).astype(np.uint64)
    if m > 32:
        high = wf[:, :-32] @ np.exp2(np.arange(m - 33, -1, -1))
        packed |= high.astype(np.uint64) << np.uint64(32)
    return packed


def _uniform_rows(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` rows of n uniform positions in units of 2**-53, sorted, rotated to k_0 = 0.

    These are the raw words ``rng.random`` reads, so k * 2**-53 are its
    values bit for bit, and the stream advances as it would.
    """
    raw = rng.bit_generator.random_raw((size, n))
    k = np.right_shift(raw, 11, out=raw).view(np.int64)
    k.sort(axis=1)
    k -= k[:, :1].copy()
    return k


def _chunks(draw, n: int, size: int, rng: np.random.Generator, width: int):
    """``draw(n, rows, rng)`` for consecutive chunks of rows, ``size`` rows in all.

    A chunk holds at most ``_CHUNK_ELEMENTS`` values at ``width`` values per
    row, and at least one row.
    """
    step = max(1, _CHUNK_ELEMENTS // width)
    for start in range(0, size, step):
        yield draw(n, min(step, size - start), rng)


def _uniform_chunks(n: int, size: int, rng: np.random.Generator):
    return _chunks(_uniform_rows, n, size, rng, 2 * n)


def _exp_draw(n: int, size: int, rng: np.random.Generator):
    """Spacings, dots Y_0 = 0, ..., Y_n and colors (dot 0 black) of ``size`` samples.

    Each row takes 2n - 1 uniforms u, one raw word each: the first n give
    the spacings -log1p(-u), Exp(1) by inversion, and the last n - 1 the
    colors of dots 1..n-1, black (1) when u < 1/2, exactly fair because u
    is uniform on the multiples of 2^-53 in [0, 1).
    """
    u = rng.random((size, 2 * n - 1))
    np.negative(u, out=u)
    spac = np.log1p(u[:, :n])
    np.negative(spac, out=spac)
    y = np.zeros((size, n + 1))
    np.cumsum(spac, axis=1, out=y[:, 1:])
    colors = np.ones((size, n), dtype=np.int64)
    np.greater(u[:, n:], -0.5, out=colors[:, 1:])
    return spac, y, colors


def _exp_positions(y: np.ndarray, colors: np.ndarray) -> np.ndarray:
    """Unit-circle positions: the dot span 2*Y_n is the circle, white dots move by 1/2."""
    x = y[:, :-1] / (2 * y[:, -1:])
    x += 0.5 * (colors == 0)
    return x


def _exp_model_rows(n: int, size: int, rng: np.random.Generator):
    """Rows of the exponential model in units of 2**-53, sorted, and circumferences 2*Y_n.

    Each position x becomes floor(x * 2**53), mod 2**53 so that a white dot
    whose x rounds up to 1.0 lands on 0, the same point of the circle.  Dot
    0 is black at 0, the row minimum, so each sorted row already starts at 0
    and needs no rotation.
    """
    _, y, colors = _exp_draw(n, size, rng)
    x = _exp_positions(y, colors)
    x *= 2.0**53
    k = np.floor(x, out=x).astype(np.int64)
    k &= _HALF - 1
    k.sort(axis=1)
    return k, 2 * y[:, -1]


def _exp_chunks(n: int, size: int, rng: np.random.Generator):
    """The rows of :func:`_exp_model_rows`, drawn chunk by chunk from the same stream."""
    return (k for k, _ in _chunks(_exp_model_rows, n, size, rng, 2 * n))


_MODEL_CHUNKS = {"circle": _uniform_chunks, "exp": _exp_chunks}


def _count_non_interlacing(signatures: np.ndarray) -> int:
    """Rows whose 0s and 2s do not alternate cyclically, or that have neither.

    This is the alternation test of :func:`words.is_interlacing` run as a
    balance b: +1 per 2, -1 per 0.  A row interlaces iff its balance ends at
    0 and, counting the start value 0, takes exactly two values; its steps
    are at most 1, so two values is a spread of 1.  If the special letters
    alternate, the balance steps between 0 and the first one's sign and,
    their number being even, ends on 0.  Conversely, two values force each
    special letter to undo the one before it, and ending at 0 makes their
    number even, so the last differs from the first.  Integers b_j take
    values in {0, s}, for one s = +1 or -1, and not only 0, iff
    |sum b_j| = sum b_j^2 > 0: |sum b_j| <= sum |b_j| <= sum b_j^2, with
    equality iff the b_j have one sign and |b_j| <= 1.
    """
    # cast before subtracting: unsigned signatures would wrap below 0
    steps = np.subtract(signatures, 1, dtype=np.int64)
    ends = np.einsum("ij->i", steps)
    # one running balance over the flat rows, each row's first step offset
    # by the end balance of the row before, so that every row starts at 0
    steps[1:, 0] -= ends[:-1]
    flat = steps.ravel()
    balance = np.cumsum(flat, out=flat).reshape(steps.shape)
    total = np.einsum("ij->i", balance)
    squares = np.einsum("ij,ij->i", balance, balance)
    return int(((ends != 0) | (squares == 0) | (np.abs(total) != squares)).sum())


def _path_rows(k: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Per row, type k and t: fraction of the 2n regions, and their length, ending by t.

    The result has shape (rows, 2, 3, grid size): fractions first, lengths second.
    """
    (rows, n), m = k.shape, 2 * k.shape[1]
    _, sig, h, lengths = _region_rows(k)
    # Regions in the order 1, ..., 2n - 1, 0: region j ends at boundary j of
    # h followed by h + 2**53, and region j + n has region j's type and
    # length.  The region through position 0 is only contained at t = 1, so
    # it goes last; the right ends are then increasing along each row.
    turned = (np.concatenate([a[:, 1:], a, a[:, :1]], axis=1) for a in (sig, lengths, h))
    types, lengths, ends = turned
    ends[:, n - 1 :] += _HALF
    ends[:, -1] = 2 * _HALF
    # A region ends by t iff its end is at most floor(t * 2**54), so it ends
    # by every grid value from the first sorted one whose floor is >= its end
    # on, and per row, the running sum of a bincount of those first places
    # counts the regions ended by each distinct grid value.
    values, where = np.unique(grid, return_inverse=True)
    slots = values.size + 1
    first = np.searchsorted(np.floor(values * 2.0**54).astype(np.int64), ends)
    del ends  # freed before the 2n-wide running sums are built
    first += np.arange(0, rows * slots, slots)[:, None]
    ended = np.bincount(first.ravel(), minlength=rows * slots).reshape(rows, slots)
    ended = np.cumsum(ended, axis=1)[:, where]
    out = np.empty((rows, 2, 3, grid.size))
    for t in (0, 1, 2):
        mask = types == t
        # cumulative sums with a leading 0 column, indexed by the number of
        # ended regions; the lengths add up exactly, in units of 2**-54
        cnt = np.zeros((rows, m + 1), dtype=np.int64)
        np.cumsum(mask, axis=1, out=cnt[:, 1:])
        cum = np.zeros((rows, m + 1), dtype=np.int64)
        np.cumsum(lengths * mask, axis=1, out=cum[:, 1:])
        out[:, 0, t] = np.take_along_axis(cnt, ended, axis=1) / m
        out[:, 1, t] = np.take_along_axis(cum, ended, axis=1) * 2.0**-54
    return out


# ---------------------------------------------------------------------------
# batch workers of :func:`_run_batches`.  Per-row values are gathered over the
# chunks before any float sum, or added row by row into a running sum carried
# across chunks, so no result depends on the chunk size.


def _class_hits(n: int, rng: np.random.Generator, size: int, chunks, cls: np.ndarray) -> int:
    """Configurations, drawn by ``chunks``, whose packed word lies in ``cls``."""
    return sum(int(np.isin(_pack_words(_words_rows(k)), cls).sum()) for k in chunks(n, size, rng))


def _region_sums(n: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """:func:`_moments` of h2, l0, l1, l2 and le over uniform configurations."""
    chunks = _uniform_chunks(n, size, rng)
    return _moments(np.concatenate([_region_values(k) for k in chunks], axis=1))


def _exp_length_sums(n: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """:func:`_moments` of the type-k lengths over 2n and the circumference, exp model."""
    chunks = _chunks(_exp_model_rows, n, size, rng, 2 * n)
    rows = [np.vstack([_region_values(k)[1:4] * c / (2 * n), c]) for k, c in chunks]
    return _moments(np.concatenate(rows, axis=1))


def _interlacing_failures(n: int, rng: np.random.Generator, size: int) -> int:
    chunks = map(_words_rows, _uniform_chunks(n, size, rng))
    return sum(_count_non_interlacing(w[:, :n] + w[:, n:]) for w in chunks)


def _path_sums(n: int, rng: np.random.Generator, size: int, grid: np.ndarray) -> np.ndarray:
    """Sum of the :func:`_path_rows` values over uniform configurations, row by row.

    A batch of per-row grids would not fit in the cache, so the rows of each
    chunk go into one sequential running sum, in place, instead of being
    gathered; only the last row is kept, so no chunk outlives its loop step.
    A row holds 2n regions and 2 x 3 values per grid point, so the one chunk
    loop, :func:`_chunks`, sizes chunks by the larger of the two widths, and
    memory follows one chunk whatever the grid size.
    """
    acc = np.zeros((2, 3, grid.size))
    for k in _chunks(_uniform_rows, n, size, rng, max(2 * n, 6 * grid.size)):
        rows = _path_rows(k, grid)
        rows[0] += acc
        acc = np.cumsum(rows, axis=0, out=rows)[-1].copy()
        del rows  # free this chunk before the next one is built
    return acc


def _max_gap_sums(n: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """:func:`_moments` of n * (largest gap) / log n, the points scaled to [0, 1/2].

    Integer gaps times 2**-53 are exactly the differences of the floats
    ``rng.random`` would give.
    """
    chunks = _uniform_chunks(n, size, rng)
    gaps = np.concatenate([np.diff(k, axis=1).max(axis=1) for k in chunks]) * 2.0**-53
    return _moments((n * (gaps / 2) / math.log(n))[None])


# ---------------------------------------------------------------------------
# scalar sampling APIs


def sample_uniform_config(n: int, rng: np.random.Generator) -> PointConfig:
    """n i.i.d. uniform positions on the circle, resampled if degenerate, 3 <= n <= 10^5.

    A draw is degenerate when :func:`geometry.ensure_generic` rejects it:
    two critical values of the frame that every reader reads, p_0 rotated to
    0, lie within ``geometry.FLOAT_TIE_TOLERANCE`` of each other.  So every
    reader accepts the returned configuration.  The degenerate share grows
    with n: about 1 draw in 40 had such a near-tie at n = 10^5, and every
    draw did at n = 10^6, where this loop would in effect never return.
    So n is bounded by ``MAX_CONFIG_N`` before anything is drawn.
    """
    _check_int(n, "n", 3, MAX_CONFIG_N)
    while True:
        positions = tuple(sorted(float(x) for x in rng.random(n)))
        if any(a == b for a, b in zip(positions, positions[1:])):
            continue  # duplicate draw
        config = PointConfig(positions)
        try:
            ensure_generic(config)
        except NonGenericConfiguration:
            continue
        return config


@dataclass(frozen=True)
class ExpSpacingSample:
    """Dots at partial sums of unit exponentials with fair-coin colors.

    ``dots[i]`` is Y_i for 0 <= i <= n (Y_0 = 0); ``colors[i]`` is 1 for
    black, with colors[0] = 1 and colors[n] = 0 by convention.
    """

    spacings: tuple[float, ...]
    dots: tuple[float, ...]
    colors: tuple[int, ...]


def sample_exp_model(n: int, rng: np.random.Generator) -> ExpSpacingSample:
    """One sample of the exponential spacing model, 3 <= n <= 10^6."""
    _check_int(n, "n", 3, MAX_GEOMETRY_N)
    spac, y, colors = _exp_draw(n, 1, rng)
    return ExpSpacingSample(
        spacings=tuple(spac[0].tolist()), dots=tuple(y[0].tolist()), colors=(*colors[0].tolist(), 0)
    )


# ---------------------------------------------------------------------------
# estimators


def estimate_bracelet_prob(
    n: int,
    target: Bracelet,
    trials: int,
    seed: int,
    workers: int = 1,
    model: str = "circle",
) -> EstimatorResult:
    """Fraction of sampled configurations whose bracelet equals ``target``.

    ``model`` selects the circle model or the exponential spacing model
    ("exp"); the two agree in distribution.  The z score is computed against
    the known closed form when the target is the run-word bracelet, and is
    NaN otherwise.  Deterministic for fixed (seed, trials) whatever the
    worker count.  Words are packed into 64 bits, so n is at most
    ``MAX_PACKED_N``.
    """
    _check_int(n, "n", 3, MAX_PACKED_N)
    _check_int(trials, "trials", 2, MAX_TRIALS)
    if len(target.word) != 2 * n:
        raise ValueError(f"target bracelet word has {len(target.word)} letters, estimate is for n={n}")
    if model not in _MODEL_CHUNKS:
        raise ValueError(f"unknown model {model!r}; choose from {sorted(_MODEL_CHUNKS)}")
    orbit = words.bracelet_orbit(target.word)
    exact = closed_form("pbn", n) if words.word_to_int(words.run_word(n)) in orbit else math.nan
    cls = np.array(sorted(orbit), dtype=np.uint64)
    hits = _run_batches(_class_hits, n, trials, seed, workers, _MODEL_CHUNKS[model], cls)
    return _make_result(hits, hits, trials, seed, exact)


def estimate_region_stats(
    n: int, trials: int, seed: int, workers: int = 1
) -> dict[str, EstimatorResult]:
    """Monte Carlo means of h2/l0/l1/l2/le against their closed forms."""
    _check_int(n, "n", 3, MAX_GEOMETRY_N)
    _check_int(trials, "trials", 2, MAX_TRIALS)
    sums = _run_batches(_region_sums, n, trials, seed, workers).tolist()
    return {
        k: _make_result(s, sq, trials, seed, _float_target(k, n))
        for k, (s, sq) in zip(("h2", "l0", "l1", "l2", "le"), sums)
    }


def interlacing_failures(n: int, trials: int, seed: int) -> int:
    """Number of sampled configurations whose signature fails to interlace."""
    _check_int(n, "n", 3, MAX_GEOMETRY_N)
    return _run_batches(_interlacing_failures, n, trials, seed, 1)


@dataclass(frozen=True)
class TransferComparison:
    k: int
    exp_model: EstimatorResult
    circle_model: EstimatorResult
    z_between: float


@dataclass(frozen=True)
class TransferReport:
    n: int
    trials: int
    seed: int
    comparisons: tuple[TransferComparison, ...]
    total_length_mean: float
    total_length_se: float
    total_length_target: float


def transfer_check(n: int, trials: int, seed: int) -> TransferReport:
    """Compare expected type-k lengths across the two models and the closed form.

    The exponential-model estimator averages (unnormalized type-k length)/(2n),
    which the transfer identity equates with the unit-circle expectation.
    Internally uses seeds seed+1 (circle) and seed+2 (exponential), so seed
    is at most 2**64 - 3; n and trials are checked by
    :func:`estimate_region_stats` before any draw.
    """
    _check_int(seed, "seed", 0, 2**64 - 3)
    circle = estimate_region_stats(n, trials, seed + 1)
    *typed, (total, total_sq) = _run_batches(_exp_length_sums, n, trials, seed + 2, 1).tolist()
    comparisons = []
    for k, (s, sq) in enumerate(typed):
        exp_res = _make_result(s, sq, trials, seed + 2, _float_target(f"l{k}", n))
        circ_res = circle[f"l{k}"]
        comparisons.append(
            TransferComparison(
                k=k, exp_model=exp_res, circle_model=circ_res, z_between=z_between(exp_res, circ_res)
            )
        )
    total = _make_result(total, total_sq, trials, seed + 2, 2 * n)
    return TransferReport(
        n=n,
        trials=trials,
        seed=seed,
        comparisons=tuple(comparisons),
        total_length_mean=total.estimate,
        total_length_se=total.std_error,
        total_length_target=2 * n,
    )


@dataclass(frozen=True)
class PathReport:
    """Averaged partial region statistics on a t-grid.

    ``region_fraction[k][j]`` is the mean fraction of the 2n regions that
    have type k and lie entirely in [0, t_j]; ``length_fraction[k][j]`` the
    mean total length of those regions.  The large-n limits are
    (t/4, t/2, t/4) and (t/8, t/2, 3t/8) respectively.
    """

    n: int
    trials: int
    seed: int
    t_grid: tuple[float, ...]
    region_fraction: tuple[tuple[float, ...], ...]
    length_fraction: tuple[tuple[float, ...], ...]


def equidistribution_paths(
    n: int, t_grid: Sequence[float], trials: int, seed: int
) -> PathReport:
    """Type-k region counts and lengths inside [0, t], 0 <= t <= 1, averaged over trials.

    Trial j is row j mod ``BATCH_SIZE`` of batch j // ``BATCH_SIZE``, as in
    every estimator here (see the module docstring); each batch is summed
    row by row and the batch sums are added in batch order.
    """
    _check_int(n, "n", 3, MAX_GEOMETRY_N)
    grid = np.asarray(_check_grid(t_grid, "t-grid", "[0, 1]"), dtype=np.float64)
    h_acc, l_acc = _run_batches(_path_sums, n, trials, seed, 1, grid) / trials
    return PathReport(
        n=n,
        trials=trials,
        seed=seed,
        t_grid=tuple(float(t) for t in grid),
        region_fraction=tuple(tuple(float(x) for x in row) for row in h_acc),
        length_fraction=tuple(tuple(float(x) for x in row) for row in l_acc),
    )


def max_spacing_check(n: int, trials: int, seed: int) -> EstimatorResult:
    """Mean of n * (largest gap) / log n for n uniform points on [0, 1/2], 2 <= n <= 10^6.

    The target is exact.  Rows are rotated by their minimum, so the gaps are
    m = n - 1 of the n + 1 exchangeable spacings of n uniform points on
    [0, 1], any j of which all exceed x with probability (1 - jx)_+^n.  By
    inclusion-exclusion, E[max of the m] = ∫ Σ_{j=1}^{m} (-1)^(j+1) C(m, j)
    (1 - jx)_+^n dx = Σ_j (-1)^(j+1) C(m, j) / (j (n + 1)) = H_m / (n + 1).
    Halved to [0, 1/2], the target is n H_{n-1} / (2 (n + 1) log n), which
    tends to 1/2 slowly.  Trial j is row j mod ``BATCH_SIZE`` of batch
    j // ``BATCH_SIZE``, as in every estimator here (see the module docstring).
    """
    _check_int(n, "n", 2, MAX_GEOMETRY_N)
    _check_int(trials, "trials", 2, MAX_TRIALS)
    total, total_sq = _run_batches(_max_gap_sums, n, trials, seed, 1)[0].tolist()
    harmonic = math.fsum(1 / k for k in range(1, n))
    return _make_result(total, total_sq, trials, seed, n * harmonic / (2 * (n + 1) * math.log(n)))
