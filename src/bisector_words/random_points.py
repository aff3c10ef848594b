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

The batched geometry is a rank kernel, O(n log n) per configuration.  Rows
are sorted and rotated so that p_0 = +0.0; bisector i then lies between p_i
and p_{i+1}, so the region of p_j is j plus the number of antipodal
bisectors below p_j, its rank among the 2n values [p, antipodal bisectors]
when a point comes before an antipodal bisector equal to it.  The occupancy
word is therefore the indicator of points in that order.  All 2n values are
non-negative and below 2, where the bit patterns of float64 values are
ordered like the values and stay below 2**62; so each value becomes the
uint64 key (bits << 1) with low bit 1 for an antipodal bisector, one
in-place sort per row orders the keys with points first on ties, and the
word is the complement of the sorted keys' low bits.  One region kernel,
:func:`_region_rows`, turns rows into words, types, sorted boundaries
(bisectors and their antipodes) and region lengths, each computed once per
chunk.  Every worker draws a batch through one chunk loop, :func:`_chunks`,
in cache-sized row chunks of at most ``_CHUNK_ELEMENTS`` values, and per-row
values are gathered before summing or added in one running sum across
chunks, so chunking never changes a result.

The batched kernel assumes genericity instead of checking it: no point ties
with a bisector or its antipode, and no two points coincide.  Sampled
configurations are generic with probability one; the scalar APIs stay
strict and reject near-degenerate input.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import words
from .geometry import NonGenericConfiguration, PointConfig, _check_t_grid, ensure_generic
from .words import Bracelet, _check_n

BATCH_SIZE = 1 << 14
# Most regions (rows * 2n) the batched geometry holds at once: 256 KiB per
# float64 array, so a chunk's temporaries stay in the L2 cache.  Chosen by
# measurement over 2**15..2**17; the larger sizes were slower at n <= 12.
_CHUNK_ELEMENTS = 1 << 15
# Largest n whose words of 2n bits pack into one uint64.
MAX_PACKED_N = 32
# Largest n the batched geometry takes: one configuration is then a single
# chunk whose 2n-wide temporaries hold about 100 MB.  It also bounds the rows
# of n floats that max_spacing_check and sample_exp_model draw, and the n of
# closed_form and phi, whose largest caller is an estimator.
MAX_GEOMETRY_N = 10**6
# Largest n of one scalar configuration (see :func:`sample_uniform_config`).
MAX_CONFIG_N = 10**5
# Largest n of the literal sum phi_series: it has about n^4 / 24 exact
# Fraction terms, so its time grows about as n^4.5 (about 1 s at n = 40 on a
# 2-vCPU VM).  It cross-checks phi, which criterion 8 does for n <= 8.
_MAX_SERIES_N = 40


def _check_seed(seed: int) -> None:
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"need 0 <= seed < 2**64, got {seed}")


def batch_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for batch ``index``: a pure function of (seed, index), 0 <= seed < 2**64."""
    _check_seed(seed)
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
    _check_n(n, MAX_GEOMETRY_N)
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


def phi(x, n: int) -> Fraction:
    """Closed form of the double sum :func:`phi_series` for 0 < x < 1/2."""
    x = Fraction(x)
    if not 0 < x < Fraction(1, 2):
        raise ValueError(f"need 0 < x < 1/2, got {x}")
    _check_n(n, MAX_GEOMETRY_N)
    lead = (x / 2) * (1 - x ** (n - 2)) / (1 - x)
    tail = (x / 2 ** (n - 1)) * (1 - (2 * x) ** (n - 2)) / (1 - 2 * x)
    return lead - tail


def phi_series(x, n: int) -> Fraction:
    """Literal quadruple sum defining phi; exact, for cross-checking :func:`phi`."""
    x = Fraction(x)
    if not 0 < x < Fraction(1, 2):
        raise ValueError(f"need 0 < x < 1/2, got {x}")
    _check_n(n, _MAX_SERIES_N)
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
    var = 0.0
    if trials > 1:
        var = max((total_sq - trials * mean * mean) / (trials - 1), 0.0)
    se = math.sqrt(var / trials)
    target = float(target)
    if se == 0.0:
        z = 0.0 if mean == target else math.inf
    else:
        z = (mean - target) / se
    return EstimatorResult(
        estimate=mean, std_error=se, trials=trials, seed=seed, target=target, z=z
    )


def z_between(a: EstimatorResult, b: EstimatorResult) -> float:
    se = math.hypot(a.std_error, b.std_error)
    if se == 0.0:
        return 0.0 if a.estimate == b.estimate else math.inf
    return (a.estimate - b.estimate) / se


def _moments(values: np.ndarray) -> np.ndarray:
    """Per row of ``values``, its sum and its sum of squares, as a (rows, 2) array."""
    return np.stack([values.sum(axis=1), (values * values).sum(axis=1)], axis=1)


def _call_batch(task: tuple):
    fn, n, rng, size, args = task
    return fn(n, rng, size, *args)


def _run_batches(fn, n: int, trials: int, seed: int, workers: int, *args) -> list:
    """``fn(n, batch_rng(seed, i), size, *args)`` for each batch i, in batch order.

    ``fn`` is a top-level function, so that it pickles into worker processes.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    starts = range(0, trials, BATCH_SIZE)
    tasks = (
        (fn, n, batch_rng(seed, i), min(BATCH_SIZE, trials - s), args) for i, s in enumerate(starts)
    )
    workers = min(workers, os.cpu_count() or 1)
    if workers == 1 or len(starts) == 1:
        return list(map(_call_batch, tasks))
    chunk = max(1, len(starts) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_call_batch, tasks, chunksize=chunk))


# ---------------------------------------------------------------------------
# vectorized circle geometry on batches of configurations


def _bisectors_rows(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bisectors (increasing) and their antipodes per row; rows sorted, first entry 0."""
    mid = np.empty_like(p)
    np.add(p[:, :-1], p[:, 1:], out=mid[:, :-1])
    np.add(p[:, -1], 1, out=mid[:, -1])
    mid /= 2
    anti = mid + 0.5
    anti -= anti >= 1
    return mid, anti


def _words_rows(p: np.ndarray, anti: np.ndarray | None = None) -> np.ndarray:
    """Occupancy words per row by the rank kernel (see the module docstring).

    ``anti`` holds the antipodal bisectors of ``p`` if the caller has them.
    """
    if anti is None:
        anti = _bisectors_rows(p)[1]
    n = p.shape[1]
    keys = np.empty((p.shape[0], 2 * n), dtype=np.uint64)
    np.left_shift(p.view(np.uint64), 1, out=keys[:, :n])
    np.bitwise_or(anti.view(np.uint64) << 1, 1, out=keys[:, n:])
    keys.sort(axis=1)
    return ((keys & 1) == 0).view(np.uint8)


def _region_rows(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Occupancy words, region types, sorted region boundaries and region lengths per row.

    Region j > 0 runs from boundary j - 1 to boundary j, and region 0 is the
    arc that wraps through position 0.
    """
    mid, anti = _bisectors_rows(p)
    bnd = np.concatenate([mid, anti], axis=1)
    bnd.sort(axis=1)
    w = _words_rows(p, anti)
    # freed before the types and lengths are built, so that a chunk holds
    # fewer arrays at once (mc-small-n read ~3% slower with them held)
    del mid, anti
    types = w + np.roll(w, -p.shape[1], axis=1)
    lengths = np.empty_like(bnd)
    lengths[:, 1:] = np.diff(bnd, axis=1)
    lengths[:, 0] = 1 - bnd[:, -1] + bnd[:, 0]
    return w, types, bnd, lengths


def _region_values(p: np.ndarray) -> np.ndarray:
    """Per-row h2, l0, l1, l2 and le as a (5, rows) array."""
    w, types, _, lengths = _region_rows(p)
    return np.stack(
        [
            (types == 2).sum(axis=1),
            *((lengths * (types == k)).sum(axis=1) for k in (0, 1, 2)),
            (lengths * (w == 0)).sum(axis=1),
        ]
    )


def _pack_words(w: np.ndarray) -> np.ndarray:
    """Rows packed as :func:`words.word_to_int` packs a word; exact up to 64 bits."""
    weights = np.left_shift(np.uint64(1), np.arange(w.shape[1] - 1, -1, -1, dtype=np.uint64))
    return w.astype(np.uint64) @ weights


def _uniform_rows(n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    p = rng.random((size, n))
    p.sort(axis=1)
    p -= p[:, :1].copy()
    return p


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
    spac = -np.log1p(-u[:, :n])
    y = np.zeros((size, n + 1))
    np.cumsum(spac, axis=1, out=y[:, 1:])
    colors = np.ones((size, n), dtype=np.int64)
    colors[:, 1:] = u[:, n:] < 0.5
    return spac, y, colors


def _exp_positions(y: np.ndarray, colors: np.ndarray) -> np.ndarray:
    """Unit-circle positions: the dot span 2*Y_n is the circle, white dots move by 1/2."""
    x = y[:, :-1] / (2 * y[:, -1:])
    return np.where(colors == 1, x, x + 0.5)


def _exp_model_rows(n: int, size: int, rng: np.random.Generator):
    """Unit-circle positions, sorted, and circumferences 2*Y_n from the exponential model.

    Dot 0 is black at +0.0, the row minimum, so each sorted row already
    starts at 0 and needs no rotation.
    """
    _, y, colors = _exp_draw(n, size, rng)
    return np.sort(_exp_positions(y, colors), axis=1), 2 * y[:, -1]


def _exp_chunks(n: int, size: int, rng: np.random.Generator):
    """The positions of :func:`_exp_model_rows`, drawn chunk by chunk from the same stream."""
    return (pos for pos, _ in _chunks(_exp_model_rows, n, size, rng, 2 * n))


_MODEL_CHUNKS = {"circle": _uniform_chunks, "exp": _exp_chunks}


def _count_non_interlacing(signatures: np.ndarray) -> int:
    """Rows whose 0s and 2s do not alternate cyclically, or that have neither.

    This is the alternation test of :func:`words.is_interlacing` run as a
    balance: +1 per 2, -1 per 0.  A row interlaces iff its balance ends at 0
    and, counting the start value 0, takes exactly two values; its steps
    are at most 1, so two values is a spread of 1.  If the special letters
    alternate, the balance steps between 0 and the first one's sign and,
    their number being even, ends on 0.  Conversely, two values force each
    special letter to undo the one before it, and ending at 0 makes their
    number even, so the last differs from the first.
    """
    # cast before subtracting: unsigned signatures would wrap below 0
    balance = np.cumsum(signatures, axis=1, dtype=np.int32)
    balance -= np.arange(1, signatures.shape[1] + 1, dtype=np.int32)
    spread = np.maximum(balance.max(axis=1), 0) - np.minimum(balance.min(axis=1), 0)
    return int(((balance[:, -1] != 0) | (spread != 1)).sum())


def _path_rows(p: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Per row, type k and t: fraction of the 2n regions, and their length, ending by t.

    The result has shape (rows, 2, 3, grid size): fractions first, lengths second.
    """
    rows, m = p.shape[0], 2 * p.shape[1]
    _, types, ends, lengths = _region_rows(p)
    # The region through position 0 is only contained at t = 1, so it goes
    # last; the right ends are then increasing along each row.
    types, ends, lengths = (np.roll(a, -1, axis=1) for a in (types, ends, lengths))
    ends[:, -1] = 1.0
    # A region ends by every grid value from the first sorted one >= its end
    # on, so per row, the running sum of a bincount of those first places
    # counts the regions ended by each distinct grid value.
    values, where = np.unique(grid, return_inverse=True)
    slots = values.size + 1
    first = np.searchsorted(values, ends)
    first += np.arange(0, rows * slots, slots)[:, None]
    ended = np.bincount(first.ravel(), minlength=rows * slots).reshape(rows, slots)
    ended = np.cumsum(ended, axis=1)[:, where]
    out = np.empty((rows, 2, 3, grid.size))
    for k in (0, 1, 2):
        mask = types == k
        # cumulative sums with a leading 0 column, indexed by the number of ended regions
        cnt = np.zeros((rows, m + 1), dtype=np.int64)
        np.cumsum(mask, axis=1, out=cnt[:, 1:])
        cum = np.zeros((rows, m + 1))
        np.cumsum(lengths * mask, axis=1, out=cum[:, 1:])
        out[:, 0, k] = np.take_along_axis(cnt, ended, axis=1) / m
        out[:, 1, k] = np.take_along_axis(cum, ended, axis=1)
    return out


# ---------------------------------------------------------------------------
# batch workers of :func:`_run_batches`.  Per-row values are gathered over the
# chunks before any float sum, or added row by row into a running sum carried
# across chunks, so no result depends on the chunk size.


def _class_hits(n: int, rng: np.random.Generator, size: int, chunks, cls: np.ndarray) -> int:
    """Configurations, drawn by ``chunks``, whose packed word lies in ``cls``."""
    return sum(int(np.isin(_pack_words(_words_rows(p)), cls).sum()) for p in chunks(n, size, rng))


def _region_sums(n: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """:func:`_moments` of h2, l0, l1, l2 and le over uniform configurations."""
    chunks = _uniform_chunks(n, size, rng)
    return _moments(np.concatenate([_region_values(p) for p in chunks], axis=1))


def _exp_length_sums(n: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """:func:`_moments` of the type-k lengths over 2n and the circumference, exp model."""
    chunks = _chunks(_exp_model_rows, n, size, rng, 2 * n)
    rows = [np.vstack([_region_values(p)[1:4] * c / (2 * n), c]) for p, c in chunks]
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
    for p in _chunks(_uniform_rows, n, size, rng, max(2 * n, 6 * grid.size)):
        rows = _path_rows(p, grid)
        rows[0] += acc
        acc = np.cumsum(rows, axis=0, out=rows)[-1].copy()
        del rows  # free this chunk before the next one is built
    return acc


def _max_gap_sums(n: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """:func:`_moments` of n * (largest gap) / log n, the points scaled to [0, 1/2]."""
    gaps = np.concatenate([np.diff(p, axis=1).max(axis=1) for p in _uniform_chunks(n, size, rng)])
    return _moments((n * (gaps / 2) / math.log(n))[None])


# ---------------------------------------------------------------------------
# scalar sampling APIs


def sample_uniform_config(n: int, rng: np.random.Generator) -> PointConfig:
    """n i.i.d. uniform positions on the circle, resampled if degenerate, 3 <= n <= 10^5.

    A draw is degenerate when two critical values lie within
    ``geometry.FLOAT_TIE_TOLERANCE`` of each other, and that share grows
    with n: about 1 draw in 40 had such a near-tie at n = 10^5, and every
    draw did at n = 10^6, where this loop would in effect never return.
    So n is bounded by ``MAX_CONFIG_N`` before anything is drawn.
    """
    _check_n(n, MAX_CONFIG_N)
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
    _check_n(n, MAX_GEOMETRY_N)
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
    _check_n(n, MAX_PACKED_N)
    if target.n != n:
        raise ValueError(f"target bracelet has n={target.n}, estimate is for n={n}")
    if model not in _MODEL_CHUNKS:
        raise ValueError(f"unknown model {model!r}; choose from {sorted(_MODEL_CHUNKS)}")
    orbit = words.bracelet_orbit(target.word)
    exact = closed_form("pbn", n) if words.word_to_int(words.run_word(n)) in orbit else math.nan
    cls = np.array(sorted(orbit), dtype=np.uint64)
    hits = sum(_run_batches(_class_hits, n, trials, seed, workers, _MODEL_CHUNKS[model], cls))
    return _make_result(hits, hits, trials, seed, exact)


def estimate_region_stats(
    n: int, trials: int, seed: int, workers: int = 1
) -> dict[str, EstimatorResult]:
    """Monte Carlo means of h2/l0/l1/l2/le against their closed forms."""
    _check_n(n, MAX_GEOMETRY_N)
    sums = sum(_run_batches(_region_sums, n, trials, seed, workers)).tolist()
    return {
        k: _make_result(s, sq, trials, seed, closed_form(k, n))
        for k, (s, sq) in zip(("h2", "l0", "l1", "l2", "le"), sums)
    }


def interlacing_failures(n: int, trials: int, seed: int) -> int:
    """Number of sampled configurations whose signature fails to interlace."""
    _check_n(n, MAX_GEOMETRY_N)
    return sum(_run_batches(_interlacing_failures, n, trials, seed, 1))


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
    Internally uses seeds seed+1 (circle) and seed+2 (exponential).
    """
    _check_n(n, MAX_GEOMETRY_N)
    _check_seed(seed)
    _check_seed(seed + 2)
    circle = estimate_region_stats(n, trials, seed + 1)
    sums = sum(_run_batches(_exp_length_sums, n, trials, seed + 2, 1))
    *typed, (total, total_sq) = sums.tolist()
    comparisons = []
    for k, (s, sq) in enumerate(typed):
        exp_res = _make_result(s, sq, trials, seed + 2, closed_form(f"l{k}", n))
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
    _check_n(n, MAX_GEOMETRY_N)
    grid = np.asarray(t_grid, dtype=np.float64)
    _check_t_grid(grid)
    h_acc, l_acc = sum(_run_batches(_path_sums, n, trials, seed, 1, grid)) / trials
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
    _check_n(n, MAX_GEOMETRY_N, least=2)
    total, total_sq = sum(_run_batches(_max_gap_sums, n, trials, seed, 1))[0].tolist()
    harmonic = math.fsum(1 / k for k in range(1, n))
    return _make_result(total, total_sq, trials, seed, n * harmonic / (2 * (n + 1) * math.log(n)))
