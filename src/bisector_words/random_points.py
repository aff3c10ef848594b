"""Random configurations: sampling models, closed forms, Monte Carlo estimators.

Two sampling models are provided.  The circle model draws n i.i.d. uniform
points on the unit-length circle.  The exponential spacing model places
dots at partial sums of i.i.d. unit exponentials, colors them with fair
coins (the first dot black), and maps back to the circle by scaling the
half circle to the dot span; up to rotation this reproduces the circle
model, and the expected type-k length on the unit circle equals the
expected unnormalized type-k length divided by 2n.

Every estimator consumes trials in fixed-size batches; batch i draws from a
counter-based generator keyed by (seed, i) and partial sums are combined in
batch order, so results are bit-identical for any worker count.

The batched geometry is a rank kernel, O(n log n) per configuration.  Rows
are sorted and rotated so that p_0 = 0; bisector i then lies between p_i
and p_{i+1}, so the region of p_j is j plus the number of antipodal
bisectors below p_j, which is the rank of p_j in one per-row stable argsort
of the 2n values [p, antipodal bisectors].  The occupancy word is therefore
the indicator of points in that sorted order.  Region lengths come from the
sorted boundaries (bisectors and their antipodes).  A batch is processed in
row chunks of at most ``_CHUNK_ELEMENTS`` regions, and per-row values are
gathered before summing, so chunking never changes a result.

The batched kernel assumes genericity instead of checking it: no point ties
with a bisector or its antipode, and no two points coincide.  Sampled
configurations are generic with probability one; the scalar APIs stay
strict and reject near-degenerate input.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import words
from .geometry import NonGenericConfiguration, PointConfig, ensure_generic
from .words import Bracelet

BATCH_SIZE = 1 << 14
# Most regions (rows * 2n) the batched geometry holds at once; a full batch
# at n <= 128 is a single chunk.
_CHUNK_ELEMENTS = 1 << 22
_MASK64 = (1 << 64) - 1
# Largest n whose words of 2n bits pack into one uint64.
MAX_PACKED_N = 32


def batch_rng(seed: int, index: int) -> np.random.Generator:
    """Generator for batch ``index``: a pure function of (seed, index)."""
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_size(n: int, trials: int = 1, least: int = 3) -> None:
    """Reject n < ``least`` or trials < 1, before anything is drawn."""
    if n < least:
        raise ValueError(f"need n >= {least}, got {n}")
    if trials < 1:
        raise ValueError("need at least one trial")


# ---------------------------------------------------------------------------
# closed forms (exact rationals)


def closed_form(name: str, n: int) -> Fraction:
    """Exact value of a named statistic of n uniform points on the circle.

    h2: expected number of two-dot regions; l0/l1/l2: expected total length
    of regions by type; le: expected total length of unoccupied regions;
    pbn: probability of the bracelet of :func:`bisector_words.words.run_word`;
    phi13: value at 1/3 of the weighted binomial double sum phi.
    """
    _check_size(n)
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
    _check_size(n)
    lead = (x / 2) * (1 - x ** (n - 2)) / (1 - x)
    tail = (x / 2 ** (n - 1)) * (1 - (2 * x) ** (n - 2)) / (1 - 2 * x)
    return lead - tail


def phi_series(x, n: int) -> Fraction:
    """Literal quadruple sum defining phi; exact, for cross-checking :func:`phi`."""
    x = Fraction(x)
    if not 0 < x < Fraction(1, 2):
        raise ValueError(f"need 0 < x < 1/2, got {x}")
    total = Fraction(0)
    for k in range(1, n - 1):
        for l in range(1, n - k):
            weight = Fraction(1, 2 ** min(1 + k + l, n - 1))
            for i in range(k):
                for j in range(l):
                    total += weight * math.comb(i + j, j) * x ** (i + j + 1)
    return total


def exp_below_erlangs_prob(k: int, l: int) -> Fraction:
    """P(X < U and X < V) for X ~ Exp(1), U ~ Erlang(k,1), V ~ Erlang(l,1), exact."""
    if k < 1 or l < 1:
        raise ValueError("need k, l >= 1")
    return sum(
        Fraction(math.comb(i + j, j), 3 ** (i + j + 1))
        for i in range(k)
        for j in range(l)
    )


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
        return {
            "estimate": self.estimate,
            "std_error": self.std_error,
            "trials": self.trials,
            "seed": self.seed,
            "target": self.target,
            "z": self.z,
        }


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


def _batch_plan(trials: int) -> list[tuple[int, int]]:
    if trials < 1:
        raise ValueError("need at least one trial")
    return [
        (i, min(BATCH_SIZE, trials - i * BATCH_SIZE))
        for i in range((trials + BATCH_SIZE - 1) // BATCH_SIZE)
    ]


def _map_tasks(tasks: list, workers: int) -> list:
    if workers < 1:
        raise ValueError(f"need workers >= 1, got {workers}")
    workers = min(workers, os.cpu_count() or 1)
    if workers == 1 or len(tasks) == 1:
        return [_run_batch(t) for t in tasks]
    chunk = max(1, len(tasks) // (4 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_batch, tasks, chunksize=chunk))


# ---------------------------------------------------------------------------
# vectorized circle geometry on batches of configurations


def _rotate_rows(p: np.ndarray) -> np.ndarray:
    """Rotate each row, in place, so that its first entry is 0."""
    p -= p[:, :1].copy()
    return p


def _chunk_rows(n: int) -> int:
    return max(1, _CHUNK_ELEMENTS // (2 * n))


def _split_rows(p: np.ndarray) -> list[np.ndarray]:
    step = _chunk_rows(p.shape[1])
    return [p[i : i + step] for i in range(0, p.shape[0], step)]


def _bisectors_rows(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bisectors (increasing) and their antipodes per row; rows sorted, first entry 0."""
    mid = np.empty_like(p)
    mid[:, :-1] = (p[:, :-1] + p[:, 1:]) / 2
    mid[:, -1] = (1 + p[:, -1]) / 2
    anti = mid + 0.5
    anti[anti >= 1] -= 1
    return mid, anti


def _boundaries_rows(p: np.ndarray) -> np.ndarray:
    """Sorted region boundaries per row; rows must be sorted with first entry 0."""
    return np.sort(np.concatenate(_bisectors_rows(p), axis=1), axis=1)


def _words_rows(p: np.ndarray) -> np.ndarray:
    """Occupancy words per row by the rank kernel (see the module docstring)."""
    _, anti = _bisectors_rows(p)
    order = np.argsort(np.concatenate([p, anti], axis=1), axis=1, kind="stable")
    return (order < p.shape[1]).view(np.uint8)


def _lengths_rows(bnd: np.ndarray) -> np.ndarray:
    """Region lengths; region 0 is the arc that wraps through position 0."""
    lengths = np.empty_like(bnd)
    lengths[:, 1:] = np.diff(bnd, axis=1)
    lengths[:, 0] = 1 - bnd[:, -1] + bnd[:, 0]
    return lengths


def _region_rows(p: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Occupancy words, region types and region lengths for each row."""
    w = _words_rows(p)
    types = w + np.roll(w, -p.shape[1], axis=1)
    return w, types, _lengths_rows(_boundaries_rows(p))


def _region_values(p: np.ndarray) -> np.ndarray:
    """Per-row h2, l0, l1, l2 and le as a (5, rows) array."""
    w, types, lengths = _region_rows(p)
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
    return _rotate_rows(p)


def _uniform_chunks(n: int, size: int, rng: np.random.Generator):
    """The rows of :func:`_uniform_rows`, drawn chunk by chunk from the same stream."""
    step = _chunk_rows(n)
    for start in range(0, size, step):
        yield _uniform_rows(n, min(step, size - start), rng)


def _trial_chunks(n: int, trials: int, seed: int):
    """Sorted rows of n uniforms, row i drawn from ``batch_rng(seed, i)``, chunk by chunk."""
    step = _chunk_rows(n)
    for start in range(0, trials, step):
        block = range(start, min(trials, start + step))
        yield np.stack([np.sort(batch_rng(seed, i).random(n)) for i in block])


def _exp_draw(n: int, size: int, rng: np.random.Generator):
    """Spacings, dots Y_0 = 0, ..., Y_n and colors (dot 0 black) of ``size`` samples.

    All spacings are drawn first, then n - 1 colors per row.
    """
    spac = rng.standard_exponential((size, n))
    y = np.zeros((size, n + 1))
    np.cumsum(spac, axis=1, out=y[:, 1:])
    colors = np.ones((size, n), dtype=np.int64)
    colors[:, 1:] = rng.integers(0, 2, (size, n - 1))
    return spac, y, colors


def _exp_positions(y: np.ndarray, colors: np.ndarray) -> np.ndarray:
    """Unit-circle positions: the dot span 2*Y_n is the circle, white dots move by 1/2."""
    x = y[:, :-1] / (2 * y[:, -1:])
    return np.where(colors == 1, x, x + 0.5)


def _exp_model_rows(n: int, size: int, rng: np.random.Generator):
    """Unit-circle positions and circumferences 2*Y_n from the exponential model."""
    _, y, colors = _exp_draw(n, size, rng)
    return _rotate_rows(np.sort(_exp_positions(y, colors), axis=1)), 2 * y[:, -1]


def _count_non_interlacing(signatures: np.ndarray) -> int:
    """Rows whose 0s and 2s do not alternate cyclically, or that have neither."""
    n = signatures.shape[1]
    doubled = np.concatenate([signatures, signatures], axis=1)
    special = doubled != 1
    # index of the latest 0 or 2 at or before each position, -1 if none yet
    last = np.maximum.accumulate(np.where(special, np.arange(2 * n), -1), axis=1)
    # in the second copy, every special letter has its cyclic predecessor behind it
    prev = np.take_along_axis(doubled, np.maximum(last[:, n - 1 : -1], 0), axis=1)
    repeats = (special[:, n:] & (prev == doubled[:, n:])).any(axis=1)
    return int((repeats | ~special[:, :n].any(axis=1)).sum())


# ---------------------------------------------------------------------------
# batch workers (top level so they cross process boundaries)


def _run_batch(task: tuple):
    kind, n, seed, index, size, extra = task
    rng = batch_rng(seed, index)
    # Per-row values are gathered over the chunks before any float sum, so
    # the result does not depend on the chunk size.
    if kind in ("bracelet_hits", "bracelet_hits_exp"):
        if kind == "bracelet_hits":
            chunks = _uniform_chunks(n, size, rng)
        else:
            chunks = _split_rows(_exp_model_rows(n, size, rng)[0])
        cls = np.asarray(extra, dtype=np.uint64)
        return sum(int(np.isin(_pack_words(_words_rows(p)), cls).sum()) for p in chunks)
    if kind == "region_stats":
        values = np.concatenate([_region_values(p) for p in _uniform_chunks(n, size, rng)], axis=1)
        return {
            k: (float(v.sum()), float((v * v).sum()))
            for k, v in zip(("h2", "l0", "l1", "l2", "le"), values)
        }
    if kind == "exp_lengths":
        pos, circumference = _exp_model_rows(n, size, rng)
        typed = np.concatenate([_region_values(p)[1:4] for p in _split_rows(pos)], axis=1)
        out = {}
        for k in (0, 1, 2):
            v = typed[k] * circumference / (2 * n)
            out[f"l{k}"] = (float(v.sum()), float((v * v).sum()))
        out["total"] = (float(circumference.sum()), float((circumference**2).sum()))
        return out
    if kind == "interlacing":
        bad = 0
        for p in _uniform_chunks(n, size, rng):
            w = _words_rows(p)
            bad += _count_non_interlacing(w[:, :n] + w[:, n:])
        return bad
    raise ValueError(f"unknown batch kind {kind!r}")


# ---------------------------------------------------------------------------
# scalar sampling APIs


def sample_uniform_config(n: int, rng: np.random.Generator) -> PointConfig:
    """n i.i.d. uniform positions on the circle, resampled if degenerate."""
    _check_size(n)
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
    black, with colors[0] = 1 and colors[n] = 0 by convention.  ``dot_at``
    extends both to -n <= i <= 2n-1 by (Y_{i+-n}, 1 - color_i).
    """

    spacings: tuple[float, ...]
    dots: tuple[float, ...]
    colors: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.spacings)

    def dot_at(self, i: int) -> tuple[float, int]:
        n = self.n
        if 0 <= i <= n - 1:
            return self.dots[i], self.colors[i]
        if n <= i <= 2 * n - 1:
            y, c = self.dot_at(i - n)
            return y + self.dots[n], 1 - c
        if -n <= i < 0:
            y, c = self.dot_at(i + n)
            return y - self.dots[n], 1 - c
        raise IndexError(f"dot index {i} outside [-{n}, {2 * n - 1}]")

    def to_point_config(self) -> PointConfig:
        """Scale the half circle to the dot span and lift colors back to points."""
        pos = _exp_positions(np.array([self.dots]), np.array([self.colors[:-1]]))
        return PointConfig(tuple(sorted(pos[0].tolist())))


def sample_exp_model(n: int, rng: np.random.Generator) -> ExpSpacingSample:
    _check_size(n)
    spac, y, colors = _exp_draw(n, 1, rng)
    return ExpSpacingSample(
        spacings=tuple(spac[0].tolist()), dots=tuple(y[0].tolist()), colors=(*colors[0].tolist(), 0)
    )


# ---------------------------------------------------------------------------
# estimators


def _class_ints(target: Bracelet) -> tuple[int, ...]:
    return tuple(sorted(words.bracelet_orbit(target.word)))


def estimate_bracelet_prob(
    n: int,
    target: Bracelet,
    trials: int,
    seed: int,
    workers: int = 1,
    model: str = "circle",
    target_prob=None,
) -> EstimatorResult:
    """Fraction of sampled configurations whose bracelet equals ``target``.

    ``model`` selects the circle model or the exponential spacing model
    ("exp"); the two agree in distribution.  The z score is computed against
    ``target_prob`` when given, against the known closed form when the
    target is the run-word bracelet, and is NaN otherwise.  Deterministic
    for fixed (seed, trials) whatever the worker count.  Words are packed
    into 64 bits, so n is at most ``MAX_PACKED_N``.
    """
    if n > MAX_PACKED_N:
        raise ValueError(f"bracelet estimates pack 2n bits into 64; need n <= {MAX_PACKED_N}, got {n}")
    if target.n != n:
        raise ValueError(f"target bracelet has n={target.n}, estimate is for n={n}")
    kinds = {"circle": "bracelet_hits", "exp": "bracelet_hits_exp"}
    if model not in kinds:
        raise ValueError(f"unknown model {model!r}; choose from {sorted(kinds)}")
    kind = kinds[model]
    if target_prob is None:
        if target.word == words.canonical_bracelet(words.run_word(n)).word:
            target_prob = closed_form("pbn", n)
        else:
            target_prob = float("nan")
    cls = _class_ints(target)
    tasks = [(kind, n, seed, i, size, cls) for i, size in _batch_plan(trials)]
    hits = sum(_map_tasks(tasks, workers))
    return _make_result(hits, hits, trials, seed, target_prob)


def estimate_region_stats(
    n: int, trials: int, seed: int, workers: int = 1
) -> dict[str, EstimatorResult]:
    """Monte Carlo means of h2/l0/l1/l2/le against their closed forms."""
    _check_size(n, trials)
    tasks = [("region_stats", n, seed, i, size, None) for i, size in _batch_plan(trials)]
    sums = {k: 0.0 for k in ("h2", "l0", "l1", "l2", "le")}
    sqs = dict(sums)
    for result in _map_tasks(tasks, workers):
        for k, (s, sq) in result.items():
            sums[k] += s
            sqs[k] += sq
    return {
        k: _make_result(sums[k], sqs[k], trials, seed, closed_form(k, n))
        for k in sums
    }


def interlacing_failures(n: int, trials: int, seed: int, workers: int = 1) -> int:
    """Number of sampled configurations whose signature fails to interlace."""
    _check_size(n, trials)
    tasks = [("interlacing", n, seed, i, size, None) for i, size in _batch_plan(trials)]
    return sum(_map_tasks(tasks, workers))


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


def transfer_check(n: int, trials: int, seed: int, workers: int = 1) -> TransferReport:
    """Compare expected type-k lengths across the two models and the closed form.

    The exponential-model estimator averages (unnormalized type-k length)/(2n),
    which the transfer identity equates with the unit-circle expectation.
    Internally uses seeds seed+1 (circle) and seed+2 (exponential).
    """
    circle = estimate_region_stats(n, trials, seed + 1, workers)
    tasks = [("exp_lengths", n, seed + 2, i, size, None) for i, size in _batch_plan(trials)]
    sums = {f"l{k}": 0.0 for k in (0, 1, 2)}
    sums["total"] = 0.0
    sqs = dict(sums)
    for result in _map_tasks(tasks, workers):
        for key, (s, sq) in result.items():
            sums[key] += s
            sqs[key] += sq
    comparisons = []
    for k in (0, 1, 2):
        exp_res = _make_result(
            sums[f"l{k}"], sqs[f"l{k}"], trials, seed + 2, closed_form(f"l{k}", n)
        )
        circ_res = circle[f"l{k}"]
        comparisons.append(
            TransferComparison(
                k=k, exp_model=exp_res, circle_model=circ_res, z_between=z_between(exp_res, circ_res)
            )
        )
    total = _make_result(sums["total"], sqs["total"], trials, seed + 2, 2 * n)
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


def _path_rows(p: np.ndarray, grid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row, type and t: fraction of the 2n regions, and their length, ending by t."""
    m = 2 * p.shape[1]
    w = _words_rows(p)
    bnd = _boundaries_rows(p)
    # The region through position 0 is only contained at t = 1, so it goes
    # last; the right ends are then increasing along each row.
    types = np.roll(w + np.roll(w, -p.shape[1], axis=1), -1, axis=1)
    lengths = np.roll(_lengths_rows(bnd), -1, axis=1)
    ends = np.roll(bnd, -1, axis=1)
    ends[:, -1] = 1.0
    ended = np.empty((p.shape[0], grid.size), dtype=np.int64)
    for j, t in enumerate(grid):
        ended[:, j] = (ends <= t).sum(axis=1)
    fractions = np.empty((p.shape[0], 3, grid.size))
    sums = np.empty_like(fractions)
    for k in (0, 1, 2):
        mask = types == k
        # cumulative sums with a leading 0 column, indexed by the number of ended regions
        cnt = np.zeros((p.shape[0], m + 1), dtype=np.int64)
        np.cumsum(mask, axis=1, out=cnt[:, 1:])
        cum = np.zeros((p.shape[0], m + 1))
        np.cumsum(lengths * mask, axis=1, out=cum[:, 1:])
        fractions[:, k] = np.take_along_axis(cnt, ended, axis=1) / m
        sums[:, k] = np.take_along_axis(cum, ended, axis=1)
    return fractions, sums


def equidistribution_paths(
    n: int, t_grid: Sequence[float], trials: int, seed: int
) -> PathReport:
    """Type-k region counts and lengths inside [0, t] averaged over trials.

    Trial i draws its n points from ``batch_rng(seed, i)``; trials are
    processed in row chunks and summed in trial order.
    """
    _check_size(n, trials)
    grid = np.asarray(t_grid, dtype=np.float64)
    h_acc = np.zeros((3, grid.size))
    l_acc = np.zeros((3, grid.size))
    for p in _trial_chunks(n, trials, seed):
        fractions, sums = _path_rows(_rotate_rows(p), grid)
        for h, l in zip(fractions, sums):
            h_acc += h
            l_acc += l
    h_acc /= trials
    l_acc /= trials
    return PathReport(
        n=n,
        trials=trials,
        seed=seed,
        t_grid=tuple(float(t) for t in grid),
        region_fraction=tuple(tuple(float(x) for x in row) for row in h_acc),
        length_fraction=tuple(tuple(float(x) for x in row) for row in l_acc),
    )


def max_spacing_check(n: int, trials: int, seed: int) -> EstimatorResult:
    """Mean of n * (largest gap) / log n for n uniform points on [0, 1/2].

    The statistic concentrates at 1/2 as n grows (slowly; expect a loose
    band at desk scale).  Trial i draws from ``batch_rng(seed, i)``; the
    statistics are summed in trial order.
    """
    _check_size(n, trials, least=2)
    total = 0.0
    total_sq = 0.0
    for p in _trial_chunks(n, trials, seed):
        for gap in (np.diff(p, axis=1).max(axis=1) / 2).tolist():
            stat = n * gap / math.log(n)
            total += stat
            total_sq += stat * stat
    return _make_result(total, total_sq, trials, seed, 0.5)


def estimate_exp_below_erlangs(
    k: int, l: int, trials: int, seed: int
) -> EstimatorResult:
    """Monte Carlo counterpart of :func:`exp_below_erlangs_prob`.

    Erlang variables are sampled as sums of independent unit exponentials.
    """
    target = exp_below_erlangs_prob(k, l)
    hits = 0
    for i, size in _batch_plan(trials):
        rng = batch_rng(seed, i)
        x = rng.standard_exponential(size)
        u = rng.standard_exponential((size, k)).sum(axis=1)
        v = rng.standard_exponential((size, l)).sum(axis=1)
        hits += int(((x < u) & (x < v)).sum())
    return _make_result(hits, hits, trials, seed, target)
