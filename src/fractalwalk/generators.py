"""Sequence generators built by recursive doubling.

All non-trivial families share one mechanism: base blocks of length ``l`` are
filled with independent uniform +1/-1 entries, then pairs of adjacent blocks
are merged level by level.  At each merge the second half is nudged toward
the sign of the first half's height, with a budget that depends on the
family:

* ``frw``      flips ``delta * |h1|`` opposite-sign bits,
* ``opt_frw``  flips ``delta * sqrt(n)`` opposite-sign bits (n = half length),
* ``afrw``     applies a height change of exactly ``delta * |h1|``,
* ``aofrw``    applies a height change of exactly ``delta * sqrt(n)``.

The bit families cap at the available opposite-sign bits; the augmented
families instead add +-2 to uniformly chosen entries once flippable bits run
out, so their realized height change always equals the (evenly rounded)
budget.  ``exact_count`` mode realizes fractional budgets as floor plus a
Bernoulli remainder; ``bernoulli`` mode flips each eligible bit independently
with the corresponding per-bit probability.

Entry points: :func:`generate` (one sequence and its event counts),
:func:`generate_batch` (a trials x length matrix for Monte Carlo work), and
:func:`simulate_heights` (final heights only, much faster when positions are
not needed).
"""

from __future__ import annotations

import enum
import math
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .errors import ConfigurationError, SamplingBudgetError, _enum, _integer, _power_of_two, _real
from .seeding import _SEED_MAX, make_rng
from .sequences import MAX_TOTAL_LEN, BitSequence, IntSequence, _row_blocks, _sum_dtype

__all__ = [
    "Family",
    "FlipMode",
    "GeneratorSpec",
    "MergeCounters",
    "Generated",
    "default_base_len",
    "entropy_threshold",
    "generate",
    "generate_batch",
    "iter_generate_batches",
    "simulate_heights",
]

DEFAULT_REJECTION_BUDGET = 10_000_000
# Largest trials x columns matrix one call may build: 2 GiB of int64.
_MAX_MATRIX_ENTRIES = 1 << 28


class Family(str, enum.Enum):
    UNIFORM = "uniform"
    FRW = "frw"
    OPT_FRW = "opt_frw"
    AFRW = "afrw"
    AOFRW = "aofrw"
    ENTROPY_CONDITIONED = "entropy_conditioned"


class FlipMode(str, enum.Enum):
    EXACT_COUNT = "exact_count"
    BERNOULLI = "bernoulli"


_MERGE_FAMILIES = (Family.FRW, Family.OPT_FRW, Family.AFRW, Family.AOFRW)
_AUGMENTED = (Family.AFRW, Family.AOFRW)


def default_base_len(family: Family, total_len: int) -> int:
    """Family-specific default base block length.

    The height-coupled families use a block long enough that the flip budget
    can never exhaust the eligible bits in practice; the sqrt-budget families
    use ``total_len ** (3/4)`` rounded up to a power of two.  The remaining
    families have no merge structure, so the base block is the whole sequence.
    """
    family = _enum(Family, family, "family")
    total_len = _power_of_two(total_len, "total_len", MAX_TOTAL_LEN)
    if family in (Family.FRW, Family.AFRW):
        want = 100 * max(1, int(math.log2(total_len)))
        return min(total_len, 1 << math.ceil(math.log2(want)))
    if family in (Family.OPT_FRW, Family.AOFRW):
        return min(total_len, 1 << math.ceil(0.75 * math.log2(total_len)))
    return total_len


def entropy_threshold(k: float, total_len: int) -> int:
    """Height threshold ``ceil(k * sqrt(total_len))`` lifted to the parity of ``total_len``."""
    thr = math.ceil(_real(k, "k", 0) * math.sqrt(_integer(total_len, "total_len")))
    if (thr & 1) != (total_len & 1):
        thr += 1
    return thr


@dataclass(frozen=True)
class GeneratorSpec:
    """Full description of a sequence distribution; a pure function of itself plus ``seed``."""

    family: Family
    total_len: int
    delta: float = 0.0
    base_len: int | None = None
    flip_mode: FlipMode = FlipMode.EXACT_COUNT
    k: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "family", _enum(Family, self.family, "family"))
        object.__setattr__(self, "flip_mode", _enum(FlipMode, self.flip_mode, "flip_mode"))
        object.__setattr__(self, "total_len", _power_of_two(self.total_len, "total_len", MAX_TOTAL_LEN))
        base = default_base_len(self.family, self.total_len) if self.base_len is None else self.base_len
        object.__setattr__(self, "base_len", _power_of_two(base, "base_len", self.total_len))
        object.__setattr__(self, "delta", _real(self.delta, "delta", 0, 1, "[)"))
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0, _SEED_MAX))
        if (self.k is None) == (self.family is Family.ENTROPY_CONDITIONED):
            raise ConfigurationError(f"k is for entropy_conditioned only, and required there; got k={self.k}")
        if self.k is not None:
            object.__setattr__(self, "k", _real(self.k, "k", 0))
            if entropy_threshold(self.k, self.total_len) > self.total_len:
                raise ConfigurationError(
                    f"k={self.k} demands heights above the sequence length; no sequence qualifies"
                )

    def with_total_len(self, total_len: int) -> "GeneratorSpec":
        """Copy at a different length, re-deriving the base length if it was defaulted."""
        base = self.base_len if self.base_len != default_base_len(self.family, self.total_len) else None
        return replace(self, total_len=total_len, base_len=base)

    @classmethod
    def from_json_dict(cls, data: dict) -> "GeneratorSpec":
        """The spec ``cli._jsonable`` writes: its fields by name, enums as their values."""
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigurationError(f"unknown generator spec fields: {sorted(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]
        if missing:
            raise ConfigurationError(f"generator spec lacks required fields: {missing}")
        return cls(**data)


@dataclass
class MergeCounters:
    """Event counts of one generation call, counted on the path that ran.

    :func:`simulate_heights` tracks only block heights, so after an augment
    event it still derives eligible counts from the height as if the block
    held pure +-1 entries; :func:`generate_batch` and :func:`generate` recount
    them from the entries.  The two paths therefore agree in ``merges`` and in
    ``flip_steps + augment_steps`` per merge, but can split that total
    differently between flips and additions.
    """

    merges: int = 0
    flip_steps: int = 0
    augment_events: int = 0
    augment_steps: int = 0
    attempts: int = 0
    accepted: int = 0

    @property
    def acceptance_rate(self) -> float | None:
        if self.attempts == 0:
            return None
        return self.accepted / self.attempts


@dataclass(frozen=True)
class Generated:
    sequence: BitSequence | IntSequence
    counters: MergeCounters


def _plan_level(
    spec: GeneratorSpec,
    n: int,
    h1: np.ndarray,
    live: np.ndarray,
    eligible: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray | float, np.ndarray, np.ndarray]:
    """Flip plan for one merge level, vectorized over merges.

    ``live`` marks the merges with ``h1 != 0``, and ``eligible`` holds the
    current count of opposite-sign entries in each second half, 0 where
    ``h1 == 0``.  Returns ``(requested_steps, applied, augmented)``: the
    unsigned budget, the bit flips and the +-2 additions of each merge.  The
    sqrt-budget families give every live merge the same budget, and
    ``requested`` is then that one number.  A dead merge has a zero budget
    and gets zero steps in both modes.
    """
    fam = spec.family
    delta = spec.delta
    coupled = fam in (Family.FRW, Family.AFRW)
    if coupled:
        requested = np.abs(h1, dtype=np.float64)
        requested *= delta
    elif fam in (Family.OPT_FRW, Family.AOFRW):
        requested = delta * math.sqrt(n)
    else:  # pragma: no cover - guarded by callers
        raise AssertionError(f"family {fam} has no merge step")
    if fam in _AUGMENTED:
        requested /= 2.0

    if spec.flip_mode is FlipMode.EXACT_COUNT:
        u = rng.random(live.shape)
        if coupled:
            whole = np.floor(requested)
            steps = whole.astype(np.int64)
            frac = np.subtract(requested, whole, out=whole)
            steps += u < frac
        else:
            whole = math.floor(requested)
            steps = np.where(u < requested - whole, whole + 1, whole)
            steps *= live
        applied = np.minimum(steps, eligible)
        if fam in _AUGMENTED:
            augmented = np.subtract(steps, applied, out=steps)
        else:
            augmented = np.zeros_like(applied)
    else:
        if coupled:
            prob = np.minimum(delta * np.abs(h1) / n, 1.0)
        else:
            prob = min(delta / math.sqrt(n), 1.0)
        applied = rng.binomial(eligible, prob)
        augmented = np.zeros_like(applied)

    # Flip counts never exceed what the eligible bits allow.
    assert np.all(applied <= eligible)
    return requested, applied, augmented


def _merge_level(
    spec: GeneratorSpec,
    n: int,
    H: np.ndarray,
    rng: np.random.Generator,
    counters: MergeCounters,
    recount=None,
    visit=None,
) -> np.ndarray:
    """Merge each adjacent pair of length-``n`` blocks, given their heights ``H``, in every trial.

    Returns the merged heights, in ``H``'s dtype.  Eligible counts are
    derived from the heights as if the blocks held pure +-1 entries, and
    clamped at 0.  Rows go in the package's one row-block rule,
    :func:`~fractalwalk.sequences._row_blocks` over the columns of ``H``; the
    plan draws its numbers in row-major order, so the blocks read the same
    stream as one call on all rows would.
    For each block ``rows``, ``recount(rows, dirs, eligible)`` may correct
    the eligible counts in place before the plan is drawn, and ``visit(rows,
    dirs, requested, applied, augmented)`` sees the plan, with ``dirs =
    sign(h1)``.
    """
    trials = H.shape[0]
    merged = np.empty((trials, H.shape[1] // 2), dtype=H.dtype)
    for rows in _row_blocks(trials, H.shape[1]):
        h1 = H[rows, 0::2]
        h2 = H[rows, 1::2]
        dirs = np.clip(h1, -1, 1)
        live = dirs != 0
        # n - dirs * h2 is even, so the shift halves it exactly.  It is below 0
        # where an augmented second half outgrew its length: nothing to flip.
        elig = dirs * h2
        np.subtract(n, elig, out=elig)
        elig >>= 1
        np.maximum(elig, 0, out=elig)
        elig *= live
        if recount is not None:
            recount(rows, dirs, elig)
        requested, applied, augmented = _plan_level(spec, n, h1, live, elig, rng)
        if visit is not None:
            visit(rows, dirs, requested, applied, augmented)
        counters.merges += live.size
        counters.flip_steps += int(applied.sum())
        if spec.family in _AUGMENTED:
            counters.augment_events += int(np.count_nonzero(augmented))
            counters.augment_steps += int(augmented.sum())
        out = np.add(applied, augmented, out=merged[rows])
        # The net change must point with sign(h1) or vanish.
        assert np.all((out == 0) | live)
        out *= dirs
        out <<= 1
        out += h1
        out += h2
    return merged


# ---------------------------------------------------------------------------
# Base-block heights

# numpy draws Binomial(n, p <= 1/2) by inversion while n * p <= 30, and by
# BTPE, a rejection sampler, above that.
_INVERSION_MAX_MEAN = 30.0
_TABLE_BITS = 16
_FILL_CHUNK = 1 << 14
_inversion_tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _inversion_draw(l: int, u: float) -> int | None:
    """numpy's ``random_binomial_inversion`` for Binomial(l, 1/2) on the uniform ``u``.

    A scalar copy of numpy's loop, operation for operation.  Returns ``None``
    where the loop would pass its bound and draw a fresh uniform.
    """
    p = q = 0.5
    mean = l * p
    bound = int(min(l, mean + 10.0 * math.sqrt(mean * q + 1)))
    x = 0
    px = math.exp(l * math.log(q))
    while u > px:
        x += 1
        if x > bound:
            return None
        u -= px
        px = ((l - x + 1) * p * px) / (x * q)
    return x


def _inversion_table(l: int) -> tuple[np.ndarray, np.ndarray]:
    """``(cuts, table)`` that read :func:`_inversion_draw` off one uniform.

    ``next_double`` returns ``m * 2**-53`` for an integer ``m``, and the draw
    is a nondecreasing step function of ``m``.  ``cuts[k-1]`` is the smallest
    ``m`` whose draw reaches ``k``, in units of ``2**(53 - _TABLE_BITS)``, so
    a uniform scaled by ``2**_TABLE_BITS`` draws the number of cuts at or below
    it.  ``table`` holds the height ``2x - l`` of each of the ``2**_TABLE_BITS``
    buckets of ``m`` that no cut splits, and ``l + 1`` for the others.
    """
    if l in _inversion_tables:
        return _inversion_tables[l]
    top = 1 << 53
    # Larger uniforms never draw less, so a bound passed anywhere on the grid
    # is passed at its last point.
    if _inversion_draw(l, (top - 1) / top) is None:
        raise AssertionError(f"Binomial({l}, 1/2) inversion can redraw; no exact table")
    m = np.empty(l, dtype=np.int64)
    for k in range(1, l + 1):
        lo, hi = 0, top  # hi == top stands for "never reached"
        while lo < hi:
            mid = (lo + hi) // 2
            if _inversion_draw(l, mid / top) >= k:
                hi = mid
            else:
                lo = mid + 1
        m[k - 1] = lo
    shift = 53 - _TABLE_BITS
    first = np.arange(1 << _TABLE_BITS, dtype=np.int64) << shift
    x_first = np.searchsorted(m, first, side="right")
    x_last = np.searchsorted(m, first + ((1 << shift) - 1), side="right")
    table = np.where(x_first == x_last, 2 * x_first - l, l + 1)
    cuts = m * 2.0**-shift
    cuts.flags.writeable = table.flags.writeable = False
    _inversion_tables[l] = (cuts, table)
    return cuts, table


def _base_heights(rng: np.random.Generator, l: int, shape, dtype=np.int64) -> np.ndarray:
    """Heights ``2 * Binomial(l, 1/2) - l`` of ``shape`` blocks of ``l`` uniform +-1 entries, in ``dtype``.

    ``l`` is a power of two: a base length or the sequence length.  Equal, draw
    for draw, to ``2 * rng.binomial(l, 0.5, shape) - l``, and it leaves ``rng``
    in the same state.  The output is filled ``_FILL_CHUNK`` draws at a time,
    so no int64 temporary of ``shape`` is made.  Where numpy samples by
    inversion, each draw reads one ``next_double``; the fill draws the same
    doubles, looks each one up in :func:`_inversion_table` and resolves the
    rare uniforms that land in a bucket split by a cut against the cuts
    themselves.  BTPE's rejection sampling above the inversion range goes to
    numpy, one chunk per call: its draws do not depend on the call size.
    """
    heights = np.empty(shape, dtype=dtype)
    flat = heights.reshape(-1)
    btpe = l * 0.5 > _INVERSION_MAX_MEAN
    if not btpe:
        cuts, table = _inversion_table(l)
    for lo in range(0, flat.size, _FILL_CHUNK):
        part = flat[lo : lo + _FILL_CHUNK]
        if btpe:
            draws = rng.binomial(l, 0.5, size=part.size)
            draws *= 2
            np.subtract(draws, l, out=part)
        else:
            u = rng.random(part.size)
            u *= 1 << _TABLE_BITS
            np.take(table, u.astype(np.intp), out=part)
            split = np.flatnonzero(part > l)
            part[split] = 2 * np.searchsorted(cuts, u[split], side="right") - l
    return heights


# ---------------------------------------------------------------------------
# Height-only simulation


def _height_bound(spec: GeneratorSpec) -> int:
    """The largest |height| any block of ``spec`` can reach, at every merge level.

    Entries stay +-1 in the bit families and in ``bernoulli`` mode, so that is
    ``total_len``.  An ``exact_count`` augmented merge moves the height by
    ``2 * steps``, and ``steps`` is at most the floor of the halved budget
    :func:`_plan_level` computes, plus one.  So from ``M_l = l`` each level
    gives ``M_2n = 2 * M_n + 2 * (floor(budget / 2) + 1)``, with afrw's budget
    ``delta * M_n`` (float64 rounding is monotone, so no |h1| <= M_n exceeds
    it) and aofrw's ``delta * sqrt(n)``.  Every intermediate value of
    :func:`_merge_level` stays within the bound of the level it makes.
    """
    if spec.family not in _AUGMENTED or spec.flip_mode is FlipMode.BERNOULLI:
        return spec.total_len
    n = bound = spec.base_len
    while n < spec.total_len:
        budget = bound * spec.delta if spec.family is Family.AFRW else spec.delta * math.sqrt(n)
        bound = 2 * bound + 2 * (math.floor(budget / 2.0) + 1)
        n *= 2
    return bound


def _height_dtype(spec: GeneratorSpec) -> type:
    """The dtype block heights of ``spec`` merge in: int32 when :func:`_height_bound` is below 2**31, else int64."""
    return np.int32 if _height_bound(spec) < 1 << 31 else np.int64


def _check_entries(trials: int, cols: int) -> int:
    """``trials`` as an int, refused before any draw if below 1 or past the entry cap at ``cols`` columns."""
    trials = _integer(trials, "trials")
    if trials * cols > _MAX_MATRIX_ENTRIES:
        raise ConfigurationError(
            f"{trials} trials x {cols} = {trials * cols} entries exceed the cap of "
            f"{_MAX_MATRIX_ENTRIES}; use fewer trials"
        )
    return trials


def _check_planted(spec: GeneratorSpec, planted_prefix: int) -> int:
    """``planted_prefix`` as an int below ``spec.total_len``; in the merge families
    it must cover whole base blocks."""
    planted_prefix = _integer(planted_prefix, "planted_prefix", 0, spec.total_len - 1)
    if spec.family in _MERGE_FAMILIES and planted_prefix % spec.base_len != 0:
        raise ConfigurationError(
            f"planted_prefix must cover whole base blocks of {spec.base_len}"
        )
    return planted_prefix


def simulate_heights(
    spec: GeneratorSpec,
    trials: int,
    rng: int | np.random.Generator | None = None,
    with_counters: bool = False,
) -> np.ndarray | tuple[np.ndarray, MergeCounters]:
    """Final heights of ``trials`` independent sequences, without materializing bits.

    Distribution-identical to summing :func:`generate_batch` rows but orders of
    magnitude cheaper.  The heights are exact for every family: in
    ``exact_count`` mode an augmented family's merge always changes the height
    by its rounded budget, however that budget splits into flips and
    additions.  Only that split is approximate after an augment event, because
    eligible counts are derived from heights alone (see :class:`MergeCounters`).

    Base-block heights are ``2 * rng.binomial(l, 0.5) - l``, and the fill
    equals that call draw for draw (see :func:`_base_heights`); the merge
    levels then draw in row-major order.  Block heights merge in
    :func:`_height_dtype`, int32 unless an augmented spec can reach 2**31, and
    the final heights are int64.  A call that needs more than ``2**28``
    base-block heights is refused before anything is drawn.
    """
    T = spec.total_len
    trials = _check_entries(trials, T // spec.base_len if spec.family in _MERGE_FAMILIES else 1)
    rng = make_rng(rng if rng is not None else spec.seed)
    counters = MergeCounters()

    if spec.family is Family.UNIFORM:
        heights = _base_heights(rng, T, trials)
    elif spec.family is Family.ENTROPY_CONDITIONED:
        heights = _entropy_heights(spec, trials, rng, counters)
    else:
        n = spec.base_len
        H = _base_heights(rng, n, (trials, T // n), _height_dtype(spec))
        while n < T:
            H = _merge_level(spec, n, H, rng, counters)
            n *= 2
        heights = H[:, 0].astype(np.int64)

    if with_counters:
        return heights, counters
    return heights


def _rejection_fill(
    out: np.ndarray, spec: GeneratorSpec, chunk: int, draw, counters: MergeCounters
) -> None:
    """Fill the rows of ``out`` with candidates whose |height| reaches the entropy threshold.

    ``draw(m)`` returns ``(candidates, heights)`` for ``m`` fresh candidates;
    they are drawn ``chunk`` at a time until every row is filled or
    :data:`DEFAULT_REJECTION_BUDGET` candidates have been examined.
    """
    thr = entropy_threshold(spec.k, spec.total_len)
    trials = out.shape[0]
    got = 0
    budget = DEFAULT_REJECTION_BUDGET
    while got < trials:
        if counters.attempts >= budget:
            raise SamplingBudgetError(
                f"rejection budget {budget} exhausted after accepting {got}/{trials} "
                f"samples (threshold {thr}); retry with a smaller k"
            )
        m = min(chunk, budget - counters.attempts)
        candidates, h = draw(m)
        qualifying = np.flatnonzero(np.abs(h) >= thr)
        take = min(len(qualifying), trials - got)
        # Count only the candidates examined before the quota filled, so the
        # acceptance rate is not diluted by the unused tail of the chunk.
        if take == trials - got:
            counters.attempts += int(qualifying[take - 1]) + 1
        else:
            counters.attempts += m
        out[got : got + take] = candidates[qualifying[:take]]
        got += take
        counters.accepted += take


def _entropy_heights(
    spec: GeneratorSpec, trials: int, rng: np.random.Generator, counters: MergeCounters
) -> np.ndarray:
    T = spec.total_len

    def draw(m: int) -> tuple[np.ndarray, np.ndarray]:
        h = _base_heights(rng, T, m)
        return h, h

    out = np.empty(trials, dtype=np.int64)
    _rejection_fill(out, spec, max(4096, min(trials * 4, 1 << 16)), draw, counters)
    return out


# ---------------------------------------------------------------------------
# Materialized generation


def generate_batch(
    spec: GeneratorSpec,
    trials: int,
    rng: int | np.random.Generator | None = None,
    planted_prefix: int = 0,
    with_counters: bool = False,
) -> np.ndarray | tuple[np.ndarray, MergeCounters]:
    """Matrix of ``trials`` independent sequences, one per row.

    ``planted_prefix`` forces the first that many positions to +1 before the
    merge recursion runs, which realizes conditioning on an all-+1 history
    (for the merge families it must cover whole base blocks).  Bit families
    return int8, augmented families int64.

    Rows are generated in one vectorized pass; callers with large trial
    counts should chunk via :func:`iter_generate_batches`.  A matrix of more
    than ``2**28`` entries is refused before anything is drawn.
    """
    T = spec.total_len
    planted_prefix = _check_planted(spec, planted_prefix)
    trials = _check_entries(trials, T)
    rng = make_rng(rng if rng is not None else spec.seed)
    counters = MergeCounters()
    A = _family_matrix(spec, trials, rng, planted_prefix, counters)
    if with_counters:
        return A, counters
    return A


def iter_generate_batches(
    spec: GeneratorSpec,
    trials: int,
    rng: int | np.random.Generator | None = None,
    chunk: int = 2048,
    planted_prefix: int = 0,
):
    """Iterator over ``generate_batch`` chunks summing to ``trials`` rows, sharing one stream.

    A chunk holds at most ``chunk`` rows, and fewer where that many would
    exceed ``generate_batch``'s cap on matrix entries.  ``trials``, ``chunk`` and
    ``planted_prefix`` are checked at the call, before any draw; each chunk is
    drawn as it is taken.
    """
    trials = _integer(trials, "trials")
    planted_prefix = _check_planted(spec, planted_prefix)
    chunk = min(_integer(chunk, "chunk"), _MAX_MATRIX_ENTRIES // spec.total_len)
    rng = make_rng(rng if rng is not None else spec.seed)
    return (
        generate_batch(spec, min(chunk, trials - start), rng, planted_prefix=planted_prefix)
        for start in range(0, trials, chunk)
    )


def _map_batches(
    spec: GeneratorSpec, trials: int, rng: int | np.random.Generator | None, fn, planted_prefix: int = 0
) -> tuple[np.ndarray, ...]:
    """Each array of the tuple ``fn(chunk)`` returns, joined row-wise over every
    :func:`iter_generate_batches` chunk; the chunks, and so the stream, do not depend on ``fn``."""
    chunks = iter_generate_batches(spec, trials, rng, planted_prefix=planted_prefix)
    return tuple(map(np.concatenate, zip(*map(fn, chunks))))


def _family_matrix(
    spec: GeneratorSpec,
    trials: int,
    rng: np.random.Generator,
    planted_prefix: int,
    counters: MergeCounters,
) -> np.ndarray:
    """The ``(trials, T)`` matrix of ``spec``'s family."""
    if spec.family is Family.UNIFORM:
        return _uniform_matrix(spec.total_len, trials, rng, planted_prefix)
    if spec.family is Family.ENTROPY_CONDITIONED:
        return _entropy_matrix(spec, trials, rng, planted_prefix, counters)
    return _merge_family_matrix(spec, trials, rng, planted_prefix, counters)


# Bytes mapped per pass of :func:`_bits`: its three in-place passes then run in cache.
_MAP_CHUNK = 1 << 18


def _bits(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """``(rows, cols)`` int8 matrix of uniform +-1 entries.

    Byte-identical to ``2 * rng.integers(0, 2, (rows, cols), dtype=np.int8) - 1``
    and leaves ``rng`` in the same state.  numpy draws a bounded int8 of range 2
    by Lemire's method, which returns the top bit of one byte of the
    ``next_uint32`` stream, low byte first, and drops the unused bytes of the
    last word.  Here the same words are drawn at once and each byte ``b`` is
    mapped in place to ``(~b >> 7) | 1``: +1 when its top bit is set, else -1.

    PCG64's ``next_uint32`` returns the low, then the high half of one
    ``next_uint64`` and buffers the high half in ``has_uint32``/``uinteger``.
    So its words are read as raw 64-bit outputs.  A buffered half comes first:
    the generator steps back one output (mod 2**128), the redrawn output's
    low half is skipped and its high half is overwritten with the buffered
    word: a 64-bit draw such as ``rng.random()`` moves the generator on
    without touching the buffer, so the redrawn output need not be the one
    the word came from.  The buffer is then left as numpy leaves it.  Any
    other bit generator draws the words themselves.
    """
    size = rows * cols
    words = -(-size // 4)
    bg = rng.bit_generator
    if type(bg) is np.random.PCG64 and size:
        state = bg.state
        skip = state["has_uint32"]
        if skip:
            bg.advance(-1)
        raw = bg.random_raw(-(-(words + skip) // 2)).astype("<u8", copy=False)
        if skip:
            raw.view("<u4")[1] = state["uinteger"]
        state = bg.state
        state["has_uint32"] = (words + skip) & 1
        state["uinteger"] = int(raw[-1] >> 32)
        bg.state = state
        b = raw.view(np.int8)[4 * skip : 4 * skip + size]
    else:
        raw = rng.integers(0, 1 << 32, size=words, dtype=np.uint32)
        b = raw.astype("<u4", copy=False).view(np.int8)[:size]
    for lo in range(0, size, _MAP_CHUNK):
        c = b[lo : lo + _MAP_CHUNK]
        np.invert(c, out=c)
        np.right_shift(c, 7, out=c)
        np.bitwise_or(c, 1, out=c)
    return b.reshape(rows, cols)


def _uniform_matrix(
    T: int, trials: int, rng: np.random.Generator, planted_prefix: int
) -> np.ndarray:
    A = _bits(rng, trials, T)
    if planted_prefix:
        A[:, :planted_prefix] = 1
    return A


def _entropy_matrix(
    spec: GeneratorSpec,
    trials: int,
    rng: np.random.Generator,
    planted_prefix: int,
    counters: MergeCounters,
) -> np.ndarray:
    p = planted_prefix
    free = spec.total_len - p

    def draw(m: int) -> tuple[np.ndarray, np.ndarray]:
        block = _bits(rng, m, free)
        return block, p + block.sum(axis=1, dtype=_sum_dtype(block, free)).astype(np.int64)

    out = np.empty((trials, spec.total_len), dtype=np.int8)
    if p:
        out[:, :p] = 1
    _rejection_fill(out[:, p:], spec, max(256, min(4 * trials, 1 << 14)), draw, counters)
    return out


def _merge_family_matrix(
    spec: GeneratorSpec,
    trials: int,
    rng: np.random.Generator,
    planted_prefix: int,
    counters: MergeCounters,
) -> np.ndarray:
    T = spec.total_len
    l = spec.base_len
    dtype = np.int64 if spec.family in _AUGMENTED else np.int8
    A = _bits(rng, trials, T).astype(dtype, copy=False)
    if planted_prefix:
        A[:, :planted_prefix] = 1
    # Block heights accumulate in the narrowest exact dtype; a one-entry block
    # is its entry, so l = 1 casts A once.  They merge in _height_dtype(spec),
    # which holds every height the spec can reach.
    blocks = A.reshape(trials, T // l, l)
    H = (blocks[:, :, 0] if l == 1 else blocks.sum(axis=2, dtype=_sum_dtype(A, l))).astype(
        _height_dtype(spec)
    )
    tainted = np.zeros(trials, dtype=bool)  # trials holding non +-1 entries

    def recount(rows: slice, dirs: np.ndarray, elig: np.ndarray) -> None:
        if tainted[rows].any():
            _recount_eligible(A[rows], tainted[rows], dirs, elig, n, dirs.shape[1])

    # Per row block of a level, the merges that move anything:
    # (trial, merge, dir, flips, additions).  Directions take A's dtype, so
    # np.add.at and _place_flips' compares need no cast.
    moves: list[tuple[np.ndarray, ...]] = []

    def visit(rows: slice, dirs, requested, applied, augmented) -> None:
        t, m = np.nonzero(applied + augmented)
        moves.append((t + rows.start, m, dirs[t, m].astype(A.dtype), applied[t, m], augmented[t, m]))

    n = l
    while n < T:
        moves.clear()
        H = _merge_level(spec, n, H, rng, counters, recount, visit)
        trial_idx, merge_idx, flat_dir, flips, k = map(np.concatenate, zip(*moves))
        base_pos = merge_idx * 2 * n + n
        _place_flips(A, trial_idx, base_pos, n, flips, flat_dir, rng)

        # Each bounded draw is independent of the call it comes from, so one
        # call for all additions reads the same numbers as one call per merge.
        if k.any():
            rows = np.repeat(trial_idx, k)
            cols = np.repeat(base_pos, k) + rng.integers(0, n, size=int(k.sum()))
            np.add.at(A, (rows, cols), np.repeat(2 * flat_dir, k))
            tainted[rows] = True

        n *= 2

    assert np.array_equal(H[:, 0], A.sum(axis=1, dtype=_sum_dtype(A, T)))
    return A


def _recount_eligible(
    A: np.ndarray,
    tainted: np.ndarray,
    dirs: np.ndarray,
    elig: np.ndarray,
    n: int,
    merges: int,
) -> None:
    """Honest per-block eligible counts for trials that contain augmented entries.

    Entries stay odd, so no entry equals ``-dirs`` where ``dirs == 0``: such a
    merge counts 0, as :func:`_merge_level` derives it.
    """
    second = A[tainted].reshape(-1, merges, 2, n)[:, :, 1, :]
    elig[tainted] = np.count_nonzero(second == -dirs[tainted][:, :, None], axis=2)


def _place_flips(
    A: np.ndarray,
    trial_idx: np.ndarray,
    base_pos: np.ndarray,
    n: int,
    counts: np.ndarray,
    dirs: np.ndarray,
    rng: np.random.Generator,
) -> None:
    """Flip ``counts[i]`` uniformly chosen opposite-sign entries in each second half.

    Uses proposal sampling: each active merge proposes one position per round
    and keeps it when it still holds the opposite-sign value, which realizes
    a uniform without-replacement choice among the eligible positions.  The
    active merges keep their order, and their flat start positions, directions
    and remaining counts are compacted only in rounds where some merge finishes.
    """
    flat = A.ravel()  # a view: A is C-contiguous, and the row-sum assert catches a copy
    act = counts > 0
    remaining = counts[act].astype(np.int64)
    start = trial_idx[act] * A.shape[1] + base_pos[act]
    to = dirs[act]
    want = -to
    while remaining.size:
        cells = start + rng.integers(0, n, size=remaining.size)
        hit = flat[cells] == want
        flat[cells[hit]] = to[hit]
        remaining -= hit
        if np.count_nonzero(remaining) < remaining.size:
            keep = remaining > 0
            remaining, start, to, want = remaining[keep], start[keep], to[keep], want[keep]


# ---------------------------------------------------------------------------
# Single-sequence front ends


def generate(spec: GeneratorSpec) -> Generated:
    """One sequence drawn from ``spec``, the one-row :func:`generate_batch`, with its event counts.

    Its stream is ``spec.seed``'s, so the spec alone fixes the sequence.
    """
    A, counters = generate_batch(spec, 1, with_counters=True)
    seq = IntSequence(A[0]) if spec.family in _AUGMENTED else BitSequence(A[0])
    return Generated(seq, counters)
