"""Prediction strategies and the payoff engine.

A prediction is committed per position before any bit inside the target
interval is revealed; the payoff is +1 per correct bit and -1 per wrong bit.
Adaptivity is allowed only in *when to stop*: a plan may carry a stop rule
on its running payoff, which is how the inversion bettor detects
opposite-direction excursions.  The weighted-majority scheme hedges between
the two constant experts and tracks the best of them to within
``sqrt(2 T ln 2)``.

Each betting rule has one batch kernel over ``(trials, T)`` rows, walked in
the package's one row-block rule (:func:`~fractalwalk.sequences._row_blocks`);
the single-sequence functions are one-row calls.  Every stop rule, staged or
not, runs through :func:`_bettor_stages`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, IntervalError, _instance, _integer, _real
from .sequences import BitSequence, IntSequence, Interval, _entries, _row_blocks, _sum_dtype
from .streams import make_rng

__all__ = [
    "StopCause",
    "StopRule",
    "PredictionPlan",
    "PayoffLedger",
    "run_plan",
    "constant_plan",
    "sign_of_prefix_plan",
    "weighted_majority_rate",
    "weighted_majority_run",
    "weighted_majority_expected_payoff",
    "weighted_majority_guarantee",
    "block_momentum_payoff",
    "adaptive_inversion_bettor",
]


# Stop limits stay below this in magnitude, so a limit plus a stage's starting total
# (0, or a generated height far below it) fits int64 in _bettor_stages.
_LIMIT_CAP = 1 << 62


class StopCause(enum.Enum):
    LOWER = "lower"
    UPPER = "upper"
    EXHAUSTED = "exhausted"


@dataclass(frozen=True)
class StopRule:
    """Stop betting once the running payoff reaches either limit."""

    lower_limit: int
    upper_limit: int

    def __post_init__(self) -> None:
        _integer(self.lower_limit, "stop rule lower_limit", 1 - _LIMIT_CAP, -1)
        _integer(self.upper_limit, "stop rule upper_limit", 1, _LIMIT_CAP - 1)


@dataclass(frozen=True)
class PredictionPlan:
    """Per-position predictions over an interval, fixed before the interval is read."""

    interval: Interval
    per_position: np.ndarray
    stop_rule: StopRule | None = None

    def __post_init__(self) -> None:
        _instance(self.interval, "interval", (Interval,))
        _instance(self.stop_rule, "stop_rule", (StopRule, type(None)))
        pp = _entries(self.per_position, np.int8)
        if pp.shape != (len(self.interval),):
            raise ConfigurationError(
                f"per_position must have length {len(self.interval)}, got shape {pp.shape}"
            )
        if not np.all(np.abs(pp) == 1):
            raise ConfigurationError("predictions must be +1 or -1")
        pp.setflags(write=False)
        object.__setattr__(self, "per_position", pp)


@dataclass(frozen=True)
class PayoffLedger:
    """Payoff of one plan run, the positions it bet on, and why it stopped;
    ``stopped_early`` is read off ``stop_cause``."""

    payoff: int
    steps_used: int
    stop_cause: StopCause

    def __post_init__(self) -> None:
        # Every gain is an odd integer, so the payoff has the parity of the steps.
        assert (self.payoff - self.steps_used) % 2 == 0

    @property
    def stopped_early(self) -> bool:
        return self.stop_cause is not StopCause.EXHAUSTED


def _sign_bets(history: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Payoff of betting the sign of ``history`` on ``target``; a zero history bets +1."""
    return np.where(history >= 0, 1, -1) * target


def _bettor_stages(
    values: np.ndarray, lower: int, upper: int, stages: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bet +1 on every entry of each row in up to ``stages`` consecutive stages;
    a stage stops once its own running payoff reaches ``lower`` or ``upper``, and
    the next stage starts at the entry after.

    Returns ``(stops, payoffs, sums)``: per row and stage the stop column, or -1
    where the stage ran out of entries or never started; the stage's payoff at
    its stop (at the row's end when it ran out, 0 when it never started); and
    each row's int64 sum.
    """
    n_rows, cols = values.shape
    stops = np.full((n_rows, stages), -1, dtype=np.int64)
    payoffs = np.zeros((n_rows, stages), dtype=np.int64)
    sums = np.empty(n_rows, dtype=np.int64)
    col = np.arange(cols)
    dtype = _sum_dtype(values, cols)
    for rows in _row_blocks(n_rows, cols):
        cum = np.cumsum(values[rows], axis=1, dtype=dtype)
        at = np.arange(len(cum))
        # Each row's stage starts at column ``start`` from running total ``base``.
        start, base = np.zeros((2, len(cum)), dtype=np.int64)
        for stage in range(stages):
            hit = (cum <= (base + lower)[:, None]) | (cum >= (base + upper)[:, None])
            if stage:  # the first stage starts at column 0
                hit &= col >= start[:, None]
            t = hit.argmax(axis=1)
            found = hit[at, t]
            # int64, like ``base``: a narrow ``cum`` must not wrap in ``base + lower``.
            end = np.where(found, cum[at, t], cum[:, -1]).astype(np.int64)
            stops[rows, stage] = np.where(found, t, -1)
            payoffs[rows, stage] = end - base
            start = np.where(found, t + 1, cols)
            base = end
        sums[rows] = cum[:, -1]
    return stops, payoffs, sums


def run_plan(seq: BitSequence | IntSequence, plan: PredictionPlan) -> PayoffLedger:
    """Execute a plan: running payoff halts at the first stop-rule hit."""
    iv = _instance(plan, "plan", (PredictionPlan,)).interval
    if iv.total_len != len(_instance(seq, "seq", (BitSequence, IntSequence)).values):
        raise IntervalError(f"plan interval {iv} does not fit a sequence of length {len(seq.values)}")
    gains = plan.per_position.astype(np.int64) * seq.values[iv.lo : iv.hi]
    rule = plan.stop_rule
    if rule is None:
        return PayoffLedger(int(gains.sum()), len(iv), StopCause.EXHAUSTED)
    stops, payoffs, _ = _bettor_stages(gains[None, :], rule.lower_limit, rule.upper_limit, 1)
    t, payoff = int(stops[0, 0]), int(payoffs[0, 0])
    if t < 0:
        return PayoffLedger(payoff, len(iv), StopCause.EXHAUSTED)
    cause = StopCause.LOWER if payoff <= rule.lower_limit else StopCause.UPPER
    return PayoffLedger(payoff, t + 1, cause)


def constant_plan(value: int, interval: Interval, stop_rule: StopRule | None = None) -> PredictionPlan:
    if _integer(value, "constant prediction", -1, 1) == 0:
        raise ConfigurationError("constant prediction must be +1 or -1, got 0")
    return PredictionPlan(interval, np.full(len(interval), value, dtype=np.int8), stop_rule)


def sign_of_prefix_plan(history: BitSequence, window: int, target: Interval) -> PredictionPlan:
    """Constant plan betting the sign of the height of the ``window`` bits before ``target``.

    A zero prefix height bets +1; any fixed tie rule is payoff-neutral on
    sign-symmetric distributions, and a deterministic one keeps runs replayable.
    Only history strictly before ``target.lo`` is consulted.
    """
    window = _integer(window, "window")
    if target.lo < window:
        raise ConfigurationError(f"target needs {window} bits of history, has {target.lo}")
    h = history.height(Interval(target.lo - window, target.lo, history.prefix.shape[0] - 1))
    return constant_plan(1 if h >= 0 else -1, target)


# ---------------------------------------------------------------------------
# Weighted majority over the two constant experts


def weighted_majority_rate(total_len: int) -> float:
    """Learning rate ``sqrt(8 ln 2 / T)``, tuned for a two-expert horizon of ``T``."""
    return math.sqrt(8.0 * math.log(2.0) / _integer(total_len, "total_len"))


def weighted_majority_guarantee(total_len: int) -> float:
    """The scheme's additive payoff slack: ``sqrt(2 T ln 2)``."""
    return math.sqrt(2.0 * _integer(total_len, "total_len") * math.log(2.0))


def _hedges(heights_before: np.ndarray) -> np.ndarray:
    """``2 P(predict +1) - 1`` from the heights ``H_{t-1}`` before each position: ``tanh(eta * H_{t-1} / 2)``."""
    eta = weighted_majority_rate(heights_before.shape[-1])
    return np.tanh(0.5 * eta * heights_before)


def _weighted_majority_payoffs(values: np.ndarray) -> np.ndarray:
    """Each row's exact expected payoff (see :func:`weighted_majority_expected_payoff`)."""
    # H_{t-1} is the running sum less the current entry.
    blocks = (values[rows] for rows in _row_blocks(*values.shape))
    dtype = _sum_dtype(values, values.shape[1])
    before = ((b, np.cumsum(b, axis=1, dtype=dtype) - b) for b in blocks)
    return np.concatenate([(b * _hedges(h)).sum(axis=1) for b, h in before])


def weighted_majority_run(
    seq: BitSequence, rng: int | np.random.Generator | None = None
) -> int:
    """One randomized pass; each bit is predicted +1 with the current weight fraction."""
    rng = make_rng(rng)
    p_plus = 0.5 * (1.0 + _hedges(_instance(seq, "seq", (BitSequence, IntSequence)).prefix[:-1]))
    preds = np.where(rng.random(p_plus.shape) < p_plus, 1, -1).astype(np.int64)
    return int(np.sum(preds * seq.values))


def weighted_majority_expected_payoff(seq: BitSequence) -> float:
    """Exact mean payoff over the scheme's internal randomness.

    Per position the expected gain is ``x_t * (2 p_t - 1)`` with
    ``p_t = sigma(eta * H_{t-1})``, so the whole sum collapses to
    ``sum x_t * tanh(eta * H_{t-1} / 2)``; always at least
    ``|h(seq)| - weighted_majority_guarantee(T)``.
    """
    values = _instance(seq, "seq", (BitSequence, IntSequence)).values
    return float(_weighted_majority_payoffs(values[None, :])[0])


def _check_block_len(block_len: int, T: int, name: str = "block_len") -> int:
    """``block_len`` as a positive int that divides the sequence length ``T``."""
    n = _integer(block_len, name, 1, T)
    if T % n:
        raise ConfigurationError(f"{name} must divide the sequence length {T}, got {block_len}")
    return n


def _block_momentum_payoffs(values: np.ndarray, block_len: int) -> np.ndarray:
    """Each row's :func:`block_momentum_payoff`."""
    block_len = _check_block_len(block_len, values.shape[1])
    blocks = (values[rows] for rows in _row_blocks(*values.shape))
    dtype = _sum_dtype(values, block_len)
    heights = (b.reshape(len(b), -1, block_len).sum(axis=2, dtype=dtype) for b in blocks)
    return np.concatenate([_sign_bets(h[:, :-1], h[:, 1:]).sum(axis=1) for h in heights])


def block_momentum_payoff(seq: BitSequence, block_len: int) -> int:
    """Payoff of betting each block with the sign of the previous block's height.

    Zero previous height bets +1.  The first block is skipped (no history).
    """
    values = _instance(seq, "seq", (BitSequence, IntSequence)).values
    return int(_block_momentum_payoffs(values[None, :], block_len)[0])


def _bettor_limits(theta: int, alpha: float, stages: int = 1) -> tuple[int, int]:
    """Each stage's stop limits ``(-ceil(alpha*theta/stages), ceil(2*alpha*theta/stages))``: the
    inversion bettor's at one stage, the certifier's at ``s_iterations``.  The upper one must be at
    least 1, and below ``_LIMIT_CAP`` (2**62)."""
    theta, alpha = _integer(theta, "theta"), _real(alpha, "alpha", 0)
    share = alpha * _real(theta, "theta") / stages
    if not 1.0 <= 2.0 * share < _LIMIT_CAP:
        raise ConfigurationError(f"limits {'degenerate' if 2.0 * share < 1.0 else 'too large'}: need "
                                 f"1 <= 2*alpha*theta/stages < 2**62, got {alpha=}, {theta=}, {stages=}")
    return -math.ceil(share), math.ceil(2.0 * share)


def _bettor_payoffs(values: np.ndarray, lower: int, upper: int) -> np.ndarray:
    """Per row, the payoff of betting +1 on every entry until the running payoff
    reaches ``lower`` or ``upper``; a payoff strictly between them ran out of entries."""
    return _bettor_stages(values, lower, upper, 1)[1][:, 0]


def adaptive_inversion_bettor(
    seq: BitSequence | IntSequence, target: Interval, theta: int, alpha: float
) -> PayoffLedger:
    """Bet +1 throughout ``target``, stopping at payoff -ceil(alpha*theta) or
    +ceil(2*alpha*theta); a LOWER stop certifies an opposite-direction excursion
    of relative size ``alpha`` against a height-``theta`` climb."""
    return run_plan(seq, constant_plan(1, target, StopRule(*_bettor_limits(theta, alpha))))
