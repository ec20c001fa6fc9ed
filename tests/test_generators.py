"""Tests for the sequence generator families.

The small hand-traces pin down the merge mechanics exactly: with a base block
of 2 and a budget that works out to one whole flip step, every reachable
outcome can be enumerated by hand and checked against the code.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractalwalk import (
    BitSequence,
    ConfigurationError,
    Family,
    FlipMode,
    GeneratorSpec,
    IntSequence,
    SamplingBudgetError,
    default_base_len,
    entropy_threshold,
    generate,
    generate_batch,
    iter_generate_batches,
    simulate_heights,
)
from fractalwalk import generators
from fractalwalk.cli import _jsonable
from fractalwalk.generators import (
    _FILL_CHUNK,
    _base_heights,
    _bits,
    _height_bound,
    _height_dtype,
    _inversion_draw,
    _inversion_table,
    _recount_eligible,
)

ALL_FAMILIES = list(Family)
MERGE_FAMILIES = [Family.FRW, Family.OPT_FRW, Family.AFRW, Family.AOFRW]


def spec_for(family: Family, total_len: int = 64, **kw) -> GeneratorSpec:
    if family is Family.ENTROPY_CONDITIONED:
        kw.setdefault("k", 1.0)
    elif family is not Family.UNIFORM:
        kw.setdefault("delta", 0.2)
        kw.setdefault("base_len", min(8, total_len))
    return GeneratorSpec(family=family, total_len=total_len, **kw)


def generate_with_plan(spec: GeneratorSpec):
    """``generate(spec)`` and the plan of each of its merges, level by level in
    position order, read through ``_merge_level``'s ``visit``: ``(requested,
    applied, augmented)`` with ``requested`` signed by the first half's height."""
    plan = []
    merge_level = generators._merge_level

    def spy(spec, n, H, rng, counters, recount=None, visit=None):
        def both(rows, dirs, requested, applied, augmented):
            plan.extend(zip((dirs * requested)[0].tolist(), applied[0].tolist(), augmented[0].tolist()))
            visit(rows, dirs, requested, applied, augmented)

        return merge_level(spec, n, H, rng, counters, recount, both)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generators, "_merge_level", spy)
        out = generate(spec)
    return out, plan


class TestSpecValidation:
    def test_json_round_trip(self):
        spec = GeneratorSpec(
            family=Family.AFRW, total_len=256, delta=0.25, base_len=16, seed=99
        )
        assert GeneratorSpec.from_json_dict(json.loads(json.dumps(_jsonable(spec)))) == spec

    def test_json_round_trip_entropy(self):
        spec = GeneratorSpec(
            family=Family.ENTROPY_CONDITIONED, total_len=64, k=1.5, seed=3
        )
        assert GeneratorSpec.from_json_dict(json.loads(json.dumps(_jsonable(spec)))) == spec

    def test_string_enums_coerced(self):
        spec = GeneratorSpec(family="frw", total_len=32, delta=0.1, flip_mode="bernoulli")
        assert spec.family is Family.FRW
        assert spec.flip_mode is FlipMode.BERNOULLI

    @pytest.mark.parametrize("field", ["family", "flip_mode"])
    def test_unknown_enum_value_typed(self, field):
        data = {"family": "uniform", "total_len": 8, field: "bogus"}
        with pytest.raises(ConfigurationError, match="must be one of .*; got 'bogus'"):
            GeneratorSpec.from_json_dict(data)

    def test_unknown_json_field_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown"):
            GeneratorSpec.from_json_dict({"family": "uniform", "total_len": 8, "bogus": 1})

    def test_json_requires_family_and_length(self):
        with pytest.raises(ConfigurationError, match="total_len"):
            GeneratorSpec.from_json_dict({"family": "uniform"})
        with pytest.raises(ConfigurationError, match="family"):
            GeneratorSpec.from_json_dict({"total_len": 8})

    @pytest.mark.parametrize("delta", [-0.1, 1.0, 2.0, float("nan")])
    def test_delta_range(self, delta):
        with pytest.raises(ConfigurationError, match="delta"):
            GeneratorSpec(family=Family.FRW, total_len=16, delta=delta)

    @pytest.mark.parametrize("total_len", [0, 3, 24, 1 << 25, True])
    def test_total_len_rejected(self, total_len):
        with pytest.raises(ConfigurationError):
            GeneratorSpec(family=Family.UNIFORM, total_len=total_len)

    @pytest.mark.parametrize("base_len", [3, 32, 0, True])
    def test_base_len_rejected(self, base_len):
        with pytest.raises(ConfigurationError, match="base_len"):
            GeneratorSpec(family=Family.FRW, total_len=16, delta=0.1, base_len=base_len)

    def test_k_only_for_entropy_family(self):
        with pytest.raises(ConfigurationError, match="k"):
            GeneratorSpec(family=Family.FRW, total_len=16, delta=0.1, k=1.0)

    def test_entropy_requires_k(self):
        with pytest.raises(ConfigurationError, match="k"):
            GeneratorSpec(family=Family.ENTROPY_CONDITIONED, total_len=16)

    @pytest.mark.parametrize("k", [-1.0, float("nan"), float("inf")])
    def test_entropy_k_rejected(self, k):
        with pytest.raises(ConfigurationError, match="k"):
            GeneratorSpec(family=Family.ENTROPY_CONDITIONED, total_len=16, k=k)

    def test_infinite_k_rejected_from_json(self):
        # json.loads reads 1e400 as inf; the threshold would overflow in math.ceil.
        data = json.loads('{"family": "entropy_conditioned", "total_len": 1024, "k": 1e400}')
        with pytest.raises(ConfigurationError, match="k must be finite"):
            GeneratorSpec.from_json_dict(data)

    def test_json_keys_are_the_dataclass_fields(self):
        spec = GeneratorSpec(family=Family.ENTROPY_CONDITIONED, total_len=64, k=1.5,
                             flip_mode=FlipMode.BERNOULLI)
        data = _jsonable(spec)
        assert list(data) == [f.name for f in dataclasses.fields(GeneratorSpec)]
        assert type(data["family"]) is str and type(data["flip_mode"]) is str

    def test_entropy_k_zero_allowed(self):
        spec = GeneratorSpec(family=Family.ENTROPY_CONDITIONED, total_len=16, k=0.0)
        assert spec.k == 0.0

    def test_entropy_unsatisfiable_threshold(self):
        # ceil(9 * sqrt(64)) = 72 > 64: no sequence can qualify.
        with pytest.raises(ConfigurationError, match="qualifies"):
            GeneratorSpec(family=Family.ENTROPY_CONDITIONED, total_len=64, k=9.0)

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 1.5, True])
    def test_seed_rejected(self, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            GeneratorSpec(family=Family.UNIFORM, total_len=16, seed=seed)

    def test_with_total_len_rederives_defaulted_base(self):
        spec = GeneratorSpec(family=Family.OPT_FRW, total_len=1 << 12, delta=0.1)
        grown = spec.with_total_len(1 << 14)
        assert grown.base_len == default_base_len(Family.OPT_FRW, 1 << 14)

    def test_with_total_len_keeps_explicit_base(self):
        spec = GeneratorSpec(family=Family.FRW, total_len=64, delta=0.1, base_len=4)
        assert spec.with_total_len(256).base_len == 4


class TestDefaults:
    def test_height_coupled_default_base(self):
        # 100 * log2(2^14) = 1400, next power of two is 2048.
        assert default_base_len(Family.FRW, 1 << 14) == 2048
        assert default_base_len(Family.AFRW, 1 << 14) == 2048

    def test_sqrt_budget_default_base(self):
        # ceil(0.75 * 12) = 9.
        assert default_base_len(Family.OPT_FRW, 1 << 12) == 512
        assert default_base_len(Family.AOFRW, 1 << 14) == 1 << 11

    def test_default_base_capped_at_total(self):
        assert default_base_len(Family.FRW, 16) == 16

    def test_flat_families_use_whole_sequence(self):
        assert default_base_len(Family.UNIFORM, 1 << 10) == 1 << 10
        assert default_base_len(Family.ENTROPY_CONDITIONED, 1 << 10) == 1 << 10

    @pytest.mark.parametrize(
        "k,total_len,expected",
        [
            (1.0, 8, 4),  # ceil(2.83) = 3, lifted to even
            (0.0, 8, 0),
            (2.0, 1024, 64),
            (1.0, 4, 2),
        ],
    )
    def test_entropy_threshold(self, k, total_len, expected):
        assert entropy_threshold(k, total_len) == expected

    def test_entropy_threshold_parity_matches_length(self):
        for k in (0.3, 0.7, 1.1, 2.9):
            for exp in range(2, 12):
                T = 1 << exp
                assert entropy_threshold(k, T) % 2 == T % 2


class TestDeterminism:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_batch_repeats(self, family):
        spec = spec_for(family, total_len=64, seed=41)
        a = generate_batch(spec, 16)
        b = generate_batch(spec, 16)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_single_repeats(self, family):
        spec = spec_for(family, total_len=64, seed=42)
        assert generate(spec).sequence == generate(spec).sequence

    def test_explicit_rng_overrides_seed(self):
        a = spec_for(Family.FRW, seed=1)
        b = spec_for(Family.FRW, seed=2)
        assert np.array_equal(generate_batch(a, 4, rng=123), generate_batch(b, 4, rng=123))

    def test_heights_repeat(self):
        spec = spec_for(Family.OPT_FRW, total_len=256, seed=5)
        assert np.array_equal(simulate_heights(spec, 200), simulate_heights(spec, 200))

    def test_seed_changes_output(self):
        a = spec_for(Family.FRW, seed=1)
        b = spec_for(Family.FRW, seed=2)
        assert generate(a).sequence != generate(b).sequence


class TestMergeHandTrace:
    """T=4, base 2, delta 0.5: the budget is exactly one flip step."""

    SPEC = GeneratorSpec(family=Family.FRW, total_len=4, delta=0.5, base_len=2, seed=7)

    def test_conditioned_heights(self):
        # First block planted to [+1, +1], so h1 = 2 and the merge must flip
        # exactly one opposite bit in the second half when one exists:
        #   second half [+1, +1]: nothing to flip        -> total 4
        #   second half [+1, -1] or [-1, +1]: flip the -1 -> total 4
        #   second half [-1, -1]: flip one of them        -> total 2
        batch = generate_batch(self.SPEC, 4000, planted_prefix=2)
        heights = batch.sum(axis=1)
        assert set(heights.tolist()) == {2, 4}
        share_of_4 = float(np.mean(heights == 4))
        assert 0.70 < share_of_4 < 0.80  # exact probability is 3/4

    def test_budget_recorded_exactly(self):
        # The signed budget equals delta * h(first block), and the first block
        # is never touched by the merge, so the plan can be checked against
        # the emitted bits.
        for seed in range(40):
            out, plan = generate_with_plan(GeneratorSpec(
                family=Family.FRW, total_len=4, delta=0.5, base_len=2, seed=seed
            ))
            ((requested, applied, augmented),) = plan
            first_block = int(out.sequence.values[:2].sum())
            assert requested == pytest.approx(0.5 * first_block)
            assert augmented == 0
            if first_block == 0:
                assert applied == 0
            else:
                assert 0 <= applied <= 1

    def test_record_count_matches_merge_count(self):
        spec = GeneratorSpec(family=Family.FRW, total_len=16, delta=0.1, base_len=2, seed=3)
        out, plan = generate_with_plan(spec)
        assert len(plan) == out.counters.merges == 16 // 2 - 1


class TestSqrtBudgetHandTrace:
    """T=8, base 4, delta 0.5: the sqrt budget is 0.5 * sqrt(4) = 1 flip step."""

    def test_budget_is_one_step_when_first_half_leans(self):
        for seed in range(40):
            spec = GeneratorSpec(
                family=Family.OPT_FRW, total_len=8, delta=0.5, base_len=4, seed=seed
            )
            out, plan = generate_with_plan(spec)
            ((requested, applied, _),) = plan
            first_half = int(out.sequence.values[:4].sum())
            if first_half == 0:
                assert requested == 0.0
                assert applied == 0
            else:
                assert requested == pytest.approx(math.copysign(1.0, first_half))
                assert 0 <= applied <= 1

    def test_top_record_sign_tracks_first_half(self):
        spec = GeneratorSpec(
            family=Family.OPT_FRW, total_len=64, delta=0.3, base_len=8, seed=11
        )
        out, plan = generate_with_plan(spec)
        requested = plan[-1][0]
        first_half = int(out.sequence.values[:32].sum())
        if first_half == 0:
            assert requested == 0.0
        else:
            assert math.copysign(1.0, requested) == math.copysign(1.0, first_half)
            assert abs(requested) == pytest.approx(0.3 * math.sqrt(32))


class TestFamilyEquivalences:
    """Same-seed reductions between the plain and augmented families.

    In exact-count mode the augmented families measure their budget as a
    height change (each flip step moves the height by 2), so doubling delta
    reproduces the plain family's flip counts and, as long as no augmentation
    fires, the identical bit stream.  In Bernoulli mode both use the same
    per-bit probability, so equal deltas coincide.
    """

    def test_exact_count_double_delta(self):
        frw = GeneratorSpec(family=Family.FRW, total_len=256, delta=0.2, base_len=16, seed=9)
        afrw = GeneratorSpec(family=Family.AFRW, total_len=256, delta=0.4, base_len=16, seed=9)
        a, ca = generate_batch(frw, 50, with_counters=True)
        b, cb = generate_batch(afrw, 50, with_counters=True)
        assert cb.augment_events == 0
        assert np.array_equal(a, b)
        assert ca.flip_steps == cb.flip_steps

    def test_exact_count_double_delta_sqrt(self):
        opt = GeneratorSpec(
            family=Family.OPT_FRW, total_len=256, delta=0.2, base_len=16, seed=10
        )
        aofrw = GeneratorSpec(
            family=Family.AOFRW, total_len=256, delta=0.4, base_len=16, seed=10
        )
        a, _ = generate_batch(opt, 50, with_counters=True)
        b, cb = generate_batch(aofrw, 50, with_counters=True)
        assert cb.augment_events == 0
        assert np.array_equal(a, b)

    @pytest.mark.parametrize(
        "plain,augmented", [(Family.FRW, Family.AFRW), (Family.OPT_FRW, Family.AOFRW)]
    )
    def test_bernoulli_same_delta(self, plain, augmented):
        kw = dict(total_len=256, delta=0.15, base_len=16, seed=12,
                  flip_mode=FlipMode.BERNOULLI)
        a = generate_batch(GeneratorSpec(family=plain, **kw), 50)
        b = generate_batch(GeneratorSpec(family=augmented, **kw), 50)
        assert np.array_equal(a, b)


class TestAugmentation:
    # T=4, base 2, delta 0.9: when the first block leans (prob 1/2) and the
    # second half already points the same way (prob 1/4), there is nothing to
    # flip and the 0.9-step budget lands as a +-2 addition 90% of the time.
    SPEC = GeneratorSpec(family=Family.AFRW, total_len=4, delta=0.9, base_len=2, seed=77)

    def test_exhausted_budget_spills_into_additions(self):
        batch, counters = generate_batch(self.SPEC, 2000, with_counters=True)
        assert batch.dtype == np.int64
        assert counters.augment_events > 100  # expected rate ~0.11 per trial
        assert counters.augment_steps >= counters.augment_events
        values = set(np.unique(np.abs(batch)).tolist())
        assert values == {1, 3}

    def test_single_sequence_is_integer_valued(self):
        out = generate(self.SPEC)
        assert isinstance(out.sequence, IntSequence)
        assert all(v % 2 == 1 for v in np.abs(out.sequence.values).tolist())

    def test_augmentation_rare_at_modest_budget(self):
        # With a short base block the budget can still exhaust the eligible
        # bits on an extreme merge, but only a handful of times per thousands.
        spec = GeneratorSpec(family=Family.AFRW, total_len=256, delta=0.2, base_len=16, seed=8)
        batch, counters = generate_batch(spec, 200, with_counters=True)
        assert counters.augment_events <= counters.merges // 500
        assert set(np.unique(np.abs(batch)).tolist()) <= {1, 3}

    def test_heights_path_books_no_negative_flips(self, monkeypatch):
        # One-bit blocks at delta 0.5: augmented second halves outgrow their
        # length, where heights alone would give negative eligible counts.
        spec = GeneratorSpec(family=Family.AFRW, total_len=1024, delta=0.5, base_len=1, seed=9)
        applied = []
        plan = generators._plan_level

        def spy(*args):
            out = plan(*args)
            applied.append(int(out[1].min()))
            return out

        monkeypatch.setattr(generators, "_plan_level", spy)
        _, counters = simulate_heights(spec, 500, with_counters=True)
        assert min(applied) >= 0
        assert counters.augment_steps >= counters.augment_events > 0

    def test_default_base_length_never_augments(self):
        spec = GeneratorSpec(family=Family.AFRW, total_len=1 << 14, delta=0.1, seed=21)
        _, counters = simulate_heights(spec, 1500, with_counters=True)
        assert counters.merges > 10_000
        assert counters.augment_events == 0


class TestEntropyConditioned:
    def test_support_respects_threshold(self):
        # T=8, k=1: threshold is 4, so |height| must land in {4, 6, 8}.
        spec = GeneratorSpec(family=Family.ENTROPY_CONDITIONED, total_len=8, k=1.0, seed=6)
        heights = generate_batch(spec, 500).sum(axis=1)
        assert set(np.abs(heights).tolist()) <= {4, 6, 8}
        assert heights.min() < 0 < heights.max()

    def test_acceptance_rate_reported(self):
        spec = GeneratorSpec(family=Family.ENTROPY_CONDITIONED, total_len=8, k=1.0, seed=6)
        out = generate(spec)
        assert out.counters.acceptance_rate is not None
        # P(|height| >= 4) = 74/256; a batch sees it within wide bounds.
        _, counters = generate_batch(spec, 2000, with_counters=True)
        assert 0.15 < counters.acceptance_rate < 0.45

    def test_k_zero_accepts_everything(self):
        spec = GeneratorSpec(family=Family.ENTROPY_CONDITIONED, total_len=64, k=0.0, seed=4)
        _, counters = generate_batch(spec, 300, with_counters=True)
        assert counters.acceptance_rate == 1.0

    def test_planted_prefix_combines_with_threshold(self):
        spec = GeneratorSpec(family=Family.ENTROPY_CONDITIONED, total_len=16, k=1.0, seed=2)
        batch = generate_batch(spec, 200, planted_prefix=6)
        assert np.all(batch[:, :6] == 1)
        assert np.all(np.abs(batch.sum(axis=1)) >= entropy_threshold(1.0, 16))

    def test_budget_exhaustion_raises(self):
        # Demanding |height| >= 992 out of 1024 is astronomically rare.
        spec = GeneratorSpec(
            family=Family.ENTROPY_CONDITIONED, total_len=1024, k=31.0, seed=1
        )
        with pytest.raises(SamplingBudgetError, match="budget"):
            simulate_heights(spec, 10)

    @pytest.mark.parametrize("n, planted", [(n, p) for n in (1, 2, 15, 16, 63, 64) for p in (0, 1, 6)])
    def test_acceptance_bound_covers_the_exact_law(self, n, planted):
        # The exact chance that planted + (height of n fair entries) reaches thr in
        # magnitude, by enumeration; the bound stays above it, and far in the tail
        # within 2% of it.
        for thr in range(n + planted + 1):
            exact = sum(math.comb(n, b) for b in range(n + 1) if abs(planted + 2 * b - n) >= thr) / 2**n
            bound = generators._log_accept_bound(n, planted, thr)
            assert bound >= math.log(exact) - 1e-12
            if exact < 1e-6:
                assert bound <= math.log(exact) + 0.02

    def test_rare_but_reachable_threshold_still_draws(self):
        # |h| >= 36 of 64 fair steps has chance 7.1e-6: ten million candidates
        # hold one, so the fill runs and finds it.
        spec = GeneratorSpec(family=Family.ENTROPY_CONDITIONED, total_len=64, k=4.5, seed=3)
        assert abs(int(simulate_heights(spec, 1)[0])) >= entropy_threshold(4.5, 64)


class TestPlantedPrefix:
    def test_merge_family_prefix_survives(self):
        spec = GeneratorSpec(family=Family.FRW, total_len=16, delta=0.3, base_len=4, seed=13)
        batch = generate_batch(spec, 300, planted_prefix=8)
        assert np.all(batch[:, :8] == 1)

    def test_augmented_prefix_stays_positive(self):
        spec = GeneratorSpec(family=Family.AFRW, total_len=8, delta=0.9, base_len=2, seed=14)
        batch = generate_batch(spec, 500, planted_prefix=4)
        assert np.all(batch[:, :4] >= 1)

    def test_uniform_prefix(self):
        spec = GeneratorSpec(family=Family.UNIFORM, total_len=32, seed=15)
        batch = generate_batch(spec, 100, planted_prefix=5)
        assert np.all(batch[:, :5] == 1)
        assert set(np.unique(batch[:, 5:]).tolist()) == {-1, 1}

    def test_prefix_must_cover_whole_blocks(self):
        spec = GeneratorSpec(family=Family.FRW, total_len=16, delta=0.1, base_len=4, seed=0)
        with pytest.raises(ConfigurationError, match="base blocks"):
            generate_batch(spec, 10, planted_prefix=6)

    @pytest.mark.parametrize("prefix", [-1, 16, 99])
    def test_prefix_range(self, prefix):
        spec = GeneratorSpec(family=Family.UNIFORM, total_len=16, seed=0)
        with pytest.raises(ConfigurationError, match="planted_prefix"):
            generate_batch(spec, 10, planted_prefix=prefix)

    def test_trials_must_be_positive(self):
        spec = GeneratorSpec(family=Family.UNIFORM, total_len=16, seed=0)
        with pytest.raises(ConfigurationError, match="trials"):
            generate_batch(spec, 0)
        with pytest.raises(ConfigurationError, match="trials"):
            simulate_heights(spec, -5)


class TestHeightSimulation:
    """simulate_heights must agree in distribution with materialized rows."""

    def test_merge_family_moments_agree(self):
        spec = GeneratorSpec(family=Family.FRW, total_len=64, delta=0.3, base_len=8, seed=30)
        direct = generate_batch(spec, 4000).sum(axis=1)
        fast = simulate_heights(spec.with_total_len(64), 4000, rng=31)
        m2_direct = float(np.mean(direct.astype(np.float64) ** 2))
        m2_fast = float(np.mean(fast.astype(np.float64) ** 2))
        assert m2_direct == pytest.approx(m2_fast, rel=0.15)
        assert np.mean(np.abs(direct)) == pytest.approx(np.mean(np.abs(fast)), rel=0.15)

    def test_uniform_moments_agree(self):
        spec = GeneratorSpec(family=Family.UNIFORM, total_len=128, seed=32)
        direct = generate_batch(spec, 4000).sum(axis=1)
        fast = simulate_heights(spec, 4000, rng=33)
        assert float(np.var(direct)) == pytest.approx(float(np.var(fast)), rel=0.15)
        assert float(np.var(direct)) == pytest.approx(128.0, rel=0.15)

    def test_entropy_support_agrees(self):
        spec = GeneratorSpec(family=Family.ENTROPY_CONDITIONED, total_len=8, k=1.0, seed=34)
        direct = set(np.abs(generate_batch(spec, 400).sum(axis=1)).tolist())
        fast = set(np.abs(simulate_heights(spec, 400, rng=35)).tolist())
        assert direct == fast == {4, 6, 8}

    def test_parity_matches_length(self):
        for family in MERGE_FAMILIES:
            spec = spec_for(family, total_len=32, seed=36)
            heights = simulate_heights(spec, 100)
            assert np.all(heights % 2 == 0)


class TestBatchIteration:
    def test_chunks_cover_trials(self):
        spec = spec_for(Family.FRW, total_len=32, seed=50)
        chunks = list(iter_generate_batches(spec, 250, chunk=100))
        assert [c.shape[0] for c in chunks] == [100, 100, 50]
        assert all(c.shape[1] == 32 for c in chunks)

    def test_chunks_stay_under_the_entry_cap(self, monkeypatch):
        monkeypatch.setattr(generators, "_MAX_MATRIX_ENTRIES", 100 * 32)
        spec = spec_for(Family.FRW, total_len=32, seed=50)
        assert [c.shape[0] for c in iter_generate_batches(spec, 250)] == [100, 100, 50]
        assert [c.shape[0] for c in iter_generate_batches(spec, 250, chunk=64)] == [64] * 3 + [58]

    @pytest.mark.parametrize("trials", [0, -5])
    def test_trials_must_be_positive(self, trials):
        spec = spec_for(Family.FRW, total_len=32, seed=50)
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        with pytest.raises(ConfigurationError, match="trials"):
            iter_generate_batches(spec, trials, rng)
        assert rng.bit_generator.state == state

    def test_map_batches_joins_each_output_in_row_order(self, monkeypatch):
        monkeypatch.setattr(generators, "_MAX_MATRIX_ENTRIES", 100 * 32)
        spec = spec_for(Family.FRW, total_len=32, seed=53)
        rows, sums = generators._map_batches(spec, 250, 4, lambda c: (c, c.sum(axis=1)))
        want = np.concatenate(list(iter_generate_batches(spec, 250, 4)))
        assert np.array_equal(rows, want) and rows.dtype == want.dtype
        assert np.array_equal(sums, want.sum(axis=1))

    def test_iteration_is_deterministic(self):
        spec = spec_for(Family.OPT_FRW, total_len=64, seed=51)
        a = np.concatenate(list(iter_generate_batches(spec, 300, chunk=128)))
        b = np.concatenate(list(iter_generate_batches(spec, 300, chunk=128)))
        assert np.array_equal(a, b)

    def test_uniform_chunking_matches_single_shot(self):
        spec = GeneratorSpec(family=Family.UNIFORM, total_len=64, seed=52)
        chunked = np.concatenate(list(iter_generate_batches(spec, 300, chunk=128)))
        assert np.array_equal(chunked, generate_batch(spec, 300))


class TestFrontEnds:
    @pytest.mark.parametrize("family", ALL_FAMILIES)
    def test_sequence_type_and_length(self, family):
        out = generate(spec_for(family, total_len=32, seed=60))
        expect_int = family in (Family.AFRW, Family.AOFRW)
        assert isinstance(out.sequence, IntSequence if expect_int else BitSequence)
        assert len(out.sequence) == 32

    def test_merge_families_report_records(self):
        out, plan = generate_with_plan(spec_for(Family.FRW, total_len=64, seed=61))
        assert len(plan) == out.counters.merges == 64 // 8 - 1
        assert all(augmented == 0 for _, _, augmented in plan)


class TestUniformNull:
    def test_columns_are_balanced(self):
        spec = GeneratorSpec(family=Family.UNIFORM, total_len=8, seed=70)
        batch = generate_batch(spec, 4000)
        assert set(np.unique(batch).tolist()) == {-1, 1}
        assert np.max(np.abs(batch.mean(axis=0))) < 0.1


@settings(max_examples=30, deadline=None)
@given(
    family=st.sampled_from(MERGE_FAMILIES),
    delta=st.floats(min_value=0.0, max_value=0.6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_top_merge_record_tracks_first_half(family, delta, seed):
    """The top-level budget is a pure function of the final first-half height.

    The first half of the sequence is never modified after the top merge is
    planned, so the emitted bits let us recompute the signed budget exactly.
    """
    spec = GeneratorSpec(family=family, total_len=16, delta=delta, base_len=4, seed=seed)
    out, plan = generate_with_plan(spec)
    requested, applied, augmented = plan[-1]
    assert len(plan) == 3
    first_half = int(np.asarray(out.sequence.values)[:8].sum())
    if family is Family.FRW:
        expected = delta * first_half
    elif family is Family.AFRW:
        expected = delta * first_half / 2.0
    else:
        scale = math.sqrt(8) * (1.0 if family is Family.OPT_FRW else 0.5)
        expected = 0.0 if first_half == 0 else math.copysign(delta * scale, first_half)
    assert requested == pytest.approx(expected)
    if first_half == 0:
        assert applied == 0 and augmented == 0


@settings(max_examples=25, deadline=None)
@given(
    family=st.sampled_from([Family.FRW, Family.OPT_FRW]),
    delta=st.floats(min_value=0.0, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_plain_families_stay_binary(family, delta, seed):
    spec = GeneratorSpec(family=family, total_len=32, delta=delta, base_len=4, seed=seed)
    batch = generate_batch(spec, 8)
    assert batch.dtype == np.int8
    assert np.all(np.abs(batch) == 1)


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(MERGE_FAMILIES),
    flip_mode=st.sampled_from(list(FlipMode)),
    log_len=st.integers(min_value=1, max_value=9),
    log_base=st.integers(min_value=0, max_value=9),
    delta=st.floats(min_value=0.0, max_value=0.99),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_heights_stay_within_the_dtype_bound(family, flip_mode, log_len, log_base, delta, seed):
    """Final heights stay within ``_height_bound``, from ``simulate_heights`` and from ``generate_batch`` rows."""
    T = 1 << log_len
    spec = GeneratorSpec(family, T, delta=delta, base_len=1 << min(log_base, log_len),
                         flip_mode=flip_mode, seed=seed)
    bound = _height_bound(spec)
    assert np.abs(simulate_heights(spec, 200)).max() <= bound
    A = generate_batch(spec, 50)
    assert np.abs(A.sum(axis=1)).max() <= bound


def test_height_dtype_widens_only_past_int32():
    # afrw at l = 1 multiplies its bound by about 2 + delta per level: near
    # 3.5e11 at delta = 0.99 over 24 levels, and 1.4e8 at delta = 0.1.
    big = GeneratorSpec(Family.AFRW, 1 << 24, delta=0.99, base_len=1)
    assert _height_bound(big) >= 1 << 31
    assert _height_dtype(big) is np.int64
    assert _height_dtype(dataclasses.replace(big, delta=0.1)) is np.int32
    assert _height_dtype(dataclasses.replace(big, flip_mode=FlipMode.BERNOULLI)) is np.int32
    assert _height_bound(GeneratorSpec(Family.FRW, 1 << 24, delta=0.99, base_len=1)) == 1 << 24


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(min_value=0, max_value=9),
    cols=st.integers(min_value=1, max_value=41),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
@example(rows=1, cols=3, seed=5)
@example(rows=0, cols=5, seed=5)
def test_bits_match_bounded_int8_draws(rows, cols, seed):
    """The word-level fill reads exactly the bits numpy's bounded int8 draw reads.

    Every count of 0 to 9 prior uint32 draws is tried, so a PCG64 generator
    starts with and without half of a 64-bit output buffered, and each count
    is tried again with a 64-bit ``rng.random()`` draw after it, which leaves
    the buffer alone while the generator moves on; MT19937 takes the generic
    word draw.  Most ``rows * cols`` are not multiples of 4, so the unused
    bytes of the last word must be dropped as numpy drops them, and the
    generator must be left in numpy's state, buffer included.
    """
    for bitgen in (np.random.PCG64, np.random.MT19937):
        for prior, wide in itertools.product(range(10), (False, True)):
            got_rng, want_rng = (np.random.Generator(bitgen(seed)) for _ in range(2))
            for rng in (got_rng, want_rng):
                rng.integers(0, 1 << 32, size=prior, dtype=np.uint32)
                if wide:
                    rng.random()
            got = _bits(got_rng, rows, cols)
            want = 2 * want_rng.integers(0, 2, (rows, cols), dtype=np.int8) - 1
            assert got.dtype == np.int8 and got.shape == (rows, cols)
            assert np.array_equal(got, want)
            assert _same_state(got_rng.bit_generator.state, want_rng.bit_generator.state)


@pytest.mark.parametrize("family", [Family.FRW, Family.OPT_FRW, Family.AFRW])
def test_one_row_chunks_draw_the_reference_bits(family, monkeypatch):
    """One-row chunks with a small delta often end a chunk on a 64-bit uniform
    after a buffered uint32 flip draw, so the next fill starts in that state;
    the stream must still be the one the plain bounded int8 draw gives."""
    spec = GeneratorSpec(family=family, total_len=256, delta=0.01, base_len=4, seed=3)

    def rows():
        return np.concatenate(list(iter_generate_batches(spec, 40, np.random.default_rng(7), chunk=1)))

    got = rows()
    monkeypatch.setattr(
        generators, "_bits", lambda rng, r, c: 2 * rng.integers(0, 2, (r, c), dtype=np.int8) - 1
    )
    assert np.array_equal(got, rows())


@settings(max_examples=40, deadline=None)
@given(
    trials=st.integers(min_value=1, max_value=6),
    merges=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_recount_eligible_matches_per_block_count(trials, merges, n, seed):
    rng = np.random.default_rng(seed)
    A = 2 * rng.integers(-2, 2, size=(trials, 2 * n * merges)) + 1  # odd entries
    tainted = rng.random(trials) < 0.6
    dirs = rng.integers(-1, 2, size=(trials, merges))
    elig = np.where(dirs != 0, rng.integers(0, n + 1, size=(trials, merges)), 0)
    want = elig.copy()
    for t in np.flatnonzero(tainted):
        for m in range(merges):
            if dirs[t, m] != 0:
                second = A[t, m * 2 * n + n : (m + 1) * 2 * n]
                want[t, m] = np.count_nonzero(second == -dirs[t, m])
    _recount_eligible(A, tainted, dirs, elig, n, merges)
    assert np.array_equal(elig, want)


BIT_GENERATORS = {"pcg64": np.random.PCG64, "mt19937": np.random.MT19937, "philox": np.random.Philox}


@settings(max_examples=80, deadline=None)
@given(
    l=st.integers(min_value=0, max_value=10).map(lambda k: 1 << k),
    rows=st.integers(min_value=1, max_value=3),
    cols=st.integers(min_value=1, max_value=3 * _FILL_CHUNK // 2),
    prior=st.integers(min_value=0, max_value=5),
    bitgen=st.sampled_from(sorted(BIT_GENERATORS)),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_base_heights_match_numpy_binomial(l, rows, cols, prior, bitgen, seed):
    """The chunked fill equals numpy's Binomial(l, 1/2) draw for draw, in int64 and int32.

    Lengths are the powers of two that blocks have, on both sides of numpy's
    switch from inversion to BTPE (l = 32 / 64), sizes straddle the fill's
    chunk, and the prior uint32 draws can leave half a word buffered in the
    generator.
    """
    got_rng, got32_rng, want_rng = (np.random.Generator(BIT_GENERATORS[bitgen](seed)) for _ in range(3))
    for rng in (got_rng, got32_rng, want_rng):
        rng.integers(0, 1 << 32, size=prior, dtype=np.uint32)
    got = _base_heights(got_rng, l, (rows, cols))
    got32 = _base_heights(got32_rng, l, (rows, cols), np.int32)
    want = 2 * want_rng.binomial(l, 0.5, (rows, cols)) - l
    assert got.dtype == np.int64 and got32.dtype == np.int32
    for heights, rng in ((got, got_rng), (got32, got32_rng)):
        assert np.array_equal(heights, want)
        assert _same_state(rng.bit_generator.state, want_rng.bit_generator.state)


def _same_state(a, b) -> bool:
    """Equal generator states; MT19937 keeps its key in an array."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return bool(np.array_equal(a, b))


TABLE_LENGTHS = [1, 2, 4, 8, 16, 32]


@pytest.mark.parametrize("l", TABLE_LENGTHS)
def test_inversion_redraw_unreachable_for_served_lengths(l):
    # The largest uniform next_double can return still stops within the
    # bound, so no uniform on the grid reaches numpy's redraw branch.
    assert _inversion_draw(l, (2**53 - 1) / 2**53) is not None
    cuts, table = _inversion_table(l)
    assert cuts.shape == (l,) and table.shape == (1 << 16,)


def test_inversion_draw_returns_none_past_its_bound():
    # At l = 2048, 0.5**l underflows to 0, so the loop runs into its bound:
    # numpy would draw a fresh uniform there, and the copy returns None.
    assert _inversion_draw(2048, 0.5) is None


def test_table_builder_refuses_a_length_that_can_redraw(monkeypatch):
    monkeypatch.setattr(generators, "_inversion_tables", {})
    monkeypatch.setattr(generators, "_inversion_draw", lambda l, u: None)
    with pytest.raises(AssertionError, match="redraw"):
        _inversion_table(4)


class _Uniforms:
    """Stands in for a generator whose ``random`` returns chosen doubles."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    def random(self, size):
        out, self.values = self.values[:size], self.values[size:]
        return out.copy()


@pytest.mark.parametrize("l", TABLE_LENGTHS)
def test_fill_is_exact_at_every_cut(l):
    # Each cut and its grid neighbours, where the draw changes value: the
    # table and its fix-up must agree with numpy's loop on both sides.
    cuts, _ = _inversion_table(l)
    m = (cuts * 2.0**37).astype(np.int64)
    grid = np.unique(np.clip(np.concatenate([m - 1, m, m + 1, [0, 2**53 - 1]]), 0, 2**53 - 1))
    u = grid / 2.0**53
    want = np.array([2 * _inversion_draw(l, x) - l for x in u])
    for k in range(1, l + 1):
        assert _inversion_draw(l, m[k - 1] / 2.0**53) >= k > _inversion_draw(l, (m[k - 1] - 1) / 2.0**53)
    assert np.array_equal(_base_heights(_Uniforms(u), l, u.size), want)


class TestSizeCap:
    def test_heights_refused_before_allocating(self):
        spec = GeneratorSpec(Family.AFRW, 1 << 10, delta=0.1, base_len=16)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="cap"):
                simulate_heights(spec, 1 << 30)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_batch_refused_before_allocating(self):
        spec = GeneratorSpec(Family.FRW, 1 << 10, delta=0.1)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match="cap"):
                generate_batch(spec, 100_000_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_bit_family_heights_are_int32(self):
        # At l = 1 the first level holds one height per entry.  In int64 they
        # took 16 MB beside this 2 MB result, and the call peaked at 32 MB;
        # int32 heights peak at 19 MB.  The bound is 24 MB.
        spec = GeneratorSpec(Family.FRW, 1 << 12, delta=0.1, base_len=1, seed=1)
        tracemalloc.start()
        try:
            A = generate_batch(spec, 500)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert A.nbytes == 500 << 12
        assert peak < 24e6

    def test_heights_only_runs_merge_in_int32(self):
        # afrw's bound at this spec is far below 2**31, so its 4096 heights per
        # trial merge in int32: 16 MiB at l = 1 beside an 8 MiB first level,
        # and the call peaks near 27 MiB, against 51 MiB in int64.
        spec = GeneratorSpec(Family.AFRW, 1 << 12, delta=0.1, base_len=1, seed=1)
        tracemalloc.start()
        try:
            heights = simulate_heights(spec, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert heights.dtype == np.int64
        assert peak < 30 * 2**20

    def test_cap_counts_blocks_not_entries_for_heights(self):
        # Uniform heights are one binomial draw per trial, whatever the length.
        spec = GeneratorSpec(Family.UNIFORM, 1 << 20)
        assert simulate_heights(spec, 300).shape == (300,)
