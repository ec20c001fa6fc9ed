import numpy as np
import pytest
from hypothesis import given, strategies as st

from fractalwalk import (
    BitSequence,
    ConfigurationError,
    GeneratorSpec,
    IntSequence,
    Interval,
    generate_batch,
)
from fractalwalk import analysis, generators, predictors
from fractalwalk.analysis import _opposite_falls, _prefix_at, _segment_extremes
from fractalwalk.sequences import _MAX_ENTRY, MAX_TOTAL_LEN, _sum_dtype


class TestInterval:
    def test_len(self):
        assert len(Interval(2, 6, 8)) == 4
        assert len(Interval(0, 8, 8)) == 8

    @pytest.mark.parametrize("lo,hi", [(-1, 4), (4, 4), (5, 4), (0, 9), (8, 9)])
    def test_out_of_range_rejected(self, lo, hi):
        with pytest.raises(IndexError):
            Interval(lo, hi, 8)


class TestBitSequence:
    def test_height_hand_trace(self):
        seq = BitSequence([1, 1, -1, -1, 1, 1])
        assert seq.height() == 2
        assert seq.height(Interval(0, 2, 6)) == 2
        assert seq.height(Interval(2, 4, 6)) == -2
        assert seq.height(Interval(1, 5, 6)) == 0
        assert list(seq.prefix) == [0, 1, 2, 1, 0, 1, 2]

    def test_height_rejects_foreign_interval(self):
        seq = BitSequence([1, -1])
        with pytest.raises(IndexError):
            seq.height(Interval(0, 2, 4))

    @pytest.mark.parametrize("bad", [[], [0, 1], [2, -1], [[1, -1]]])
    def test_validation(self, bad):
        with pytest.raises(ConfigurationError):
            BitSequence(bad)

    def test_immutable(self):
        seq = BitSequence([1, -1, 1])
        with pytest.raises(AttributeError):
            seq.values = np.array([1])
        with pytest.raises(ValueError):
            seq.values[0] = -1
        with pytest.raises(ValueError):
            seq.prefix[0] = 5

    def test_input_array_not_aliased(self):
        src = np.array([1, -1, 1], dtype=np.int8)
        seq = BitSequence(src)
        src[0] = -1
        assert seq.values[0] == 1

    def test_equality_and_hash(self):
        a, b = BitSequence([1, -1]), BitSequence([1, -1])
        assert a == b and hash(a) == hash(b)
        assert a != BitSequence([1, 1])
        assert a != IntSequence([1, -1])

    @given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=200), st.data())
    def test_height_matches_direct_sum(self, bits, data):
        seq = BitSequence(bits)
        lo = data.draw(st.integers(0, len(bits) - 1))
        hi = data.draw(st.integers(lo + 1, len(bits)))
        assert seq.height(Interval(lo, hi, len(bits))) == sum(bits[lo:hi])


class TestIntSequence:
    def test_accepts_odd_entries(self):
        seq = IntSequence([3, -1, 5, -7])
        assert seq.height() == 0
        assert seq.height(Interval(0, 1, 4)) == 3

    @pytest.mark.parametrize("bad", [[2, 1], [0], []])
    def test_rejects_non_odd(self, bad):
        with pytest.raises(ConfigurationError):
            IntSequence(bad)

    def test_rejects_entries_beyond_supported_magnitude(self):
        with pytest.raises(ConfigurationError, match="magnitude"):
            IntSequence([2**41 + 1])

    def test_entry_cap_keeps_every_prefix_sum_in_int64(self):
        # MAX_TOTAL_LEN entries below the cap sum to less than 2**63; at 2**40 - 1
        # a full-length sequence's height wrapped to -2**24.
        assert _MAX_ENTRY == 1 << 39
        assert MAX_TOTAL_LEN * (_MAX_ENTRY - 1) < 2**63 <= MAX_TOTAL_LEN * _MAX_ENTRY
        top = _MAX_ENTRY - 1
        assert IntSequence([top, -top, top]).height() == top
        for bad in (_MAX_ENTRY, _MAX_ENTRY + 1, -_MAX_ENTRY - 1, 2**40 - 1):
            with pytest.raises(ConfigurationError):
                IntSequence([1, bad])
        with pytest.raises(ConfigurationError, match="magnitude"):
            IntSequence([-_MAX_ENTRY - 1])

    def test_generated_entries_stay_below_the_cap(self):
        # The largest block height any spec can reach, so ``generate`` never
        # builds an IntSequence it would refuse: about 3.5e11 against 5.5e11.
        spec = GeneratorSpec("afrw", MAX_TOTAL_LEN, delta=0.99, base_len=1)
        assert 3.5e11 < generators._height_bound(spec) < _MAX_ENTRY


def _worst_rows(n: int) -> np.ndarray:
    """int8 rows of ``n`` entries whose sums and prefix differences are largest:
    all +1, all -1, and each sign for the first half then the other."""
    half = np.arange(n) < n // 2
    return np.array([np.ones(n), -np.ones(n), np.where(half, 1, -1), np.where(half, -1, 1)], dtype=np.int8)


class TestNarrowSums:
    """Every int8 reduction narrowed by ``_sum_dtype`` equals its int64 form on
    worst-case rows at the int16/int32 boundary; the same code on int64 rows is
    the oracle, since ``_sum_dtype`` keeps int64 there."""

    def test_dtype_rule(self):
        rows = np.ones((1, 4), dtype=np.int8)
        assert _sum_dtype(rows, (1 << 15) - 1) == np.int16
        assert _sum_dtype(rows, 1 << 15) == np.int32
        assert _sum_dtype(rows, 1 << 24) == np.int32
        assert _sum_dtype(rows.astype(np.int64), 1) == np.int64

    @pytest.mark.parametrize("n", [(1 << 15) - 1, 1 << 15, (1 << 15) + 1])
    def test_prefix_slices_and_bettor_sums(self, n):
        rows = _worst_rows(n)
        wide = rows.astype(np.int64)
        for cols in ([n], [1, n], [n // 2, n - 1, n]):
            assert np.array_equal(_prefix_at(rows, cols), _prefix_at(wide, cols))
        for got, want in zip(predictors._bettor_stages(rows, -n - 1, n + 1, 2),
                             predictors._bettor_stages(wide, -n - 1, n + 1, 2)):
            assert np.array_equal(got, want)
        assert np.array_equal(predictors._weighted_majority_payoffs(rows),
                              predictors._weighted_majority_payoffs(wide))

    @pytest.mark.parametrize("x", [16383, 16384, 1 << 15])
    def test_segment_extremes(self, x):
        # _segment_extremes subtracts two prefixes, so narrow prefix rows need 2x.
        rows = _worst_rows(x)
        pref = np.zeros((len(rows), x + 1), dtype=_sum_dtype(rows, 2 * x))
        np.cumsum(rows, axis=1, dtype=pref.dtype, out=pref[:, 1:])
        wide = np.zeros((len(rows), x + 1), dtype=np.int64)
        np.cumsum(rows, axis=1, out=wide[:, 1:])
        for got, want in zip(_segment_extremes(pref), _segment_extremes(wide)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("sweep_min_rows", [1, 5])
    @pytest.mark.parametrize("x", [16383, 16384, 1 << 15])
    def test_opposite_falls(self, monkeypatch, x, sweep_min_rows):
        # alpha_q_estimate's window scan keeps its values in _sum_dtype(rows, 2x),
        # by column sweep (1) or by prefix passes on these four rows (5).
        monkeypatch.setattr(analysis, "_SWEEP_MIN_ROWS", sweep_min_rows)
        rows = _worst_rows(x)
        got, want = _opposite_falls(rows), _opposite_falls(rows.astype(np.int64))
        assert got[0].dtype == _sum_dtype(rows, 2 * x)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("base_len", [1 << 14, 1 << 15])
    def test_block_heights_row_check_and_block_bets(self, monkeypatch, base_len):
        T = 1 << 16
        rows = _worst_rows(T)
        seen = []
        merge_level = generators._merge_level

        def spy(spec, n, H, *args, **kw):
            seen.append(H.copy())
            return merge_level(spec, n, H, *args, **kw)

        monkeypatch.setattr(generators, "_bits", lambda rng, n_rows, cols: rows.copy())
        monkeypatch.setattr(generators, "_merge_level", spy)
        spec = GeneratorSpec("opt_frw", T, delta=0.5, base_len=base_len, seed=3)
        out = generate_batch(spec, len(rows))  # runs the row-sum check at T = 2**16
        wide = rows.astype(np.int64).reshape(len(rows), -1, base_len).sum(axis=2)
        # Bit-family block heights merge in int32, exact up to MAX_TOTAL_LEN.
        assert seen[0].dtype == np.int32 and np.array_equal(seen[0], wide)
        assert np.array_equal(out[:2], rows[:2])  # nothing to flip in a constant row
        assert np.array_equal(predictors._block_momentum_payoffs(rows, base_len),
                              predictors._block_momentum_payoffs(rows.astype(np.int64), base_len))
