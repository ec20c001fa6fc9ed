import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fractalwalk import BitSequence, IntSequence, SequenceFormatError, dumps, loads, seqio
from fractalwalk.seqio import _csv_bytes, atomic_write_bytes, read_binary, read_csv
from fractalwalk.sequences import MAX_TOTAL_LEN


@given(st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=300))
def test_bit_roundtrip(bits):
    seq = BitSequence(bits)
    back = loads(dumps(seq))
    assert isinstance(back, BitSequence)
    assert back == seq


odd_ints = st.integers(-(10**6), 10**6).map(lambda v: v * 2 + 1)


@given(st.lists(odd_ints, min_size=1, max_size=120))
def test_int_roundtrip(entries):
    seq = IntSequence(entries)
    back = loads(dumps(seq))
    assert isinstance(back, IntSequence)
    assert back == seq


def test_file_roundtrips(tmp_path):
    seq = BitSequence([1, -1, 1, 1, -1])
    # The CLI's write path: the encoded bytes through atomic_write_bytes.
    atomic_write_bytes(tmp_path / "s.fwsq", dumps(seq))
    assert read_binary(tmp_path / "s.fwsq") == seq
    atomic_write_bytes(tmp_path / "s.csv", _csv_bytes(seq))
    assert read_csv(tmp_path / "s.csv") == seq
    aug = IntSequence([3, -5, 1])
    atomic_write_bytes(tmp_path / "a.csv", _csv_bytes(aug))
    assert read_csv(tmp_path / "a.csv") == aug
    assert not list(tmp_path.glob("*.tmp"))


def test_bit_payload_is_packed():
    seq = BitSequence([1] * 64)
    assert len(dumps(seq)) == 14 + 8


@pytest.mark.parametrize(
    "mutate",
    [
        lambda b: b"XXXX" + b[4:],  # magic
        lambda b: b[:4] + bytes([9]) + b[5:],  # version
        lambda b: b[:5] + bytes([7]) + b[6:],  # kind
        lambda b: b[:-1],  # truncated payload
        lambda b: b + b"\x00",  # trailing garbage
        lambda b: b[:10],  # short header
    ],
)
def test_corruption_rejected(mutate):
    blob = dumps(BitSequence([1, -1] * 8))
    with pytest.raises(SequenceFormatError):
        loads(mutate(blob))


def test_int_truncation_rejected():
    blob = dumps(IntSequence([1001, -999]))
    with pytest.raises(SequenceFormatError):
        loads(blob[:-1])


def test_csv_bad_content(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1\nx\n")
    with pytest.raises(SequenceFormatError):
        read_csv(p)
    p.write_text("")
    with pytest.raises(SequenceFormatError):
        read_csv(p)


@pytest.mark.parametrize("entry", ["9223372036854775808", "-9223372036854775809", "99999999999999999999"])
def test_csv_entry_outside_int64_rejected(tmp_path, entry):
    p = tmp_path / "big.csv"
    p.write_text(f"3\n{entry}\n")
    with pytest.raises(SequenceFormatError, match="int64"):
        read_csv(p)


def test_csv_length_cap_checked_before_parsing(tmp_path, monkeypatch):
    # The last entry is not an integer: the cap must refuse the file before
    # any entry is parsed into the value array.
    monkeypatch.setattr(seqio, "MAX_TOTAL_LEN", 4)
    p = tmp_path / "long.csv"
    p.write_text("1\n2\n3\n4\nx\n")
    with pytest.raises(SequenceFormatError, match="exceed 4"):
        read_csv(p)


def test_widest_varint_decodes():
    # Ten bytes carry the zigzag code of int64's minimum, 2**64 - 1.
    assert seqio._read_varint(b"\xff" * 9 + b"\x01", 0) == ((1 << 64) - 1, 10)
    assert seqio._zigzag_decode((1 << 64) - 1) == -(1 << 63)


@pytest.mark.parametrize(
    "payload, message",
    [
        (b"\xff" * 9 + b"\x02", "wider than 64 bits"),  # 10 bytes, bit 64 set
        (b"\xff" * 10 + b"\x01", "longer than 10 bytes"),
        (b"\x80" * 10 + b"\x00", "longer than 10 bytes"),
    ],
)
def test_varint_wider_than_64_bits_rejected(payload, message):
    with pytest.raises(SequenceFormatError, match=message):
        loads(_header(1, 1) + payload)


def test_csv_binary_content_rejected(tmp_path):
    p = tmp_path / "binary.csv"
    p.write_bytes(b"\xff\xfe\x00\x01")
    with pytest.raises(SequenceFormatError, match="not text"):
        read_csv(p)


def test_zero_length_rejected():
    header = b"FWSQ" + bytes([1, 0]) + np.uint64(0).tobytes()
    with pytest.raises(SequenceFormatError):
        loads(header)


def _header(kind: int, n: int) -> bytes:
    return b"FWSQ" + bytes([1, kind]) + np.uint64(n).tobytes()


def test_forged_int_length_rejected():
    with pytest.raises(SequenceFormatError, match="exceeds"):
        loads(_header(1, 1 << 62) + b"\x02")


def test_int_length_beyond_payload_rejected_before_allocating():
    # 2**20 entries cannot fit in one payload byte; refusing it must not
    # first reserve the 8 MiB an int64 array of that length would take.
    tracemalloc.start()
    try:
        with pytest.raises(SequenceFormatError, match="payload"):
            loads(_header(1, 1 << 20) + b"\x02")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_oversized_bit_length_rejected():
    n = MAX_TOTAL_LEN + 8
    with pytest.raises(SequenceFormatError, match="exceeds"):
        loads(_header(0, n) + bytes(n // 8))


def test_atomic_write_leaves_fixed_tmp_name_alone(tmp_path):
    target = tmp_path / "out.bin"
    bystander = tmp_path / "out.bin.tmp"
    bystander.write_bytes(b"someone else's file")
    atomic_write_bytes(target, b"payload")
    assert target.read_bytes() == b"payload"
    assert bystander.read_bytes() == b"someone else's file"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin", "out.bin.tmp"]


def test_atomic_write_failure_removes_temp_file(tmp_path):
    target = tmp_path / "sub"
    target.mkdir()
    (target / "x").write_bytes(b"")  # a non-empty directory cannot be replaced by a file
    with pytest.raises(OSError):
        atomic_write_bytes(target, b"data")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]
