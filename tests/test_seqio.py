import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from fractalwalk import BitSequence, ConfigurationError, IntSequence, SequenceFormatError, dumps, loads, seqio
from fractalwalk.seqio import _csv_bytes, atomic_write_bytes, read_binary, read_csv
from fractalwalk.sequences import _MAX_ENTRY, MAX_TOTAL_LEN


# The per-entry zigzag LEB128 loop the package's codec replaced: the oracle
# its bytes, values and errors are pinned to.


def _loop_encode(values) -> bytes:
    out = bytearray()
    for v in values:
        z = (v << 1) if v >= 0 else ((-v << 1) - 1)
        while z > 0x7F:
            out.append(0x80 | (z & 0x7F))
            z >>= 7
        out.append(z)
    return bytes(out)


def _loop_decode(payload: bytes, n: int) -> list[int]:
    """``n`` values read one varint at a time; a varint takes at most 10 bytes,
    and its value must fit int64."""
    values, pos = [], 0
    for i in range(n):
        z = shift = 0
        while True:
            if pos >= len(payload):
                raise SequenceFormatError("truncated varint payload")
            b = payload[pos]
            pos += 1
            z |= (b & 0x7F) << shift
            if not b & 0x80:
                break
            shift += 7
            if shift >= 70:
                raise SequenceFormatError("varint longer than 10 bytes")
        if z >> 64:
            raise SequenceFormatError(f"entry {i} is wider than 64 bits")
        values.append((z >> 1) if not z & 1 else -((z + 1) >> 1))
    if pos != len(payload):
        raise SequenceFormatError("trailing bytes after integer payload")
    return values


def _loop_loads(n: int, payload: bytes) -> IntSequence:
    if n > len(payload):
        raise SequenceFormatError(f"{n} integers cannot fit in {len(payload)} payload bytes")
    return IntSequence(_loop_decode(payload, n))


# Each side of every 7-bit group boundary an IntSequence entry can reach, and its extremes.
WIDEST = _MAX_ENTRY - 1
BOUNDARIES = sorted({s * ((1 << 7 * k) + d) for k in range(1, 6) for d in (-1, 1) for s in (-1, 1)}
                    | {1, -1, WIDEST, -WIDEST})
entries = st.one_of(st.sampled_from(BOUNDARIES), st.integers(-WIDEST, WIDEST).map(lambda v: v | 1))


@given(st.lists(entries, min_size=1, max_size=200))
@example(BOUNDARIES)
def test_int_dumps_matches_the_loop_encoder(values):
    blob = dumps(IntSequence(values))
    assert blob == _header(1, len(values)) + _loop_encode(values)


@given(st.lists(st.integers(-(1 << 63), (1 << 63) - 1), min_size=1, max_size=50))
@example([-(1 << 63), (1 << 63) - 1, 0])
def test_varints_match_the_loop_across_int64(values):
    # Past IntSequence's cap, up to the 10-byte codes of int64's extremes.
    data = seqio._varints(np.array(values, dtype=np.int64)).tobytes()
    assert data == _loop_encode(values)
    assert seqio._unvarints(data, len(values)).tolist() == values


varint_bytes = st.one_of(st.sampled_from([0x00, 0x01, 0x02, 0x7F, 0x80, 0x81, 0xFE, 0xFF]), st.integers(0, 255))


@given(st.integers(1, 8), st.lists(varint_bytes, max_size=40).map(bytes))
@example(1, b"\xff" * 9 + b"\x02")
@example(1, b"\x80" * 10 + b"\x00")
@example(2, b"\x03\x81")
@example(2, b"\x02\x80" * 6 + b"\x01")
@example(1, b"\x80" * 10)
def test_int_loads_matches_the_loop_decoder(n, payload):
    # The same values, or the same error: its class, and the first message a
    # reader walking the payload entry by entry meets.
    try:
        want = _loop_loads(n, payload)
    except (SequenceFormatError, ConfigurationError) as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            loads(_header(1, n) + payload)
    else:
        assert loads(_header(1, n) + payload) == want


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


def test_widest_varint_decodes_as_the_loop_does():
    # Ten bytes carry the zigzag code of int64's minimum, 2**64 - 1: it decodes,
    # and IntSequence then refuses the even entry, as after the loop.
    payload = b"\xff" * 9 + b"\x01"
    assert _loop_decode(payload, 1) == [-(1 << 63)]
    assert seqio._unvarints(payload, 1).tolist() == [-(1 << 63)]
    with pytest.raises(ConfigurationError, match="odd"):
        loads(_header(1, 1) + payload)


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
