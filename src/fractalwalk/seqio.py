"""Sequence serialization: a compact binary container plus plain CSV.

Binary layout (little-endian):

    magic   4 bytes  b"FWSQ"
    version 1 byte   currently 1
    kind    1 byte   0 = packed bits, 1 = zigzag varint integers
    length  8 bytes  number of entries, uint64

followed by ``ceil(length / 8)`` packed bit bytes (+1 encoded as a set bit),
or ``length`` zigzag-encoded LEB128 varints for integer sequences.

The varint codec works on whole arrays, one numpy pass per byte position (at
most ten), rather than one Python step per entry; its bytes are those of the
plain per-entry loop, which ``tests/test_seqio.py`` keeps as its oracle.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .errors import SequenceFormatError, _instance
from .sequences import MAX_TOTAL_LEN, BitSequence, IntSequence

__all__ = ["read_binary", "read_csv", "dumps", "loads", "atomic_write_bytes"]

MAGIC = b"FWSQ"
VERSION = 1
_KIND_BITS = 0
_KIND_INTS = 1


def _varints(values: np.ndarray) -> np.ndarray:
    """The zigzag LEB128 bytes of int64 ``values``, one scatter per byte position.

    Each code's byte count is one plus the 7-bit group thresholds ``2**(7k)``
    it reaches, so every byte's place is known before any is written.  Each
    pass writes the next low 7 bits of every code still unwritten, with the
    continuation bit set; the pass then drops the codes it finished, and the
    last byte of each code has its continuation bit cleared at the end.
    """
    z = ((values << 1) ^ (values >> 63)).view(np.uint64)
    size = np.ones(z.shape[0], dtype=np.int64)
    for k in range(1, (int(z.max()).bit_length() + 6) // 7):
        size += z >= 1 << 7 * k
    ends = np.cumsum(size)
    out = np.empty(int(ends[-1]), dtype=np.uint8)
    pos = ends - size
    while pos.shape[0]:
        out[pos] = z | 0x80  # the cast keeps the low 8 bits
        z >>= 7
        more = z != 0
        pos, z = pos[more] + 1, z[more]
    out[ends - 1] &= 0x7F
    return out


def _unvarints(payload: bytes, n: int) -> np.ndarray:
    """``n`` int64 values from as many zigzag LEB128 varints filling ``payload``.

    The codes end at the terminator bytes (``b < 0x80``); each pass gathers
    the next 7-bit group of every code still that long.  A malformed payload
    raises the error a sequential reader would meet first.
    """
    b = np.frombuffer(payload, dtype=np.uint8)
    ends = np.flatnonzero(b < 0x80)[:n]
    starts = np.zeros(ends.shape[0], dtype=np.int64)
    starts[1:] = ends[:-1] + 1
    size = ends - starts + 1
    # A code of 10 bytes holds more than 64 bits once its last byte exceeds 1.
    bad = np.flatnonzero((size > 10) | ((size == 10) & (b[ends] > 1)))
    if bad.shape[0]:
        i = int(bad[0])
        if size[i] > 10:
            raise SequenceFormatError("varint longer than 10 bytes")
        raise SequenceFormatError(f"entry {i} is wider than 64 bits")
    done = int(ends[-1]) + 1 if ends.shape[0] else 0
    if ends.shape[0] < n:
        if b.shape[0] - done >= 10:
            raise SequenceFormatError("varint longer than 10 bytes")
        raise SequenceFormatError("truncated varint payload")
    if done != b.shape[0]:
        raise SequenceFormatError("trailing bytes after integer payload")
    z = (b[starts] & 0x7F).astype(np.uint64)
    live = np.flatnonzero(size > 1)
    for j in range(1, int(size.max())):
        z[live] |= (b[starts[live] + j] & 0x7F).astype(np.uint64) << 7 * j
        live = live[size[live] > j + 1]
    return (z >> 1).view(np.int64) ^ -(z & 1).view(np.int64)


def dumps(seq: BitSequence | IntSequence) -> bytes:
    seq = _instance(seq, "seq", (BitSequence, IntSequence))
    kind = _KIND_BITS if isinstance(seq, BitSequence) else _KIND_INTS
    header = MAGIC + bytes((VERSION, kind)) + np.uint64(len(seq)).tobytes()
    if kind == _KIND_BITS:
        return header + np.packbits(seq.values > 0).tobytes()
    return header + _varints(seq.values).tobytes()


def loads(data: bytes) -> BitSequence | IntSequence:
    if len(data) < 14:
        raise SequenceFormatError("file too short to hold a sequence header")
    if data[:4] != MAGIC:
        raise SequenceFormatError(f"bad magic {data[:4]!r}, expected {MAGIC!r}")
    version, kind = data[4], data[5]
    if version != VERSION:
        raise SequenceFormatError(f"unsupported version {version}")
    n = int(np.frombuffer(data[6:14], dtype=np.uint64)[0])
    if n == 0:
        raise SequenceFormatError("zero-length sequence")
    if n > MAX_TOTAL_LEN:
        raise SequenceFormatError(f"header length {n} exceeds {MAX_TOTAL_LEN}")
    payload = data[14:]
    if kind == _KIND_BITS:
        need = (n + 7) // 8
        if len(payload) != need:
            raise SequenceFormatError(f"expected {need} payload bytes, found {len(payload)}")
        bits01 = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=n)
        return BitSequence(bits01.astype(np.int8) * 2 - 1)
    if kind == _KIND_INTS:
        if n > len(payload):
            raise SequenceFormatError(f"{n} integers cannot fit in {len(payload)} payload bytes")
        return IntSequence(_unvarints(payload, n))
    raise SequenceFormatError(f"unknown sequence kind {kind}")


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write a uniquely named temp file in the same directory, fsync it, then
    rename it into place; the temp file is removed if any step fails.

    The temp file is created with ``open(..., "xb")`` rather than
    ``tempfile.mkstemp`` so the result keeps the umask-derived mode of a
    plainly written file instead of mkstemp's 0600.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_binary(path: str | Path) -> BitSequence | IntSequence:
    return loads(Path(path).read_bytes())


def _csv_bytes(seq: BitSequence | IntSequence) -> bytes:
    """One entry per row, no header."""
    return ("\n".join(str(v) for v in seq.values.tolist()) + "\n").encode("ascii")


def read_csv(path: str | Path) -> BitSequence | IntSequence:
    try:
        rows = Path(path).read_text().split()
    except UnicodeDecodeError as exc:
        raise SequenceFormatError(f"CSV sequence file is not text: {exc}") from exc
    if not rows:
        raise SequenceFormatError("empty CSV sequence file")
    if len(rows) > MAX_TOTAL_LEN:
        raise SequenceFormatError(f"{len(rows)} CSV entries exceed {MAX_TOTAL_LEN}")
    try:
        values = np.array([int(r) for r in rows], dtype=np.int64)
    except ValueError as exc:
        raise SequenceFormatError(f"non-integer CSV entry: {exc}") from exc
    except OverflowError as exc:
        raise SequenceFormatError(f"CSV entry outside int64: {exc}") from exc
    if np.all(np.abs(values) == 1):
        return BitSequence(values)
    return IntSequence(values)
