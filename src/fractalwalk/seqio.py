"""Sequence serialization: a compact binary container plus plain CSV.

Binary layout (little-endian):

    magic   4 bytes  b"FWSQ"
    version 1 byte   currently 1
    kind    1 byte   0 = packed bits, 1 = zigzag varint integers
    length  8 bytes  number of entries, uint64

followed by ``ceil(length / 8)`` packed bit bytes (+1 encoded as a set bit),
or ``length`` zigzag-encoded LEB128 varints for integer sequences.
"""

from __future__ import annotations

import io
import os
from pathlib import Path

import numpy as np

from .errors import SequenceFormatError
from .sequences import MAX_TOTAL_LEN, BitSequence, IntSequence

__all__ = ["read_binary", "read_csv", "dumps", "loads", "atomic_write_bytes"]

MAGIC = b"FWSQ"
VERSION = 1
_KIND_BITS = 0
_KIND_INTS = 1


def _zigzag_encode(v: int) -> int:
    return (v << 1) if v >= 0 else ((-v << 1) - 1)


def _zigzag_decode(z: int) -> int:
    return (z >> 1) if (z & 1) == 0 else -((z + 1) >> 1)


def _write_varint(out: io.BytesIO, z: int) -> None:
    while z > 0x7F:
        out.write(bytes((0x80 | (z & 0x7F),)))
        z >>= 7
    out.write(bytes((z,)))


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    """One LEB128 varint of at most 10 bytes (70 bits), starting at ``pos``."""
    z = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise SequenceFormatError("truncated varint payload")
        b = data[pos]
        pos += 1
        z |= (b & 0x7F) << shift
        if not (b & 0x80):
            return z, pos
        shift += 7
        if shift >= 70:
            raise SequenceFormatError("varint longer than 10 bytes")


def dumps(seq: BitSequence | IntSequence) -> bytes:
    out = io.BytesIO()
    out.write(MAGIC)
    kind = _KIND_BITS if isinstance(seq, BitSequence) else _KIND_INTS
    out.write(bytes((VERSION, kind)))
    out.write(np.uint64(len(seq)).tobytes())
    if kind == _KIND_BITS:
        out.write(np.packbits(seq.values > 0).tobytes())
    else:
        for v in seq.values.tolist():
            _write_varint(out, _zigzag_encode(v))
    return out.getvalue()


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
        values = np.empty(n, dtype=np.int64)
        pos = 0
        try:
            for i in range(n):
                z, pos = _read_varint(payload, pos)
                values[i] = _zigzag_decode(z)
        except OverflowError as exc:
            # A zigzag code decodes inside int64 exactly when it is below 2**64.
            raise SequenceFormatError(f"entry {i} is wider than 64 bits") from exc
        if pos != len(payload):
            raise SequenceFormatError("trailing bytes after integer payload")
        return IntSequence(values)
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
