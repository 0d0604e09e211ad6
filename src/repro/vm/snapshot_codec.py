"""Versioned binary codec for :class:`~repro.vm.program_counter.LaneSnapshot`.

Because the program-counter machine keeps all recursive state explicit, a
mid-flight lane is just a handful of arrays — which means it can leave
process memory entirely: spilled to disk under a resident-snapshot cap, or
shipped to another host.  This module is the wire format that makes that
safe:

* **Self-describing** — magic, format version, and per-array dtype/shape
  headers, so a decoder never guesses layout.
* **Program-fingerprinted** — a SHA-256 digest of the program's canonical
  text rides in the header; bytes captured under one program refuse to
  decode against another (:class:`SnapshotProgramMismatchError`), the
  cross-process analogue of ``restore_lane``'s ``program is not
  self.program`` identity check.
* **Integrity-checked** — a CRC32 trailer over the whole body, so any
  flipped or truncated byte is a typed :class:`SnapshotDecodeError`, never
  a silently corrupt lane.
* **Admission-checked before allocation** — :func:`decode_snapshot` parses
  array *headers* first, computes the snapshot's required stack depth from
  shapes alone, and runs the same static admission as
  ``ProgramCounterVM.restore_lane`` (depth vs a ``max_stack_depth`` cap, frames
  vs the verifier's proven bound via
  :meth:`~repro.analysis.stackcheck.ProgramFacts.check_snapshot_frames`)
  *before materializing a single payload array*.  Corrupt, cross-program,
  or forged-depth bytes are rejected with no lane state — not even
  detached arrays — ever allocated.
* **Lossless or loud** — a storage a user primitive filled with an
  object-dtype array has no byte form; encoding it raises
  :class:`SnapshotCodecError` naming the storage instead of dropping it.

Layout (all integers little-endian)::

    magic b"RPLS" | u16 version | sha256 fingerprint (32 bytes)
    | i64 pc
    | array addr_frames
    | u32 n_storages | { str name | u8 tag (0=None, 1=array) | [array] }*
    | u32 crc32(everything above)

where ``str`` is a u32-length-prefixed UTF-8 string and ``array`` is
``str dtype.str | u8 ndim | u64 dim* | u64 nbytes | raw tobytes()``.
Storages are written in sorted-name order, so identical snapshots always
encode to identical bytes (content-addressed spill stores work).
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.ir.instructions import StackProgram, VarKind
from repro.vm.program_counter import LaneSnapshot, SnapshotIncompatibleError

MAGIC = b"RPLS"
VERSION = 2


class SnapshotCodecError(ValueError):
    """Base class for snapshot wire-format failures; raised itself when a
    snapshot cannot be encoded.

    Subclasses ``ValueError`` so the serving engine's existing
    fail-only-this-handle resume path catches codec failures without any
    new except clauses.
    """


class SnapshotDecodeError(SnapshotCodecError):
    """The bytes are not a well-formed snapshot (corrupt, truncated,
    wrong magic/version, failed CRC, or structurally invalid fields)."""


class SnapshotProgramMismatchError(SnapshotCodecError):
    """The bytes were captured under a different program than the one
    offered for decoding (fingerprint mismatch)."""


# -- program fingerprint -------------------------------------------------------


def program_fingerprint(program: StackProgram) -> bytes:
    """SHA-256 digest of the program's canonical text (cached on the program).

    Hashes the structural identity a restore depends on: inputs, outputs,
    declared storage kinds, function entry points, and every block's ops
    and terminator in their canonical ``str`` forms (which spell out
    constants, primitive names, and jump targets as block indices).
    Block labels are cosmetic and excluded.
    """
    cached = getattr(program, "_fingerprint", None)
    if cached is not None:
        return cached
    lines: List[str] = [
        "inputs:" + ",".join(program.inputs),
        "outputs:" + ",".join(program.outputs),
        "kinds:" + ",".join(
            f"{name}={program.var_kinds[name].value}"
            for name in sorted(program.var_kinds)
        ),
        "entries:" + ",".join(
            f"{name}@{program.function_entries[name]}"
            for name in sorted(program.function_entries)
        ),
    ]
    for i, block in enumerate(program.blocks):
        lines.append(f"block {i}:")
        for op in block.ops:
            lines.append("  " + str(op))
        lines.append("  " + str(block.terminator))
    digest = hashlib.sha256("\n".join(lines).encode("utf-8")).digest()
    program._fingerprint = digest
    return digest


def _known_variables(program: StackProgram) -> frozenset:
    cached = getattr(program, "_snapshot_vars", None)
    if cached is None:
        cached = frozenset(program.variables())
        program._snapshot_vars = cached
    return cached


# -- encoding ------------------------------------------------------------------


def _pack_str(text: str) -> bytes:
    raw = text.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def _pack_array(array: np.ndarray, what: str) -> bytes:
    array = np.asarray(array)
    if array.dtype.hasobject:
        raise SnapshotCodecError(
            f"snapshot {what} holds an object-dtype array "
            f"(dtype={array.dtype}), which has no byte representation; this "
            "lane cannot leave process memory"
        )
    # tobytes() copies in C order even for non-contiguous views, and —
    # unlike ascontiguousarray — never promotes 0-d register scalars to 1-D.
    raw = array.tobytes()
    parts = [
        _pack_str(array.dtype.str),
        struct.pack("<B", array.ndim),
        struct.pack(f"<{array.ndim}Q", *array.shape) if array.ndim else b"",
        struct.pack("<Q", len(raw)),
        raw,
    ]
    return b"".join(parts)


def encode_snapshot(snapshot: LaneSnapshot) -> bytes:
    """Serialize ``snapshot`` to the versioned wire format."""
    parts = [
        MAGIC,
        struct.pack("<H", VERSION),
        program_fingerprint(snapshot.program),
        struct.pack("<q", int(snapshot.pc)),
        _pack_array(snapshot.addr_frames, "address-stack frames"),
        struct.pack("<I", len(snapshot.storages)),
    ]
    for name in sorted(snapshot.storages):
        payload = snapshot.storages[name]
        parts.append(_pack_str(name))
        if payload is None:
            parts.append(b"\x00")
        else:
            parts.append(b"\x01")
            parts.append(_pack_array(payload, f"storage {name!r}"))
    body = b"".join(parts)
    return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)


# -- decoding ------------------------------------------------------------------


class _Reader:
    """Sequential reader over snapshot bytes; every read is bounds-checked."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if n < 0 or end > len(self.data):
            raise SnapshotDecodeError(
                f"snapshot bytes truncated: wanted {n} bytes at offset "
                f"{self.pos}, only {len(self.data) - self.pos} remain"
            )
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def unpack(self, fmt: str) -> Tuple[Any, ...]:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def str_(self) -> str:
        (length,) = self.unpack("<I")
        try:
            return self.take(length).decode("utf-8")
        except UnicodeDecodeError as error:
            raise SnapshotDecodeError(
                f"snapshot bytes hold an invalid UTF-8 string: {error}"
            ) from error

    def array_header(self) -> Tuple[str, Tuple[int, ...], int, int]:
        """Parse one array record, *skipping* its payload.

        Returns ``(dtype_str, shape, payload_offset, payload_nbytes)`` so
        admission checks can run on shapes alone; materialization happens
        later via :meth:`materialize`.
        """
        dtype_str = self.str_()
        (ndim,) = self.unpack("<B")
        shape = self.unpack(f"<{ndim}Q") if ndim else ()
        (nbytes,) = self.unpack("<Q")
        offset = self.pos
        self.take(nbytes)  # bounds-check and skip
        return dtype_str, tuple(int(d) for d in shape), offset, int(nbytes)

    def materialize(
        self, header: Tuple[str, Tuple[int, ...], int, int]
    ) -> np.ndarray:
        dtype_str, shape, offset, nbytes = header
        try:
            dtype = np.dtype(dtype_str)
        except TypeError as error:
            raise SnapshotDecodeError(
                f"snapshot bytes name an unknown dtype {dtype_str!r}"
            ) from error
        count = 1
        for dim in shape:
            count *= dim
        if dtype.itemsize * count != nbytes:
            raise SnapshotDecodeError(
                f"snapshot array payload is {nbytes} bytes but dtype "
                f"{dtype_str} with shape {shape} needs "
                f"{dtype.itemsize * count}"
            )
        flat = np.frombuffer(self.data, dtype=dtype, count=count, offset=offset)
        return flat.reshape(shape).copy()


def decode_snapshot(
    data: bytes,
    program: StackProgram,
    *,
    facts: Any = None,
    max_stack_depth: Optional[int] = None,
) -> LaneSnapshot:
    """Decode ``data`` into a :class:`LaneSnapshot` bound to ``program``.

    Admission order (each rejection *before* any array is materialized):

    1. magic / version / CRC32 — :class:`SnapshotDecodeError`;
    2. program fingerprint — :class:`SnapshotProgramMismatchError`;
    3. pc range and storage-name validity — :class:`SnapshotDecodeError`;
    4. required depth (from array headers alone) vs a ``max_stack_depth``
       cap — :class:`~repro.vm.program_counter.SnapshotIncompatibleError`;
    5. required depth vs the verifier's proven bound via
       ``facts.check_snapshot_frames`` — ``ValueError`` (a forged-depth
       snapshot this program cannot have produced).

    Pass the machine's ``plan.facts`` and ``max_stack_depth`` to run the
    full static admission here; ``restore_lane`` re-checks both anyway, so
    skipping them only delays rejection, never weakens it.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise SnapshotDecodeError(
            f"snapshot bytes must be a bytes-like object, got "
            f"{type(data).__name__}"
        )
    data = bytes(data)
    if len(data) < len(MAGIC) + 2 + 4:
        raise SnapshotDecodeError(
            f"snapshot bytes truncated: {len(data)} bytes is shorter than "
            "the fixed header and trailer"
        )
    if data[: len(MAGIC)] != MAGIC:
        raise SnapshotDecodeError(
            "snapshot bytes lack the RPLS magic; this is not a serialized "
            "LaneSnapshot"
        )
    (version,) = struct.unpack_from("<H", data, len(MAGIC))
    if version != VERSION:
        raise SnapshotDecodeError(
            f"snapshot format version {version} is not supported "
            f"(this codec reads version {VERSION})"
        )
    (crc_stored,) = struct.unpack_from("<I", data, len(data) - 4)
    crc_actual = zlib.crc32(data[:-4]) & 0xFFFFFFFF
    if crc_stored != crc_actual:
        raise SnapshotDecodeError(
            f"snapshot bytes fail their integrity check (crc32 "
            f"{crc_actual:#010x} != stored {crc_stored:#010x}); the bytes "
            "were corrupted or truncated in storage or transport"
        )

    reader = _Reader(data[:-4])
    reader.take(len(MAGIC) + 2)
    fingerprint = reader.take(32)
    expected = program_fingerprint(program)
    if fingerprint != expected:
        raise SnapshotProgramMismatchError(
            "snapshot bytes were captured under a different program "
            f"(fingerprint {fingerprint.hex()[:12]}… != this program's "
            f"{expected.hex()[:12]}…); snapshots only restore into machines "
            "running the same StackProgram"
        )
    (pc,) = reader.unpack("<q")
    if not (0 <= pc <= program.exit_index):
        raise SnapshotDecodeError(
            f"snapshot pc {pc} is outside this program's pc range "
            f"[0, {program.exit_index}]"
        )
    addr_header = reader.array_header()
    if len(addr_header[1]) != 1 or addr_header[1][0] < 1:
        raise SnapshotDecodeError(
            f"snapshot address-stack frames must be a 1-D array with at "
            f"least the base frame, got shape {addr_header[1]}"
        )

    known = _known_variables(program)
    (n_storages,) = reader.unpack("<I")
    storage_headers: List[Tuple[str, Optional[Tuple]]] = []
    seen_names: set = set()
    for _ in range(n_storages):
        name = reader.str_()
        if name not in known:
            raise SnapshotDecodeError(
                f"snapshot bytes name a storage {name!r} that is not a "
                "variable of this program"
            )
        if name in seen_names:
            raise SnapshotDecodeError(
                f"snapshot bytes list storage {name!r} twice"
            )
        seen_names.add(name)
        (tag,) = reader.unpack("<B")
        if tag == 0:
            storage_headers.append((name, None))
        elif tag == 1:
            storage_headers.append((name, reader.array_header()))
        else:
            raise SnapshotDecodeError(
                f"snapshot storage {name!r} carries unknown tag {tag}"
            )
    if reader.pos != len(reader.data):
        raise SnapshotDecodeError(
            f"snapshot bytes hold {len(reader.data) - reader.pos} trailing "
            "bytes past the last field"
        )

    # -- static admission, from headers alone (nothing materialized yet) ------
    required = addr_header[1][0] - 1
    for name, header in storage_headers:
        if header is not None and program.kind(name) is VarKind.STACKED:
            if not header[1] or header[1][0] < 1:
                raise SnapshotDecodeError(
                    f"snapshot stacked storage {name!r} must carry a frames "
                    "array with at least the base frame, got shape "
                    f"{header[1]}"
                )
            required = max(required, header[1][0] - 1)
    if max_stack_depth is not None and required > max_stack_depth:
        raise SnapshotIncompatibleError(
            f"serialized lane snapshot at pc={pc} requires stack depth "
            f"{required} but the target machine has max_stack_depth="
            f"{max_stack_depth}; restore it into a machine with "
            f"max_stack_depth >= {required}"
        )
    if facts is not None:
        facts.check_snapshot_frames(required)

    # -- admission passed: materialize ----------------------------------------
    addr_frames = reader.materialize(addr_header)
    storages: Dict[str, Optional[np.ndarray]] = {}
    for name, header in storage_headers:
        storages[name] = None if header is None else reader.materialize(header)
    return LaneSnapshot(
        program=program,
        pc=int(pc),
        addr_frames=addr_frames,
        storages=storages,
    )
