"""Wire datatypes for the simulated MPI substrate.

The paper's MPI benchmark "necessitated the creation of a custom MPI data
type and MPI_Op operation to support reduction with MPI_Reduce()"
(Sec. IV.B).  These classes are that datatype layer: each partial-sum
representation defines a fixed-size little-endian byte encoding, and the
communicator moves *only bytes* — so the reduction genuinely round-trips
every hop through pack/unpack, as it would over a real interconnect.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod

from repro.core.params import HPParams
from repro.hallberg.params import HallbergParams

__all__ = [
    "Datatype",
    "CompensatedPartialType",
    "DoubleType",
    "HPWordsType",
    "SmallaccChunksType",
    "HallbergPartialType",
    "datatype_for_method",
]


class Datatype(ABC):
    """A fixed-size pack/unpack codec for one partial-sum type."""

    @property
    @abstractmethod
    def nbytes(self) -> int:
        """Encoded size in bytes."""

    @abstractmethod
    def pack(self, value) -> bytes:
        ...

    @abstractmethod
    def unpack(self, buf: bytes) -> object:
        ...

    def check(self, buf: bytes) -> None:
        if len(buf) != self.nbytes:
            raise ValueError(
                f"{type(self).__name__} expects {self.nbytes} bytes, "
                f"got {len(buf)}"
            )


class DoubleType(Datatype):
    """IEEE binary64, little-endian (MPI_DOUBLE)."""

    @property
    def nbytes(self) -> int:
        return 8

    def pack(self, value: float) -> bytes:
        return struct.pack("<d", value)

    def unpack(self, buf: bytes) -> float:
        self.check(buf)
        return struct.unpack("<d", buf)[0]


class HPWordsType(Datatype):
    """``N`` unsigned 64-bit words — the custom HP MPI datatype.

    Because HP words are plain integers, the encoding is
    architecture-independent: the same bytes decode to the same value on
    any rank, which is what makes the reduction architecture-invariant.
    """

    def __init__(self, params: HPParams) -> None:
        self.params = params
        self._fmt = f"<{params.n}Q"

    @property
    def nbytes(self) -> int:
        return 8 * self.params.n

    def pack(self, value: tuple) -> bytes:
        return struct.pack(self._fmt, *value)

    def unpack(self, buf: bytes) -> tuple:
        self.check(buf)
        return struct.unpack(self._fmt, buf)


class SmallaccChunksType(Datatype):
    """Small-accumulator chunk partials: fixed-size signed 128-bit chunks.

    Chunk ``i`` is weighted ``2**(32*i)``.  Partials ship canonicalized
    (32-bit windows plus a signed top), but combine trees add chunks
    across ranks and may widen any slot past 64 bits before the final
    fold, so the wire slot is 16 bytes signed little-endian per chunk —
    enough headroom that no realistic reduction tree can overflow a
    slot.
    """

    _CHUNK_BYTES = 16

    def __init__(self, params: HPParams) -> None:
        from repro.core.smallacc import bin_count

        self.params = params
        self.nchunks = bin_count(params)

    @property
    def nbytes(self) -> int:
        return self._CHUNK_BYTES * self.nchunks

    def pack(self, value: tuple) -> bytes:
        if len(value) != self.nchunks:
            raise ValueError(
                f"expected {self.nchunks} chunks for {self.params}, "
                f"got {len(value)}"
            )
        return b"".join(
            int(limb).to_bytes(self._CHUNK_BYTES, "little", signed=True)
            for limb in value
        )

    def unpack(self, buf: bytes) -> tuple:
        self.check(buf)
        size = self._CHUNK_BYTES
        return tuple(
            int.from_bytes(buf[i * size : (i + 1) * size], "little", signed=True)
            for i in range(self.nchunks)
        )


class CompensatedPartialType(Datatype):
    """Compensated-tier partials: ``(total, err, count, max_abs)``.

    Two IEEE doubles (running total and pending compensation), the
    summand count (the ``n`` the a-priori bound formulas need), and the
    running ``max|x_i|`` (the streaming mass estimate) — 32 bytes
    little-endian, architecture-independent like every codec here.
    """

    _FMT = "<ddQd"

    @property
    def nbytes(self) -> int:
        return 32

    def pack(self, value: tuple) -> bytes:
        total, err, count, max_abs = value
        return struct.pack(self._FMT, total, err, count, max_abs)

    def unpack(self, buf: bytes) -> tuple:
        self.check(buf)
        from repro.core.compensated import CompPartial

        total, err, count, max_abs = struct.unpack(self._FMT, buf)
        return CompPartial(total, err, count, max_abs)


class HallbergPartialType(Datatype):
    """``N`` signed 64-bit digits plus the summand count (budget
    accounting travels on the wire with the digits)."""

    def __init__(self, params: HallbergParams) -> None:
        self.params = params
        self._fmt = f"<{params.n}qQ"

    @property
    def nbytes(self) -> int:
        return 8 * self.params.n + 8

    def pack(self, value: tuple) -> bytes:
        digits, count = value
        return struct.pack(self._fmt, *digits, count)

    def unpack(self, buf: bytes) -> tuple:
        self.check(buf)
        *digits, count = struct.unpack(self._fmt, buf)
        return (tuple(digits), count)


def datatype_for_method(method) -> Datatype:
    """Pick the wire codec matching a :class:`ReductionMethod`."""
    from repro.parallel.methods import (
        CompensatedMethod,
        DoubleMethod,
        HallbergMethod,
        HPMethod,
        HPSmallaccMethod,
    )

    if isinstance(method, DoubleMethod):
        return DoubleType()
    if isinstance(method, CompensatedMethod):
        return CompensatedPartialType()
    if isinstance(method, HPSmallaccMethod):
        return SmallaccChunksType(method.params)
    if isinstance(method, HPMethod):
        return HPWordsType(method.params)
    if isinstance(method, HallbergMethod):
        return HallbergPartialType(method.params)
    raise TypeError(f"no datatype registered for {type(method).__name__}")
