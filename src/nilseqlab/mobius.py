"""Mobius function tables and averaged correlation sums.

The sieve works one block of SIEVE_BLOCK points at a time.
`sieve_mobius` concatenates the blocks into one int8 table, a byte a
point; `sieve_cache` packs each block into the cache format as it is
made, so its memory is one block whatever the limit.  A cache file is
read back by range (`MobiusCache.block`), and `correlate` reads its
weights one summation segment at a time from a table or a cache, so it
never fills a table for 1..N itself.  A second, independent routine
derives mu(n) by dividing out primes from the values themselves
(different bookkeeping, used as a cross-check and for golden files).
Correlation sums S(N) = (1/N) sum mu(n) xi(n) are accumulated through a
fixed binary reduction tree over fixed segments, so every bit of a sum
is fixed by N and the checkpoints alone.  Everything runs in the
calling thread.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
import zlib
from bisect import bisect_left
from typing import BinaryIO, Callable, Sequence

import numpy as np

from .exactnum import Record, write_atomic
from .nilseq import SequenceStream, _TreeFold, tree_fold  # tree_fold: re-exported

__all__ = [
    "LimitTooLarge",
    "UnboundedSequence",
    "MobiusTable",
    "MobiusCache",
    "sieve_mobius",
    "mobius_by_factorization",
    "mertens",
    "CorrelationReport",
    "correlate",
    "tree_fold",
    "write_cache",
    "read_cache",
    "sieve_cache",
    "mobius_stream",
]

# points per sieve block: its int32 scratch is 2 MB an array, and one
# block is all the sieve holds; the block's size changes no output bit
SIEVE_BLOCK = 1 << 19
# points per correlate summation segment; it fixes the tree_fold shapes,
# hence every output bit of a correlation sum
SEGMENT = 1 << 15
HARD_LIMIT = 10 ** 9          # < 2^31, so int32 holds every n and prod

CACHE_MAGIC = b"MOB2"


class LimitTooLarge(ValueError):
    """Requested sieve limit exceeds the configured bound."""


class UnboundedSequence(ValueError):
    """Correlation against a stream with no finite sup bound."""


class MobiusTable(Record):
    """mu(1..limit) as an int8 array; index 0 is unused."""

    limit: int
    values: np.ndarray

    def mu(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise IndexError(f"n={n} outside 1..{self.limit}")
        return int(self.values[n])

    __getitem__ = mu

    def block(self, lo: int, hi: int) -> np.ndarray:
        """mu(lo..hi-1) as int8, for 1 <= lo <= hi <= limit + 1."""
        if not 1 <= lo <= hi <= self.limit + 1:
            raise IndexError(f"block [{lo}, {hi}) outside 1..{self.limit}")
        return self.values[lo:hi]


def _sieve_primes(limit: int) -> list[int]:
    """The primes <= sqrt(limit) a sieve up to limit divides by, after
    the limit checks."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > HARD_LIMIT:
        raise LimitTooLarge(f"limit {limit} exceeds configured bound {HARD_LIMIT}")
    n = math.isqrt(limit)
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    # Python ints, so that int32 arrays stay int32 when multiplied by p
    return np.nonzero(sieve)[0].tolist()


def _sieve_block(lo: int, hi: int, primes: list[int]) -> np.ndarray:
    """mu(lo..hi-1) as int8, for primes = those <= sqrt(hi - 1).

    One int32 array holds (-1)^k times the product of the k sieved
    primes dividing n, and 0 once some p^2 divides n.  mu(n) is its sign,
    flipped where the product is not n: the leftover cofactor is then
    one more prime.  int32 is exact: |prod| divides n, and n <=
    HARD_LIMIT < 2^31.
    """
    prod = np.ones(hi - lo, dtype=np.int32)
    for p in primes:
        prod[(-lo) % p:: p] *= -p
        p2 = p * p
        prod[(-lo) % p2:: p2] = 0
    mu = np.sign(prod).astype(np.int8)
    np.abs(prod, out=prod)
    flip = (prod != np.arange(lo, hi, dtype=np.int32)).view(np.int8)
    mu *= 1 - 2 * flip
    return mu


def sieve_mobius(limit: int) -> MobiusTable:
    """mu(1..limit) as one table: the sieve blocks, concatenated."""
    primes = _sieve_primes(limit)
    out = np.zeros(limit + 1, dtype=np.int8)
    for lo in range(1, limit + 1, SIEVE_BLOCK):
        hi = min(lo + SIEVE_BLOCK, limit + 1)
        out[lo:hi] = _sieve_block(lo, hi, primes)
    return MobiusTable(limit=limit, values=out)


def mobius_by_factorization(limit: int) -> np.ndarray:
    """Independent mu table: divide primes out of each value (vectorized
    trial division), counting distinct factors and squarefreeness.

    Slower than the sieve and organized differently on purpose; used as
    the oracle in tests and to produce golden files.
    """
    n_vals = np.arange(limit + 1, dtype=np.int64)
    remaining = n_vals.copy()
    remaining[0] = 1
    distinct = np.zeros(limit + 1, dtype=np.int16)
    squarefree = np.ones(limit + 1, dtype=bool)
    for p in _trial_primes(math.isqrt(limit)):
        divisible = remaining % p == 0
        if not divisible.any():
            continue
        remaining[divisible] //= p
        distinct[divisible] += 1
        again = divisible & (remaining % p == 0)
        squarefree[again] = False
        while again.any():
            remaining[again] //= p
            again = again & (remaining % p == 0)
    leftover = remaining > 1
    distinct[leftover] += 1
    mu = np.where(squarefree, np.where(distinct % 2 == 0, 1, -1), 0).astype(np.int8)
    mu[0] = 0
    return mu


def _trial_primes(n: int) -> list[int]:
    # deliberately naive: per-candidate trial division
    primes = []
    for c in range(2, n + 1):
        is_p = True
        for p in primes:
            if p * p > c:
                break
            if c % p == 0:
                is_p = False
                break
        if is_p:
            primes.append(c)
    return primes


def mertens(table: MobiusTable, checkpoints: Sequence[int]) -> list[int]:
    """M(K) = sum_{n<=K} mu(n) at each checkpoint."""
    cks = list(checkpoints)
    if any(k < 1 or k > table.limit for k in cks):
        raise IndexError("checkpoint outside table range")
    csum = np.cumsum(table.values, dtype=np.int64)
    return [int(csum[k]) for k in cks]


class CorrelationReport(Record):
    """Partial averages S(N) = (1/N) sum_{n=1..N} mu(n) xi(n)."""

    checkpoints: tuple[int, ...]
    sums: tuple[complex, ...]
    sequence_bound: float
    method: str = "pairwise-tree"

    def abs_sums(self) -> tuple[float, ...]:
        return tuple(abs(s) for s in self.sums)


def correlate(
    xi: SequenceStream,
    checkpoints: Sequence[int],
    table: MobiusTable | MobiusCache | None = None,
    threads: int = 1,
) -> CorrelationReport:
    """Averaged correlation of mu against a bounded stream.

    Checkpoints must be increasing; the largest determines the sieve
    range.  The weights come from `table` (a MobiusTable or an open
    MobiusCache) one segment of SEGMENT points at a time; with no table,
    mu(1..N) is sieved into a temporary cache file first.  Summation:
    per-segment products are reduced with tree_fold, and segment totals
    with one streaming tree_fold (nilseq._TreeFold), so the shape of
    every sum is fixed by the checkpoints.  Segments are evaluated in
    order in the calling thread.  S(k) is the fold of the totals of the
    segments before k plus the tree_fold of k's own segment up to k;
    the fold gives tree_fold's bits for any prefix of the totals.  So
    memory holds one segment's products, however many checkpoints there
    are.  `threads` is accepted for compatibility and ignored.
    """
    cks = sorted(int(k) for k in checkpoints)
    if not cks or cks[0] < 1:
        raise ValueError("need positive checkpoints")
    if list(cks) != list(checkpoints):
        raise ValueError("checkpoints must be sorted ascending")
    if xi.bound is None:
        raise UnboundedSequence(f"stream {xi.provenance!r} carries no bound")
    n_max = cks[-1]
    if table is None:
        with sieve_cache(n_max) as cache:
            return correlate(xi, cks, cache)
    if table.limit < n_max:
        raise ValueError("mobius table shorter than the last checkpoint")

    below = _TreeFold()  # the totals of the segments before this one
    sums: list[complex] = []
    for lo in range(1, n_max + 1, SEGMENT):
        hi = min(lo + SEGMENT, n_max + 1)
        vals = xi.evaluate_block(lo, hi) * table.block(lo, hi)
        for k in cks[bisect_left(cks, lo): bisect_left(cks, hi)]:
            # whole segments below k, then the part of the segment k is in
            sums.append((below.total() + tree_fold(vals[: k - lo + 1])) / k)
        below.feed((tree_fold(vals),))
        del vals  # one segment's products alive at a time
    return CorrelationReport(
        checkpoints=tuple(cks), sums=tuple(sums), sequence_bound=float(xi.bound),
    )


# ---------------------------------------------------------------------------
# cache file: magic, u64 little-endian limit, u32 zlib.crc32 of the limit
# bytes and the payload, then the payload: mu + 1 in {0, 1, 2} packed two
# bits a value, low bits first; code 3 only pads the last byte

_CACHE_HEADER = struct.Struct("<4sQI")
_CRC_CHUNK = 1 << 20          # payload bytes checksummed per read
# byte -> its four values code - 1, low bits first, as the bytes of one
# little-endian uint32, so a single gather decodes a range; code 3 gives 2
_DECODE = (((np.arange(256)[:, None] >> np.arange(0, 8, 2)) % 4 - 1)
           .astype(np.int8).view("<u4").ravel())


def _pack(mu: np.ndarray) -> bytes:
    """Payload bytes of mu values; a block not the last has 4k values."""
    enc = (mu + 1).astype(np.uint8)
    pad = (-len(enc)) % 4
    if pad:
        enc = np.concatenate([enc, np.full(pad, 3, dtype=np.uint8)])
    quads = enc.reshape(-1, 4)
    packed = quads[:, 0] | (quads[:, 1] << 2) | (quads[:, 2] << 4) | (quads[:, 3] << 6)
    return packed.tobytes()


def _write_cache_file(f: BinaryIO, limit: int,
                      block: Callable[[int, int], np.ndarray]) -> None:
    """Write mu(1..limit), taken from block(lo, hi) one SIEVE_BLOCK at a
    time, to the binary file f in the cache format.  The payload goes out
    in order behind a blank header, the checksum accumulated as it goes;
    the header is filled in last."""
    f.write(bytes(_CACHE_HEADER.size))
    crc = zlib.crc32(struct.pack("<Q", limit))
    for lo in range(1, limit + 1, SIEVE_BLOCK):
        chunk = _pack(block(lo, min(lo + SIEVE_BLOCK, limit + 1)))
        crc = zlib.crc32(chunk, crc)
        f.write(chunk)
    f.seek(0)
    f.write(_CACHE_HEADER.pack(CACHE_MAGIC, limit, crc))
    f.flush()


class MobiusCache:
    """A cache file opened for reading mu by range.

    The header, the payload length and the checksum are checked once, on
    opening; `block` then reads only the bytes it needs with os.pread,
    which moves no file offset and, unlike a mapping, adds no file pages
    to the process's memory.  The object owns `fh` and closes it.
    """

    def __init__(self, fh: BinaryIO):
        self._fh = fh
        try:
            self.limit = self._check()
        except BaseException:
            fh.close()
            raise

    def _check(self) -> int:
        fd, name = self._fh.fileno(), self._fh.name
        header = os.pread(fd, _CACHE_HEADER.size, 0)
        if header[:4] != CACHE_MAGIC:
            raise ValueError(f"{name}: bad magic {header[:4]!r}")
        if len(header) < _CACHE_HEADER.size:
            raise ValueError(f"{name}: short header")
        _, limit, crc = _CACHE_HEADER.unpack(header)
        need = (limit + 3) // 4
        found = os.fstat(fd).st_size - _CACHE_HEADER.size
        if found != need:
            raise ValueError(f"{name}: expected {need} payload bytes, found {found}")
        running = zlib.crc32(struct.pack("<Q", limit))
        for off in range(0, need, _CRC_CHUNK):
            running = zlib.crc32(self._read(off, min(off + _CRC_CHUNK, need)), running)
        if running != crc:
            raise ValueError(f"{name}: checksum mismatch")
        return int(limit)

    def _read(self, start: int, stop: int) -> bytes:
        """Payload bytes start..stop-1."""
        data = os.pread(self._fh.fileno(), stop - start, _CACHE_HEADER.size + start)
        if len(data) != stop - start:
            raise ValueError(f"{self._fh.name}: payload shorter than its header says")
        return data

    def block(self, lo: int, hi: int) -> np.ndarray:
        """mu(lo..hi-1) as int8, for 1 <= lo <= hi <= limit + 1;
        ValueError for a payload code 3."""
        if not 1 <= lo <= hi <= self.limit + 1:
            raise IndexError(f"block [{lo}, {hi}) outside 1..{self.limit}")
        packed = np.frombuffer(self._read((lo - 1) // 4, (hi + 2) // 4), dtype=np.uint8)
        skip = (lo - 1) % 4
        mu = _DECODE.take(packed).view(np.int8)[skip: skip + hi - lo]
        if mu.max(initial=-1) > 1:  # code 3 only pads the last byte
            raise ValueError(f"{self._fh.name}: payload code 3 at n = "
                             f"{lo + int(np.argmax(mu > 1))}")
        return mu

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> MobiusCache:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def sieve_cache(limit: int, path: str | None = None) -> MobiusCache:
    """Sieve mu(1..limit) block by block into a cache file and open it.

    The file is written atomically at `path`, or is an unlinked temporary
    file when path is None.  Each block is sieved, packed and written in
    order before the next, so memory holds one block, never the table,
    and the bytes equal write_cache's.
    """
    primes = _sieve_primes(limit)

    def fill(f: BinaryIO) -> None:
        _write_cache_file(f, limit, lambda lo, hi: _sieve_block(lo, hi, primes))

    if path is not None:
        write_atomic(path, fill)
        return MobiusCache(open(path, "rb"))
    fh = tempfile.TemporaryFile()
    try:
        fill(fh)
    except BaseException:
        fh.close()
        raise
    return MobiusCache(fh)


def write_cache(table: MobiusTable, path: str) -> None:
    """Store the table at path atomically, as sieve_cache would."""
    write_atomic(path, lambda f: _write_cache_file(f, table.limit, table.block))


def read_cache(path: str) -> MobiusTable:
    """The table write_cache stored; ValueError for a file of another
    format, a short or long payload, a checksum mismatch or a code 3."""
    with MobiusCache(open(path, "rb")) as cache:
        values = np.zeros(cache.limit + 1, dtype=np.int8)
        values[1:] = cache.block(1, cache.limit + 1)
    return MobiusTable(limit=cache.limit, values=values)


def mobius_stream(table: MobiusTable | MobiusCache) -> SequenceStream:
    """mu itself as a stream (defined as 0 outside 1..limit), read from a
    table or an open cache."""
    limit = table.limit

    def block(start: int, stop: int) -> np.ndarray:
        out = np.zeros(stop - start, dtype=np.complex128)
        lo = max(start, 1)
        hi = min(stop, limit + 1)
        if lo < hi:
            out[lo - start: hi - start] = table.block(lo, hi)
        return out

    from .nilseq import Tag
    return SequenceStream(block, bound=1.0, tag=Tag.unknown(),
                          provenance=f"mobius(limit={limit})")
