"""Mobius function tables and averaged correlation sums.

The sieve works one block of SIEVE_BLOCK points at a time, every
block of a run in the same buffers (`_SieveWork`, two bytes a point: a
uint8 sum of integer log weights and an int8 value), each block started
from a pre-sieved wheel for 2, 3 and 5.  `sieve_mobius` concatenates
the blocks into one int8 table, a byte a point; `sieve_cache` packs
each block into the cache format in the block's own two rows, once its
last pass has run, so its memory is one block whatever the limit, and
the page faults of a run do not grow with it.  A cache file is read
back by range (`MobiusCache.block`), and `correlate` reads its weights
one summation segment at a time from a table or a cache, decoding each
segment once, so it never fills a table for 1..N itself.  A second, independent routine
derives mu(n) by dividing out primes from the values themselves
(different bookkeeping, used as a cross-check and for golden files).
Correlation sums S(N) = (1/N) sum mu(n) xi(n) are accumulated through a
fixed binary reduction tree over segments of SEGMENT points, so every
bit of a sum is fixed by N and the checkpoints alone.  Within a
segment, xi and the products are made nilseq.BLOCK points at a time:
BLOCK bounds the memory of a sum, and SEGMENT its bits.  Everything
runs in the calling thread.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
import zlib
from bisect import bisect_right
from typing import BinaryIO, Callable, Sequence

import numpy as np

from .exactnum import Record, write_atomic
from . import nilseq
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

# points per sieve block: one block is all the sieve holds, in buffers
# made once a run (_SieveWork, a uint8 weight sum and an int8 value a
# point, 1 MB); the block's size changes no output bit
SIEVE_BLOCK = 1 << 19
# points per step of a block's last pass at most: the step's weight sums
# and values stay in cache from the compare to the sign
_SIEVE_CHUNK = 1 << 15
# a step of the last pass ends by n <= n0 * 119 // 100 for its first n0,
# and flips the sign where E - acc >= _FLIP_GAP: see _sieve_block
_SPAN = (119, 100)
_FLIP_GAP = 13
# primes sieved for a whole block at once, from a pre-sieved wheel, and
# the wheel's period: the product of their squares
_WHEEL_PRIMES = (2, 3, 5)
_WHEEL_PERIOD = 900
# points per correlate summation segment; it fixes the tree_fold shapes,
# hence every output bit of a correlation sum (nilseq.BLOCK, the points
# evaluated at a time, fixes none)
SEGMENT = 1 << 15
HARD_LIMIT = 10 ** 9          # 8 log2 n + 9 <= 255: a uint8 holds every weight sum

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
    # Python ints, so that _weight's p ** 8 is exact
    return np.nonzero(sieve)[0].tolist()


def _weight(p: int) -> int:
    """The sieve's log weight of the prime p: an odd integer within 1 of
    8 log2 p, from integers alone (floor(8 log2 p), made odd)."""
    return ((p ** 8).bit_length() - 1) | 1


class _SieveWork:
    """The buffers of one sieve block, made once a run and reused by
    every block of it: a uint8 row of weight sums over an int8 row of
    values (one array, so that the wheel fills both at once), a step's
    flip scratch, the pre-sieved wheel of both rows, and the weights of
    the last prime list, 1.1 MB at SIEVE_BLOCK points.  The rows are
    rounded up to whole 4-point words, so that they can also pack a
    block into the cache format (_pack)."""

    def __init__(self, size: int):
        self.rows = np.empty((2, -(-size // 4) * 4), dtype=np.uint8)
        self.flip = np.empty(_SIEVE_CHUNK, dtype=bool)
        # the weight sum and the value over the wheel's primes at n = j
        # mod the period, for j < twice the period, so any residue starts
        # a whole period
        self.wheel = np.zeros((2, 2 * _WHEEL_PERIOD), dtype=np.uint8)
        self.wheel[1] = 1
        for p in _WHEEL_PRIMES:
            self.wheel[0, ::p] += _weight(p)
            self.wheel[1, :: p * p] = 0
        self._primes: list[int] | None = None
        self._weights: list[int] = []

    def weights(self, primes: list[int]) -> list[int]:
        """_weight of each prime, computed once for a run's prime list."""
        if primes is not self._primes:
            self._primes, self._weights = primes, [_weight(p) for p in primes]
        return self._weights


def _sieve_block(lo: int, hi: int, primes: list[int],
                 work: _SieveWork) -> np.ndarray:
    """mu(lo..hi-1) as int8, for primes = those <= sqrt(hi - 1).

    Each sieved prime p adds its odd weight u(p) = _weight(p) to the
    uint8 sum acc(n) of its multiples, and each p^2 zeroes the int8
    values of its multiples.  The primes of the wheel come first, for
    every n at once: one period of the wheel is copied in at lo's residue
    and doubled in place to the block's length.  Dividing by a wheel
    prime above sqrt(hi - 1) as well changes nothing: the cofactor of n
    over its sieved primes is still 1 or a prime.  The other primes are
    sieved one at a time.  A last pass then gives each squarefree n the
    sign (-1)^acc(n), which is (-1)^k for its k sieved primes since every
    weight is odd, and flips it where the cofactor is a prime: where
    E - acc(n) >= _FLIP_GAP, for E = floor(8 log2 n0) of the first n0 of
    its step, a step holding at most _SIEVE_CHUNK points and none above
    1.19 n0.

    The margin, with u(p) = 8 log2 p + d(p) and -1 < d(p) <= 1, and P
    the product of the k sieved primes of a squarefree n:
    - cofactor 1: E <= 8 log2 n = 8 log2 P, so E - acc <= -sum d < k,
      and k <= 9 (2 * 3 * ... * 29 > HARD_LIMIT): E - acc <= 8;
    - cofactor a prime q: q is not sieved, so q >= 7 and q > sqrt(hi - 1)
      > P >= 2^k; E > 8 log2 n0 - 1 >= 8 log2 n - 8 log2 1.19 - 1, so
      E - acc > 8 log2 q - k - 3.01 > 7 log2 7 - 3.01 > 16.6: E - acc
      >= 17.
    Any _FLIP_GAP in 9..17 therefore decides every n.  And the distinct
    primes of any n multiply to at most n, so acc <= 8 log2 n + 9 <= 248
    up to HARD_LIMIT: the uint8 sums never wrap.

    The block is made in `work`, a _SieveWork of at least hi - lo
    points, and the result is a view of it that the next block
    overwrites.
    """
    m = hi - lo
    rows = work.rows[:, :m]
    acc, mu = rows[0], rows[1].view(np.int8)
    k = min(m, _WHEEL_PERIOD)
    start = lo % _WHEEL_PERIOD
    rows[:, :k] = work.wheel[:, start: start + k]
    while k < m:
        c = min(k, m - k)
        rows[:, k: k + c] = rows[:, :c]
        k += c
    first = bisect_right(primes, _WHEEL_PRIMES[-1])
    for p, u in zip(primes[first:], work.weights(primes)[first:]):
        acc[(-lo) % p:: p] += u
        p2 = p * p
        mu[(-lo) % p2:: p2] = 0
    a = 0
    while a < m:
        n0 = lo + a
        b = min(a + _SIEVE_CHUNK, m, n0 * _SPAN[0] // _SPAN[1] - lo + 1)
        part, out, flip = acc[a:b], mu[a:b], work.flip[: b - a]
        np.less_equal(part, (n0 ** 8).bit_length() - 1 - _FLIP_GAP, out=flip)
        np.bitwise_and(part, 1, out=part)
        np.bitwise_xor(part, flip, out=part)    # 1 where mu(n) < 0
        sign = part.view(np.int8)               # 1 - 2 * bit, in place
        sign *= -2
        sign += 1
        out *= sign
        a = b
    return mu


def sieve_mobius(limit: int) -> MobiusTable:
    """mu(1..limit) as one table: the sieve blocks, concatenated."""
    primes = _sieve_primes(limit)
    work = _SieveWork(min(SIEVE_BLOCK, limit))
    out = np.zeros(limit + 1, dtype=np.int8)
    for lo in range(1, limit + 1, SIEVE_BLOCK):
        hi = min(lo + SIEVE_BLOCK, limit + 1)
        out[lo:hi] = _sieve_block(lo, hi, primes, work)
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
    MobiusCache) one segment of SEGMENT points at a time, one read and
    one decode a segment; with no table, mu(1..N) is sieved into a
    temporary cache file first.  Summation: each segment's products are
    reduced with tree_fold, and the segment totals with one more, both
    streamed (nilseq._TreeFold), so the shape of every sum is fixed by
    SEGMENT and the checkpoints.  Within a segment, xi is evaluated,
    multiplied by mu and fed to the segment's fold nilseq.BLOCK points
    at a time, which moves no bit: the fold of a segment fed block by
    block is the tree_fold of its whole products.  S(k) is the fold of
    the totals of the segments before k plus the fold of k's own segment
    up to k, read from the folds' states (a value a level) when the
    products up to k have been fed.  So memory holds one block's
    products, however many checkpoints there are.  Segments are
    evaluated in order in the calling thread; `threads` is accepted for
    compatibility and ignored.
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
    block = nilseq.BLOCK
    for lo in range(1, n_max + 1, SEGMENT):
        hi = min(lo + SEGMENT, n_max + 1)
        mu = table.block(lo, hi)  # one read and decode; blocks slice it
        segment = _TreeFold()
        for a in range(lo, hi, block):
            b = min(a + block, hi)
            vals = xi.evaluate_block(a, b)  # a new array: multiplied in place
            vals *= mu[a - lo: b - lo]
            fed = 0
            # cks[len(sums)] is the next checkpoint
            while len(sums) < len(cks) and cks[len(sums)] < b:
                # whole segments below k, then k's segment up to k
                k = cks[len(sums)]
                segment.feed(vals[fed: k - a + 1])
                fed = k - a + 1
                sums.append((below.total() + segment.total()) / k)
            segment.feed(vals[fed:])
            del vals  # one block's products alive at a time
        below.append(segment.total())
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


def _pack(mu: np.ndarray, rows: Sequence[np.ndarray]) -> np.ndarray:
    """Payload bytes of mu values, a view of rows[1]; a block not the
    last has 4k values.  rows is two uint8 rows, the first with room for
    len(mu) rounded up to 4 and the second for a quarter of that: the
    codes are made in rows[0] and packed into rows[1], so mu may be a
    view of rows[1], as a sieved block is in its _SieveWork's rows."""
    buf, out = rows
    m = len(mu)
    enc = buf[: -(-m // 4) * 4]
    np.add(mu.view(np.uint8), 1, out=enc[:m])    # -1 wraps to code 0
    enc[m:] = 3
    # code j of a little-endian word sits at bit 8j; one multiply moves
    # it to bit 24 + 2j, with no carry between the terms, so the top byte
    # is the packed byte
    words = enc.view("<u4")
    words *= 0x01041040
    words >>= 24
    packed = out[: len(words)]
    np.copyto(packed, words, casting="unsafe")
    return packed


def _write_cache_file(f: BinaryIO, limit: int,
                      block: Callable[[int, int], np.ndarray],
                      rows: Sequence[np.ndarray]) -> None:
    """Write mu(1..limit), taken from block(lo, hi) one SIEVE_BLOCK at a
    time, to the binary file f in the cache format, each block packed in
    rows (see _pack).  The payload goes out in order behind a blank
    header, the checksum accumulated as it goes; the header is filled in
    last."""
    f.write(bytes(_CACHE_HEADER.size))
    crc = zlib.crc32(struct.pack("<Q", limit))
    for lo in range(1, limit + 1, SIEVE_BLOCK):
        chunk = _pack(block(lo, min(lo + SIEVE_BLOCK, limit + 1)), rows)
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
        self._last: tuple[int, int, np.ndarray] | None = None
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
        """mu(lo..hi-1) as read-only int8, for 1 <= lo <= hi <= limit + 1;
        ValueError for a payload code 3.  The last range decoded is kept,
        and any range inside it is a slice of it: correlate decodes a
        segment, and a mobius stream's blocks of it make no second read."""
        if self._last is not None and self._last[0] <= lo <= hi <= self._last[1]:
            first = self._last[0]
            return self._last[2][lo - first: hi - first]
        if not 1 <= lo <= hi <= self.limit + 1:
            raise IndexError(f"block [{lo}, {hi}) outside 1..{self.limit}")
        packed = np.frombuffer(self._read((lo - 1) // 4, (hi + 2) // 4), dtype=np.uint8)
        skip = (lo - 1) % 4
        mu = _DECODE.take(packed).view(np.int8)[skip: skip + hi - lo]
        if mu.max(initial=-1) > 1:  # code 3 only pads the last byte
            raise ValueError(f"{self._fh.name}: payload code 3 at n = "
                             f"{lo + int(np.argmax(mu > 1))}")
        mu.flags.writeable = False
        self._last = (lo, hi, mu)
        return mu

    def close(self) -> None:
        self._last = None
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
        # made here, so that the block's buffers are freed before the
        # file is opened and its checksum read; a block is packed in its
        # own rows once its last pass has run
        work = _SieveWork(min(SIEVE_BLOCK, limit))
        _write_cache_file(f, limit, lambda lo, hi: _sieve_block(lo, hi, primes, work),
                          work.rows)

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
    size = -(-min(SIEVE_BLOCK, table.limit) // 4) * 4
    rows = (np.empty(size, dtype=np.uint8), np.empty(size // 4, dtype=np.uint8))
    write_atomic(path, lambda f: _write_cache_file(f, table.limit, table.block, rows))


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
        if 1 <= start <= stop <= limit + 1:
            return table.block(start, stop).astype(np.complex128)
        out = np.zeros(stop - start, dtype=np.complex128)
        lo = max(start, 1)
        hi = min(stop, limit + 1)
        if lo < hi:
            out[lo - start: hi - start] = table.block(lo, hi)
        return out

    from .nilseq import Tag
    return SequenceStream(block, bound=1.0, tag=Tag.unknown(),
                          provenance=f"mobius(limit={limit})")
