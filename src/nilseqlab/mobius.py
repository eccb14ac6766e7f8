"""Mobius function tables and averaged correlation sums.

The sieve works one segment at a time, but it fills a single int8
table for all of 1..limit, so memory grows by about a byte a point; the
segment size bounds only the per-segment scratch arrays.  A second,
independent routine derives mu(n) by dividing out primes from the
values themselves (different bookkeeping, used as a cross-check and for
golden files).  Correlation sums S(N) = (1/N) sum mu(n) xi(n) are
accumulated through a fixed binary reduction tree, so a segment-parallel
run reproduces the serial result bit for bit.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .exactnum import write_atomic
from .nilseq import SequenceStream

__all__ = [
    "LimitTooLarge",
    "UnboundedSequence",
    "MobiusTable",
    "sieve_mobius",
    "mobius_by_factorization",
    "mertens",
    "CorrelationReport",
    "correlate",
    "tree_fold",
    "write_cache",
    "read_cache",
    "mobius_stream",
]

DEFAULT_SEGMENT = 1 << 20
HARD_LIMIT = 10 ** 9

CACHE_MAGIC = b"MOB2"


class LimitTooLarge(ValueError):
    """Requested sieve limit exceeds the configured bound."""


class UnboundedSequence(ValueError):
    """Correlation against a stream with no finite sup bound."""


@dataclass(frozen=True)
class MobiusTable:
    """mu(1..limit) as an int8 array; index 0 is unused."""

    limit: int
    values: np.ndarray

    def mu(self, n: int) -> int:
        if not 1 <= n <= self.limit:
            raise IndexError(f"n={n} outside 1..{self.limit}")
        return int(self.values[n])

    __getitem__ = mu


def _primes_up_to(n: int) -> np.ndarray:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return np.nonzero(sieve)[0]


def sieve_mobius(limit: int, segment_size: int = DEFAULT_SEGMENT) -> MobiusTable:
    """Segmented sieve for mu(1..limit).

    Per segment: multiply in -1 for each prime p <= sqrt(limit) dividing
    n, zero out multiples of p^2, and track the product of the sieved
    primes; a leftover cofactor > 1 is one more distinct prime factor.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if limit > HARD_LIMIT:
        raise LimitTooLarge(f"limit {limit} exceeds configured bound {HARD_LIMIT}")
    primes = _primes_up_to(max(int(limit ** 0.5), 1))
    out = np.zeros(limit + 1, dtype=np.int8)
    for lo in range(1, limit + 1, segment_size):
        hi = min(lo + segment_size, limit + 1)
        n_vals = np.arange(lo, hi, dtype=np.int64)
        mu = np.ones(hi - lo, dtype=np.int8)
        prod = np.ones(hi - lo, dtype=np.int64)
        for p in primes:
            start = (-lo) % p
            mu[start:: p] *= -1
            prod[start:: p] *= p
            p2 = p * p
            start2 = (-lo) % p2
            mu[start2:: p2] = 0
        big_cofactor = prod != n_vals
        mu[big_cofactor] = -mu[big_cofactor]
        out[lo:hi] = mu
    out[0] = 0
    if limit >= 1:
        out[1] = 1
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
    for p in _trial_primes(int(limit ** 0.5)):
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


# ---------------------------------------------------------------------------
# fixed-tree summation


def tree_fold(values: np.ndarray) -> complex:
    """Sum through a fixed binary tree: repeatedly add element pairs.

    The tree shape depends only on the length, never on how the values
    were produced, so any segment-parallel evaluation that fills the
    same array reduces to bitwise the same total.
    """
    a = np.asarray(values, dtype=np.complex128).copy()
    while a.size > 1:
        if a.size % 2:
            tail = a[-1]
            a = a[:-1]
        else:
            tail = None
        a = a[0::2] + a[1::2]
        if tail is not None:
            a = np.concatenate([a, [tail]])
    return complex(a[0]) if a.size else 0j


@dataclass(frozen=True)
class CorrelationReport:
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
    table: MobiusTable | None = None,
    segment_size: int = 1 << 15,
    threads: int = 1,
) -> CorrelationReport:
    """Averaged correlation of mu against a bounded stream.

    Checkpoints must be increasing; the largest determines the sieve
    range.  Summation: per-segment products are reduced with tree_fold,
    segment totals again with tree_fold, making the result independent
    of evaluation order (and hence of `threads`).
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
        table = sieve_mobius(n_max)
    if table.limit < n_max:
        raise ValueError("mobius table shorter than the last checkpoint")
    mu = table.values

    # the segment a checkpoint k falls in; only these keep their products
    keep = {(k - 1) // segment_size for k in cks}

    def segment(i: int) -> tuple[complex, np.ndarray | None]:
        lo = 1 + i * segment_size
        hi = min(lo + segment_size, n_max + 1)
        vals = xi.evaluate_block(lo, hi) * mu[lo:hi]
        return tree_fold(vals), (vals if i in keep else None)

    indices = range((n_max - 1) // segment_size + 1)
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # only with a pool

        with ThreadPoolExecutor(max_workers=threads) as pool:
            segments = list(pool.map(segment, indices))
    else:
        segments = [segment(i) for i in indices]

    sums: list[complex] = []
    seg_totals = [total for total, _ in segments]
    for k in cks:
        # whole segments below k, then a partial slice of the segment k is in
        full = (k - 1) // segment_size  # count of complete segments before k
        partial_lo = 1 + full * segment_size
        total = tree_fold(np.array(seg_totals[:full], dtype=np.complex128))
        total += tree_fold(segments[full][1][: k - partial_lo + 1])
        sums.append(total / k)
    return CorrelationReport(
        checkpoints=tuple(cks), sums=tuple(sums), sequence_bound=float(xi.bound),
    )


# ---------------------------------------------------------------------------
# cache file: magic, u64 little-endian limit, u32 zlib.crc32 of the limit
# bytes and the payload, then the payload: 2-bit packed values

_CACHE_HEADER = struct.Struct("<4sQI")


def _cache_crc(limit: int, payload: bytes | memoryview) -> int:
    return zlib.crc32(payload, zlib.crc32(struct.pack("<Q", limit)))


def write_cache(table: MobiusTable, path: str) -> None:
    """Pack mu values two bits each (mu+1 in {0,1,2}), low bits first."""
    enc = (table.values[1:].astype(np.int16) + 1).astype(np.uint8)
    pad = (-len(enc)) % 4
    if pad:
        enc = np.concatenate([enc, np.full(pad, 3, dtype=np.uint8)])
    quads = enc.reshape(-1, 4)
    packed = quads[:, 0] | (quads[:, 1] << 2) | (quads[:, 2] << 4) | (quads[:, 3] << 6)
    payload = packed.tobytes()
    write_atomic(path, _CACHE_HEADER.pack(CACHE_MAGIC, table.limit,
                                          _cache_crc(table.limit, payload))
                 + payload)


def read_cache(path: str) -> MobiusTable:
    """The table write_cache stored; ValueError for a file of another
    format, a short or long payload, or a checksum mismatch."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CACHE_MAGIC:
        raise ValueError(f"{path}: bad magic {blob[:4]!r}")
    if len(blob) < _CACHE_HEADER.size:
        raise ValueError(f"{path}: short header")
    _, limit, crc = _CACHE_HEADER.unpack_from(blob)
    payload = memoryview(blob)[_CACHE_HEADER.size:]
    need = (limit + 3) // 4
    if len(payload) != need:
        raise ValueError(f"{path}: expected {need} payload bytes, found {len(payload)}")
    if _cache_crc(limit, payload) != crc:
        raise ValueError(f"{path}: checksum mismatch")
    packed = np.frombuffer(payload, dtype=np.uint8)
    quads = np.stack([packed & 3, (packed >> 2) & 3, (packed >> 4) & 3, (packed >> 6) & 3], axis=1)
    codes = quads.reshape(-1)[:limit]
    if (codes == 3).any():  # 3 only pads the last byte
        raise ValueError(f"{path}: payload code 3 at n = {int(np.argmax(codes == 3)) + 1}")
    flat = codes.astype(np.int8) - 1
    values = np.zeros(limit + 1, dtype=np.int8)
    values[1:] = flat
    return MobiusTable(limit=int(limit), values=values)


def mobius_stream(table: MobiusTable) -> SequenceStream:
    """mu itself as a stream (defined as 0 outside 1..limit)."""
    values = table.values

    def ev(n: int) -> complex:
        if 1 <= n <= table.limit:
            return complex(int(values[n]))
        return 0j

    def block(start: int, stop: int) -> np.ndarray:
        out = np.zeros(stop - start, dtype=np.complex128)
        lo = max(start, 1)
        hi = min(stop, table.limit + 1)
        if lo < hi:
            out[lo - start: hi - start] = values[lo:hi]
        return out

    from .nilseq import Tag
    return SequenceStream(evaluate=ev, bound=1.0, tag=Tag.unknown(),
                          provenance=f"mobius(limit={table.limit})", block=block)
