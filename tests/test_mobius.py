import hashlib
import itertools
import math
import os
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nilseqlab import mobius
from nilseqlab.mobius import (
    SIEVE_BLOCK,
    LimitTooLarge,
    MobiusCache,
    UnboundedSequence,
    correlate,
    mertens,
    mobius_by_factorization,
    mobius_stream,
    read_cache,
    sieve_cache,
    sieve_mobius,
    tree_fold,
    write_cache,
)
from nilseqlab.nilseq import constant, from_function

MU_FIRST_TEN = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]


def test_mu_first_ten():
    table = sieve_mobius(10)
    assert [table.mu(n) for n in range(1, 11)] == MU_FIRST_TEN


def test_mertens_checkpoints():
    table = sieve_mobius(10**4)
    assert mertens(table, [1, 10, 100, 10**4]) == [1, -1, 1, -23]


def test_table_index_bounds():
    table = sieve_mobius(50)
    with pytest.raises(IndexError):
        table.mu(0)
    with pytest.raises(IndexError):
        table.mu(51)
    with pytest.raises(IndexError):
        mertens(table, [51])
    assert table[50] == table.mu(50)


def test_sieve_matches_factorization_route():
    limit = 10**4
    sieved = sieve_mobius(limit)
    fact = mobius_by_factorization(limit)  # includes the unused index 0
    assert np.array_equal(sieved.values[1:], fact[1:])


# SHA-256 of sieve_mobius(4 * 2**19 + 4099).values: four whole 2^19-point
# sieve blocks and a partial fifth, index 0 included
SIEVE_DIGEST = "5420f5102926564a0bf29cf6d11bc0fc945ce8f2119faa1857cac9a8aad3ee92"


def test_sieve_bytes_pinned():
    values = sieve_mobius(4 * 2**19 + 4099).values
    assert values.dtype == np.int8
    assert hashlib.sha256(values.tobytes()).hexdigest() == SIEVE_DIGEST


def _mu_by_trial_division(lo: int, hi: int) -> np.ndarray:
    """mu(lo..hi-1) by dividing every prime <= sqrt(hi - 1) out of each
    value, the primes found by trial division themselves."""
    primes: list[int] = []
    for c in range(2, math.isqrt(hi - 1) + 1):
        if all(c % q for q in itertools.takewhile(lambda q: q * q <= c, primes)):
            primes.append(c)
    rest = np.arange(lo, hi, dtype=np.int64)
    mu = np.ones(hi - lo, dtype=np.int8)
    for p in primes:
        hit = rest % p == 0
        if hit.any():
            rest[hit] //= p
            mu[hit] *= -1
            mu[hit & (rest % p == 0)] = 0
    mu[rest > 1] *= -1
    return mu


def test_sieve_block_far_from_origin():
    # windows at the top of the sieve's range, across 2^29, and around
    # the square of 31607, the largest prime below sqrt(HARD_LIMIT)
    primes = mobius._sieve_primes(mobius.HARD_LIMIT)
    top = mobius.HARD_LIMIT + 1
    for lo in (top - 8192, 2**29 - 4093, 31607**2 - 4096):
        expected = _mu_by_trial_division(lo, lo + 8192)
        assert np.array_equal(mobius._sieve_block(lo, lo + 8192, primes), expected), lo


@pytest.mark.parametrize("p", [2, 3, 5, 7, 97, 9973, 31607])
def test_sieve_primes_reach_a_perfect_square_root(p):
    # a root one ulp low would drop p, and mu(p^2) would come out -1
    assert mobius._sieve_primes(p * p)[-1] == p
    assert p not in mobius._sieve_primes(p * p - 1)


def test_segment_size_invisible(monkeypatch):
    whole = sieve_mobius(3000)
    for seg in (7, 64, 1000, 4096):
        monkeypatch.setattr(mobius, "SIEVE_BLOCK", seg)
        assert np.array_equal(sieve_mobius(3000).values, whole.values)


def test_sieve_limit_guards():
    with pytest.raises(LimitTooLarge):
        sieve_mobius(10**9 + 1)
    with pytest.raises(ValueError):
        sieve_mobius(0)


@given(st.integers(min_value=1, max_value=3000))
def test_mobius_divisor_sum(n):
    # sum_{d | n} mu(d) = 1 iff n = 1
    table = sieve_mobius(3000)
    total = sum(table.mu(d) for d in range(1, n + 1) if n % d == 0)
    assert total == (1 if n == 1 else 0)


# ------------------------------------------------------------- summation

def test_tree_fold_small_exact():
    assert tree_fold(np.array([], dtype=np.complex128)) == 0j
    assert tree_fold(np.array([3.5])) == 3.5 + 0j
    assert tree_fold(np.array([1, 2, 3, 4, 5], dtype=np.complex128)) == 15 + 0j


@given(st.lists(st.integers(min_value=-100, max_value=100),
                min_size=0, max_size=200))
def test_tree_fold_integer_exact(vals):
    arr = np.array(vals, dtype=np.complex128)
    assert tree_fold(arr) == complex(sum(vals))


@given(st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False),
                min_size=1, max_size=300))
def test_tree_fold_close_to_linear_sum(vals):
    arr = np.array(vals, dtype=np.complex128)
    assert abs(tree_fold(arr).real - sum(vals)) < 1e-9 * max(1, len(vals))


def test_tree_fold_order_only_depends_on_length():
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(777) + 1j * rng.standard_normal(777)
    once = tree_fold(vals)
    twice = tree_fold(vals.copy())
    assert once == twice


# ------------------------------------------------------------- correlation

def test_correlate_constant_reproduces_mertens():
    # xi = 1 makes S(N) literally M(N)/N
    table = sieve_mobius(1000)
    rep = correlate(constant(1.0), [10, 100, 1000], table=table)
    ms = mertens(table, [10, 100, 1000])
    for s, m, n in zip(rep.sums, ms, (10, 100, 1000)):
        assert s == complex(m) / n
    assert rep.sums[0] == -0.1 + 0j
    assert rep.method == "pairwise-tree"
    # with no table, correlate sieves mu into a temporary cache itself
    assert correlate(constant(1.0), [10, 100, 1000]).sums == rep.sums


def test_correlate_mobius_with_itself():
    # mu * mu = mu^2, so the sum counts squarefree integers
    table = sieve_mobius(100)
    rep = correlate(mobius_stream(table), [10, 100], table=table)
    assert rep.sums[0] == 0.7 + 0j
    assert rep.sums[1] == 0.61 + 0j


def test_correlate_checkpoint_validation():
    with pytest.raises(ValueError):
        correlate(constant(1.0), [])
    with pytest.raises(ValueError):
        correlate(constant(1.0), [0, 10])
    with pytest.raises(ValueError):
        correlate(constant(1.0), [100, 10])


def test_correlate_requires_bound():
    unbounded = from_function(lambda n: complex(n), bound=None, provenance="raw")
    with pytest.raises(UnboundedSequence):
        correlate(unbounded, [10])


def test_correlate_threads_bitwise_identical():
    table = sieve_mobius(20000)
    xi = from_function(lambda n: np.exp(2j * np.pi * 0.2347 * n), bound=1.0)
    one = correlate(xi, [17, 9999, 20000], table=table, threads=1)
    four = correlate(xi, [17, 9999, 20000], table=table, threads=4)
    assert one.sums == four.sums


def test_correlate_parallel_matches_serial_bitwise(monkeypatch):
    # the tree shape is fixed by the segmentation, so scheduling is invisible
    table = sieve_mobius(5000)
    xi = from_function(lambda n: np.exp(2j * np.pi * 0.618 * n), bound=1.0)
    sums = {}
    for seg in (64, 1 << 15):
        monkeypatch.setattr(mobius, "SEGMENT", seg)
        serial = correlate(xi, [4999], table=table, threads=1)
        parallel = correlate(xi, [4999], table=table, threads=3)
        assert serial.sums == parallel.sums
        sums[seg] = serial.sums[0]
    # different segmentations only agree up to rounding
    assert abs(sums[64] - sums[1 << 15]) < 1e-12


def test_correlate_sums_fold_every_segment_in_the_same_tree(monkeypatch):
    # the sums a run gets from folding each segment as it is made equal,
    # bit for bit, the sums over the whole array of products
    table = sieve_mobius(5000)
    xi = from_function(lambda n: complex(math.cos(n), math.sin(n / 3)), bound=2.0)
    cks, seg = [1, 63, 64, 65, 700, 4999, 5000], 64
    prods = np.array([xi(n) for n in range(1, 5001)]) * table.values[1:]
    totals = [tree_fold(prods[lo: lo + seg]) for lo in range(0, 5000, seg)]
    want = []
    for k in cks:
        full = (k - 1) // seg
        s = tree_fold(np.array(totals[:full], dtype=np.complex128))
        s += tree_fold(prods[full * seg: k])
        want.append(s / k)
    monkeypatch.setattr(mobius, "SEGMENT", seg)
    for threads in (1, 2):
        rep = correlate(xi, cks, table=table, threads=threads)
        assert rep.sums == tuple(want)


def test_correlate_dyadic_linearity_exact():
    table = sieve_mobius(2000)

    def f(n):
        return np.exp(2j * np.pi * 0.37 * n)

    xi = from_function(f, bound=1.0)
    half = from_function(lambda n: 0.5 * f(n), bound=0.5)
    a = correlate(xi, [2000], table=table)
    b = correlate(half, [2000], table=table)
    assert b.sums[0] == 0.5 * a.sums[0]


def test_abs_sums_match():
    table = sieve_mobius(100)
    rep = correlate(constant(1.0), [10, 100], table=table)
    assert rep.abs_sums() == tuple(abs(s) for s in rep.sums)


# ------------------------------------------------------------------ cache

def test_cache_round_trip(tmp_path):
    table = sieve_mobius(997)
    path = str(tmp_path / "mob.bin")
    write_cache(table, path)
    back = read_cache(path)
    assert back.limit == table.limit
    assert np.array_equal(back.values, table.values)


def test_cache_rejects_bad_magic(tmp_path):
    path = str(tmp_path / "bad.bin")
    with open(path, "wb") as fh:
        fh.write(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError):
        read_cache(path)


def test_cache_rejects_truncation(tmp_path):
    table = sieve_mobius(997)
    path = str(tmp_path / "mob.bin")
    write_cache(table, path)
    blob = open(path, "rb").read()
    with open(path, "wb") as fh:
        fh.write(blob[:-3])
    with pytest.raises(ValueError):
        read_cache(path)


@pytest.mark.parametrize("threads", [1, 2])
def test_streamed_cache_bytes_equal_write_cache(threads, tmp_path):
    # not a multiple of 4, so the last byte is padded; four sieve blocks
    limit = 3 * SIEVE_BLOCK + 4099
    table = sieve_mobius(limit)
    write_cache(table, str(tmp_path / "table.bin"))
    streamed = tmp_path / f"mobius_{limit}.bin"
    with sieve_cache(limit, str(streamed), threads=threads) as cache:
        assert cache.limit == limit
    assert streamed.read_bytes() == (tmp_path / "table.bin").read_bytes()
    assert sorted(os.listdir(tmp_path)) == [streamed.name, "table.bin"]
    with sieve_cache(limit, threads=threads) as unlinked:
        assert np.array_equal(unlinked.block(1, limit + 1), table.values[1:])


def test_cache_block_matches_table_slice(tmp_path):
    # every start offset within a byte, and ends inside and at the padding
    table = sieve_mobius(997)
    path = str(tmp_path / "mob.bin")
    write_cache(table, path)
    with MobiusCache(open(path, "rb")) as cache:
        for lo in range(1, 999):
            for hi in {*range(lo, min(lo + 9, 998)), 998}:
                assert np.array_equal(cache.block(lo, hi), table.block(lo, hi))
        for lo, hi in ((0, 5), (5, 999), (6, 5)):
            with pytest.raises(IndexError):
                cache.block(lo, hi)


_CACHE_WRITER = """
import sys, time
import numpy as np
from nilseqlab.mobius import read_cache, sieve_mobius, write_cache
path, seconds = sys.argv[1], float(sys.argv[2])
table = sieve_mobius(20000)
end = time.monotonic() + seconds
while time.monotonic() < end:
    write_cache(table, path)
    if not np.array_equal(read_cache(path).values, table.values):
        sys.exit("read back a different table")
"""


def test_two_cache_writers_share_one_path(tmp_path):
    """Two processes (never more) that write and read one cache path in a
    loop: every write is whole and no writer loses its temporary file."""
    path = str(tmp_path / "mobius_20000.bin")
    procs = [subprocess.Popen([sys.executable, "-c", _CACHE_WRITER, path, "2"],
                              stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    errors = [proc.communicate(timeout=120)[1] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], errors
    assert os.listdir(tmp_path) == ["mobius_20000.bin"]


def test_cache_rejects_payload_code_3(tmp_path):
    # mu is stored as mu + 1 in {0, 1, 2}; code 3 only pads the last byte
    table = sieve_mobius(997)
    path = str(tmp_path / "mob.bin")
    write_cache(table, path)
    blob = bytearray(open(path, "rb").read())
    blob[16] ^= 0xFF                    # n = 1..4: mu(2) = -1 becomes code 3
    crc = zlib.crc32(bytes(blob[16:]), zlib.crc32(bytes(blob[4:12])))
    blob[12:16] = struct.pack("<I", crc)  # a writer's bug, not a torn file
    open(path, "wb").write(bytes(blob))
    with pytest.raises(ValueError, match="code 3"):
        read_cache(path)


@pytest.mark.parametrize("spoil, match", [
    (lambda b: b[:16] + bytes([b[16] ^ 0x10]) + b[17:], "checksum"),
    # limit 997 -> 999: the same payload length, so only the checksum sees it
    (lambda b: b[:4] + bytes([b[4] ^ 0x02]) + b[5:], "checksum"),
    (lambda b: b"MOB1" + b[4:12] + b[16:], "bad magic"),
    (lambda b: b[:10], "short header"),
], ids=["payload-bit", "limit-bit", "old-format", "short-header"])
def test_cache_rejects_spoiled_file(spoil, match, tmp_path):
    table = sieve_mobius(997)
    path = str(tmp_path / "mob.bin")
    write_cache(table, path)
    blob = open(path, "rb").read()
    open(path, "wb").write(spoil(blob))
    with pytest.raises(ValueError, match=match):
        read_cache(path)


# ------------------------------------------------------------------ stream

def test_mobius_stream_values_and_tag():
    table = sieve_mobius(30)
    s = mobius_stream(table)
    for n in range(1, 31):
        assert s(n) == complex(table.mu(n))
    assert s(0) == 0j
    assert s(-5) == 0j
    assert s(31) == 0j
    assert s.tag.kind == "unknown"
    assert s.bound == 1.0
    block = s.evaluate_block(-2, 5)
    assert list(block) == [0j, 0j, 0j, 1 + 0j, -1 + 0j, -1 + 0j, 0j]
