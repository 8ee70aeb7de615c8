"""Deterministic random number generation.

Every randomized factory in this package draws from :class:`Xoshiro256`,
a xoshiro256++ generator seeded through splitmix64, with Gaussian
variates produced by the Box-Muller transform.  The point of carrying our
own generator is bit-for-bit reproducibility: a given seed produces the
same stream on every platform and with every numpy version, so seeded
expected values frozen into the test suite never drift.

``uniforms(n)`` takes one of two paths with identical output and final
state.  Below ``_CROSSOVER`` (256) draws it runs the pure-Python scalar
loop, which is also the reference the tests hold the other path to.
From 256 draws on it runs lane-parallel (Blackman & Vigna,
arXiv:1805.01407): the state update is linear over GF(2), a 256x256 bit
matrix T, so the stream is cut into lanes of M consecutive draws (M the
largest power of two not above sqrt(n) / 2), lane start states are
reached by the jumps ``T^(2^k)``, and all lanes step together in numpy
``uint64`` arithmetic, which wraps modulo 2**64 like the masked scalar
loop.  The crossover is where the lane path's fixed cost stops
outweighing the loop's per-draw cost.  Each jump is cached as a
read-only nibble table of uint64 words, 32 KiB, built lazily by
squaring; applying it to c states is one gather of 64 c table rows and
one XOR reduction.  A request of n draws needs about log2(n) of them.
The lanes step into one (M+1, 4, L) history array, each step writing the
next slice, and the outputs are computed once from the whole history.

Stream layout conventions used by callers:

* uniforms are 53-bit doubles in ``[0, 1)``,
* ``normals(n)`` consumes ``2 * ceil(n / 2)`` uniforms (Box-Muller pairs,
  the spare of an odd request is discarded),
* ``exponentials(n)`` consumes ``n`` uniforms.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

_MASK = (1 << 64) - 1
_INV53 = 2.0 ** -53

# Requests shorter than this many draws take the scalar loop: below it the
# fixed cost of the lane path (about 0.14 ms, mostly the jumps' numpy
# calls) outweighs the loop's per-draw cost.  Lane time over loop time,
# medians of 15 interleaved runs on a 2-core x86 VM (Python 3.11, numpy
# 2.4, one BLAS thread; the loop took about 0.78 us per draw there): 1.32
# at 128 draws, 1.14 at 192, 0.81 at 256, 0.59 at 384, 0.43 at 512, 0.34
# at 768.
_CROSSOVER = 256

_R11, _R17, _R19, _R23, _R41, _R45 = (np.uint64(k) for k in (11, 17, 19, 23, 41, 45))


def _scalar_uniforms(state: tuple[int, int, int, int], n: int):
    """The reference loop: n uniforms from ``state``, and the state after them."""
    s0, s1, s2, s3 = state
    out = np.empty(n)
    for i in range(n):
        x = (s0 + s3) & _MASK
        r = ((((x << 23) | (x >> 41)) & _MASK) + s0) & _MASK
        out[i] = (r >> 11) * _INV53
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
    return out, (s0, s1, s2, s3)


def _step_lanes(h: np.ndarray) -> None:
    """Fill ``h[1:]`` of an (M+1, 4, L) uint64 history, ``h[j + 1]`` one step after ``h[j]``.

    Column l of ``h[j]`` is lane l's state (s0, s1, s2, s3) after j steps;
    numpy's uint64 arithmetic wraps modulo 2**64 exactly like the masked
    scalar loop.  The two xor pairs of the update, (s2 ^ s0, s3 ^ s1) and
    then (s1 ^ s2', s0 ^ s3'), each run as one call on a pair of rows.
    """
    t = np.empty_like(h[0, 0])
    for s, nxt in zip(h[:-1], h[1:]):
        np.bitwise_xor(s[2:4], s[0:2], out=nxt[2:4])
        np.bitwise_xor(s[1::-1], nxt[2:4], out=nxt[1::-1])
        np.left_shift(s[1], _R17, out=t)
        np.bitwise_xor(nxt[2], t, out=nxt[2])
        np.left_shift(nxt[3], _R45, out=t)
        np.right_shift(nxt[3], _R19, out=nxt[3])
        np.bitwise_or(nxt[3], t, out=nxt[3])


# Table row offsets of nibbles 0..63, as (byte p, low or high half, state)
# for a jump table viewed as (64 * 16, 4): nibble 2 p + h starts at row
# 16 (2 p + h).
_NIBBLE_ROWS = 16 * np.arange(64).reshape(32, 2, 1)


def _jump(k: int, states: np.ndarray) -> np.ndarray:
    """T^(2^k) over GF(2) applied to each row of a (c, 4) uint64 array of states.

    Nibble j of a state holds its bits 4 j .. 4 j + 3 (bit 64 w + i is bit
    i of word w), which is half of its little-endian byte j // 2.  The
    image of the state is the XOR over j of table entry ``[j, nibble j]``:
    one gather of 64 x c rows, then one XOR reduction over the 64.
    """
    octets = np.ascontiguousarray(states, dtype="<u8").view(np.uint8).T
    rows = np.empty((32, 2, len(states)), dtype=np.intp)
    np.bitwise_and(octets, 15, out=rows[:, 0])
    np.right_shift(octets, 4, out=rows[:, 1])
    rows += _NIBBLE_ROWS
    entries = np.take(_jump_table(k).reshape(-1, 4), rows.reshape(64, -1), axis=0)
    return np.bitwise_xor.reduce(entries, axis=0)


@functools.cache
def _jump_table(k: int) -> np.ndarray:
    """T^(2^k) over GF(2) as a read-only (64, 16, 4) uint64 nibble table.

    T is the one-step state update.  Entry ``[j, v]`` is the XOR of the
    images of the state bits 4 j + b for the bits b set in v, so a state's
    image is the XOR of one entry per nibble.  Higher powers come from
    squaring: the images of the unit states under T^(2^k) are the images
    under T^(2^(k-1)) of those under T^(2^(k-1)).  Each table is 32 KiB; a
    request of n draws needs the powers k < log2(n), so 14000 draws fill
    14 tables (448 KiB).
    """
    if k == 0:
        h = np.empty((2, 4, 256), dtype=np.uint64)
        h[0] = np.packbits(np.eye(256, dtype=np.uint8), axis=1, bitorder="little").view("<u8").T
        _step_lanes(h)
        images = h[1].T
    else:
        images = _jump(k - 1, _jump_table(k - 1)[:, [1, 2, 4, 8]].reshape(256, 4))
    images = images.reshape(64, 4, 4)
    table = np.zeros((64, 16, 4), dtype=np.uint64)
    for b in range(4):
        table[:, 1 << b : 2 << b] = table[:, : 1 << b] ^ images[:, b, None]
    table.flags.writeable = False
    return table


def _lane_uniforms(state: tuple[int, int, int, int], n: int):
    """Bit-exact lane-parallel form of :func:`_scalar_uniforms`.

    The stream is cut into L lanes of M consecutive draws, M the largest
    power of two not above sqrt(n) / 2.  Lane start states come from
    doubling: lanes [c, 2c) are lanes [0, c) advanced by T^(c M).  All lanes
    then step M times together into one history, and lane l's j-th output
    is draw l M + j.
    """
    # Lane length: the jumps cost about n / M table gathers, the steps
    # about 7 M numpy calls.  Medians of 15 interleaved runs of this
    # function (ms, same VM as _CROSSOVER) by M:
    #   n = 2592:   M=8 0.45, 16 0.48, 32 0.63, 64 0.98
    #   n = 14000:  M=8 1.23, 16 0.92, 32 0.92, 64 1.21, 128 1.92
    #   n = 100000: M=16 4.31, 32 3.15, 64 2.89, 128 3.39
    m = 1 << ((n.bit_length() - 3) // 2)
    lanes = -(-n // m)
    starts = np.empty((lanes, 4), dtype=np.uint64)
    starts[0] = state
    c, k = 1, m.bit_length() - 1
    while c < lanes:
        ahead = min(c, lanes - c)
        starts[c : c + ahead] = _jump(k, starts[:ahead])
        c, k = c + ahead, k + 1
    h = np.empty((m + 1, 4, lanes), dtype=np.uint64)
    h[0] = starts.T
    _step_lanes(h)
    s0, s3 = h[:m, 0], h[:m, 3]
    x = s0 + s3
    raw = x << _R23
    raw |= x >> _R41
    raw += s0
    raw >>= _R11
    out = raw.T.astype(np.float64, order="C").reshape(-1)[:n]
    out *= _INV53
    tail = n - (lanes - 1) * m
    return out, tuple(int(w) for w in h[tail, :, -1])


def _splitmix64(seed: int):
    state = seed & _MASK
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        yield z ^ (z >> 31)


class Xoshiro256:
    """xoshiro256++ with splitmix64 seed expansion."""

    __slots__ = ("_s0", "_s1", "_s2", "_s3")

    def __init__(self, seed: int):
        if seed < 0:
            raise ValueError("seed must be a non-negative integer")
        sm = _splitmix64(seed)
        self._s0 = next(sm)
        self._s1 = next(sm)
        self._s2 = next(sm)
        self._s3 = next(sm)

    def random(self) -> float:
        """One uniform double in [0, 1)."""
        return self.uniforms(1)[0]

    def uniforms(self, n: int) -> np.ndarray:
        """n uniform doubles in [0, 1)."""
        n = operator.index(n)
        draw = _scalar_uniforms if n < _CROSSOVER else _lane_uniforms
        out, (self._s0, self._s1, self._s2, self._s3) = draw(
            (self._s0, self._s1, self._s2, self._s3), n
        )
        return out

    def normals(self, n: int) -> np.ndarray:
        """n standard normal variates via Box-Muller."""
        pairs = (n + 1) // 2
        u = self.uniforms(2 * pairs)
        # the log argument must avoid 0; flip u1 into (0, 1]
        r = np.sqrt(-2.0 * np.log(1.0 - u[0::2]))
        theta = 2.0 * np.pi * u[1::2]
        z = np.empty(2 * pairs)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return z[:n]

    def exponentials(self, n: int) -> np.ndarray:
        """n unit-rate exponential variates."""
        return -np.log(1.0 - self.uniforms(n))

    def complex_normals(self, n: int) -> np.ndarray:
        """n complex entries with independent standard normal re/im parts.

        Entry i is built from normals (2i, 2i+1) of the stream.
        """
        z = self.normals(2 * n)
        return z[0::2] + 1j * z[1::2]
