"""Deterministic random number generation.

Every randomized factory in this package draws from :class:`Xoshiro256`,
a xoshiro256++ generator seeded through splitmix64, with Gaussian
variates produced by the Box-Muller transform.  The point of carrying our
own generator is bit-for-bit reproducibility: a given seed produces the
same stream on every platform and with every numpy version, so seeded
expected values frozen into the test suite never drift.

``uniforms(n)`` takes one of two paths with identical output and final
state.  Below ``_CROSSOVER`` (768) draws it runs the pure-Python scalar
loop, which is also the reference the tests hold the other path to.
From 768 draws on it runs lane-parallel (Blackman & Vigna,
arXiv:1805.01407): the state update is linear over GF(2), a 256x256 bit
matrix T, so the stream is cut into lanes of M consecutive draws (M the
largest power of two not above sqrt(n)), lane start states are reached
by products with the jump matrices ``T^(2^k)``, and all lanes step
together in numpy ``uint64`` arithmetic, which wraps modulo 2**64 like
the masked scalar loop.  The crossover is where the lane path's fixed
cost stops outweighing the loop's per-draw cost.  Bit-matrix products run
as float32 matrix products, exact because each entry counts at most 256
ones.  The jump matrices are built lazily by squaring and cached
bit-packed, 8 KiB each, about log2(n) of them for a request of n draws.

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
# fixed cost of the lane path (jump-matrix products and array set-up,
# about 0.18 ms) outweighs the loop's ~0.37 us per draw.  Lane time over
# loop time, measured on a 2-core x86 VM (Python 3.11, numpy 2.4,
# OpenBLAS with one thread): 1.9 at 256 draws, 1.1 at 512, 1.05 at 640,
# 0.89 at 768, 0.73 at 1024.
_CROSSOVER = 768

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


def _step_lanes(s0, s1, s2, s3, raw: np.ndarray, tail: int) -> tuple[int, int, int, int]:
    """Step every lane ``len(raw)`` times in place, writing output j to ``raw[j]``.

    ``s0..s3`` are uint64 arrays with one entry per lane; numpy's uint64
    arithmetic wraps modulo 2**64 exactly like the masked scalar loop.
    Returns the last lane's state after its first ``tail`` steps.
    """
    x = np.empty_like(s0)
    t = np.empty_like(s0)
    for j, r in enumerate(raw):
        np.add(s0, s3, out=x)
        np.left_shift(x, _R23, out=r)
        np.right_shift(x, _R41, out=x)
        np.bitwise_or(r, x, out=r)
        np.add(r, s0, out=r)
        np.left_shift(s1, _R17, out=t)
        np.bitwise_xor(s2, s0, out=s2)
        np.bitwise_xor(s3, s1, out=s3)
        np.bitwise_xor(s1, s2, out=s1)
        np.bitwise_xor(s0, s3, out=s0)
        np.bitwise_xor(s2, t, out=s2)
        np.left_shift(s3, _R45, out=x)
        np.right_shift(s3, _R19, out=s3)
        np.bitwise_or(s3, x, out=s3)
        if j + 1 == tail:
            last = (int(s0[-1]), int(s1[-1]), int(s2[-1]), int(s3[-1]))
    return last


def _words_to_bits(words: np.ndarray) -> np.ndarray:
    """(4, L) state words -> (256, L) 0/1 bits; bit 64 k + i is bit i of word k."""
    octets = np.ascontiguousarray(words.T, dtype="<u8").view(np.uint8)
    return np.unpackbits(octets, axis=1, bitorder="little").T


def _bits_to_words(bits: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_words_to_bits`, as a C-contiguous (4, L) uint64 array."""
    octets = np.packbits(np.ascontiguousarray(bits.T, dtype=np.uint8), axis=1, bitorder="little")
    return np.ascontiguousarray(octets.view("<u8").T, dtype=np.uint64)


def _jump(k: int, bits: np.ndarray) -> np.ndarray:
    """T^(2^k) @ bits over GF(2), for a (256, c) 0/1 uint8 array of states.

    The product runs as a float32 BLAS product, which is exact whatever the
    summation order: every entry counts at most 256 ones, far inside
    float32's exact integer range (2**24).  The matrix is unpacked 64
    columns at a time, so its float32 copy takes 64 KiB, not 256 KiB.
    """
    packed = _jump_matrix(k)
    counts = np.zeros((256, bits.shape[1]), dtype=np.float32)
    for lo in range(0, 256, 64):
        cols = np.unpackbits(packed[:, lo // 8 : (lo + 64) // 8], axis=1).astype(np.float32)
        counts += cols @ bits[lo : lo + 64].astype(np.float32)
    return (counts.astype(np.uint16) & 1).astype(np.uint8)


@functools.cache
def _jump_matrix(k: int) -> np.ndarray:
    """T^(2^k) over GF(2), rows bit-packed into a read-only (256, 32) uint8 array.

    T is the one-step state update as a 256x256 bit matrix; its column i is
    the state one step after the unit state e_i.  Higher powers come from
    squaring.  Each matrix is 8 KiB; a request of n draws needs powers up
    to about log2(n), so the cache stays below 64 entries (512 KiB).
    """
    if k == 0:
        words = _bits_to_words(np.eye(256, dtype=np.uint8))
        _step_lanes(*words, np.empty((1, 256), dtype=np.uint64), 1)
        bits = _words_to_bits(words)
    else:
        # squared 64 columns at a time, for the same bound on temporaries
        half = np.unpackbits(_jump_matrix(k - 1), axis=1)
        bits = np.concatenate([_jump(k - 1, half[:, lo : lo + 64]) for lo in range(0, 256, 64)], axis=1)
    packed = np.packbits(bits, axis=1)
    packed.flags.writeable = False
    return packed


def _lane_uniforms(state: tuple[int, int, int, int], n: int):
    """Bit-exact lane-parallel form of :func:`_scalar_uniforms`.

    The stream is cut into L lanes of M consecutive draws, M the largest
    power of two not above sqrt(n).  Lane start states come from doubling:
    lanes [c, 2c) are lanes [0, c) advanced by T^(c M).  All lanes then
    step M times together, and lane l's j-th output is draw l M + j.
    """
    m = 1 << ((n.bit_length() - 1) // 2)
    lanes = -(-n // m)
    bits = _words_to_bits(np.array(state, dtype=np.uint64)[:, None])
    k = m.bit_length() - 1
    while bits.shape[1] < lanes:
        ahead = _jump(k, bits[:, : lanes - bits.shape[1]])
        bits = np.concatenate([bits, ahead], axis=1)
        k += 1
    raw = np.empty((m, lanes), dtype=np.uint64)
    last = _step_lanes(*_bits_to_words(bits), raw, n - (lanes - 1) * m)
    raw >>= _R11
    out = raw.T.astype(np.float64, order="C").reshape(-1)[:n]
    out *= _INV53
    return out, last


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
