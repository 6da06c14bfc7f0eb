"""The random streams of a batch of Monte Carlo trials, computed at once.

A trial draws from ``np.random.default_rng(np.random.SeedSequence(key))``
with the key ``(seed, index)``, or ``(seed, index, attempt)`` for a redraw
(:func:`key`).  Both stages of that generator are fixed integer arithmetic,
so this module evaluates them for every key of a batch with uint32 and
uint64 array operations, bit for bit:

- ``SeedSequence`` (numpy, ``numpy/random/bit_generator.pyx``): each
  integer of the key is split into little-endian uint32 words;
  ``mix_entropy`` hashes the words into a pool of 4 words with ``hashmix``
  and ``mix``, and ``generate_state(4, np.uint64)`` hashes the pool into
  the seed and the stream selector of the bit generator.
- ``PCG64`` (numpy, ``numpy/random/src/pcg64/pcg64.h``; M. E. O'Neill,
  "PCG: A Family of Simple Fast Space-Efficient Statistically Good
  Algorithms for Random Number Generation", 2014): the seeding of
  ``pcg_setseq_128_srandom_r``, the 128-bit LCG step with the default
  multiplier, and the XSL-RR output of the stepped state.
- ``Generator.random()`` returns ``(next64 >> 11) * 2**-53``.

A 128-bit value is a pair of uint64 arrays ``(high, low)``; the high half of
a 64 x 64-bit product is built from 32-bit limbs.  Arrays of uint32 and
uint64 wrap on overflow, and keep their type when combined with a Python
integer that fits it (NEP 50, numpy >= 2.0).
"""

from __future__ import annotations

import itertools

import numpy as np

MASK32 = 0xFFFF_FFFF
POOL_SIZE = 4
XSHIFT = 16
INIT_A = 0x43B0_D7E5
MULT_A = 0x931E_8875
INIT_B = 0x8B51_F9DD
MULT_B = 0x58F3_8DED
MIX_MULT_L = 0xCA01_F9DD
MIX_MULT_R = 0x4973_F715
PCG_MULT_HIGH = 0x2360_ED05_1FC6_5DA4
PCG_MULT_LOW = 0x4385_DF64_9FCC_F645


def key(seed: int, index: int, attempt: int) -> tuple[int, ...]:
    """The ``SeedSequence`` entropy of a trial's draws at one attempt."""
    return (seed, index) if attempt == 0 else (seed, index, attempt)


def _words(value: int) -> list[int]:
    """uint32 words of a nonnegative integer, least significant first."""
    words = [value & MASK32]
    value >>= 32
    while value:
        words.append(value & MASK32)
        value >>= 32
    return words


def _hash_constants(init: int, mult: int):
    """``(xor, mult)`` of each successive hash: the hash constant before and
    after it is multiplied; the sequence does not depend on the data."""
    constant = init
    while True:
        following = constant * mult & MASK32
        yield constant, following
        constant = following


def _hash(value: np.ndarray, constants: tuple[int, int]) -> np.ndarray:
    xor, mult = constants
    value = (value ^ xor) * mult
    return value ^ (value >> XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * MIX_MULT_L - y * MIX_MULT_R
    return result ^ (result >> XSHIFT)


def _pool(words: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence.mix_entropy`` of keys given as uint32 word columns."""
    constants = _hash_constants(INIT_A, MULT_A)
    padded = words + [np.zeros_like(words[0])] * (POOL_SIZE - len(words))
    mixer = [_hash(padded[i], next(constants)) for i in range(POOL_SIZE)]
    for src, dst in itertools.permutations(range(POOL_SIZE), 2):
        mixer[dst] = _mix(mixer[dst], _hash(mixer[src], next(constants)))
    for word in words[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            mixer[dst] = _mix(mixer[dst], _hash(word, next(constants)))
    return mixer


def _mulhi(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of the 128-bit products ``a * b``."""
    a0, a1 = a & MASK32, a >> 32
    b0, b1 = b & MASK32, b >> 32
    low, cross1, cross2 = a0 * b0, a0 * b1, a1 * b0
    middle = (low >> 32) + (cross1 & MASK32) + (cross2 & MASK32)
    return a1 * b1 + (cross1 >> 32) + (cross2 >> 32) + (middle >> 32)


def _step(high, low, inc_high, inc_low) -> None:
    """One LCG step ``state * multiplier + inc`` modulo 2**128, in place."""
    high *= PCG_MULT_LOW
    high += low * PCG_MULT_HIGH
    high += _mulhi(low, PCG_MULT_LOW)
    high += inc_high
    low *= PCG_MULT_LOW
    low += inc_low
    high += low < inc_low


def _output(high: np.ndarray, low: np.ndarray) -> np.ndarray:
    """XSL-RR: the xor of the halves, rotated right by the top 6 bits."""
    value = high ^ low
    rot = high >> 58
    return (value >> rot) | (value << ((64 - rot) & 63))


def _seeded(words: list[np.ndarray]):
    """PCG64 ``(high, low, inc_high, inc_low)`` of keys as word columns."""
    pool = _pool(words)
    constants = _hash_constants(INIT_B, MULT_B)
    state = [
        _hash(pool[i % POOL_SIZE], next(constants)).astype(np.uint64)
        for i in range(2 * POOL_SIZE)
    ]
    seed_high, seed_low, seq_high, seq_low = (
        state[2 * j] | (state[2 * j + 1] << 32) for j in range(POOL_SIZE)
    )
    inc_high = (seq_high << 1) | (seq_low >> 63)
    inc_low = (seq_low << 1) | 1
    # From state 0, one step gives `inc`; add the seed, then step again.
    low = inc_low + seed_low
    high = inc_high + seed_high + (low < inc_low)
    _step(high, low, inc_high, inc_low)
    return high, low, inc_high, inc_low


def _states(seed: int, indices: np.ndarray, attempt: int) -> np.ndarray:
    """Seeded PCG64 ``(high, low, inc_high, inc_low)`` of each
    ``key(seed, indices[i], attempt)``, as the rows of a (4, k) array.

    An index at or above 2**32 adds a word to its key, and keys with one
    word count share their hash sequence, so each count is one pass.
    """
    indices = np.asarray(indices, dtype=np.uint64)
    states = np.empty((4, indices.size), dtype=np.uint64)
    head = _words(seed)
    tail = _words(attempt) if attempt else []
    wide = indices > MASK32
    for width, lanes in ((1, ~wide), (2, wide)):
        if not lanes.any():
            continue
        lane_indices = indices[lanes]
        size = lane_indices.size
        columns = [np.full(size, w, dtype=np.uint32) for w in head]
        columns += [
            ((lane_indices >> (32 * t)) & MASK32).astype(np.uint32) for t in range(width)
        ]
        columns += [np.full(size, w, dtype=np.uint32) for w in tail]
        states[:, lanes] = _seeded(columns)
    return states


def uniforms(seed: int, indices: np.ndarray, attempt: int, count: int) -> np.ndarray:
    """Row ``i`` holds the first `count` values of ``Generator.random()`` on
    the stream of ``key(seed, indices[i], attempt)``."""
    high, low, inc_high, inc_low = _states(seed, indices, attempt)
    draws = np.empty((count, high.size), dtype=np.uint64)
    for j in range(count):
        _step(high, low, inc_high, inc_low)
        draws[j] = _output(high, low)
    draws >>= 11
    out = np.empty((high.size, count))
    np.multiply(draws.T, 2.0**-53, out=out)
    return out


def generators(seed: int, indices: np.ndarray, attempt: int):
    """Yield, in order of `indices`, a generator on the stream of each
    ``key(seed, indices[i], attempt)``.

    It is one generator whose state is set anew before each yield, so use
    each before taking the next.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    words = {"state": 0, "inc": 0}
    state = {"bit_generator": "PCG64", "state": words, "has_uint32": 0, "uinteger": 0}
    for high, low, inc_high, inc_low in zip(*_states(seed, indices, attempt).tolist()):
        words["state"] = high << 64 | low
        words["inc"] = inc_high << 64 | inc_low
        bit_generator.state = state
        yield rng
