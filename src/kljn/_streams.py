"""numpy's per-bit random streams, run as one array pass over bit indices.

Every random choice of a session flows from its master seed through
:func:`bit_seed`, the one place that seeds a bit's stream: bit i draws
its party states from ``default_rng(bit_seed(master_seed, i))`` and, in
sampled mode, its noise from ``default_rng(bit_seed(master_seed, i,
purpose=1))``, so bit periods are mutually independent and may be
evaluated in any order.  This module reproduces that chain for many
indices at once:

* ``SeedSequence`` hashes 32-bit words with data-independent mixing
  constants.  The words are the master seed's, padded to the pool size
  of 4, then i, then the purpose word; the master's words give the same
  pool on every lane, so only i and the purpose are mixed per lane.
* ``PCG64`` takes ``generate_state(4, uint64)`` as (seed hi, seed lo,
  inc hi, inc lo) and seeds as state = 0, inc = (seq << 1) | 1, one
  step, state += seed, one step.  Each output steps the 128-bit LCG,
  multiplied here on 32-bit limbs, then applies XSL-RR.
* ``integers(n)`` is Lemire's method on ``next_uint32``, which hands out
  the low half of a 64-bit output and then its high half; n = 1 draws
  nothing.

:func:`bounded_integers` returns the state draws themselves.
:func:`pcg64_states` returns each lane's seeded PCG64 state, for a
caller that sets it on one reused ``Generator`` and draws from it with
numpy (the noise normals).

The array pass does not reproduce a lane whose index is outside
[0, 2**32), and so hashes as another number of words, or, for the
draws, a lane where Lemire's method rejects a word (it would consume
more of the stream).  Both functions seed those lanes from
:func:`bit_seed` and draw them with numpy, so every lane they return is
numpy's own.
"""

from __future__ import annotations

import operator

import numpy as np

_MASK32 = 0xFFFF_FFFF
_XSHIFT = 16

# SeedSequence's hash (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715

# PCG64's default 128-bit multiplier, as 32-bit limbs, least significant first
_PCG_MULT = tuple((0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645 >> (32 * k)) & _MASK32
                  for k in range(4))


class _HashConstant:
    """The running multiplier of `hashmix`: the same sequence on every
    lane, so it is a Python int."""

    def __init__(self, init: int, mult: int):
        self.value, self.mult = init, mult

    def hash(self, value):
        """One hashmix of a uint32 array (or a Python int)."""
        value = value ^ self.value
        self.value = (self.value * self.mult) & _MASK32
        value = (value * self.value) & _MASK32
        return value ^ (value >> _XSHIFT)


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _int_words(value: int) -> list[int]:
    """`value` as little-endian 32-bit words, as SeedSequence splits it."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _seed_words(master_seed: int, index: np.ndarray, purpose: int = 0) -> list[np.ndarray]:
    """`SeedSequence(master_seed, spawn_key=(i, purpose)).generate_state(8,
    uint32)` per index, as 8 uint64 arrays of 32-bit words."""
    words = _int_words(master_seed)
    words += [0] * (_POOL_SIZE - len(words))
    constant = _HashConstant(_INIT_A, _MULT_A)
    pool = [constant.hash(w) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], constant.hash(pool[src]))
    for word in (*words[_POOL_SIZE:], index, purpose):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], constant.hash(word))
    constant = _HashConstant(_INIT_B, _MULT_B)
    return [constant.hash(pool[k % _POOL_SIZE]) for k in range(2 * _POOL_SIZE)]


def _add(a, b):
    """(a + b) mod 2**128 on 32-bit limbs."""
    out, carry = [], 0
    for x, y in zip(a, b):
        total = x + y + carry
        out.append(total & _MASK32)
        carry = total >> 32
    return out


def _step(state, inc):
    """One LCG step, state * multiplier + inc mod 2**128.  Each limb
    product plus two 32-bit terms stays below 2**64."""
    product = [0] * 4
    for i in range(4):
        carry = 0
        for j in range(4 - i):
            total = state[i] * _PCG_MULT[j] + product[i + j] + carry
            product[i + j] = total & _MASK32
            carry = total >> 32
    return _add(product, inc)


def _xsl_rr(state) -> np.ndarray:
    """PCG64's 64-bit output of a 128-bit state."""
    x = ((state[3] << 32) | state[2]) ^ ((state[1] << 32) | state[0])
    rot = state[3] >> 26
    return (x >> rot) | (x << ((64 - rot) & 63))


def _lanes(master_seed, indices, purpose: int):
    """`indices` as an integer array and each lane's PCG64 (state, inc),
    as 32-bit limbs least significant first, right after seeding from
    ``SeedSequence(master_seed, spawn_key=(i, purpose))``, with the mask
    of lanes reproduced.  No lane is reproduced (state and inc are None)
    for a negative master seed, a purpose beyond one word or indices of
    no integer dtype."""
    index = np.asarray(indices)
    master_seed, purpose = operator.index(master_seed), operator.index(purpose)
    if (len(index) == 0 or index.dtype.kind not in "iu" or master_seed < 0
            or not 0 <= purpose <= _MASK32):
        return index, None, None, np.zeros(len(index), dtype=bool)
    words = _seed_words(master_seed, (index & _MASK32).astype(np.uint64), purpose)
    seed = words[2:4] + words[0:2]
    seq = words[6:8] + words[4:6]
    inc = [((w << 1) | (lower >> 31)) & _MASK32 for w, lower in zip(seq, [0] + seq[:3])]
    inc[0] |= 1
    return index, _step(_add(inc, seed), inc), inc, (index >= 0) & (index <= _MASK32)


def _ints(limbs) -> list[int]:
    """Per-lane Python ints of 128-bit values held as 32-bit limbs."""
    high, low = ((limbs[k + 1] << 32) | limbs[k] for k in (2, 0))
    return [(h << 64) | lo for h, lo in zip(high.tolist(), low.tolist())]


def bit_seed(master_seed: int, bit_index: int, purpose: int = 0) -> np.random.SeedSequence:
    """Independent seed stream per (session, bit, purpose)."""
    return np.random.SeedSequence(entropy=master_seed,
                                  spawn_key=(bit_index, purpose))


def _numpy_lanes(master_seed: int, index: np.ndarray, exact: np.ndarray, purpose: int):
    """(lane, its own numpy generator) for each lane outside `exact`."""
    for j in np.flatnonzero(~exact).tolist():
        yield j, np.random.default_rng(
            bit_seed(master_seed, operator.index(index[j]), purpose))


def pcg64_states(master_seed: int, indices, purpose: int) -> list[dict]:
    """``default_rng(bit_seed(master_seed, i, purpose)).bit_generator.state``
    for each i of `indices`."""
    index, state, inc, exact = _lanes(master_seed, indices, purpose)
    states = [None] * len(index) if state is None else [
        {"bit_generator": "PCG64", "state": {"state": s, "inc": c},
         "has_uint32": 0, "uinteger": 0} for s, c in zip(_ints(state), _ints(inc))]
    for j, rng in _numpy_lanes(master_seed, index, exact, purpose):
        states[j] = rng.bit_generator.state
    return states


def bounded_integers(master_seed: int, indices, bounds) -> np.ndarray:
    """``[rng.integers(n) for n in bounds]`` for each i of `indices`, with
    ``rng = default_rng(bit_seed(master_seed, i))``: an int64 array of
    shape (len(indices), len(bounds))."""
    bounds = [operator.index(n) for n in bounds]
    index, state, inc, exact = _lanes(master_seed, indices, 0)
    draws = np.zeros((len(index), len(bounds)), dtype=np.int64)
    if state is None or not all(1 <= n <= _MASK32 for n in bounds):
        exact[:] = False
    else:
        uint32s = []  # next_uint32 in order: low half, then high half
        for column, n in enumerate(bounds):
            if n == 1:
                continue
            if not uint32s:
                state = _step(state, inc)
                output = _xsl_rr(state)
                uint32s = [output >> 32, output & _MASK32]
            scaled = uint32s.pop() * np.uint64(n)
            exact &= (scaled & _MASK32) >= (2**32 - n) % n
            draws[:, column] = scaled >> 32
    for j, rng in _numpy_lanes(master_seed, index, exact, 0):
        draws[j] = [rng.integers(n) for n in bounds]
    return draws
