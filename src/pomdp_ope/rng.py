"""Deterministic random-stream derivation.

Every stochastic routine in this package is seeded with a 64-bit integer.
Experiment drivers derive one independent stream per (replication, unit)
from a single master seed, so results are independent of chunking and
scheduling order.

Streams are derived in one vectorized pass per chunk. ``_generate_state``
runs NumPy's ``SeedSequence`` algorithm (O'Neill's ``seed_seq`` design, as in
NumPy's ``bit_generator.pyx``: hashmix and mix rounds over a 4-word uint32
pool, then the output hash) over whole arrays of seeds at once. Its hash
multipliers do not depend on the data, so every round is a few uint32 array
operations across the batch, and every result is bit-identical to
``np.random.SeedSequence``'s. ``derive_seed`` and ``_make_rng`` are its
one-seed forms.
"""

from __future__ import annotations

import functools
import operator
from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISpawnableSeedSequence

from .errors import ConfigurationError

_MASK32 = 0xFFFFFFFF
_UINT64_MAX = (1 << 64) - 1
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = 16


def _integers(values) -> np.ndarray:
    """``values`` (a scalar or any array-like) as an integer array of the
    same shape. Integer arrays pass as they are; anything else goes element
    by element through ``operator.index``, so a float, NaN, string or bool
    (which it would take as 0 or 1) fails by name. Python ints become
    uint64 when all fit, else stay Python ints (object dtype)."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        return values
    items = np.asarray(values, dtype=object)
    ints = []
    for value in items.flat:
        try:
            if isinstance(value, bool):
                raise TypeError
            ints.append(operator.index(value))
        except TypeError:
            raise ConfigurationError(f"seeds must be integers, got {value!r}") from None
    if all(0 <= i <= _UINT64_MAX for i in ints):
        return np.array(ints, dtype=np.uint64).reshape(items.shape)
    return np.array(ints, dtype=object).reshape(items.shape)


def _words(column: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """The little-endian uint32 words SeedSequence splits each non-negative
    integer into (0 is one word, 2^32 two): one array per word position,
    zero past a value's own count, and each value's count."""
    if column.dtype != object:
        v = column.astype(np.uint64)
        hi = (v >> 32).astype(np.uint32)
        return [(v & _MASK32).astype(np.uint32), hi], 1 + (hi != 0)
    counts = np.array([max(1, -(-v.bit_length() // 32)) for v in column], dtype=np.intp)
    return [
        np.array([v >> 32 * j & _MASK32 for v in column], dtype=np.uint32)
        for j in range(counts.max(initial=1))
    ], counts


@functools.lru_cache(maxsize=64)
def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """The running hash constant before each of ``calls`` successive hash
    calls and after the last, as a read-only (calls + 1, 1) uint32 column:
    call j xors with entry j, then multiplies by entry j + 1."""
    h = [init]
    for _ in range(calls):
        h.append(h[-1] * mult & _MASK32)
    column = np.array(h, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """One hash call per row of ``consts[:-1]``, each on ``value`` (or on
    its own row of it)."""
    out = value ^ consts[:-1]
    out *= consts[1:]
    out ^= out >> _XSHIFT
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_MULT_L
    out -= y * _MIX_MULT_R
    out ^= out >> _XSHIFT
    return out


# The pool words each pool word is mixed into, in SeedSequence's order.
_OTHERS = [np.flatnonzero(np.arange(_POOL_SIZE) != src) for src in range(_POOL_SIZE)]


def _pool(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's pool for each column of ``entropy``, the (L, m)
    uint32 words of m seeds' assembled entropy, as a (4, m) uint32 array.

    SeedSequence makes its hash calls one at a time; the calls that do not
    depend on each other run here as one array operation: the pool's first
    fill, the three words each pool word is mixed into, and the four words
    each entropy word past the pool size is mixed into.
    """
    words, m = entropy.shape
    extra = max(words - _POOL_SIZE, 0)
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (_POOL_SIZE + extra))
    first = np.zeros((_POOL_SIZE, m), dtype=np.uint32)
    first[:words] = entropy[:_POOL_SIZE]
    pool = _hashmix(first, consts[: _POOL_SIZE + 1])
    call = _POOL_SIZE
    # Mix all bits together so late bits can affect earlier bits.
    for src, dst in enumerate(_OTHERS):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[call : call + len(dst) + 1]))
        call += len(dst)
    # Entropy past the pool size is mixed into every pool word.
    for word in entropy[_POOL_SIZE:]:
        pool = _mix(pool, _hashmix(word, consts[call : call + _POOL_SIZE + 1]))
        call += _POOL_SIZE
    return pool


def _generate_state(entropy, spawn_key=(), n_words: int = 1) -> np.ndarray:
    """``SeedSequence(entropy[i], spawn_key=tuple(k[i] for k in
    spawn_key)).generate_state(n_words, np.uint64)`` for every i, as one
    (n, n_words) uint64 array; ``entropy`` and the spawn-key entries are
    non-negative integers or integer arrays, broadcast against each other
    and flattened.

    Seeds are grouped by the uint32 word count of every entry (a value below
    2^32 is one word, so a batch of small seeds is one group); a group's
    entropy words are assembled as SeedSequence does it, the run entropy
    padded with zeros to the pool size when a spawn key is present, and its
    pool and output are computed with array operations across the group.
    """
    columns = [_integers(c) for c in (entropy, *spawn_key)]
    lowest = min((c.min() for c in columns if c.size), default=0)
    if lowest < 0:
        raise ConfigurationError(f"seeds must be non-negative integers, got {lowest}")
    split = [_words(np.ravel(c)) for c in np.broadcast_arrays(*columns)]
    n_out = 2 * n_words
    counts = np.stack([c for _, c in split])
    out = np.empty((n_out, counts.shape[1]), dtype=np.uint32)
    if (counts == counts[:, :1]).all():
        groups, inverse = counts[:, :1], None
    else:
        groups, inverse = np.unique(counts, axis=1, return_inverse=True)
    for g, group_counts in enumerate(groups.T):
        rows = slice(None) if inverse is None else inverse.reshape(-1) == g
        run, *key = ([w[rows] for w in words[:c]] for (words, _), c in zip(split, group_counts))
        if key and len(run) < _POOL_SIZE:
            run += [np.zeros_like(run[0])] * (_POOL_SIZE - len(run))
        pool = _pool(np.stack(run + [w for k in key for w in k]))
        consts = _hash_constants(_INIT_B, _MULT_B, n_out)
        out[:, rows] = _hashmix(pool[np.arange(n_out) % _POOL_SIZE], consts)
    # The uint64 words are little-endian pairs of uint32 words, as in NumPy.
    words = np.ascontiguousarray(out.T, dtype="<u4")
    return words.view("<u8").astype(np.uint64, copy=False)


def _derive_seeds(master_seed, *path) -> np.ndarray:
    """``derive_seed`` over arrays: the uint64 stream seed of every
    (master_seed, *path) after broadcasting, flattened."""
    return _generate_state(master_seed, path)[:, 0]


class _Seeded(ISpawnableSeedSequence):
    """Stands in for ``SeedSequence(entropy)``: the state words PCG64 asks
    for (``generate_state(4, uint64)``) were computed beforehand by a batch.
    Anything else, other state requests or spawning, goes to the real
    SeedSequence, built on first use, so its answers and children are
    NumPy's."""

    def __init__(self, entropy: int, state: np.ndarray):
        self.entropy = entropy
        self._state = state
        self._seed_seq = None

    def _real(self) -> np.random.SeedSequence:
        if self._seed_seq is None:
            self._seed_seq = np.random.SeedSequence(self.entropy)
        return self._seed_seq

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == len(self._state) and np.dtype(dtype) == self._state.dtype:
            return self._state.copy()
        return self._real().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self._real().spawn(n_children)


def _make_rngs(seeds) -> Iterator[np.random.Generator]:
    """``_make_rng`` for every seed (flattened). The seeds are checked and
    their state words computed in one pass of the core; each generator is
    built when the iterator reaches it, so a batch never holds them all."""
    seeds = np.ravel(_integers(seeds))
    states = _generate_state(seeds, n_words=4)
    return (
        np.random.Generator(np.random.PCG64(_Seeded(seed, state)))
        for seed, state in zip(seeds.tolist(), states)
    )


def derive_seed(master_seed: int, *path: int) -> int:
    """Hash (master_seed, path...) into an independent 64-bit stream seed.

    Every entry must be a non-negative integer (NumPy integers included);
    anything else raises ConfigurationError naming it."""
    (seed,) = _derive_seeds(master_seed, *path)
    return int(seed)


def _make_rng(seed: int) -> np.random.Generator:
    """Generator for a derived 64-bit seed."""
    (rng,) = _make_rngs(seed)
    return rng
