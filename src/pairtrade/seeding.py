"""Per-trial random streams of the Monte Carlo, and the SeedSequence hash
that seeds CHUNK_TRIALS of them at a time."""

from __future__ import annotations

import functools
from collections.abc import Iterator

import numpy as np

from .domain import check_count, check_seed

# trials seeded by one pass of the hash and simulated side by side; bounds
# verify_theorem's arena and the generators alive at once (each
# (periods, CHUNK_TRIALS) plane is 2 MB at 250 periods)
CHUNK_TRIALS = 1024


# numpy's SeedSequence hash, O'Neill's seed_seq scheme with numpy's
# constants: a pool of four 32-bit words and two multiplicative hash sequences
_POOL_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _hash_sequence(init: int, mult: int):
    """SeedSequence's hashmix: each call hashes a uint32 value (or column)
    with the next constant of the sequence init * mult**k mod 2**32."""
    const = init

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)

    return hashmix


def _mix(x, y):
    # SeedSequence's mix of two pool words
    r = x * np.uint32(_MIX_L) - y * np.uint32(_MIX_R)
    return r ^ (r >> 16)


def _pcg64_seeds(seed: int, keys: np.ndarray) -> np.ndarray:
    """PCG64 seed words of SeedSequence(seed, spawn_key=(key,)) for each of
    the uint64 keys, as an (n, 4) uint64 array.

    Row i equals SeedSequence(seed, spawn_key=(keys[i],)).generate_state(4,
    np.uint64) bit for bit: the assembled entropy (the seed's 32-bit words,
    zero-padded to the pool size, then the key's words) goes through
    mix_entropy and generate_state once, as uint32 column arithmetic. The
    seed's words hash to the same pool for every key; keys of 2**32 and up
    have a second word, absorbed only in their rows.
    """
    hashmix = _hash_sequence(_INIT_A, _MULT_A)

    def absorb(pool, word):
        return [_mix(p, hashmix(word)) for p in pool]

    # the seed's 32-bit words, least significant first, zero-padded to the
    # pool as SeedSequence pads them whenever a spawn key follows
    run = [seed & _MASK32]
    while seed := seed >> 32:
        run.append(seed & _MASK32)
    run += [0] * (_POOL_WORDS - len(run))
    with np.errstate(over="ignore"):
        pool = [hashmix(np.uint32(w)) for w in run[:_POOL_WORDS]]
        for src in range(_POOL_WORDS):
            for dst in range(_POOL_WORDS):
                if src != dst:
                    pool[dst] = _mix(pool[dst], hashmix(pool[src]))
        for w in run[_POOL_WORDS:]:
            pool = absorb(pool, np.uint32(w))
        pool = absorb(pool, (keys & _MASK32).astype(np.uint32))
        high = (keys >> 32).astype(np.uint32)
        wide = high != 0
        if wide.any():
            pool = [np.where(wide, q, p) for p, q in zip(pool, absorb(pool, high))]
        # generate_state(4, np.uint64): eight words read cyclically from the pool
        hashmix = _hash_sequence(_INIT_B, _MULT_B)
        state = [hashmix(pool[i % _POOL_WORDS]) for i in range(2 * _POOL_WORDS)]
    return np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)


@functools.cache
def _trial_seed_type() -> type:
    """The seed sequence class trial_generators hands PCG64, defined on first
    use: subclassing numpy's interface imports numpy.random, which the
    package's import does not load."""
    from numpy.random.bit_generator import ISpawnableSeedSequence

    class TrialSeed(ISpawnableSeedSequence):
        """SeedSequence(seed, spawn_key=(key,)) with PCG64's seed words
        already computed; the real sequence is built only to spawn or to
        generate any other state."""

        def __init__(self, seed: int, key: int, words: np.ndarray) -> None:
            self._seed, self._key, self._words = seed, key, words
            self._sequence = None

        def _real(self) -> np.random.SeedSequence:
            if self._sequence is None:
                self._sequence = np.random.SeedSequence(self._seed, spawn_key=(self._key,))
            return self._sequence

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words == _POOL_WORDS and np.dtype(dtype) == np.uint64:
                return self._words
            return self._real().generate_state(n_words, dtype)

        def spawn(self, n_children):
            return self._real().spawn(n_children)

        def __reduce__(self):
            # pickles as the sequence it stands for (the class is local)
            return self._real().__reduce__()

    return TrialSeed


def trial_generators(seed: int, trials: int) -> Iterator[np.random.Generator]:
    """Independent per-trial RNG streams, as an iterator that builds each
    generator only when it is reached.

    Trial t uses numpy's default generator seeded with
    SeedSequence(seed, spawn_key=(t,)), which is child t of
    SeedSequence(seed).spawn(trials): same entropy, spawn key and pool size.
    This is the reproducibility contract: same (seed, trials) always yields
    the same streams. seed and trials are checked at the call, not on first
    use.

    The PCG64 seed words of CHUNK_TRIALS trials at a time come from one
    vectorized pass of SeedSequence's hash (_pcg64_seeds), and each trial's
    PCG64 takes them through a small ISpawnableSeedSequence, so numpy still
    seeds PCG64 itself. Its spawn builds the real SeedSequence(seed,
    spawn_key=(t,)) when called, so Generator.spawn gives the same children
    as default_rng(SeedSequence(seed, spawn_key=(t,))).spawn.
    """
    check_seed(seed)
    check_count("trials", trials, 1)
    return _trial_streams(seed, trials)


def _trial_streams(seed: int, trials: int) -> Iterator[np.random.Generator]:
    from numpy.random import PCG64, Generator

    trial_seed = _trial_seed_type()
    for start in range(0, trials, CHUNK_TRIALS):
        keys = np.arange(start, min(start + CHUNK_TRIALS, trials), dtype=np.uint64)
        for t, words in zip(range(start, trials), _pcg64_seeds(seed, keys)):
            yield Generator(PCG64(trial_seed(seed, t, words)))
