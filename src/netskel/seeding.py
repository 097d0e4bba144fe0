"""Seeds: counter-based derivation so batches of trials parallelize
reproducibly, and the one way a seed becomes a random stream."""

import random

_MASK64 = (1 << 64) - 1


def derive_seed(master: int, counter: int) -> int:
    """Splitmix64 finalizer over master + counter; stable across platforms."""
    x = (master + (counter + 1) * 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def seeded_random(seed: int) -> random.Random:
    """random.Random(seed), except that a negative seed gets a stream of its
    own: Random seeds with abs(seed), so -5 would repeat the stream of 5."""
    return random.Random(seed if seed >= 0 else str(seed))
