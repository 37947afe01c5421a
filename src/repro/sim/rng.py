"""Reproducible random-variate streams.

Every stochastic component of the model (arrivals, CPU service, disk
service, reference selection, ...) draws from its own named substream so
that changing one part of the configuration does not perturb the random
sequence seen by unrelated parts — the standard variance-reduction
practice for simulation experiments, and what makes our sweeps (e.g.
Fig. 4.4's buffer-size axis) smooth.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Callable, Dict, List, Sequence

__all__ = ["RandomStreams", "cumulative_weights"]

# Large odd constant used to derive independent substream seeds.
_STREAM_SALT = 0x9E3779B97F4A7C15

#: CPython's Random exposes ``_randbelow``; ``randint(a, b)`` is exactly
#: ``a + _randbelow(b - a + 1)`` (see random.py, randrange with istep 1),
#: so calling it directly skips randrange's argument plumbing while
#: consuming the identical underlying bits.  Other implementations fall
#: back to the public API.
_HAS_RANDBELOW = hasattr(random.Random, "_randbelow")


class RandomStreams:
    """A family of independent ``random.Random`` substreams.

    Substreams are created lazily by name::

        streams = RandomStreams(seed=42)
        streams.exponential("cpu", mean=0.8)
        streams.uniform_int("account-select", 0, 4_999_999)
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """The substream for ``name`` (created on first use)."""
        rng = self._streams.get(name)
        if rng is None:
            # Derive a stable substream seed from the master seed + name.
            sub = (hash_name(name) ^ (self.seed * _STREAM_SALT)) & ((1 << 64) - 1)
            rng = random.Random(sub)
            self._streams[name] = rng
        return rng

    # -- variate helpers ---------------------------------------------------
    def exponential(self, name: str, mean: float) -> float:
        """Exponential variate with the given mean (0 mean -> 0)."""
        if mean <= 0:
            return 0.0
        return self.stream(name).expovariate(1.0 / mean)

    def uniform(self, name: str, low: float, high: float) -> float:
        return self.stream(name).uniform(low, high)

    def uniform_int(self, name: str, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive."""
        if high < low:
            raise ValueError(f"empty range [{low!r}, {high!r}]")
        rng = self._streams.get(name)
        if rng is None:
            rng = self.stream(name)
        if _HAS_RANDBELOW:
            return low + rng._randbelow(high - low + 1)
        return rng.randint(low, high)  # pragma: no cover - non-CPython

    def below(self, name: str) -> Callable[[int], int]:
        """The bound draw ``below(n)``, uniform in ``[0, n)`` for n >= 1.

        ``low + below(high - low + 1)`` consumes exactly the bits of
        ``uniform_int(name, low, high)``; hot loops bind it once instead
        of looking the stream up on every draw.
        """
        rng = self.stream(name)
        if _HAS_RANDBELOW:
            return rng._randbelow
        return rng.randrange  # pragma: no cover - non-CPython

    def bernoulli(self, name: str, p: float) -> bool:
        if p <= 0.0:
            return False
        if p >= 1.0:
            return True
        return self.stream(name).random() < p

    def choice_weighted(self, name: str, weights: Sequence[float]) -> int:
        """Index drawn with probability proportional to ``weights``: the
        first index whose running sum exceeds ``random() * total``, else
        the last.  Hot loops precompute :func:`cumulative_weights` once
        and bisect the same way."""
        cum = cumulative_weights(weights)
        return bisect_right(cum, self.stream(name).random() * cum[-1],
                            0, len(cum) - 1)

    def geometric_like_size(self, name: str, mean: float,
                            minimum: int = 1) -> int:
        """Integer transaction size: exponential over the mean, floored.

        The paper draws variable transaction sizes from an exponential
        distribution over the specified mean (§3.1).
        """
        if mean <= minimum:
            return max(minimum, int(round(mean)))
        value = self.stream(name).expovariate(1.0 / mean)
        return max(minimum, int(round(value)))

    def zipf(self, name: str, n: int, theta: float) -> int:
        """Zipf-like rank in [0, n) via inverse-CDF over harmonic weights.

        Used only by the synthetic trace generator, where a smooth skew
        is needed; the paper's own workloads use subpartition rules.
        """
        if n <= 1:
            return 0
        rng = self.stream(name)
        # Approximate inverse CDF (Chlebus closed form) — adequate for
        # workload generation purposes.
        u = rng.random()
        if theta == 1.0:
            import math
            h_n = math.log(n) + 0.5772156649
            target = u * h_n
            rank = int(math.exp(target) - 0.5772156649)
        else:
            import math
            s = 1.0 - theta
            h_n = (n ** s - 1.0) / s
            rank = int(((u * h_n * s) + 1.0) ** (1.0 / s)) - 1
        if rank < 0:
            rank = 0
        elif rank >= n:
            rank = n - 1
        return rank

    def shuffle(self, name: str, items: List) -> None:
        self.stream(name).shuffle(items)

    def spawn(self, name: str) -> "RandomStreams":
        """A child family with a seed derived from this one."""
        child_seed = (self.seed * _STREAM_SALT + hash_name(name)) & ((1 << 63) - 1)
        return RandomStreams(child_seed)


def cumulative_weights(weights: Sequence[float]) -> List[float]:
    """Running sums of non-negative ``weights``, accumulated left to
    right (so the last one is the float total a linear scan reaches)."""
    cum: List[float] = []
    acc = 0.0
    for w in weights:
        if w < 0:
            raise ValueError("negative weight")
        acc += w
        cum.append(acc)
    if acc <= 0:
        raise ValueError("weights sum to zero")
    return cum


def hash_name(name: str) -> int:
    """Stable 64-bit FNV-1a hash of a stream name.

    ``hash()`` is randomized per interpreter run, so it cannot be used
    for reproducible seeding.
    """
    value = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        value ^= byte
        value = (value * 0x100000001B3) & ((1 << 64) - 1)
    return value
