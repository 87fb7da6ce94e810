"""Insertion and replacement policies for the Traveller Cache family.

Section 4.4: ABNDP inserts probabilistically (a block bypasses the cache
with probability 0.4 by default) to filter low-reuse data under the
power-law access distributions of NDP workloads, and replaces randomly —
the paper found LRU buys nothing once insertion is probabilistic, and
random replacement needs no extra metadata.
"""

from __future__ import annotations

from typing import List, Protocol

import numpy as np

from repro.config import ReplacementPolicy


class ProbabilisticInsertion:
    """Bernoulli bypass filter in front of the cache (Section 4.4)."""

    def __init__(self, bypass_probability: float):
        if not 0.0 <= bypass_probability <= 1.0:
            raise ValueError("bypass probability must be in [0, 1]")
        self.bypass_probability = bypass_probability

    def should_insert(self, rng: np.random.Generator) -> bool:
        if self.bypass_probability <= 0.0:
            return True
        if self.bypass_probability >= 1.0:
            return False
        return rng.random() >= self.bypass_probability


class VictimPolicy(Protocol):
    """Chooses which way of a full set to evict."""

    def choose_way(self, use_order: List[int], rng: np.random.Generator) -> int:
        """``use_order[w]`` is the last-use stamp of way ``w``."""
        ...

    def on_touch(self, use_order: List[int], way: int, stamp: int) -> None:
        ...


class RandomReplacement:
    """Uniform random victim; keeps no per-way state."""

    def choose_way(self, use_order: List[int], rng: np.random.Generator) -> int:
        return int(rng.integers(len(use_order)))

    def on_touch(self, use_order: List[int], way: int, stamp: int) -> None:
        # Random replacement ignores recency; nothing to record.
        return None


class LruReplacement:
    """Evict the way with the oldest use stamp."""

    def choose_way(self, use_order: List[int], rng: np.random.Generator) -> int:
        return int(np.argmin(use_order))

    def on_touch(self, use_order: List[int], way: int, stamp: int) -> None:
        use_order[way] = stamp


def make_replacement_policy(policy: ReplacementPolicy) -> VictimPolicy:
    if policy is ReplacementPolicy.RANDOM:
        return RandomReplacement()
    if policy is ReplacementPolicy.LRU:
        return LruReplacement()
    raise ValueError(f"unknown replacement policy {policy!r}")
