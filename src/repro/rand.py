"""Deterministic randomness helpers.

Every stochastic component in the library draws from a
:class:`numpy.random.Generator` created here.  Components never share a
generator implicitly; instead each takes a seed (or a parent
:class:`SeedSequenceFactory`) so that

1. the same top-level seed reproduces the same database, trace, and
   report tables bit-for-bit, and
2. adding a new component does not perturb the streams of existing
   ones (each named child stream is derived by hashing its label).

Weighted draws go through :class:`WeightedTable`, which builds a pool's
cumulative distribution once and then costs one ``random()`` and one
bisection per draw.  It returns exactly what
``Generator.choice(len(items), p=probs)`` returns from the same
generator state, so a table can replace a ``choice(p=...)`` call site
without moving any seeded output — provided the table is given the
same ``probs`` array the call site built.
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from typing import Generic, List, Sequence, Tuple, TypeVar

import numpy as np
from repro.errors import ConfigError

T = TypeVar("T")


def make_rng(seed: int) -> np.random.Generator:
    """Create a PCG64 generator from an integer seed."""
    return np.random.Generator(np.random.PCG64(seed))


def derive_seed(seed: int, label: str) -> int:
    """Derive a stable 63-bit child seed from ``seed`` and a label.

    The derivation hashes the label so that independently named
    components get decorrelated streams regardless of the order in
    which they are created.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class SeedSequenceFactory:
    """Hands out named, decorrelated child generators.

    >>> factory = SeedSequenceFactory(7)
    >>> a = factory.rng("trace")
    >>> b = factory.rng("honeypot")

    ``a`` and ``b`` are independent, and re-creating the factory with
    seed 7 reproduces both streams exactly.
    """

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)

    def child_seed(self, label: str) -> int:
        """Return the derived integer seed for ``label``."""
        return derive_seed(self.seed, label)

    def rng(self, label: str) -> np.random.Generator:
        """Return a fresh generator for the named component."""
        return make_rng(self.child_seed(label))

    def subfactory(self, label: str) -> "SeedSequenceFactory":
        """Return a factory rooted at the named child seed."""
        return SeedSequenceFactory(self.child_seed(label))


class WeightedTable(Generic[T]):
    """A weighted pool with its cumulative distribution built once.

    ``Generator.choice(n, p=p)`` (numpy 2.x, one draw) computes
    ``cdf = p.cumsum(); cdf /= cdf[-1]``, draws one ``random()`` and
    returns ``cdf.searchsorted(u, side="right")``.  The constructor
    does the first two steps and keeps the CDF as Python floats, so
    :meth:`draw` is ``items[bisect_right(cdf, rng.random())]`` — the
    same index from the same single draw, without rebuilding and
    re-validating ``p`` on every call.

    ``probs`` must be the normalized array the replaced call site
    passed as ``p``: its rounding decides the CDF bit for bit.  The
    constructor rejects what ``choice`` rejects, with the same
    messages (as :class:`~repro.errors.ConfigError`, a ``ValueError``).
    Tables hold no per-draw state; a module may build one per constant
    pool.
    """

    __slots__ = ("items", "cdf")

    def __init__(self, items: Sequence[T], probs: Sequence[float]) -> None:
        p = np.array(probs, dtype=float)
        if p.ndim != 1 or len(p) != len(items):
            raise ConfigError("items and weights must have equal length")
        if not len(items):
            raise ConfigError("cannot choose from an empty sequence")
        p_sum = float(p.sum())
        if math.isnan(p_sum):
            raise ConfigError("Probabilities contain NaN")
        if (p < 0).any():
            raise ConfigError("Probabilities are not non-negative")
        if abs(p_sum - 1.0) > math.sqrt(np.finfo(np.float64).eps):
            raise ConfigError(
                "Probabilities do not sum to 1. See Notes section of "
                "docstring for more information."
            )
        cdf = p.cumsum()
        cdf /= cdf[-1]
        self.items: Tuple[T, ...] = tuple(items)
        self.cdf: List[float] = cdf.tolist()

    @classmethod
    def from_weights(
        cls, items: Sequence[T], weights: Sequence[float]
    ) -> "WeightedTable[T]":
        """Normalize unnormalized weights by their ``ndarray.sum``.

        Invalid weights raise the messages ``Generator.choice`` raises.
        """
        if len(items) != len(weights):
            raise ConfigError("items and weights must have equal length")
        if not items:
            raise ConfigError("cannot choose from an empty sequence")
        probs = np.asarray(weights, dtype=float)
        total = probs.sum()
        if total <= 0:
            raise ConfigError("weights must sum to a positive value")
        return cls(items, probs / total)

    def draw(self, rng: np.random.Generator) -> T:
        """One item; consumes exactly one ``rng.random()``."""
        return self.items[bisect_right(self.cdf, rng.random())]
