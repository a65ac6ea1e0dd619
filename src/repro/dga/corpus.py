"""Benign domain-name synthesis.

Produces the *negative* class for detector training and the benign
population of the passive DNS workload: brandable word mash-ups,
word+suffix names, personal-name-ish strings, and the occasional
digit-bearing name — the registration patterns actually seen in zone
files.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.dns.name import DomainName
from repro.dga.wordlists import ADJECTIVES, BRAND_SUFFIXES, NOUNS, VERBS
from repro.rand import WeightedTable

_TLD_POOL = ("com", "net", "org", "info", "io", "co")
_TLD_WEIGHTS = (50, 14, 10, 4, 3, 3)
_TLD_TABLE = WeightedTable.from_weights(_TLD_POOL, _TLD_WEIGHTS)

_FIRST_NAMES = (
    "alex", "maria", "john", "wei", "olga", "ivan", "sara", "juan", "li",
    "emma", "omar", "nina", "hans", "yuki", "raj", "ana",
)


def benign_label(rng: np.random.Generator) -> str:
    """One benign-looking second-level label."""
    style = int(rng.integers(0, 5))
    if style == 0:  # adjective + noun: "brightwater"
        return _pick(rng, ADJECTIVES) + _pick(rng, NOUNS)
    if style == 1:  # noun + brand suffix: "cloudify"
        return _pick(rng, NOUNS) + _pick(rng, BRAND_SUFFIXES)
    if style == 2:  # verb + noun: "buildhouse"
        return _pick(rng, VERBS) + _pick(rng, NOUNS)
    if style == 3:  # personal site: "maria-garcia" / "johnsmith"
        first = _pick(rng, _FIRST_NAMES)
        second = _pick(rng, NOUNS)
        return f"{first}-{second}" if rng.random() < 0.3 else first + second
    # short brand with optional trailing digits: "zumo24"
    noun = _pick(rng, NOUNS)[:6]
    if rng.random() < 0.25:
        return noun + str(int(rng.integers(1, 100)))
    return noun


def benign_domain(rng: np.random.Generator) -> DomainName:
    """One benign registrable domain under a realistic TLD mix."""
    tld = _TLD_TABLE.draw(rng)
    return DomainName(f"{benign_label(rng)}.{tld}")


def benign_domains(rng: np.random.Generator, count: int) -> List[DomainName]:
    """``count`` benign domains (duplicates possible, like real zones)."""
    return [benign_domain(rng) for _ in range(count)]


def _pick(rng: np.random.Generator, pool) -> str:
    return pool[int(rng.integers(0, len(pool)))]
