"""Lexical feature extraction for DGA detection (FANCI-style).

Features operate on the second-level label only (the part the
generation algorithm controls).  The set mirrors the published
NXDomain-classification literature: length and entropy separate
random-character families; dictionary-coverage and bigram-likelihood
features catch wordlist families like Suppobox/Matsnu that entropy
misses.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Union

import numpy as np

from repro.dns.name import DomainName
from repro.dga.wordlists import ADJECTIVES, BRAND_SUFFIXES, NOUNS, VERBS

FEATURE_NAMES = (
    "length",
    "entropy",
    "digit_ratio",
    "vowel_ratio",
    "max_consonant_run",
    "unique_char_ratio",
    "bigram_logprob",
    "word_coverage",
    "hyphen_count",
    "repeat_ratio",
    "trigram_diversity",
    "starts_with_digit",
)

_VOWELS = frozenset("aeiou")
_DICTIONARY = frozenset(
    word
    for word in set(NOUNS) | set(VERBS) | set(ADJECTIVES) | set(BRAND_SUFFIXES)
    if len(word) >= 2
)
_DICTIONARY_LENGTHS = tuple(sorted({len(w) for w in _DICTIONARY}, reverse=True))


def _build_bigram_model() -> Dict[str, float]:
    """Log-probability table of bigrams in English word material.

    Laplace-smoothed over the a-z alphabet; unseen bigrams get the
    smoothed floor, so random-character labels score far below
    dictionary-built ones.
    """
    counts: Counter = Counter()
    total = 0
    for word in set(NOUNS) | set(VERBS) | set(ADJECTIVES):
        for i in range(len(word) - 1):
            counts[word[i : i + 2]] += 1
            total += 1
    vocabulary = 26 * 26
    model = {}
    for first in "abcdefghijklmnopqrstuvwxyz":
        for second in "abcdefghijklmnopqrstuvwxyz":
            bigram = first + second
            model[bigram] = math.log(
                (counts.get(bigram, 0) + 1) / (total + vocabulary)
            )
    return model


_BIGRAM_MODEL = _build_bigram_model()
_BIGRAM_FLOOR = math.log(1 / (sum(1 for _ in _BIGRAM_MODEL) + 1))


def shannon_entropy(text: str) -> float:
    """Character-level Shannon entropy in bits."""
    if not text:
        return 0.0
    counts = Counter(text)
    n = len(text)
    return -sum((c / n) * math.log2(c / n) for c in counts.values())


def max_consonant_run(text: str) -> int:
    """Length of the longest run of consecutive consonant letters."""
    best = run = 0
    for char in text:
        if char.isalpha() and char not in _VOWELS:
            run += 1
            best = max(best, run)
        else:
            run = 0
    return best


def mean_bigram_logprob(text: str) -> float:
    """Average English-bigram log-probability of the label."""
    bigrams = [text[i : i + 2] for i in range(len(text) - 1)]
    scored = [_BIGRAM_MODEL.get(b, _BIGRAM_FLOOR) for b in bigrams]
    if not scored:
        return _BIGRAM_FLOOR
    return sum(scored) / len(scored)


def dictionary_coverage(text: str) -> float:
    """Fraction of characters covered by greedy dictionary matching.

    Scans left to right, always taking the longest word (of two or more
    characters) that matches at the current position; uncovered
    characters advance by one.  The longest match is found by set
    lookup, trying each dictionary word length from the longest down.
    Two distinct words of one length cannot both match at a position,
    so the match is the same whichever order the words are in.  Word-
    concatenation DGAs score near 1.0; random labels score near 0.
    """
    size = len(text)
    if not size:
        return 0.0
    covered = 0
    position = 0
    while position < size:
        for length in _DICTIONARY_LENGTHS:
            end = position + length
            if end <= size and text[position:end] in _DICTIONARY:
                covered += length
                position = end
                break
        else:
            position += 1
    return covered / size


def extract_features(domain: Union[DomainName, str]) -> np.ndarray:
    """The 12-dimensional feature vector for one domain.

    Accepts a full domain or a bare label; only the second-level label
    is analyzed.
    """
    if isinstance(domain, DomainName):
        label = domain.sld or domain.tld
    else:
        name = str(domain).strip(".")
        label = name.split(".")[-2] if "." in name else name
    label = label.lower()
    length = len(label)
    letters = sum(1 for c in label if c.isalpha())
    digits = sum(1 for c in label if c.isdigit())
    trigrams = {label[i : i + 3] for i in range(length - 2)}
    counts = Counter(label)
    repeats = sum(c - 1 for c in counts.values())
    return np.array(
        [
            length,
            shannon_entropy(label),
            digits / length if length else 0.0,
            (sum(1 for c in label if c in _VOWELS) / letters) if letters else 0.0,
            max_consonant_run(label),
            len(counts) / length if length else 0.0,
            mean_bigram_logprob(label),
            dictionary_coverage(label),
            label.count("-"),
            repeats / length if length else 0.0,
            len(trigrams) / max(length - 2, 1),
            1.0 if label[:1].isdigit() else 0.0,
        ],
        dtype=float,
    )


def extract_feature_matrix(domains: List[Union[DomainName, str]]) -> np.ndarray:
    """Feature vectors for many domains, stacked row-wise."""
    if not domains:
        return np.empty((0, len(FEATURE_NAMES)))
    return np.vstack([extract_features(d) for d in domains])
