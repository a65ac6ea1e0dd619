"""Typosquatting: registration of single-keystroke-error variants.

Implements the five classic typo models of Wang et al.'s Strider
Typo-Patrol and Agten et al. (NDSS '15):

1. character omission        (``gogle.com``)
2. adjacent-key substitution (``googke.com``)
3. character transposition   (``googel.com``)
4. character duplication     (``gooogle.com``)
5. adjacent-key insertion    (``googlke.com``)

Generation enumerates the full variant space for a target; detection
answers whether a candidate lies within it (see
:class:`~repro.squatting.detector.SquattingDetector`).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.dns.name import _LABEL_RE, MAX_LABEL_LENGTH, DomainName

#: QWERTY adjacency, lowercase letters and digits.
QWERTY_ADJACENT: Dict[str, str] = {
    "q": "wa1", "w": "qase2", "e": "wsdr3", "r": "edft4", "t": "rfgy5",
    "y": "tghu6", "u": "yhji7", "i": "ujko8", "o": "iklp9", "p": "ol0",
    "a": "qwsz", "s": "awedxz", "d": "serfcx", "f": "drtgvc", "g": "ftyhbv",
    "h": "gyujnb", "j": "huikmn", "k": "jiolm", "l": "kop",
    "z": "asx", "x": "zsdc", "c": "xdfv", "v": "cfgb", "b": "vghn",
    "n": "bhjm", "m": "njk",
    "1": "2q", "2": "13w", "3": "24e", "4": "35r", "5": "46t",
    "6": "57y", "7": "68u", "8": "79i", "9": "80o", "0": "9p",
}


def _variant_labels(label: str) -> Set[str]:
    variants: Set[str] = set()
    # 1. omission
    for i in range(len(label)):
        variants.add(label[:i] + label[i + 1 :])
    # 2. adjacent-key substitution
    for i, char in enumerate(label):
        for neighbour in QWERTY_ADJACENT.get(char, ""):
            variants.add(label[:i] + neighbour + label[i + 1 :])
    # 3. transposition
    for i in range(len(label) - 1):
        if label[i] != label[i + 1]:
            variants.add(
                label[:i] + label[i + 1] + label[i] + label[i + 2 :]
            )
    # 4. duplication
    for i, char in enumerate(label):
        variants.add(label[: i + 1] + char + label[i + 1 :])
    # 5. adjacent-key insertion (before and after each character)
    for i, char in enumerate(label):
        for neighbour in QWERTY_ADJACENT.get(char, ""):
            variants.add(label[:i] + neighbour + label[i:])
            variants.add(label[: i + 1] + neighbour + label[i + 1 :])
    variants.discard(label)
    return {v for v in variants if v}


def typosquat_variants(target: DomainName) -> List[DomainName]:
    """All single-keystroke typo domains for ``target`` (same TLD).

    Variant labels are built from the target's own characters and
    QWERTY neighbours, so they are lowercase and dot-free; a label is
    a valid name under the target's (valid) TLD exactly when it fits
    the label length and pattern.  Labels that fail — a hyphen moved
    to an edge, an underscore moved inside, a 64th character — are
    skipped, as parsing them would reject them.
    """
    target = target.registered_domain()
    tld = target.tld
    return [
        DomainName._from_valid((label, tld))
        for label in sorted(_variant_labels(target.sld))
        if len(label) <= MAX_LABEL_LENGTH and _LABEL_RE.match(label)
    ]
