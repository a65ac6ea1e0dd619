"""Typosquatting: registration of single-keystroke-error variants.

Implements the five classic typo models of Wang et al.'s Strider
Typo-Patrol and Agten et al. (NDSS '15):

1. character omission        (``gogle.com``)
2. adjacent-key substitution (``googke.com``)
3. character transposition   (``googel.com``)
4. character duplication     (``gooogle.com``)
5. adjacent-key insertion    (``googlke.com``)

Generation enumerates the full variant space for a target; detection
answers whether a candidate lies within it.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.dns.name import _LABEL_RE, MAX_LABEL_LENGTH, DomainName
from repro.errors import DomainNameError

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


#: TLD typo targets: (intended TLD, mistyped TLDs actually registered
#: against it in the wild — omissions and adjacent keys).
TLD_TYPOS: Dict[str, Tuple[str, ...]] = {
    "com": ("co", "om", "cm", "con", "vom", "xom", "comm"),
    "net": ("ne", "et", "nte", "met", "bet"),
    "org": ("og", "orh", "orf", "ogr"),
    "ru": ("r", "eu"),
    "de": ("d", "se"),
}


def tld_swap_variants(target: DomainName) -> List[DomainName]:
    """Wrong-TLD typos: the brand label under a mistyped TLD.

    ``example.com`` → ``example.co``, ``example.cm``, ... — the typo
    class that country registries (.co, .cm, .om) famously monetize.
    Kept separate from :func:`typosquat_variants` (same-TLD label
    typos) so censuses calibrated on the paper's same-TLD counts are
    unaffected.
    """
    target = target.registered_domain()
    variants = []
    for tld in TLD_TYPOS.get(target.tld, ()):
        try:
            variants.append(DomainName(f"{target.sld}.{tld}"))
        except DomainNameError:  # pragma: no cover - all entries valid
            continue
    return variants


def is_tld_swap(candidate: DomainName, target: DomainName) -> bool:
    """True when the candidate is the target's label under a typo TLD."""
    candidate = candidate.registered_domain()
    target = target.registered_domain()
    if candidate.sld != target.sld or candidate == target:
        return False
    return candidate.tld in TLD_TYPOS.get(target.tld, ())


def is_typosquat(candidate: DomainName, target: DomainName) -> bool:
    """True when ``candidate`` is one keystroke error from ``target``.

    Compares second-level labels under the same TLD; the registered
    domain of the candidate is used, so subdomains classify too.
    """
    candidate = candidate.registered_domain()
    target = target.registered_domain()
    if candidate.tld != target.tld or candidate == target:
        return False
    return candidate.sld in _variant_labels(target.sld)
