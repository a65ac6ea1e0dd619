"""The squatting classifier: candidate domain → squatting type.

Classification order matters because the categories overlap: many
adjacent-key substitutions are simultaneously single bit flips (f/g,
r/s differ in one bit).  The precedence is homo → dot → combo → typo →
bit: the deliberate-lookalike and structural categories first, then
typo before bit so that the (large) typo population doesn't leak into
the (tiny) bit category — misattributing 5% of typos would several-fold
inflate bitsquatting, whereas the reverse leak is negligible.  A
disjoint census like Figure 7 needs exactly one category per domain.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from repro.dns.name import DomainName
from repro.squatting.bit import is_bitsquat
from repro.squatting.combo import is_combosquat
from repro.squatting.dot import is_dotsquat
from repro.squatting.homo import is_homosquat
from repro.squatting.targets import PopularDomains
from repro.squatting.typo import _variant_labels


class SquattingType(enum.Enum):
    """The five categories of Figure 7, in classification precedence."""

    HOMO = "homosquatting"
    BIT = "bitsquatting"
    DOT = "dotsquatting"
    COMBO = "combosquatting"
    TYPO = "typosquatting"


@dataclass(frozen=True)
class SquattingMatch:
    """A positive classification: which type, against which target."""

    candidate: DomainName
    squat_type: SquattingType
    target: DomainName


class SquattingDetector:
    """Classifies domains against a popular-target list.

    >>> detector = SquattingDetector(PopularDomains.default())
    >>> detector.classify(DomainName("gogle.com")).squat_type
    <SquattingType.TYPO: 'typosquatting'>
    """

    def __init__(self, targets: Optional[PopularDomains] = None) -> None:
        self.targets = targets if targets is not None else PopularDomains.default()
        #: Typo variant labels per target label, built on first use and
        #: kept for this detector's lifetime only.
        self._typo_labels: Dict[str, Set[str]] = {}
        self._checks = (
            (SquattingType.HOMO, is_homosquat),
            (SquattingType.DOT, is_dotsquat),
            (SquattingType.COMBO, is_combosquat),
            (SquattingType.TYPO, self._is_typosquat),
            (SquattingType.BIT, is_bitsquat),
        )

    def classify(self, candidate: DomainName) -> Optional[SquattingMatch]:
        """The first matching (type, target), or None for clean names."""
        if candidate.registered_domain() in self.targets:
            return None  # the brand itself is not a squat
        for squat_type, predicate in self._checks:
            for target in self.targets:
                if predicate(candidate, target):
                    return SquattingMatch(candidate, squat_type, target)
        return None

    def _is_typosquat(self, candidate: DomainName, target: DomainName) -> bool:
        """One keystroke error from ``target`` under the same TLD; each
        target's variant label set is generated once per detector."""
        candidate = candidate.registered_domain()
        target = target.registered_domain()
        if candidate.tld != target.tld or candidate == target:
            return False
        labels = self._typo_labels.get(target.sld)
        if labels is None:
            labels = self._typo_labels[target.sld] = _variant_labels(target.sld)
        return candidate.sld in labels

    def classify_many(
        self, candidates: Iterable[DomainName]
    ) -> List[SquattingMatch]:
        """All positive matches in a candidate stream."""
        matches = []
        for candidate in candidates:
            match = self.classify(candidate)
            if match is not None:
                matches.append(match)
        return matches

    def census(
        self, candidates: Iterable[DomainName]
    ) -> Dict[SquattingType, int]:
        """Counts per type over a candidate stream (Figure 7's shape)."""
        counts: Dict[SquattingType, int] = {t: 0 for t in SquattingType}
        for match in self.classify_many(candidates):
            counts[match.squat_type] += 1
        return counts

    def is_squatting(self, candidate: DomainName) -> bool:
        return self.classify(candidate) is not None
