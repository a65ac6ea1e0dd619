"""Synthetic blocklist feed generation.

Populates a :class:`~repro.blocklist.store.BlocklistStore` from a
malicious-domain population with the category priors of Figure 8
(malware 79%, grayware 9%, phishing 8%, C&C 4%), standing in for the
vendor's continuously updated intelligence feed.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.blocklist.categories import PAPER_CATEGORY_SHARES, ThreatCategory
from repro.dns.name import DomainName
from repro.rand import WeightedTable
from repro.errors import ConfigError


class FeedGenerator:
    """Assigns threat categories to malicious domains and emits entries."""

    def __init__(
        self,
        rng: np.random.Generator,
        category_shares: Optional[
            Sequence[Tuple[ThreatCategory, float]]
        ] = None,
    ) -> None:
        shares = (
            list(category_shares)
            if category_shares is not None
            else list(PAPER_CATEGORY_SHARES)
        )
        total = sum(weight for _, weight in shares)
        if total <= 0:
            raise ConfigError("category shares must sum to a positive value")
        self._rng = rng
        self._table = WeightedTable.from_weights(
            [category for category, _ in shares], [weight for _, weight in shares]
        )

    def assign_category(self, domain: DomainName) -> ThreatCategory:
        """Draw a category from the configured priors."""
        return self._table.draw(self._rng)
