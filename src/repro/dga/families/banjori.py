"""Banjori-style DGA.

Banjori is unusual: instead of generating fresh labels it *mutates a
seed domain*, rewriting only the first four characters with a rolling
arithmetic over the previous name.  Successive domains therefore share
a long constant tail — a fingerprint no entropy feature catches, which
is why detectors need more than randomness scores.
"""

from __future__ import annotations

from typing import List

from repro.dga.base import DgaFamily

_A = ord("a")


class Banjori(DgaFamily):
    name = "banjori"
    tlds = ("com",)
    domains_per_day = 40

    #: Mutated seed label (the real malware shipped one per campaign).
    seed_label = "earnestnessbiophysicalohax"

    def generate_labels(self, day_index: int, count: int) -> List[str]:
        # Advance the rolling mutation day_index * domains_per_day steps
        # so each day picks up where the previous left off, like the
        # malware.  Each step's checksum is the code-point sum of the
        # previous label plus the seed and the step number.  Only the
        # first four characters ever change, so the chain's whole state
        # is the sum of those four codes; the tail adds a constant.
        # Labels are built only for the steps that are returned.
        tail = self.seed_label[4:]
        offset = sum(map(ord, tail)) + self.seed
        head = sum(map(ord, self.seed_label[:4]))
        first = day_index * self.domains_per_day
        for step in range(first):
            checksum = (head + offset + step) & 0xFFFF
            head = (
                4 * _A
                + checksum % 26
                + (checksum >> 3) % 26
                + (checksum >> 5) % 26
                + (checksum >> 7) % 26
            )
        labels = []
        for step in range(first, first + count):
            checksum = (head + offset + step) & 0xFFFF
            codes = (
                _A + checksum % 26,
                _A + (checksum >> 3) % 26,
                _A + (checksum >> 5) % 26,
                _A + (checksum >> 7) % 26,
            )
            head = sum(codes)
            labels.append("".join(map(chr, codes)) + tail)
        return labels
