"""Seeded input generation for the ingest and serve workloads.

One generator feeds both: a population of registered domains with
Zipf-skewed popularity, and a time-ordered stream of per-day
observation rows over them, with a small share of non-NXDOMAIN
responses.  The program under test only ever sees the generated rows;
the seed decides everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.clock import SECONDS_PER_DAY, STUDY_START, date_to_epoch
from repro.dns.message import RCode
from repro.dns.name import DomainName
from repro.passivedns.record import DnsObservation
from repro.rand import derive_seed, make_rng

#: TLD mix of the generated population (the paper's .com-led skew).
TLDS = ("com", "net", "cn", "ru", "org", "info", "top", "xyz", "de", "uk")
TLD_WEIGHTS = (0.34, 0.10, 0.15, 0.12, 0.07, 0.04, 0.05, 0.05, 0.04, 0.04)

#: Zipf exponent of domain popularity.
ZIPF_EXPONENT = 1.1

#: Share of rows that are not NXDOMAIN responses (filtered by the store).
NON_NX_SHARE = 0.03

#: Share of rows queried at a host below the registered domain.
SUBDOMAIN_SHARE = 0.2

#: Day the generated traffic starts on (inside the study window).
START_EPOCH = date_to_epoch(STUDY_START) + 365 * SECONDS_PER_DAY

_ALPHABET = np.array(list("abcdefghijklmnopqrstuvwxyz"))


@dataclass
class Population:
    """The registered domains and their popularity weights."""

    names: List[DomainName]
    weights: np.ndarray


@dataclass
class DayRows:
    """Columnar rows for a span of days: one row per observation."""

    domain_index: np.ndarray
    timestamps: np.ndarray
    counts: np.ndarray
    nxdomain: np.ndarray
    subdomain: np.ndarray

    def __len__(self) -> int:
        return len(self.domain_index)


def make_population(seed: int, domains: int) -> Population:
    """``domains`` distinct registered names with Zipf weights."""
    rng = make_rng(derive_seed(seed, "perfbench-population"))
    names: List[DomainName] = []
    seen = set()
    tld_p = np.asarray(TLD_WEIGHTS) / sum(TLD_WEIGHTS)
    while len(names) < domains:
        length = int(rng.integers(6, 14))
        label = "".join(_ALPHABET[rng.integers(0, 26, size=length)])
        tld = TLDS[int(rng.choice(len(TLDS), p=tld_p))]
        text = f"{label}.{tld}"
        if text in seen:
            continue
        seen.add(text)
        names.append(DomainName(text))
    ranks = np.arange(1, domains + 1, dtype=np.float64)
    weights = 1.0 / ranks**ZIPF_EXPONENT
    # Popularity rank is independent of name order.
    weights = weights[rng.permutation(domains)]
    return Population(names=names, weights=weights / weights.sum())


def make_rows(
    seed: int, population: Population, first_day: int, days: int, per_day: int
) -> DayRows:
    """``per_day`` rows on each of ``days`` days, in time order.

    Each day's rows are drawn from the population's popularity, given
    seconds-resolution timestamps inside the day, and sorted, so the
    whole span is time-ordered.  The stream for a given day depends
    only on ``seed`` and the day, so a store built from days ``[0, d)``
    and a later "fresh day" ``d`` never overlap.
    """
    parts = []
    for day in range(first_day, first_day + days):
        rng = make_rng(derive_seed(seed, f"perfbench-day-{day}"))
        index = rng.choice(len(population.names), size=per_day, p=population.weights)
        offsets = np.sort(rng.integers(0, SECONDS_PER_DAY, size=per_day))
        counts = rng.geometric(0.4, size=per_day)
        nx = rng.random(per_day) >= NON_NX_SHARE
        sub = rng.random(per_day) < SUBDOMAIN_SHARE
        times = START_EPOCH + day * SECONDS_PER_DAY + offsets
        parts.append((index, times, counts, nx, sub))
    return DayRows(
        domain_index=np.concatenate([p[0] for p in parts]).astype(np.int64),
        timestamps=np.concatenate([p[1] for p in parts]).astype(np.int64),
        counts=np.concatenate([p[2] for p in parts]).astype(np.int64),
        nxdomain=np.concatenate([p[3] for p in parts]),
        subdomain=np.concatenate([p[4] for p in parts]),
    )


def observations(population: Population, rows: DayRows) -> List[DnsObservation]:
    """The rows as sensor observations, ready for the ingest pipeline."""
    hosts = [DomainName(f"www.{name}") for name in population.names]
    out: List[DnsObservation] = []
    for index, timestamp, count, nx, sub in zip(
        rows.domain_index.tolist(),
        rows.timestamps.tolist(),
        rows.counts.tolist(),
        rows.nxdomain.tolist(),
        rows.subdomain.tolist(),
    ):
        out.append(
            DnsObservation(
                qname=hosts[index] if sub else population.names[index],
                rcode=RCode.NXDOMAIN if nx else RCode.NOERROR,
                timestamp=timestamp,
                sensor_id="perfbench",
                count=count,
            )
        )
    return out
