"""The 8-year NXDomain trace (the Farsight-feed substitution).

Generates a domain population and its 2014-2022 NXDomain query
activity with the shapes the paper measures:

- **Figure 3** — monthly response volume rises to 2016, stays flat to
  2020, jumps sharply in 2021, and keeps climbing in 2022 (driven here
  by per-year multipliers on both domain arrivals and query rates);
- **Figure 4** — the TLD mix is dominated by .com, with .net/.cn/.ru/
  .org following and ccTLDs well represented;
- **Figure 5** — per-domain activity lifetimes are a mixture of a
  short-lived mass (most domains stop being queried within ten days)
  and a heavy tail (some keep receiving queries for years);
- **Figure 6** — expired domains carry query traffic *before* expiry,
  drop — but do not vanish — after becoming NX, and show a spike
  around day +30;
- **§5's populations** — expired domains get WHOIS histories; DGA,
  squatting, and blocklisted sub-populations are planted with the
  paper's internal proportions so the origin analyses have signal to
  find.

Scale note: the paper's expired share of all NXDomains is 0.06%; a
laptop-scale population that small would leave single-digit expired
domains to analyze, so ``expired_fraction`` is inflated (default 20%)
and every analysis reports the *within-expired* proportions, which are
preserved.  The never-registered >> expired ordering also holds.
"""

from __future__ import annotations

import dataclasses
import enum
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.blocklist.feeds import FeedGenerator
from repro.blocklist.store import BlocklistStore, RateLimit
from repro.clock import SECONDS_PER_DAY, STUDY_START, date_to_epoch
from repro.dga.corpus import benign_label
from repro.dga.families import ALL_FAMILIES
from repro.dns.name import DomainName
from repro.errors import WorkloadError
from repro.faults.plan import FaultPlan
from repro.passivedns.database import PassiveDnsDatabase
from repro.passivedns.pipeline import PipelineStats, ResilientIngestPipeline
from repro.rand import SeedSequenceFactory, WeightedTable, derive_seed
from repro.squatting.bit import bitsquat_variants
from repro.squatting.combo import combosquat_variants
from repro.squatting.detector import SquattingType
from repro.squatting.dot import dotsquat_variants
from repro.squatting.homo import homosquat_variants
from repro.squatting.targets import PopularDomains
from repro.squatting.typo import typosquat_variants
from repro.whois.history import WhoisHistoryDatabase
from repro.whois.record import WhoisRecord

STUDY_START_EPOCH = date_to_epoch(STUDY_START)

PathLike = Union[str, "os.PathLike[str]"]
STUDY_DAYS = 9 * 365  # 2014-2022 inclusive

#: Figure 3's target year-over-year volume shape (what the paper
#: reports, relative to the 2017-2020 plateau).
PAPER_YEAR_SHAPE: Dict[int, float] = {
    2014: 0.45,
    2015: 0.75,
    2016: 0.95,
    2017: 1.00,
    2018: 1.00,
    2019: 1.05,
    2020: 1.10,
    2021: 1.90,
    2022: 2.25,
}

#: Calibrated per-query-day rate factors.  Domains arrive uniformly
#: over the window, so the *observed* yearly volume is (factor ×
#: cohort residue): early years have few accumulated cohorts and the
#: residue saturates around 2017.  These factors divide the measured
#: residue curve out of PAPER_YEAR_SHAPE so the emitted trace
#: reproduces the paper's curve, not the compounded one.
YEAR_MULTIPLIERS: Dict[int, float] = {
    2014: 0.90,
    2015: 0.95,
    2016: 1.25,
    2017: 1.00,
    2018: 1.00,
    2019: 0.95,
    2020: 1.05,
    2021: 1.85,
    2022: 2.40,
}

#: Figure 4's TLD mix for the generic (non-DGA, non-squat) population.
TLD_WEIGHTS: Tuple[Tuple[str, float], ...] = (
    ("com", 0.30), ("net", 0.09), ("cn", 0.15), ("ru", 0.115), ("org", 0.06),
    ("info", 0.01), ("top", 0.02), ("xyz", 0.02), ("de", 0.025), ("uk", 0.025),
    ("nl", 0.02), ("br", 0.02), ("biz", 0.02), ("cc", 0.02), ("tk", 0.02),
    ("fr", 0.015), ("eu", 0.015), ("in", 0.015), ("pl", 0.012), ("site", 0.012),
    ("online", 0.01), ("club", 0.01), ("tv", 0.01), ("me", 0.01),
)
_TLD_TABLE = WeightedTable.from_weights(
    [t for t, _ in TLD_WEIGHTS], [w for _, w in TLD_WEIGHTS]
)

#: Figure 7's squatting-type proportions (typo : combo : dot : bit : homo).
SQUAT_PROPORTIONS: Tuple[Tuple[SquattingType, float], ...] = (
    (SquattingType.TYPO, 45_175),
    (SquattingType.COMBO, 38_900),
    (SquattingType.DOT, 6_090),
    (SquattingType.BIT, 313),
    (SquattingType.HOMO, 126),
)


class DomainKind(enum.Enum):
    """Origin category of one trace domain (§5's taxonomy)."""

    EXPIRED_BENIGN = "expired-benign"
    EXPIRED_DGA = "expired-dga"
    EXPIRED_SQUAT = "expired-squat"
    NEVER_REGISTERED_DGA = "never-registered-dga"
    NEVER_REGISTERED_TYPO = "never-registered-typo"
    NEVER_REGISTERED_JUNK = "never-registered-junk"

    @property
    def is_expired(self) -> bool:
        return self.value.startswith("expired")


@dataclass
class TraceDomain:
    """One domain of the population with its ground truth."""

    domain: DomainName
    kind: DomainKind
    became_nx_at: int
    registered_at: Optional[int] = None
    expired_at: Optional[int] = None
    dga_family: str = ""
    squat_type: Optional[SquattingType] = None
    blocklisted: bool = False
    #: Base queries/day while active (before year scaling).
    base_rate: float = 1.0
    #: Days of NX query activity after became_nx_at.
    activity_days: int = 1


@dataclass
class TraceConfig:
    """Knobs of the trace generator."""

    total_domains: int = 20_000
    expired_fraction: float = 0.20
    dga_fraction_of_expired: float = 0.03
    squat_count: int = 450
    blocklist_fraction_of_expired: float = 0.024
    #: Within never-registered: DGA / typo / junk split.
    never_registered_dga_share: float = 0.55
    never_registered_typo_share: float = 0.20
    #: Global query-volume scale.
    rate_scale: float = 1.0
    #: Daily emission for this many days after becoming NX; weekly after.
    daily_window_days: int = 130
    #: Share of domains with heavy-tailed (multi-year) activity.
    long_lived_share: float = 0.12

    def __post_init__(self) -> None:
        if self.total_domains < 100:
            raise WorkloadError("total_domains must be at least 100")
        if not 0 < self.expired_fraction < 1:
            raise WorkloadError("expired_fraction must lie in (0, 1)")
        if self.squat_count > self.total_domains * self.expired_fraction:
            raise WorkloadError("squat_count exceeds the expired population")


@dataclass
class TraceResult:
    """Everything the §4/§5 analyses consume."""

    config: TraceConfig
    nx_db: PassiveDnsDatabase
    pre_expiry_db: PassiveDnsDatabase
    population: List[TraceDomain]
    whois: WhoisHistoryDatabase
    blocklist: BlocklistStore

    def domains_of_kind(self, *kinds: DomainKind) -> List[TraceDomain]:
        wanted = set(kinds)
        return [d for d in self.population if d.kind in wanted]

    def expired_domains(self) -> List[TraceDomain]:
        return [d for d in self.population if d.kind.is_expired]

    def ground_truth(self, domain: DomainName) -> Optional[TraceDomain]:
        key = domain.registered_domain()
        for record in self.population:
            if record.domain == key:
                return record
        return None

    def degraded(
        self,
        plan: FaultPlan,
        seed: int,
        spill_dir: Optional[PathLike] = None,
    ) -> Tuple["TraceResult", PipelineStats]:
        """Replay the NX store through a faulted resilient pipeline.

        Every stored observation is re-offered to a
        :class:`~repro.passivedns.pipeline.ResilientIngestPipeline`
        carrying ``plan.schedule(seed)``; the result is a copy of this
        trace whose ``nx_db`` holds only what survived collection under
        those faults — the input for measuring how far §4's shape
        checks degrade at a given loss level.  A null plan reproduces
        ``nx_db`` exactly (same fingerprint).  With ``spill_dir`` the
        surviving store is backed by the crash-safe on-disk segment
        store instead of staying resident.
        """
        pipeline = ResilientIngestPipeline(
            schedule=plan.schedule(seed), spill_dir=spill_dir
        )
        if pipeline.database.row_count():
            # The replay assumes an empty target: restoring a prior
            # run's committed rows and re-ingesting on top would
            # double-count every surviving observation.
            raise WorkloadError(
                f"spill directory {spill_dir} already holds a committed "
                "store; degraded replay needs a fresh directory"
            )
        pipeline.ingest_many(self.nx_db.iter_observations())
        stats = pipeline.finish()
        return dataclasses.replace(self, nx_db=pipeline.database), stats

    def spilled(self, spill_dir: PathLike) -> "TraceResult":
        """A copy of this trace whose NX store is spill-backed.

        A fresh (or empty) ``spill_dir`` receives a full batched
        replay of ``nx_db`` and one committed manifest generation; a
        directory already holding a committed store is reused as-is
        when its fingerprint matches this trace (the resume path), and
        rejected with :class:`~repro.errors.WorkloadError` otherwise —
        silently analyzing someone else's store is never an option.
        """
        db = PassiveDnsDatabase(spill_dir=spill_dir)
        if db.row_count() or db.unique_domains():
            if db.fingerprint() != self.nx_db.fingerprint():
                raise WorkloadError(
                    f"spill directory {spill_dir} holds a different store "
                    "(fingerprint mismatch with this trace)"
                )
        else:
            self.nx_db.copy_rows_into(db)
            db.spill_commit({"source": "trace-spill"})
        return dataclasses.replace(self, nx_db=db)


def _allocate_quotas(
    count: int, proportions: Tuple[Tuple[SquattingType, float], ...]
) -> Dict[SquattingType, int]:
    """Largest-remainder allocation with a floor of one per type.

    Plain rounding starves the tiny categories (bit, homo) whenever the
    big ones round up — exactly the populations Figure 7 needs present.
    """
    total_weight = sum(weight for _, weight in proportions)
    exact = {t: count * w / total_weight for t, w in proportions}
    quotas = {t: max(int(v), 1) for t, v in exact.items()}
    remainders = sorted(
        exact, key=lambda t: exact[t] - int(exact[t]), reverse=True
    )
    index = 0
    while sum(quotas.values()) < count and remainders:
        quotas[remainders[index % len(remainders)]] += 1
        index += 1
    while sum(quotas.values()) > count:
        biggest = max(quotas, key=quotas.get)
        if quotas[biggest] <= 1:
            break
        quotas[biggest] -= 1
    return quotas


class NxdomainTraceGenerator:
    """Builds the population and emits the 8-year query trace."""

    def __init__(self, seed: int = 0, config: Optional[TraceConfig] = None) -> None:
        self.config = config if config is not None else TraceConfig()
        self._seeds = SeedSequenceFactory(seed).subfactory("trace")
        self._targets = PopularDomains.default()

    # -- public API -----------------------------------------------------

    def generate(self) -> TraceResult:
        """Build population, WHOIS, blocklist, and both databases."""
        population = self._build_population()
        whois = self._build_whois(population)
        blocklist = self._build_blocklist(population)
        nx_db = PassiveDnsDatabase()
        pre_db = PassiveDnsDatabase()
        self._emit_queries(population, nx_db, pre_db)
        return TraceResult(
            config=self.config,
            nx_db=nx_db,
            pre_expiry_db=pre_db,
            population=population,
            whois=whois,
            blocklist=blocklist,
        )

    # -- population ------------------------------------------------------

    def _build_population(self) -> List[TraceDomain]:
        cfg = self.config
        rng = self._seeds.rng("population")
        expired_total = int(cfg.total_domains * cfg.expired_fraction)
        dga_expired = int(expired_total * cfg.dga_fraction_of_expired)
        squat_expired = cfg.squat_count
        benign_expired = expired_total - dga_expired - squat_expired
        never_total = cfg.total_domains - expired_total
        never_dga = int(never_total * cfg.never_registered_dga_share)
        never_typo = int(never_total * cfg.never_registered_typo_share)
        never_junk = never_total - never_dga - never_typo

        population: List[TraceDomain] = []
        seen: set = set()

        def push(domain, kind, **kwargs):
            if domain in seen:
                return False
            seen.add(domain)
            population.append(TraceDomain(domain=domain, kind=kind, became_nx_at=0, **kwargs))
            return True

        # Expired benign: residual-traffic domains from the corpus.
        while sum(1 for d in population if d.kind == DomainKind.EXPIRED_BENIGN) < benign_expired:
            label = benign_label(rng)
            tld = self._draw_tld(rng)
            push(DomainName(f"{label}.{tld}"), DomainKind.EXPIRED_BENIGN)

        # Expired DGA: registered-then-abandoned C&C rendezvous names.
        self._push_dga(rng, dga_expired, DomainKind.EXPIRED_DGA, push)

        # Expired squats, with Figure 7's type proportions.
        self._push_squats(rng, squat_expired, push)

        # Never-registered DGA: the bulk of bot queries.
        self._push_dga(rng, never_dga, DomainKind.NEVER_REGISTERED_DGA, push)

        # Never-registered typos of ordinary (non-brand) names.
        count = 0
        while count < never_typo:
            label = benign_label(rng)
            tld = self._draw_tld(rng)
            variants = typosquat_variants(DomainName(f"{label}.{tld}"))
            if not variants:
                continue
            pick = variants[int(rng.integers(0, len(variants)))]
            if push(pick, DomainKind.NEVER_REGISTERED_TYPO):
                count += 1

        # Never-registered junk (fat-fingered or machine noise).
        alphabet = "abcdefghijklmnopqrstuvwxyz"
        count = 0
        while count < never_junk:
            length = int(rng.integers(5, 13))
            label = "".join(
                alphabet[int(i)] for i in rng.integers(0, 26, size=length)
            )
            if push(
                DomainName(f"{label}.{self._draw_tld(rng)}"),
                DomainKind.NEVER_REGISTERED_JUNK,
            ):
                count += 1

        self._assign_timelines(population)
        return population

    def _push_dga(self, rng, count: int, kind: DomainKind, push) -> None:
        added = 0
        guard = 0
        while added < count and guard < count * 20 + 100:
            guard += 1
            family_cls = ALL_FAMILIES[int(rng.integers(0, len(ALL_FAMILIES)))]
            family = family_cls(seed=int(rng.integers(0, 2**31)))
            day = int(rng.integers(0, STUDY_DAYS))
            samples = family.domains_for_day(day, count=4)
            for sample in samples:
                if added >= count:
                    break
                if push(sample.domain, kind, dga_family=family.name):
                    added += 1

    def _push_squats(self, rng, count: int, push) -> None:
        generators = {
            SquattingType.TYPO: typosquat_variants,
            SquattingType.COMBO: combosquat_variants,
            # Only the www-fused dot variant is registrable at the SLD
            # level *and* attributable by the census (a split-suffix
            # registration like gle.com is indistinguishable from an
            # ordinary short domain without the attacker's subdomain).
            SquattingType.DOT: lambda t: dotsquat_variants(t)[:1],
            SquattingType.BIT: bitsquat_variants,
            SquattingType.HOMO: homosquat_variants,
        }
        targets = list(self._targets)
        quotas = _allocate_quotas(count, SQUAT_PROPORTIONS)
        for squat_type, wanted in quotas.items():
            added = 0
            guard = 0
            while added < wanted and guard < wanted * 50 + 200:
                guard += 1
                target = targets[int(rng.integers(0, len(targets)))]
                variants = generators[squat_type](target)
                if not variants:
                    continue
                pick = variants[int(rng.integers(0, len(variants)))]
                if push(pick, DomainKind.EXPIRED_SQUAT, squat_type=squat_type):
                    added += 1

    def _draw_tld(self, rng) -> str:
        return _TLD_TABLE.draw(rng)

    # -- timelines -----------------------------------------------------------

    def _assign_timelines(self, population: List[TraceDomain]) -> None:
        """Pick became-NX day, activity lifetime, and query rate."""
        cfg = self.config
        rng = self._seeds.rng("timelines")
        for record in population:
            # Arrivals are uniform over the window; the Figure 3 year
            # shape is carried entirely by the per-query-day factor in
            # _emit_nx_activity.  (Weighting arrivals *and* rates by
            # the same curve compounds through cohort accumulation and
            # overshoots the paper's flat 2016-2020 stretch.)
            nx_day = int(rng.integers(0, 9 * 365))
            record.became_nx_at = STUDY_START_EPOCH + nx_day * SECONDS_PER_DAY
            if record.kind.is_expired:
                duration_years = int(rng.integers(1, 6))
                record.expired_at = record.became_nx_at - 45 * SECONDS_PER_DAY
                record.registered_at = (
                    record.expired_at - duration_years * 365 * SECONDS_PER_DAY
                )
            # Lifetime mixture: most domains go quiet within days; a
            # heavy tail stays queried for years (Figure 5 / §4.4).
            roll = rng.random()
            if roll < 0.55:
                lifetime = 1 + int(rng.geometric(1 / 5))
            elif roll < 1 - cfg.long_lived_share:
                lifetime = 5 + int(rng.geometric(1 / 25))
            else:
                lifetime = int(rng.pareto(0.9) * 180) + 120
            remaining = max(STUDY_DAYS - nx_day, 1)
            record.activity_days = int(min(lifetime, remaining))
            # Query rate: Zipf-ish heavy tail; DGA domains are polled
            # hard by bot fleets, expired domains by residual clients.
            base = float(rng.pareto(1.2) + 0.2)
            if record.kind in (DomainKind.EXPIRED_DGA, DomainKind.NEVER_REGISTERED_DGA):
                base *= 3.0
            if record.kind == DomainKind.EXPIRED_BENIGN and rng.random() < 0.05:
                base *= 12.0  # the high-traffic residual cohort (§3.3)
            # Cap the heavy tail: without it a single whale domain can
            # dominate a whole year's volume and drown the Figure 3
            # shape in sampling noise at laptop population sizes.
            record.base_rate = min(base, 12.0) * cfg.rate_scale

    # -- WHOIS / blocklist -------------------------------------------------------

    def _build_whois(self, population: List[TraceDomain]) -> WhoisHistoryDatabase:
        whois = WhoisHistoryDatabase()
        for record in population:
            if not record.kind.is_expired:
                continue
            assert record.registered_at is not None
            assert record.expired_at is not None
            whois.append(
                WhoisRecord(
                    domain=record.domain,
                    registrar="generic",
                    registrant_handle=(
                        f"h-{derive_seed(0, str(record.domain)) % 10_000_000}"
                    ),
                    status="registered",
                    created_at=record.registered_at,
                    expires_at=record.expired_at,
                    captured_at=record.registered_at,
                    nameservers=(f"ns1.{record.domain}",),
                )
            )
            whois.append(
                WhoisRecord(
                    domain=record.domain,
                    registrar="generic",
                    registrant_handle="released",
                    status="redemption-grace-period",
                    created_at=record.registered_at,
                    expires_at=record.expired_at,
                    captured_at=record.became_nx_at,
                )
            )
        return whois

    def _build_blocklist(self, population: List[TraceDomain]) -> BlocklistStore:
        cfg = self.config
        rng = self._seeds.rng("blocklist")
        store = BlocklistStore(RateLimit(capacity=1_000_000, window_seconds=3600))
        feed = FeedGenerator(rng)
        expired = [d for d in population if d.kind.is_expired]
        for record in expired:
            listed = (
                record.kind != DomainKind.EXPIRED_BENIGN
                and rng.random() < 0.5
            ) or rng.random() < cfg.blocklist_fraction_of_expired
            if listed:
                record.blocklisted = True
                store.add(
                    record.domain,
                    feed.assign_category(record.domain),
                    listed_at=record.became_nx_at,
                )
        return store

    # -- query emission ---------------------------------------------------------

    def _emit_queries(
        self,
        population: List[TraceDomain],
        nx_db: PassiveDnsDatabase,
        pre_db: PassiveDnsDatabase,
    ) -> None:
        """Emit every domain's query arrays into the stores in order.

        Each record draws from its own stream, derived from the
        ``queries`` seed and the record's population index, so one
        record's draws never depend on how many another one made.
        Each store's rows are collected in population order and land
        in bulk (:class:`_StoreRows`).
        """
        factory = SeedSequenceFactory(self._seeds.child_seed("queries"))
        nx_rows = _StoreRows(nx_db)
        pre_rows = _StoreRows(pre_db)
        for index, record in enumerate(population):
            rng = factory.rng(f"record-{index}")
            nx_rows.add(record.domain, *_emit_nx_activity(rng, record, self.config))
            if record.kind.is_expired:
                pre_rows.add(record.domain, *_emit_pre_expiry(rng, record))
        nx_rows.land()
        pre_rows.land()


#: Rows a store's pending landing holds before it lands.  One store
#: chunk (``PassiveDnsDatabase._CHUNK``): landings then cut the chunks
#: where one ``add_rows`` per domain sealed them, and a large trace
#: never holds all its rows twice.
_LANDING_ROWS = 1 << 16


class _StoreRows:
    """One store's pending per-domain (times, counts) arrays.

    Domains are kept in emission order and land through one
    :meth:`~PassiveDnsDatabase.intern_many` and one ``add_batch`` per
    :data:`_LANDING_ROWS` rows, so ids are assigned and rows land in
    the order one ``add_rows`` per domain gives.
    """

    def __init__(self, db: PassiveDnsDatabase) -> None:
        self._db = db
        self._domains: List[DomainName] = []
        self._times: List[np.ndarray] = []
        self._counts: List[np.ndarray] = []
        self._rows = 0

    def add(self, domain: DomainName, times: np.ndarray, counts: np.ndarray) -> None:
        """Keep a domain's rows; a domain without rows is not interned."""
        if not len(times):
            return
        self._domains.append(domain)
        self._times.append(times)
        self._counts.append(counts)
        self._rows += len(times)
        if self._rows >= _LANDING_ROWS:
            self.land()

    def land(self) -> None:
        """Land the pending domains and rows in the store."""
        if not self._domains:
            return
        ids = self._db.intern_many(self._domains)
        self._db.add_batch(
            np.repeat(ids, [len(times) for times in self._times]),
            np.concatenate(self._times),
            np.concatenate(self._counts),
        )
        self._domains, self._times, self._counts = [], [], []
        self._rows = 0


def _emit_nx_activity(
    rng, record: TraceDomain, config: TraceConfig
) -> Tuple[np.ndarray, np.ndarray]:
    """One domain's post-NX (timestamps, counts) arrays."""
    start_day = (record.became_nx_at - STUDY_START_EPOCH) // SECONDS_PER_DAY
    # Daily for the analysis window, weekly (aggregated) beyond.
    daily_days = min(record.activity_days, config.daily_window_days)
    n_daily = max(daily_days, 0)
    weekly = np.arange(
        config.daily_window_days, record.activity_days, 7, dtype=np.int64
    )
    all_offsets = np.concatenate(
        [np.arange(n_daily, dtype=np.int64), weekly]
    )
    if len(all_offsets) == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy()
    # Gentle decay of interest over the domain's NX lifetime plus
    # the Figure 6 bump around day +30.
    decay = np.exp(-all_offsets / max(record.activity_days, 30))
    # The Figure 6 spike: the paper observes a pronounced burst of
    # queries ~30 days after a domain first appears as NX, briefly
    # exceeding even its pre-expiry volume.
    bump = 1.0 + 4.0 * np.exp(-0.5 * ((all_offsets - 30) / 4.0) ** 2)
    years = 2014 + (start_day + all_offsets) // 365
    year_factors = np.asarray(
        [YEAR_MULTIPLIERS.get(int(year), 1.0) for year in years]
    )
    lam = record.base_rate * decay * bump * year_factors
    lam[n_daily:] *= 7  # weekly rows aggregate seven days
    counts = rng.poisson(lam).astype(np.int64)
    keep = counts > 0
    times = record.became_nx_at + all_offsets[keep] * SECONDS_PER_DAY
    return times, counts[keep]


def _emit_pre_expiry(
    rng, record: TraceDomain
) -> Tuple[np.ndarray, np.ndarray]:
    """NOERROR (timestamps, counts) for the 60 days before becoming NX.

    Figure 6 compares this against the post-NX series; the paper
    observes post-expiry volume is lower overall, so the pre-expiry
    rate sits above the post-NX base rate.
    """
    pre_rate = record.base_rate * 1.6
    lam = np.full(60, pre_rate)
    counts = rng.poisson(lam).astype(np.int64)
    offsets = np.arange(-60, 0, dtype=np.int64)
    times = record.became_nx_at + offsets * SECONDS_PER_DAY
    keep = (counts > 0) & (times >= STUDY_START_EPOCH)
    return times[keep], counts[keep]
