"""Substrate micro-benchmarks.

Not paper figures — these track the performance of the building blocks
the study leans on, so substrate regressions show up next to the
experiment benches: wire codec throughput, full iterative resolution,
cached resolution, passive-DNS batch ingest, indexed per-domain series
queries, and classifier throughput.
"""

import numpy as np
import pytest

from repro.dga.detector import DgaDetector
from repro.dga.features import extract_features
from repro.dns.hierarchy import DnsHierarchy
from repro.dns.message import DnsMessage, RCode, make_soa_record
from repro.dns.name import DomainName
from repro.dns.tld import TldRegistry
from repro.dns.wire import decode_message, encode_message
from repro.passivedns.database import PassiveDnsDatabase
from repro.rand import make_rng
from repro.squatting.detector import SquattingDetector
from tests.passivedns.reference import ScalarDatabase, daily_series_scan


@pytest.fixture(scope="module")
def hierarchy():
    h = DnsHierarchy.build(TldRegistry.default())
    h.register_domain(DomainName("example.com"), "93.184.216.34")
    return h


def test_perf_wire_encode(benchmark):
    query = DnsMessage.make_query(DomainName("www.example.com"), msg_id=7)
    response = query.make_response(
        rcode=RCode.NXDOMAIN,
        authorities=[make_soa_record(DomainName("example.com"))],
    )
    wire = benchmark(encode_message, response)
    assert len(wire) > 12


def test_perf_wire_decode(benchmark):
    query = DnsMessage.make_query(DomainName("www.example.com"), msg_id=7)
    wire = encode_message(
        query.make_response(
            rcode=RCode.NXDOMAIN,
            authorities=[make_soa_record(DomainName("example.com"))],
        )
    )
    message = benchmark(decode_message, wire)
    assert message.is_nxdomain()


def test_perf_iterative_resolution(benchmark, hierarchy):
    resolver = hierarchy.make_iterative_resolver()
    result = benchmark(resolver.resolve, DomainName("www.example.com"))
    assert result.addresses() == ["93.184.216.34"]


def test_perf_cached_resolution(benchmark, hierarchy):
    resolver = hierarchy.make_recursive_resolver()
    resolver.resolve(DomainName("www.example.com"), now=0)

    def cached():
        return resolver.resolve(DomainName("www.example.com"), now=1)

    result = benchmark(cached)
    assert result.from_cache


def test_perf_database_ingest_batch(benchmark):
    """Columnar batch ingest, checked against the row-by-row oracle."""
    domains = [DomainName(f"bulk-{i % 500}.com") for i in range(2_000)]
    times = np.arange(2_000, dtype=np.int64) * 60
    counts = np.ones(2_000, dtype=np.int64)

    def ingest():
        db = PassiveDnsDatabase()
        ids = db.intern_many(domains)
        db.add_batch(ids, times, counts)
        return db

    db = benchmark(ingest)
    assert db.total_responses() == 2_000
    reference = ScalarDatabase()
    for i, domain in enumerate(domains):
        reference.add(domain, timestamp=i * 60, count=1)
    assert db.fingerprint() == reference.fingerprint()


@pytest.fixture(scope="module")
def series_db():
    db = PassiveDnsDatabase()
    rng = make_rng(0)
    n_domains, n_rows = 400, 120_000
    domains = [DomainName(f"series-{i}.com") for i in range(n_domains)]
    ids = db.intern_many(domains)
    row_ids = ids[rng.integers(0, n_domains, size=n_rows)]
    times = rng.integers(0, 400, size=n_rows).astype(np.int64) * 86_400
    db.add_batch(row_ids, times, np.ones(n_rows, dtype=np.int64))
    return db, domains


def test_perf_daily_series_indexed(benchmark, series_db):
    """CSR-indexed per-domain series (touches one domain's rows)."""
    db, domains = series_db
    target = domains[7]
    series = benchmark(db.daily_series_for, target, 0, 400 * 86_400)
    assert series.sum() == db.profile(target).total_queries


def test_perf_daily_series_scan(benchmark, series_db):
    """Reference full-column masked scan (the pre-index baseline)."""
    db, domains = series_db
    target = domains[7]
    series = benchmark(daily_series_scan, db, target, 0, 400 * 86_400)
    assert series.sum() == db.profile(target).total_queries


def test_perf_feature_extraction(benchmark):
    vector = benchmark(extract_features, "xkqzvwplfmrt.com")
    assert vector.shape[0] == 12


def test_perf_dga_classify_batch(benchmark, dga_detector: DgaDetector):
    batch = [f"label{i}x{'q' * (i % 7)}.com" for i in range(200)]
    flags = benchmark(dga_detector.classify, batch)
    assert len(flags) == 200


def test_perf_squatting_classify(benchmark):
    detector = SquattingDetector()
    match = benchmark(detector.classify, DomainName("gogle.com"))
    assert match is not None
