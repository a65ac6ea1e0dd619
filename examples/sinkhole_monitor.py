#!/usr/bin/env python3
"""§7 future work, end to end: interactive honeypot + DNS-level sinkhole.

Two extensions the paper proposes, wired together:

1. an **interactive** NXD-Honeypot that answers visitors (empty JSON
   for pollers, an empty task list for bots, 404 for probes) and
   tracks per-visitor sessions, surfacing the periodic pollers that a
   passive recorder can only infer from headers;
2. a **sinkhole** that classifies NXDomain query streams at the DNS
   level — blocklist history, squatting, DGA — so high-risk NXDomains
   can be ranked for defensive registration without registering them.

Usage::

    python examples/sinkhole_monitor.py [seed]
"""

import sys

from repro.core.reports import render_table
from repro.core.sinkhole import NxdomainSinkhole
from repro.dga.detector import DgaDetector
from repro.honeypot.interactive import InteractiveHoneypot
from repro.rand import make_rng
from repro.workloads.domains import registered_domain_profiles
from repro.workloads.honeytraffic import HoneypotTrafficGenerator
from repro.workloads.trace import NxdomainTraceGenerator, TraceConfig


def run_interactive_honeypot(seed: int) -> None:
    print("== interactive honeypot: answering six months of visitors ==")
    generator = HoneypotTrafficGenerator(make_rng(seed), scale=0.002)
    honeypot = InteractiveHoneypot(
        [profile.domain for profile in registered_domain_profiles()]
    )
    for request in generator.generate_batch(include_noise=False).to_requests():
        honeypot.interact(request)

    summary = honeypot.session_summary()
    print(f"visitors: {summary['visitors']:,}  "
          f"returning: {summary['returning']:,}  "
          f"periodic pollers: {summary['periodic']:,}  "
          f"single-shot: {summary['single-shot']:,}")
    print(f"responses by status: {honeypot.responses_by_status}")
    print("\nbusiest visitors (periodic pollers float to the top):")
    rows = []
    for src_ip, count in honeypot.top_visitors(5):
        session = honeypot.session_of(src_ip)
        rows.append(
            (
                src_ip,
                count,
                len(session.distinct_uris),
                "periodic" if session.is_periodic else "irregular",
            )
        )
    print(render_table(["source", "requests", "uris", "pattern"], rows))


def run_sinkhole(seed: int) -> None:
    print("\n== DNS-level sinkhole over the passive DNS trace ==")
    trace = NxdomainTraceGenerator(
        seed=seed, config=TraceConfig(total_domains=3_000, squat_count=120)
    ).generate()
    detector = DgaDetector.train_default(
        seed=seed, samples_per_family=150, threshold=0.9
    )
    sinkhole = NxdomainSinkhole(detector, blocklist=trace.blocklist)
    for record in trace.population:
        profile = trace.nx_db.profile(record.domain)
        if profile is not None:
            sinkhole.observe(record.domain, profile.first_seen, profile.total_queries)

    report = sinkhole.report(top_n=8)
    print(
        render_table(
            ["verdict", "domains", "queries"],
            [
                (
                    verdict.value,
                    report.domains_by_verdict[verdict],
                    f"{report.queries_by_verdict[verdict]:,}",
                )
                for verdict in report.domains_by_verdict
            ],
        )
    )
    print("\ntop candidates for defensive registration:")
    print(
        render_table(
            ["domain", "verdict", "detail", "queries"],
            [
                (str(r.domain), r.verdict.value, r.detail, f"{r.queries:,}")
                for r in report.top_suspicious
            ],
        )
    )


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    run_interactive_honeypot(seed)
    run_sinkhole(seed)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
