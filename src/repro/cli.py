"""Command-line interface.

``repro-nxd`` (or ``python -m repro``) exposes the study and the
individual detectors:

- ``repro-nxd report`` — run everything, print every table and figure;
- ``repro-nxd scale`` / ``origin`` / ``security`` — one section;
- ``repro-nxd selection`` — the §3.3 candidate list;
- ``repro-nxd sinkhole`` — classify the trace's NXDomain stream at the
  DNS level (the §7 future-work analysis server);
- ``repro-nxd dga <domain> ...`` — classify names with the detector;
- ``repro-nxd squat <domain> ...`` — classify names against the
  popular-target list;
- ``repro-nxd faults`` — sweep fault-injection rates and report how
  far the §4 shape checks degrade;
- ``repro-nxd spill`` — inspect, compact, and reclaim a crash-safe
  spill store directory (``info`` opens it read-only);
- ``repro-nxd serve`` — replay a scripted query batch through the
  overload-hardened serving tier, or gate the overload sweep;
- ``repro-nxd lint`` — run the determinism & layering linter
  (:mod:`repro.analysis`) over the source tree.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core import reports, security as security_mod
from repro.core.study import NxdomainStudy, StudyConfig
from repro.version import __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-nxd",
        description="Reproduction of 'Dial N for NXDomain' (IMC 2023)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_study_args(p):
        p.add_argument("--seed", type=int, default=0, help="top-level RNG seed")
        p.add_argument(
            "--domains", type=int, default=6_000, help="trace population size"
        )
        p.add_argument(
            "--honeypot-scale",
            type=float,
            default=0.005,
            help="fraction of the paper's 5.93M honeypot requests to generate",
        )
        p.add_argument(
            "--spill-dir",
            default=None,
            help="back the NX store with the crash-safe on-disk spill "
            "store under this directory (byte-identical analyses; "
            "reopened stores are fingerprint-verified)",
        )

    for name, help_text in (
        ("report", "run the full study and print every table and figure"),
        ("scale", "§4 scale analyses (Figures 3-6)"),
        ("origin", "§5 origin analyses (WHOIS join, DGA, Figures 7-8)"),
        ("security", "§6 honeypot experiment (Table 1, Figures 10-15)"),
        ("selection", "§3.3 domain selection"),
        ("sinkhole", "classify the NXDomain stream at the DNS level (§7)"),
    ):
        p = sub.add_parser(name, help=help_text)
        add_study_args(p)
    sub_validate = sub.add_parser(
        "validate", help="shape-check robustness across a seed sweep"
    )
    sub_validate.add_argument("--seeds", type=int, default=5, help="seed count")
    sub_validate.add_argument("--domains", type=int, default=6_000)
    sub_validate.add_argument(
        "--skip-origin", action="store_true", help="only run the §4 checks"
    )

    sub_faults = sub.add_parser(
        "faults",
        help="fault-injection sweep: §4 shape checks under degraded collection",
    )
    sub_faults.add_argument("--seeds", type=int, default=3, help="seed count")
    sub_faults.add_argument("--domains", type=int, default=4_000)
    sub_faults.add_argument(
        "--rates",
        default="0,0.01,0.05,0.1",
        help="comma-separated fault rates to sweep",
    )
    sub_faults.add_argument(
        "--gate",
        type=float,
        default=0.05,
        help="highest fault rate that must keep every shape check passing",
    )
    sub_faults.add_argument(
        "--include-origin", action="store_true", help="also run the §5 checks"
    )
    sub_faults.add_argument(
        "--spill-dir",
        default=None,
        help="run each degraded replay against a crash-safe spill store "
        "under this directory (one subdirectory per rate and seed)",
    )
    sub_faults.add_argument(
        "--list-injectors",
        action="store_true",
        help="list the available fault injectors (stream and storage) "
        "and exit",
    )

    sub_spill = sub.add_parser(
        "spill",
        help="inspect, compact, and reclaim a crash-safe spill store",
    )
    spill_sub = sub_spill.add_subparsers(dest="spill_command", required=True)
    spill_info = spill_sub.add_parser(
        "info",
        help="open a spill directory read-only and print its recovery "
        "report (creates and mutates nothing)",
    )
    spill_info.add_argument("--dir", required=True, help="spill directory")
    spill_info.add_argument(
        "--paranoid",
        action="store_true",
        help="ignore the stat facts recorded in the manifest and "
        "CRC-stream every segment and sidecar",
    )
    spill_compact = spill_sub.add_parser(
        "compact",
        help="rewrite the committed segments into one superseding "
        "generation (crash-safe at every write boundary)",
    )
    spill_compact.add_argument("--dir", required=True, help="spill directory")
    spill_compact.add_argument(
        "--min-segments",
        type=int,
        default=2,
        help="skip compaction below this many committed segments",
    )
    spill_purge = spill_sub.add_parser(
        "purge-quarantine",
        help="delete quarantined debris the store has already "
        "recovered from",
    )
    spill_purge.add_argument("--dir", required=True, help="spill directory")
    spill_purge.add_argument(
        "--kinds",
        default=None,
        help="comma-separated quarantine kinds to purge "
        "(default: every kind)",
    )
    spill_purge.add_argument(
        "--before-generation",
        type=int,
        default=None,
        help="only purge entries quarantined before this generation",
    )

    sub_trace = sub.add_parser(
        "trace", help="generate, save, and analyze trace datasets"
    )
    trace_sub = sub_trace.add_subparsers(dest="trace_command", required=True)
    trace_generate = trace_sub.add_parser(
        "generate", help="generate a trace and save it to a directory"
    )
    trace_generate.add_argument("out", help="output directory")
    trace_generate.add_argument("--seed", type=int, default=0)
    trace_generate.add_argument("--domains", type=int, default=6_000)
    trace_analyze = trace_sub.add_parser(
        "analyze", help="run the §4 analyses over a saved trace"
    )
    trace_analyze.add_argument("path", help="directory written by 'trace generate'")

    sub_dga = sub.add_parser("dga", help="classify domains with the DGA detector")
    sub_dga.add_argument("names", nargs="+", help="domain names to classify")
    sub_dga.add_argument("--seed", type=int, default=0)
    sub_dga.add_argument("--threshold", type=float, default=0.5)
    sub_squat = sub.add_parser(
        "squat", help="classify domains against the popular-target list"
    )
    sub_squat.add_argument("names", nargs="+", help="domain names to classify")

    sub_serve = sub.add_parser(
        "serve",
        help="replay a scripted query batch through the overload-hardened "
        "serving tier, or run the overload sweep",
    )
    sub_serve.add_argument("--seed", type=int, default=0, help="store/workload seed")
    sub_serve.add_argument(
        "--domains", type=int, default=500, help="synthetic store size"
    )
    sub_serve.add_argument(
        "--script",
        default=None,
        help="JSONL query script: one request per line with a 'kind' "
        "(top-domains, daily-series, timeline, activity-window), its "
        "query fields, and optional tenant/priority/budget/at (arrival "
        "offset seconds)",
    )
    sub_serve.add_argument(
        "--sweep",
        action="store_true",
        help="run the overload sweep (clean/slow/stuck/storm) and gate "
        "the shed/degraded/served curves against the clean baseline",
    )
    sub_serve.add_argument(
        "--queries", type=int, default=240, help="sweep workload size"
    )

    from repro.analysis.main import add_lint_arguments

    sub_lint = sub.add_parser(
        "lint",
        help="run the repro.analysis determinism & layering linter",
    )
    add_lint_arguments(sub_lint)
    return parser


def _study_from(args: argparse.Namespace) -> NxdomainStudy:
    config = StudyConfig(
        trace_domains=args.domains,
        squat_count=max(args.domains // 25, 50),
        honeypot_scale=args.honeypot_scale,
        spill_dir=args.spill_dir,
    )
    return NxdomainStudy(seed=args.seed, config=config)


def cmd_report(args: argparse.Namespace) -> int:
    print(_study_from(args).full_report())
    return 0


def cmd_scale(args: argparse.Namespace) -> int:
    analysis = _study_from(args).run_scale_analysis()
    print(reports.render_figure3(analysis.monthly_series))
    print()
    print(reports.render_figure4(analysis.tld_distribution))
    print()
    print(reports.render_figure5(analysis.lifespan))
    print()
    print(reports.render_figure6(analysis.expiry_timeline))
    return 0


def cmd_origin(args: argparse.Namespace) -> int:
    analysis = _study_from(args).run_origin_analysis()
    print(reports.render_whois_join(analysis.whois_join))
    print()
    print(reports.render_dga_census(analysis.dga_census))
    print()
    print(reports.render_figure7(analysis.squatting_census))
    print()
    print(reports.render_figure8(analysis.blocklist_census))
    return 0


def cmd_security(args: argparse.Namespace) -> int:
    study = _study_from(args)
    result = study.run_security_analysis()
    print(reports.render_table1(result))
    print()
    print(reports.render_figure10(security_mod.port_distribution(result)))
    print()
    inapp = security_mod.inapp_browser_distribution(result)
    print(reports.render_figure13(inapp, security_mod.inapp_shape_checks(inapp)))
    print()
    botnet = security_mod.botnet_victim_analysis(result)
    print(reports.render_figure14(botnet.country_histogram))
    print()
    print(reports.render_figure15(botnet.hostname_histogram))
    return 0


def cmd_selection(args: argparse.Namespace) -> int:
    study = _study_from(args)
    chosen = study.run_selection()
    rows = [
        (
            str(candidate.record.domain),
            candidate.record.kind.value,
            f"{candidate.monthly_queries:,.0f}",
            candidate.nx_days,
            "malicious" if candidate.is_malicious else "benign",
        )
        for candidate in chosen
    ]
    print("§3.3 — selected study domains (high traffic, ≥180 days NX):")
    print(
        reports.render_table(
            ["domain", "origin", "queries/mo", "nx-days", "class"], rows
        )
    )
    return 0


def cmd_sinkhole(args: argparse.Namespace) -> int:
    from repro.core.sinkhole import NxdomainSinkhole

    study = _study_from(args)
    trace = study.trace
    sinkhole = NxdomainSinkhole(
        study.dga_detector, blocklist=trace.blocklist
    )
    # One columnar snapshot instead of a per-record profile() lookup:
    # the store interns domains in first-append order, so walking the
    # snapshot visits exactly the population records that have rows,
    # in population order — the same observe() sequence as the old
    # row-at-a-time loop.
    domains, first_seen, _, totals = trace.nx_db.aggregate_snapshot()
    for domain, first, queries in zip(
        domains, first_seen.tolist(), totals.tolist()
    ):
        sinkhole.observe(domain, first, queries)
    report = sinkhole.report(top_n=15)
    print("§7 — DNS-level sinkhole classification of the NXDomain stream")
    print(
        reports.render_table(
            ["verdict", "domains", "queries"],
            [
                (v.value, report.domains_by_verdict[v], f"{report.queries_by_verdict[v]:,}")
                for v in report.domains_by_verdict
            ],
        )
    )
    print(f"\nsuspicious fraction: {report.suspicious_fraction():.1%}")
    print("\ntop suspicious NXDomains by query volume:")
    print(
        reports.render_table(
            ["domain", "verdict", "detail", "queries"],
            [
                (str(r.domain), r.verdict.value, r.detail, f"{r.queries:,}")
                for r in report.top_suspicious
            ],
        )
    )
    return 0


def cmd_dga(args: argparse.Namespace) -> int:
    from repro.dga.detector import DgaDetector

    detector = DgaDetector.train_default(
        seed=args.seed, samples_per_family=150, threshold=args.threshold
    )
    rows = []
    for name in args.names:
        probability = detector.probability(name)
        rows.append(
            (name, f"{probability:.3f}", "DGA" if probability >= args.threshold else "benign")
        )
    print(reports.render_table(["domain", "p(dga)", "verdict"], rows))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.main import run_lint

    return run_lint(args)


def cmd_squat(args: argparse.Namespace) -> int:
    from repro.dns.name import DomainName
    from repro.squatting.detector import SquattingDetector

    detector = SquattingDetector()
    rows = []
    for name in args.names:
        match = detector.classify(DomainName(name))
        if match is None:
            rows.append((name, "clean", ""))
        else:
            rows.append((name, match.squat_type.value, str(match.target)))
    print(reports.render_table(["domain", "verdict", "target"], rows))
    return 0


def _render_served_value(value) -> str:
    import numpy as np

    if value is None:
        return "-"
    if isinstance(value, np.ndarray):
        return f"series[{len(value)}] total={int(value.sum())}"
    if isinstance(value, list):
        head = ", ".join(f"{name}={total}" for name, total in value[:3])
        return f"top[{len(value)}] {head}"
    if isinstance(value, dict):
        return (
            f"active={value.get('active_days')}/"
            f"{value.get('lifespan_days')}d total={value.get('total_queries')}"
        )
    return str(value)


def cmd_serve(args: argparse.Namespace) -> int:
    import json

    from repro.clock import SECONDS_PER_DAY, STUDY_START, SimClock, date_to_epoch
    from repro.serving import (
        QueryRequest,
        QueryServer,
        overload_sweep,
        query_from_payload,
        synthetic_store,
    )

    if args.sweep:
        report = overload_sweep(
            seed=args.seed, domains=args.domains, queries=args.queries
        )
        for row in report.rows():
            print(row)
        problems = report.regressions()
        if problems:
            print()
            for problem in problems:
                print(f"REGRESSION: {problem}")
            return 1
        print()
        print(f"overload sweep passed ({len(report.points)} points)")
        return 0
    if args.script is None:
        print("serve: need --script FILE or --sweep", file=sys.stderr)
        return 2
    with open(args.script, "r", encoding="utf-8") as handle:
        payloads = [json.loads(line) for line in handle if line.strip()]
    db = synthetic_store(args.seed, domains=args.domains)
    start = date_to_epoch(STUDY_START) + 400 * SECONDS_PER_DAY
    requests = []
    for payload in payloads:
        tenant = payload.pop("tenant", "default")
        priority = payload.pop("priority", 1)
        budget = payload.pop("budget", None)
        at = payload.pop("at", None)
        requests.append(
            QueryRequest(
                query=query_from_payload(payload),
                tenant=tenant,
                priority=priority,
                budget=budget,
                at=start + int(at) if at is not None else None,
            )
        )
    server = QueryServer(db, SimClock(start))
    records = server.serve(requests)
    rows = [
        (
            str(record.seq),
            record.request.query.kind,
            record.request.tenant,
            record.disposition.value,
            f"{record.latency}s",
            _render_served_value(record.value) if record.answered else record.detail,
        )
        for record in records
    ]
    print(
        reports.render_table(
            ["#", "kind", "tenant", "outcome", "latency", "result"], rows
        )
    )
    print(
        f"answered {sum(1 for r in records if r.answered)}/{len(records)}, "
        f"p99 latency {server.stats.p99_latency()}s, "
        f"unhandled {server.stats.unhandled}"
    )
    return 0 if server.stats.unhandled == 0 else 1


def cmd_validate(args: argparse.Namespace) -> int:
    from repro.core.validation import validate_shapes

    config = StudyConfig(
        trace_domains=args.domains, squat_count=max(args.domains // 25, 50)
    )
    report = validate_shapes(
        list(range(args.seeds)), config, include_origin=not args.skip_origin
    )
    rows = [
        (name, f"{rate:.0%}", ",".join(map(str, failing)) or "-")
        for name, rate, failing in report.worst()
    ]
    print(
        f"shape robustness over {len(report.seeds)} seeds at "
        f"{args.domains:,} domains (overall "
        f"{report.overall_pass_rate():.1%}):"
    )
    print(reports.render_table(["check", "pass rate", "failing seeds"], rows))
    return 0 if report.robust() else 1


def _list_injectors() -> int:
    """Print every injector the fault layer ships, by category."""
    import repro.faults.injectors as injectors_mod

    stream: List[tuple] = []
    storage: List[tuple] = []
    for attr in sorted(vars(injectors_mod)):
        obj = getattr(injectors_mod, attr)
        if (
            not isinstance(obj, type)
            or not issubclass(obj, injectors_mod.Injector)
            or obj is injectors_mod.Injector
        ):
            continue
        doc = (obj.__doc__ or "").strip().splitlines()[0]
        row = (obj.name, attr, doc)
        if issubclass(obj, injectors_mod.StorageFaultInjector):
            storage.append(row)
        else:
            stream.append(row)
    print("stream injectors (rate-driven, FaultPlan/FaultSchedule):")
    print(reports.render_table(["name", "class", "what it injects"], stream))
    print()
    print(
        "storage injectors (positional, crash-at-a-write-boundary; "
        "drive SpillStore durability — see docs/RESILIENCE.md):"
    )
    print(reports.render_table(["name", "class", "what it injects"], storage))
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    from repro.core.validation import fault_sweep

    if args.list_injectors:
        return _list_injectors()
    rates = [float(token) for token in args.rates.split(",") if token.strip()]
    config = StudyConfig(
        trace_domains=args.domains, squat_count=max(args.domains // 25, 50)
    )
    report = fault_sweep(
        list(range(args.seeds)),
        config,
        rates=rates,
        include_origin=args.include_origin,
        spill_dir=args.spill_dir,
    )
    print(
        f"shape-check degradation over {len(report.seeds)} seeds at "
        f"{args.domains:,} domains:"
    )
    print(
        reports.render_table(
            [
                "fault rate",
                "delivered",
                "check pass rate",
                "store fail/replayed",
                "dups suppressed",
            ],
            report.rows(),
        )
    )
    for point in report.points:
        failing = [
            (name, rate, seeds)
            for name, rate, seeds in point.report.worst()
            if rate < 1.0
        ]
        for name, rate, seeds in failing:
            print(
                f"  {point.rate:.1%}: {name} passed {rate:.0%} "
                f"(failing seeds: {','.join(map(str, seeds))})"
            )
    regressions = report.regressions(args.gate)
    for rate, name, seeds in regressions:
        print(
            f"  REGRESSION at {rate:.1%}: {name} newly fails "
            f"(seeds: {','.join(map(str, seeds))})"
        )
    passed = not regressions
    print(
        f"\nfault rates up to {args.gate:.1%} "
        f"{'add no shape-check failures' if passed else 'BREAK shape checks'} "
        f"beyond the clean baseline"
    )
    return 0 if passed else 1


def cmd_spill(args: argparse.Namespace) -> int:
    from repro.passivedns.database import PassiveDnsDatabase
    from repro.passivedns.spill import SpillStore

    if args.spill_command == "info":
        db = PassiveDnsDatabase(
            spill_dir=args.dir,
            spill_read_only=True,
            spill_paranoid=args.paranoid,
        )
        store = db.spill
        assert store is not None
        report = store.last_recovery
        assert report is not None
        print(report.summary())
        print(
            f"segments: {len(store.segments())}  "
            f"rows: {db.row_count():,}  domains: {db.unique_domains():,}"
        )
        print(
            f"verified by manifest stat facts: {report.cache_hits}  "
            f"segments CRC-streamed: {report.segments_crc_streamed}"
            + ("  (paranoid)" if args.paranoid else "")
        )
        print(f"store digest: {db.fingerprint()}")
        for entry in report.quarantined:
            print(f"  would quarantine {entry.path}: {entry.kind}")
        return 0 if report.clean() else 1
    if args.spill_command == "compact":
        store = SpillStore.open(args.dir)
        before = len(store.segments())
        generation = store.compact(min_segments=args.min_segments)
        if generation is None:
            print(f"nothing to compact ({before} segment(s) committed)")
            return 0
        print(
            f"compacted {before} segment(s) into one; "
            f"now serving generation {generation}"
        )
        return 0
    store = SpillStore.open(args.dir)
    kinds = (
        {kind.strip() for kind in args.kinds.split(",") if kind.strip()}
        if args.kinds
        else None
    )
    removed, freed = store.purge_quarantine(
        kinds=kinds, before_generation=args.before_generation
    )
    print(f"purged {removed} quarantined file(s), {freed:,} bytes freed")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.core.scale import monthly_response_series, tld_distribution
    from repro.workloads.persistence import load_trace, save_trace
    from repro.workloads.trace import NxdomainTraceGenerator, TraceConfig

    if args.trace_command == "generate":
        config = TraceConfig(
            total_domains=args.domains, squat_count=max(args.domains // 25, 50)
        )
        trace = NxdomainTraceGenerator(seed=args.seed, config=config).generate()
        root = save_trace(trace, args.out)
        print(
            f"saved trace: {trace.nx_db.unique_domains():,} domains, "
            f"{trace.nx_db.total_responses():,} responses -> {root}"
        )
        return 0
    trace = load_trace(args.path)
    print(
        f"loaded trace: {trace.nx_db.unique_domains():,} domains, "
        f"{trace.nx_db.total_responses():,} responses"
    )
    print()
    print(reports.render_figure3(monthly_response_series(trace.nx_db)))
    print()
    print(reports.render_figure4(tld_distribution(trace.nx_db)))
    return 0


_COMMANDS = {
    "report": cmd_report,
    "validate": cmd_validate,
    "faults": cmd_faults,
    "spill": cmd_spill,
    "trace": cmd_trace,
    "scale": cmd_scale,
    "origin": cmd_origin,
    "security": cmd_security,
    "selection": cmd_selection,
    "sinkhole": cmd_sinkhole,
    "dga": cmd_dga,
    "squat": cmd_squat,
    "serve": cmd_serve,
    "lint": cmd_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
