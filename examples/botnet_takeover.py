#!/usr/bin/env python3
"""Botnet takeover forensics on gpclick.com (§6.4, Figures 12/14/15).

Registers the study's 19 domains behind the NXD-Honeypot, collects six
months of traffic, and then digs into the gpclick.com stream: the
fixed Apache-HttpClient User-Agent, the getTask.php URI structure
leaking victim IMEIs/phones/models, the country-code spread of the
victims, and the cloud-proxy infrastructure the requests route through.

Usage::

    python examples/botnet_takeover.py [seed]
"""

import sys

import numpy as np

from repro.core import reports
from repro.core.security import botnet_victim_analysis, run_security_experiment
from repro.rand import make_rng


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    print("deploying honeypot and collecting six months of traffic...")
    result = run_security_experiment(make_rng(seed), scale=0.004)

    analysis = botnet_victim_analysis(result)
    print(f"\ngpclick.com getTask.php requests : {analysis.request_count:,}")
    print(f"distinct victim phone numbers    : {analysis.distinct_phones:,}")
    print(f"user agents observed             : {list(analysis.user_agents)}")

    traffic = result.traffic.requests
    polls = traffic.host_rows("gpclick.com") & traffic.path.lookup(
        lambda path: path == "/getTask.php", bool
    )
    [example] = traffic.take(np.flatnonzero(polls)[:1]).to_requests()
    print("\nFigure 12 — one captured request (anonymized by generation):")
    print(f"  GET {example.uri}")
    print(f"  User-Agent: {example.user_agent}")
    print(f"  Source: {example.src_ip} "
          f"({result.reverse_ip.lookup(example.src_ip) or 'no PTR'})")

    print("\nVictim phone models:")
    for model, count in sorted(
        analysis.model_histogram.items(), key=lambda kv: kv[1], reverse=True
    )[:6]:
        print(f"  {model:<24} {count:,}")

    print()
    print(reports.render_figure14(analysis.country_histogram))
    print()
    print(reports.render_figure15(analysis.hostname_histogram))

    checks = analysis.shape_checks()
    print(f"\nshape checks: {checks}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
