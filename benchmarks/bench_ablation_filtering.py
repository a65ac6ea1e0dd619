"""Ablation — two-stage empirical filtering vs naive hostname filtering.

§6.1 argues that simple filters ("keep requests with a correct Host
header") cannot remove establishment noise because services like Let's
Encrypt use correct hostnames.  This bench quantifies that: the naive
filter keeps essentially all contamination, while the calibrated
two-stage filter removes it without touching genuine traffic.
"""

from repro.core.reports import render_table
from repro.honeypot.filtering import TwoStageFilter
from repro.rand import make_rng
from repro.workloads.control import (
    generate_control_traffic,
    generate_no_hosting_baseline,
)
from repro.workloads.domains import registered_domain_profiles
from repro.workloads.honeytraffic import HoneypotTrafficGenerator


def test_ablation_filtering(benchmark):
    rng = make_rng(5)
    hosted = {p.domain for p in registered_domain_profiles()}
    generator = HoneypotTrafficGenerator(rng, scale=0.002)
    requests = generator.generate_batch(include_noise=True)
    no_hosting = generate_no_hosting_baseline(rng)
    noise_filter = TwoStageFilter.calibrated(no_hosting, generate_control_traffic(rng))
    scanner_ips = set(no_hosting.packet_batch().src_ip.distinct())

    kept_two_stage, stats = benchmark(noise_filter.apply_batch, requests)

    # Naive filter: correct hostname only.
    kept_naive = requests.take(requests.host.lookup(hosted.__contains__, bool))

    def contamination(kept):
        noise = kept.path.lookup(
            lambda path: path.startswith("/.well-known"), bool
        ) | kept.src_ip.lookup(scanner_ips.__contains__, bool)
        return int(noise.sum())

    rows = [
        ("no filtering", len(requests), contamination(requests)),
        ("naive hostname filter", len(kept_naive), contamination(kept_naive)),
        ("two-stage filter (§6.1)", len(kept_two_stage), contamination(kept_two_stage)),
    ]
    print()
    print("Ablation — noise filtering strategies")
    print(render_table(["strategy", "requests kept", "noise remaining"], rows))

    assert contamination(kept_naive) > 0, "naive filter should miss noise"
    assert contamination(kept_two_stage) == 0
    # Genuine traffic survives: > 90% of the input was genuine.
    assert stats.kept / stats.input_requests > 0.9
