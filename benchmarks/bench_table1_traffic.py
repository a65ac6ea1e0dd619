"""Table 1 — HTTP/HTTPS traffic per registered domain and category.

Paper: 5,925,311 requests over six months across the 19 registered
domains, split into Web Crawler (505,238), Automated Process
(5,186,858 — the dominant class), Referral, User Visit, and Others;
resheba.online is the busiest domain and gpclick.com's traffic is
>98% malicious requests (the botnet stream).

The bench times the full filter + categorize pass over the recorded
six-month collection (as columns, the way the study runs it) and
regenerates the table.
"""

from repro.core.reports import render_table1
from repro.core.security import SecurityRunResult


def test_table1_traffic(benchmark, security_result: SecurityRunResult):
    honeypot = security_result.honeypot

    def filter_and_categorize():
        return honeypot.categorized_batch()

    benchmark(filter_and_categorize)
    print()
    print(render_table1(security_result))
    checks = security_result.shape_checks()
    assert all(checks.values()), checks

    # Table 1's skew: the paper's traffic is concentrated on a handful
    # of domains (resheba.online ~35%, top-3 ~74%).
    from repro.core.security import traffic_concentration

    concentration = traffic_concentration(security_result)
    print(
        f"concentration: top-1 {concentration.top_share(1):.1%}, "
        f"top-3 {concentration.top_share(3):.1%}, "
        f"gini {concentration.gini():.2f}"
    )
    assert all(concentration.shape_checks().values())

    # Scaled-volume sanity: the generator is calibrated to the paper's
    # 5,925,311 requests times the bench scale.
    measured = sum(report.total for report in security_result.table1)
    expected = 5_925_311 * 0.01
    assert abs(measured - expected) / expected < 0.15, (measured, expected)
