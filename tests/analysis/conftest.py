"""Shared helpers for the analyzer test suite."""

import textwrap

import pytest

from repro.analysis import AnalysisConfig, Analyzer, instantiate
from tests.analysis.harness import check_source, default_rules


@pytest.fixture
def run_source():
    """Analyze a dedented snippet as though it lived at ``relpath``."""

    def _run(code, relpath="src/repro/demo.py", select=None, config=None):
        cfg = config if config is not None else AnalysisConfig()
        rules = instantiate(select) if select is not None else default_rules()
        analyzer = Analyzer(cfg, rules)
        return check_source(analyzer, textwrap.dedent(code), relpath)

    return _run


def rule_ids(findings):
    """The sorted multiset of rule ids in a finding list."""
    return sorted(finding.rule_id for finding in findings)
