"""The linter is self-hosting: the shipped tree must be clean against
the committed baseline, and an injected determinism violation must be
caught.  This is the tier-1 gate for every REP invariant."""

from pathlib import Path

from repro.analysis import Analyzer, load_config
from repro.analysis import baseline as baseline_mod
from repro.analysis.findings import Severity
from tests.analysis.harness import check_project_sources, check_source, default_rules

REPO_ROOT = Path(__file__).resolve().parents[2]


def _run_repo_lint():
    config = load_config(REPO_ROOT)
    analyzer = Analyzer(config, default_rules())
    findings = analyzer.run(
        REPO_ROOT, [REPO_ROOT / p for p in config.paths]
    )
    baseline = baseline_mod.load_baseline(REPO_ROOT / config.baseline_path)
    return baseline_mod.apply_baseline(findings, baseline)


def test_source_tree_is_clean_against_baseline():
    new, _ = _run_repo_lint()
    failing = [f for f in new if f.severity is Severity.ERROR]
    assert failing == [], "new lint errors:\n" + "\n".join(
        f.render() for f in failing
    )


def test_baseline_is_empty():
    # Satellite goal: ship with no accepted debt.  If a future change
    # legitimately needs baseline entries, relax this to a small cap.
    baseline = baseline_mod.load_baseline(
        REPO_ROOT / load_config(REPO_ROOT).baseline_path
    )
    assert sum(baseline.values()) == 0


def test_injected_wall_clock_violation_is_caught():
    config = load_config(REPO_ROOT)
    analyzer = Analyzer(config, default_rules())
    reports = REPO_ROOT / "src/repro/core/reports.py"
    poisoned = reports.read_text(encoding="utf-8") + (
        "\n\nimport datetime\n\n"
        "def _stamp():\n"
        "    return datetime.datetime.now()\n"
    )
    findings = check_source(analyzer, poisoned, "src/repro/core/reports.py")
    assert any(f.rule_id == "REP001" for f in findings)


def test_injected_unseeded_randomness_is_caught():
    config = load_config(REPO_ROOT)
    analyzer = Analyzer(config, default_rules())
    poisoned = (
        "import numpy as np\n\n"
        "def jitter():\n"
        "    '''doc'''\n"
        "    return np.random.default_rng().random()\n"
    )
    findings = check_source(analyzer, poisoned, "src/repro/workloads/x.py")
    assert any(f.rule_id == "REP002" for f in findings)


def test_every_builtin_rule_is_registered():
    ids = {rule.rule_id for rule in default_rules()}
    assert {f"REP00{n}" for n in range(1, 9)} <= ids
    assert {f"REP10{n}" for n in range(1, 5)} <= ids
    assert {f"REP20{n}" for n in range(1, 5)} <= ids


def test_whole_program_pass_runs_in_default_lint():
    # the self-hosting run must include the REP10x pass: the analyzer
    # instance carries project rules and they execute without findings
    config = load_config(REPO_ROOT)
    analyzer = Analyzer(config, default_rules())
    assert analyzer.project_rules, "REP10x rules missing from default set"
    new, _ = _run_repo_lint()
    program = [f for f in new if f.rule_id.startswith("REP10")]
    assert program == [], "whole-program findings:\n" + "\n".join(
        f.render() for f in program
    )


def test_injected_laundered_clock_read_is_caught_whole_program():
    # REP101: the wall-clock read hides behind a helper in another
    # module, invisible to any per-file rule
    config = load_config(REPO_ROOT)
    analyzer = Analyzer(config, default_rules())
    findings = check_project_sources(analyzer, {
        "src/repro/core/hidden.py": (
            '"""Doc."""\n'
            "import time\n\n\n"
            "def _stamp():\n"
            '    """Doc."""\n'
            "    return time.time()  # repro: noqa[REP001] injected\n"
        ),
        "src/repro/core/entry.py": (
            '"""Doc."""\n'
            "from repro.core.hidden import _stamp\n\n\n"
            "def summarize(records):\n"
            '    """Doc."""\n'
            "    return _stamp(), records\n"
        ),
    })
    assert any(f.rule_id == "REP101" for f in findings)
