"""The ``repro-nxd lint`` subcommand and ``python -m repro.analysis``
driver: exit codes, JSON output, baseline update, rule selection."""

import json
from pathlib import Path

from repro.analysis.main import main as analysis_main
from repro.cli import main as cli_main

REPO_ROOT = str(Path(__file__).resolve().parents[2])


def test_lint_exits_zero_on_clean_repo(capsys):
    assert cli_main(["lint", "--root", REPO_ROOT]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_lint_exits_nonzero_on_violation(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n", encoding="utf-8")
    code = cli_main(
        ["lint", "--root", REPO_ROOT, "--no-baseline", str(bad)]
    )
    assert code == 1
    assert "REP002" in capsys.readouterr().out


def test_lint_select_restricts_rules(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    # REP006 violation only; a REP001/REP002-restricted run passes it
    bad.write_text("def f(x=[]):\n    return x\n", encoding="utf-8")
    code = cli_main(
        [
            "lint", "--root", REPO_ROOT, "--no-baseline",
            "--select", "REP001,REP002", str(bad),
        ]
    )
    capsys.readouterr()
    assert code == 0


def test_lint_json_output_parses(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\n", encoding="utf-8")
    code = cli_main(
        [
            "lint", "--root", REPO_ROOT, "--no-baseline",
            "--format", "json", str(bad),
        ]
    )
    assert code == 1
    document = json.loads(capsys.readouterr().out)
    assert document["version"] == 4
    assert document["analyzer_version"]
    # the resolved rule set that actually ran is recorded in the header
    assert "REP002" in document["rules"]
    assert document["summary"]["errors"] >= 1
    assert any(e["rule"] == "REP002" for e in document["findings"])


def test_update_baseline_then_clean(tmp_path, capsys):
    root = tmp_path
    src = root / "pkg"
    src.mkdir()
    bad = src / "mod.py"
    bad.write_text("import random\n", encoding="utf-8")
    baseline = root / "debt.json"
    base_args = [
        "lint", "--root", str(root), "--baseline", "debt.json", "pkg",
    ]
    assert cli_main(base_args + ["--update-baseline"]) == 0
    assert baseline.is_file()
    capsys.readouterr()
    # accepted: same violation no longer fails, but is still reported
    assert cli_main(base_args) == 0
    out = capsys.readouterr().out
    assert "[baselined]" in out
    # a second, new violation fails again
    (src / "worse.py").write_text(
        "from time import time\n", encoding="utf-8"
    )
    assert cli_main(base_args) == 1


def test_list_rules(capsys):
    assert cli_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for n in range(1, 9):
        assert f"REP00{n}" in out


def test_module_entry_point_matches_cli(capsys):
    assert analysis_main(["--root", REPO_ROOT]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_missing_path_is_usage_error(capsys):
    assert cli_main(["lint", "--root", REPO_ROOT, "no/such/dir"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_unknown_select_id_is_usage_error(capsys):
    # a typo'd --select must not silently lint with zero rules
    assert cli_main(["lint", "--root", REPO_ROOT, "--select", "REP01"]) == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_explain_prints_rule_documentation(capsys):
    assert cli_main(["lint", "--explain", "REP101"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("REP101")
    for header in ("Invariant:", "Why:", "Good:", "Bad:"):
        assert header in out


def test_explain_is_case_insensitive(capsys):
    assert cli_main(["lint", "--explain", "rep001"]) == 0
    assert capsys.readouterr().out.startswith("REP001")


def test_explain_unknown_rule_is_usage_error(capsys):
    assert cli_main(["lint", "--explain", "REP999"]) == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_jobs_zero_is_usage_error(capsys):
    assert cli_main(["lint", "--root", REPO_ROOT, "--jobs", "0"]) == 2
    assert "--jobs" in capsys.readouterr().err


def test_default_run_writes_and_reuses_cache(tmp_path, capsys):
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "mod.py").write_text(
        '"""Doc."""\n\n\ndef f(a):\n    """Doc."""\n    return a\n\n\nONE = f(1)\n',
        encoding="utf-8",
    )
    (tmp_path / "pyproject.toml").write_text(
        '[tool.repro.analysis]\npaths = ["src/repro"]\n', encoding="utf-8"
    )
    assert cli_main(["lint", "--root", str(tmp_path)]) == 0
    cache_file = tmp_path / ".repro-analysis-cache.json"
    assert cache_file.is_file()
    capsys.readouterr()
    # a second run reuses the cache and still exits clean
    assert cli_main(["lint", "--root", str(tmp_path)]) == 0
    # --no-cache neither requires nor rewrites the cache file
    cache_file.unlink()
    capsys.readouterr()
    assert cli_main(["lint", "--root", str(tmp_path), "--no-cache"]) == 0
    assert not cache_file.exists()


def test_explicit_paths_do_not_touch_cache(tmp_path, capsys):
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "mod.py").write_text(
        '"""Doc."""\n\n\ndef f(a):\n    """Doc."""\n    return a\n\n\nONE = f(1)\n',
        encoding="utf-8",
    )
    (tmp_path / "pyproject.toml").write_text(
        '[tool.repro.analysis]\npaths = ["src/repro"]\n', encoding="utf-8"
    )
    code = cli_main(
        ["lint", "--root", str(tmp_path), "--no-baseline", "src/repro"]
    )
    capsys.readouterr()
    assert code == 0
    assert not (tmp_path / ".repro-analysis-cache.json").exists()


def _statistics_root(tmp_path):
    """A one-file project root with a single REP002 violation."""
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "mod.py").write_text("import random\n", encoding="utf-8")
    (tmp_path / "pyproject.toml").write_text(
        '[tool.repro.analysis]\npaths = ["src/repro"]\n'
        "reference-paths = []\n",
        encoding="utf-8",
    )
    return tmp_path


def test_statistics_flag_prints_run_profile(tmp_path, capsys):
    root = _statistics_root(tmp_path)
    args = [
        "lint", "--root", str(root), "--no-baseline", "--no-cache",
        "--statistics",
    ]
    assert cli_main(args) == 1
    out = capsys.readouterr().out
    assert "-- statistics --" in out
    assert "files analyzed: 1 (cache hits 0, misses 0)" in out
    assert "pass per-file:" in out
    assert "pass whole-program:" in out
    assert "findings by rule: REP002=1" in out


def test_statistics_flag_lands_in_json_header(tmp_path, capsys):
    root = _statistics_root(tmp_path)
    args = [
        "lint", "--root", str(root), "--no-baseline", "--no-cache",
        "--statistics", "--format", "json",
    ]
    assert cli_main(args) == 1
    document = json.loads(capsys.readouterr().out)
    stats = document["statistics"]
    assert stats["files"] == 1
    assert stats["rule_counts"] == {"REP002": 1}
    assert "per-file" in stats["pass_seconds"]
    assert "whole-program" in stats["pass_seconds"]
    # without the flag the header key is absent entirely
    assert cli_main(
        [
            "lint", "--root", str(root), "--no-baseline", "--no-cache",
            "--format", "json",
        ]
    ) == 1
    bare = json.loads(capsys.readouterr().out)
    assert "statistics" not in bare


def test_statistics_reports_warm_cache_hits(tmp_path, capsys):
    root = _statistics_root(tmp_path)
    args = [
        "lint", "--root", str(root), "--no-baseline", "--statistics",
    ]
    assert cli_main(args) == 1
    capsys.readouterr()
    assert cli_main(args) == 1
    out = capsys.readouterr().out
    assert "files analyzed: 1 (cache hits 1, misses 0)" in out


def test_jobs_run_matches_serial_output(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nfrom time import time\n", encoding="utf-8")
    args = ["lint", "--root", REPO_ROOT, "--no-baseline", str(bad)]
    assert cli_main(args) == 1
    serial = capsys.readouterr().out
    assert cli_main(args + ["--jobs", "2"]) == 1
    assert capsys.readouterr().out == serial
