"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.seed == 0
        assert args.domains == 6_000


class TestClassifierCommands:
    def test_squat_command(self, capsys):
        assert main(["squat", "gogle.com", "clean-site.org"]) == 0
        out = capsys.readouterr().out
        assert "typosquatting" in out
        assert "clean" in out

    def test_dga_command(self, capsys):
        assert main(["dga", "--seed", "1", "xkqzvwplfmqr.com", "schoolbook.com"]) == 0
        out = capsys.readouterr().out
        assert "DGA" in out
        assert "benign" in out


class TestStudyCommands:
    """Small-population smoke runs of every study command."""

    ARGS = ["--seed", "0", "--domains", "800", "--honeypot-scale", "0.001"]

    def test_scale(self, capsys):
        assert main(["scale"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out and "Figure 6" in out

    def test_origin(self, capsys):
        assert main(["origin"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "WHOIS history join" in out
        assert "Figure 7" in out and "Figure 8" in out

    def test_security(self, capsys):
        assert main(["security"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Figure 15" in out

    def test_selection(self, capsys):
        assert main(["selection"] + self.ARGS) == 0
        assert "selected study domains" in capsys.readouterr().out

    def test_sinkhole(self, capsys):
        assert main(["sinkhole"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "sinkhole classification" in out
        assert "suspicious fraction" in out


class TestReportCommand:
    def test_report_renders_everything(self, capsys):
        assert main(
            ["report", "--seed", "0", "--domains", "800",
             "--honeypot-scale", "0.0008"]
        ) == 0
        out = capsys.readouterr().out
        for marker in ("Figure 3", "Table 1", "Figure 15", "§4.4"):
            assert marker in out, marker


class TestTraceAndValidate:
    def test_trace_roundtrip(self, capsys, tmp_path):
        from repro.core import reports
        from repro.core.scale import monthly_response_series, tld_distribution
        from repro.workloads.trace import NxdomainTraceGenerator, TraceConfig

        out_dir = str(tmp_path / "trace")
        assert main(["trace", "generate", out_dir, "--domains", "500"]) == 0
        assert "saved trace" in capsys.readouterr().out
        assert main(["trace", "analyze", out_dir]) == 0
        header, _, figures = capsys.readouterr().out.partition("\n\n")
        assert header.startswith("loaded trace")
        # The same seed and size the CLI used, rendered straight from
        # the generated store: the saved-and-loaded trace must match.
        generated = NxdomainTraceGenerator(
            seed=0, config=TraceConfig(total_domains=500, squat_count=50)
        ).generate()
        assert figures == (
            reports.render_figure3(monthly_response_series(generated.nx_db))
            + "\n\n"
            + reports.render_figure4(tld_distribution(generated.nx_db))
            + "\n"
        )

    def test_validate_scale_only(self, capsys):
        code = main(
            ["validate", "--seeds", "1", "--domains", "900", "--skip-origin"]
        )
        out = capsys.readouterr().out
        assert "shape robustness" in out
        assert code in (0, 1)  # robustness verdict, not a crash


class TestFaultsCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert args.seeds == 3
        assert args.rates == "0,0.01,0.05,0.1"
        assert args.gate == 0.05

    def test_fault_sweep_smoke(self, capsys):
        code = main(
            ["faults", "--seeds", "1", "--domains", "900",
             "--rates", "0,0.05", "--gate", "0.05"]
        )
        out = capsys.readouterr().out
        assert "fault rate" in out
        assert "delivered" in out
        assert "0.0%" in out and "5.0%" in out
        # Exit reflects the no-new-regressions gate, never a crash.
        assert code in (0, 1)

    def test_bad_rate_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            main(["faults", "--seeds", "1", "--domains", "900",
                  "--rates", "0,1.5"])


class TestServe:
    def test_serve_requires_script_or_sweep(self, capsys):
        assert main(["serve"]) == 2
        assert "--script" in capsys.readouterr().err

    def test_serve_script_batch(self, tmp_path, capsys):
        script = tmp_path / "queries.jsonl"
        script.write_text(
            '{"kind": "top-domains", "n": 3, "tenant": "alice", "priority": 2}\n'
            '{"kind": "activity-window", "domain": "nx-00001.net", "at": 10}\n'
            '{"kind": "top-domains", "n": 3, "tenant": "bob", "at": 20}\n'
        )
        assert main(["serve", "--script", str(script), "--domains", "120"]) == 0
        out = capsys.readouterr().out
        assert "top-domains" in out
        assert "cached" in out  # the third line repeats the first query
        assert "answered 3/3" in out

    def test_serve_sweep_gates(self, capsys):
        assert (
            main(
                ["serve", "--sweep", "--queries", "60", "--domains", "150"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "clean" in out and "storm" in out
        assert "overload sweep passed" in out


class TestSpillCommand:
    def test_info_reports_fact_hits_and_paranoid_streams(self, tmp_path, capsys):
        from repro.dns.name import DomainName
        from repro.passivedns.database import PassiveDnsDatabase

        root = tmp_path / "s"
        db = PassiveDnsDatabase(spill_dir=root)
        db.add(DomainName("a.example.com"), timestamp=1_500_000_000)
        db.spill_commit()
        before = sorted(p.name for p in root.rglob("*"))
        assert main(["spill", "info", "--dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert "verified by manifest stat facts: 2" in out  # segment + sidecar
        assert "segments CRC-streamed: 0" in out
        assert main(["spill", "info", "--dir", str(root), "--paranoid"]) == 0
        out = capsys.readouterr().out
        assert "segments CRC-streamed: 1  (paranoid)" in out
        assert sorted(p.name for p in root.rglob("*")) == before
