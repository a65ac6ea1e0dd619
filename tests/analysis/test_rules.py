"""Each built-in rule: one snippet that triggers it, one that is
legitimately suppressed with ``# repro: noqa[RULE]``, and the main
negative (clean) shapes the rule must not flag."""

import pytest

from tests.analysis.conftest import rule_ids


class TestRep001WallClock:
    def test_datetime_now_flagged(self, run_source):
        findings = run_source(
            """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """
        )
        assert "REP001" in rule_ids(findings)

    def test_time_time_flagged(self, run_source):
        findings = run_source(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert "REP001" in rule_ids(findings)

    def test_from_time_import_time_flagged(self, run_source):
        findings = run_source("from time import time\n")
        assert "REP001" in rule_ids(findings)

    def test_clock_module_exempt(self, run_source):
        findings = run_source(
            """
            import datetime

            def now():
                return datetime.datetime.now()
            """,
            relpath="src/repro/clock.py",
        )
        assert "REP001" not in rule_ids(findings)

    def test_noqa_suppresses(self, run_source):
        findings = run_source(
            """
            import time

            def stamp():
                return time.time()  # repro: noqa[REP001] perf probe only
            """
        )
        assert "REP001" not in rule_ids(findings)

    def test_simclock_usage_clean(self, run_source):
        findings = run_source(
            """
            def advance(clock):
                '''Move the simulated clock forward one day.'''
                return clock.advance_days(1)
            """
        )
        assert findings == []


class TestRep002Randomness:
    def test_import_random_flagged(self, run_source):
        assert "REP002" in rule_ids(run_source("import random\n"))

    def test_from_random_import_flagged(self, run_source):
        assert "REP002" in rule_ids(run_source("from random import choice\n"))

    def test_np_random_seed_flagged(self, run_source):
        findings = run_source(
            """
            import numpy as np

            def reset():
                np.random.seed(0)
            """
        )
        assert "REP002" in rule_ids(findings)

    def test_unseeded_default_rng_flagged(self, run_source):
        findings = run_source(
            """
            import numpy as np

            def fresh():
                return np.random.default_rng()
            """
        )
        assert "REP002" in rule_ids(findings)

    def test_seeded_default_rng_not_flagged_as_unseeded(self, run_source):
        findings = run_source(
            """
            import numpy as np

            def fresh(seed):
                '''Seeded, so REP002's unseeded check stays quiet.'''
                return np.random.default_rng(seed)
            """
        )
        assert "REP002" not in rule_ids(findings)

    def test_rand_module_exempt(self, run_source):
        findings = run_source(
            """
            import numpy as np

            def make_rng(seed):
                '''The one sanctioned generator factory.'''
                return np.random.Generator(np.random.PCG64(seed))
            """,
            relpath="src/repro/rand.py",
        )
        assert "REP002" not in rule_ids(findings)

    def test_noqa_suppresses(self, run_source):
        findings = run_source(
            "import random  # repro: noqa[REP002] docs snippet\n"
        )
        assert "REP002" not in rule_ids(findings)


class TestRep003Raises:
    def test_builtin_raise_flagged(self, run_source):
        findings = run_source(
            """
            def check(x):
                '''doc'''
                if x < 0:
                    raise ValueError("negative")
            """
        )
        assert "REP003" in rule_ids(findings)

    def test_repro_error_clean(self, run_source):
        findings = run_source(
            """
            from repro.errors import ConfigError

            def check(x):
                '''doc'''
                if x < 0:
                    raise ConfigError("negative")
            """
        )
        assert "REP003" not in rule_ids(findings)

    def test_bare_reraise_clean(self, run_source):
        findings = run_source(
            """
            def forward():
                '''doc'''
                try:
                    work()
                except ValueError:
                    raise
            """
        )
        assert "REP003" not in rule_ids(findings)

    def test_not_implemented_allowed(self, run_source):
        findings = run_source(
            """
            def abstract():
                '''doc'''
                raise NotImplementedError
            """
        )
        assert "REP003" not in rule_ids(findings)

    def test_noqa_suppresses(self, run_source):
        findings = run_source(
            """
            def getattr_hook(name):
                '''doc'''
                raise AttributeError(name)  # repro: noqa[REP003] protocol
            """
        )
        assert "REP003" not in rule_ids(findings)


class TestRep004BroadExcept:
    def test_bare_except_flagged(self, run_source):
        findings = run_source(
            """
            def swallow():
                '''doc'''
                try:
                    work()
                except:
                    pass
            """
        )
        assert "REP004" in rule_ids(findings)

    def test_broad_except_flagged(self, run_source):
        findings = run_source(
            """
            def swallow():
                '''doc'''
                try:
                    work()
                except Exception:
                    return None
            """
        )
        assert "REP004" in rule_ids(findings)

    def test_broad_except_with_reraise_clean(self, run_source):
        findings = run_source(
            """
            def annotate():
                '''doc'''
                try:
                    work()
                except Exception as exc:
                    raise RuntimeError(str(exc))  # repro: noqa[REP003] wrap
            """
        )
        assert "REP004" not in rule_ids(findings)

    def test_specific_except_clean(self, run_source):
        findings = run_source(
            """
            def tolerate():
                '''doc'''
                try:
                    work()
                except ValueError:
                    return None
            """
        )
        assert "REP004" not in rule_ids(findings)

    def test_noqa_suppresses(self, run_source):
        findings = run_source(
            """
            def boundary():
                '''doc'''
                try:
                    work()
                except Exception:  # repro: noqa[REP004] top-level report guard
                    return None
            """
        )
        assert "REP004" not in rule_ids(findings)


class TestRep005Layering:
    def test_substrate_importing_core_flagged(self, run_source):
        findings = run_source(
            "from repro.core import study\n",
            relpath="src/repro/dns/cache.py",
        )
        assert "REP005" in rule_ids(findings)

    def test_anything_importing_cli_flagged(self, run_source):
        findings = run_source(
            "import repro.cli\n",
            relpath="src/repro/core/study.py",
        )
        assert "REP005" in rule_ids(findings)

    def test_main_module_may_import_cli(self, run_source):
        findings = run_source(
            "from repro.cli import main\n",
            relpath="src/repro/__main__.py",
        )
        assert "REP005" not in rule_ids(findings)

    def test_core_importing_substrate_clean(self, run_source):
        findings = run_source(
            "from repro.dns.name import DomainName\n",
            relpath="src/repro/core/study.py",
        )
        assert "REP005" not in rule_ids(findings)

    def test_substrate_sibling_import_clean(self, run_source):
        findings = run_source(
            "from repro.dns.name import DomainName\n",
            relpath="src/repro/squatting/typo.py",
        )
        assert "REP005" not in rule_ids(findings)

    def test_relative_import_resolved(self, run_source):
        findings = run_source(
            "from . import zone\n",
            relpath="src/repro/dns/cache.py",
        )
        assert "REP005" not in rule_ids(findings)

    def test_foundation_importing_substrate_flagged(self, run_source):
        findings = run_source(
            "from repro.dns.name import DomainName\n",
            relpath="src/repro/rand.py",
        )
        assert "REP005" in rule_ids(findings)

    def test_noqa_suppresses(self, run_source):
        findings = run_source(
            "from repro.core import study  # repro: noqa[REP005] doc example\n",
            relpath="src/repro/dns/cache.py",
        )
        assert "REP005" not in rule_ids(findings)

    def test_type_checking_guarded_import_exempt(self, run_source):
        # regression: an upward import under `if TYPE_CHECKING:` never
        # executes, so it is a type-only edge, not a layering edge
        findings = run_source(
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.core import study
            """,
            relpath="src/repro/dns/cache.py",
        )
        assert "REP005" not in rule_ids(findings)

    def test_type_checking_via_typing_attribute_exempt(self, run_source):
        findings = run_source(
            """
            import typing

            if typing.TYPE_CHECKING:
                import repro.cli
            """,
            relpath="src/repro/core/study.py",
        )
        assert "REP005" not in rule_ids(findings)

    def test_runtime_import_next_to_guard_still_flagged(self, run_source):
        # only the guarded block is exempt; the module body is not
        findings = run_source(
            """
            from typing import TYPE_CHECKING

            if TYPE_CHECKING:
                from repro.core import study

            from repro.core import pipeline
            """,
            relpath="src/repro/dns/cache.py",
        )
        assert "REP005" in rule_ids(findings)


class TestRep006MutableDefaults:
    @pytest.mark.parametrize(
        "default", ["[]", "{}", "set()", "dict()", "list()"]
    )
    def test_mutable_default_flagged(self, run_source, default):
        findings = run_source(
            f"""
            def f(x={default}):
                '''doc'''
                return x
            """
        )
        assert "REP006" in rule_ids(findings)

    def test_kwonly_mutable_default_flagged(self, run_source):
        findings = run_source(
            """
            def f(*, x=[]):
                '''doc'''
                return x
            """
        )
        assert "REP006" in rule_ids(findings)

    def test_immutable_defaults_clean(self, run_source):
        findings = run_source(
            """
            def f(x=(), y=None, z=0):
                '''doc'''
                return x, y, z
            """
        )
        assert "REP006" not in rule_ids(findings)

    def test_noqa_suppresses(self, run_source):
        findings = run_source(
            """
            def f(x=[]):  # repro: noqa[REP006] sentinel never mutated
                '''doc'''
                return x
            """
        )
        assert "REP006" not in rule_ids(findings)


class TestRep007OrderedReportIteration:
    REPORT = "src/repro/core/reports.py"

    def test_items_iteration_flagged_in_report_code(self, run_source):
        findings = run_source(
            """
            def render(histogram):
                '''doc'''
                return [f"{k}={v}" for k, v in histogram.items()]
            """,
            relpath=self.REPORT,
        )
        assert "REP007" in rule_ids(findings)

    def test_sorted_items_clean(self, run_source):
        findings = run_source(
            """
            def render(histogram):
                '''doc'''
                return [f"{k}={v}" for k, v in sorted(histogram.items())]
            """,
            relpath=self.REPORT,
        )
        assert "REP007" not in rule_ids(findings)

    def test_set_construction_flagged(self, run_source):
        findings = run_source(
            """
            def render(rows):
                '''doc'''
                return list({row.tld for row in rows})
            """,
            relpath=self.REPORT,
        )
        assert "REP007" in rule_ids(findings)

    def test_sorted_set_clean(self, run_source):
        findings = run_source(
            """
            def render(rows):
                '''doc'''
                return sorted({row.tld for row in rows})
            """,
            relpath=self.REPORT,
        )
        assert "REP007" not in rule_ids(findings)

    def test_non_report_code_not_audited(self, run_source):
        findings = run_source(
            """
            def tally(histogram):
                '''doc'''
                return [f"{k}={v}" for k, v in histogram.items()]
            """,
            relpath="src/repro/dns/cache.py",
        )
        assert "REP007" not in rule_ids(findings)

    def test_noqa_suppresses(self, run_source):
        findings = run_source(
            """
            def render(checks):
                '''doc'''
                return [
                    name
                    for name in checks.keys()  # repro: noqa[REP007] declared order
                ]
            """,
            relpath=self.REPORT,
        )
        assert "REP007" not in rule_ids(findings)


class TestRep008PublicApiDocumented:
    def test_undocumented_public_function_flagged(self, run_source):
        findings = run_source(
            """
            def compute(x):
                return x + 1
            """
        )
        assert "REP008" in rule_ids(findings)

    def test_docstring_clean(self, run_source):
        findings = run_source(
            """
            def compute(x):
                '''Add one.'''
                return x + 1
            """
        )
        assert "REP008" not in rule_ids(findings)

    def test_return_annotation_clean(self, run_source):
        findings = run_source(
            """
            def compute(x) -> int:
                return x + 1
            """
        )
        assert "REP008" not in rule_ids(findings)

    def test_private_and_nested_skipped(self, run_source):
        findings = run_source(
            """
            def _helper(x):
                return x

            def outer() -> int:
                def inner(y):
                    return y
                return inner(1)
            """
        )
        assert "REP008" not in rule_ids(findings)

    def test_public_method_flagged(self, run_source):
        findings = run_source(
            """
            class Box:
                '''doc'''

                def open(self):
                    return self
            """
        )
        assert "REP008" in rule_ids(findings)

    def test_noqa_suppresses(self, run_source):
        findings = run_source(
            """
            def compute(x):  # repro: noqa[REP008] trivial shim
                return x + 1
            """
        )
        assert "REP008" not in rule_ids(findings)

    def test_severity_is_warning_by_default(self, run_source):
        findings = run_source(
            """
            def compute(x):
                return x + 1
            """
        )
        rep008 = [f for f in findings if f.rule_id == "REP008"]
        assert rep008 and all(f.severity.value == "warning" for f in rep008)


class TestRep009BuiltinHash:
    def test_hash_feeding_a_value_flagged(self, run_source):
        findings = run_source(
            """
            def handle(name) -> str:
                return f"h-{abs(hash(name)) % 10_000_000}"
            """
        )
        assert "REP009" in rule_ids(findings)

    def test_builtins_hash_flagged_at_module_level(self, run_source):
        findings = run_source(
            """
            import builtins

            SALT = builtins.hash("repro")
            """
        )
        assert "REP009" in rule_ids(findings)

    def test_stable_digest_clean(self, run_source):
        findings = run_source(
            """
            from repro.rand import derive_seed

            def handle(name) -> str:
                return f"h-{derive_seed(0, name) % 10_000_000}"
            """
        )
        assert "REP009" not in rule_ids(findings)

    def test_dunder_hash_clean(self, run_source):
        findings = run_source(
            """
            class Name:
                '''doc'''

                def __hash__(self) -> int:
                    return hash(self._labels)
            """
        )
        assert "REP009" not in rule_ids(findings)

    def test_helper_nested_in_dunder_hash_flagged(self, run_source):
        # only the __hash__ body itself is exempt
        findings = run_source(
            """
            class Name:
                '''doc'''

                def __hash__(self) -> int:
                    def mix(part) -> int:
                        return hash(part)
                    return mix(self._labels)
            """
        )
        assert "REP009" in rule_ids(findings)

    def test_method_call_named_hash_clean(self, run_source):
        findings = run_source(
            """
            def digest(hasher, data) -> int:
                return hasher.hash(data)
            """
        )
        assert "REP009" not in rule_ids(findings)
