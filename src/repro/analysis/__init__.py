"""``repro.analysis`` — an AST-based determinism & layering linter.

The reproduction's headline guarantee — the same seed reproduces every
table bit-for-bit — rests on invariants the interpreter never checks:
all randomness must flow through the seeded :mod:`repro.rand` streams,
all time through :mod:`repro.clock`, and the import DAG must keep
substrates independent of the study layer.  This package enforces
those invariants statically, with zero third-party dependencies, using
only :mod:`ast` and :mod:`tokenize`.

The engine runs four passes.  The per-file pass walks each module's
AST once, dispatching nodes to the REP001–REP009 rules.  The
whole-program pass assembles every module's extracted facts into a
:class:`~repro.analysis.project.ProjectModel` — resolved names and
the call graph — and hands it to the flow-sensitive REP101–REP105
rules, which catch wall-clock reads and unseeded RNGs laundered
through helpers, dynamic-import layering evasions, dead exports, and
public API that only tests reach.
The effect pass runs the REP201–REP204 rules over per-function effect
summaries (filesystem writes, caught exception types, shared-state
mutations, thread/pool spawns) collected in the same single AST walk,
enforcing atomic-write discipline, crash-signal propagation, worker
isolation, and cache-generation hygiene.  The concurrency pass runs
the REP301–REP305 rules over the lock and resource facts from that
same walk (locks held at each call and mutation, lock definitions,
resource acquisitions, lazy initializations), catching inconsistent
lock discipline on spawn-reachable shared state, lock-ordering cycles,
leaked resource handles, blocking calls made under a lock, and
unsynchronized lazy init.  Per-file results (including effect and
concurrency facts) are cached by content hash (warm runs re-analyze
only changed files; the whole-program findings replay when nothing
changed and are recomputed whole otherwise) and the per-file pass
can fan out over worker processes.

Pieces:

- :mod:`repro.analysis.rules` — the :class:`~repro.analysis.rules.Rule`
  plugin API, registry, and ``--explain`` rendering;
- :mod:`repro.analysis.builtin` — the nine per-file REP001–REP009
  rules;
- :mod:`repro.analysis.project` — module summaries, name resolution,
  the call graph, and taint propagation;
- :mod:`repro.analysis.program_rules` — the whole-program
  REP101–REP105 rules;
- :mod:`repro.analysis.effect_rules` — the effect-flow REP201–REP204
  rules (durability, crash-exception, shared-state, cache-generation);
- :mod:`repro.analysis.concurrency_rules` — the concurrency-safety
  REP301–REP305 rules (lock discipline, lock ordering, resource
  lifecycle, blocking-under-lock, lazy-init races);
- :mod:`repro.analysis.engine` — the two-pass engine, the process-pool
  fan-out, and ``# repro: noqa[RULE]`` suppression handling;
- :mod:`repro.analysis.cache` — the content-hash incremental results
  cache;
- :mod:`repro.analysis.baseline` — accepted-debt bookkeeping;
- :mod:`repro.analysis.report` — text and versioned-JSON output;
- :mod:`repro.analysis.sarif` — SARIF 2.1.0 export for code-scanning
  CI upload;
- :mod:`repro.analysis.main` — the driver behind ``repro-nxd lint``
  and ``python -m repro.analysis``.

Programmatic use::

    from repro.analysis import Analyzer, all_rule_ids, instantiate, load_config

    config = load_config(root)
    analyzer = Analyzer(config, instantiate(all_rule_ids()))
    findings = analyzer.run(root, [root / "src/repro"])
"""

from repro.analysis.cache import AnalysisCache, load_cache, save_cache
from repro.analysis.config import AnalysisConfig, load_config
from repro.analysis.engine import Analyzer, ModuleContext
from repro.analysis.findings import ANALYZER_VERSION, META_RULE_ID, Finding, Severity
from repro.analysis.main import main, run_lint
from repro.analysis.project import ModuleSummary, ProjectModel
from repro.analysis.rules import (
    ProjectRule,
    Rule,
    all_rule_ids,
    explain,
    instantiate,
    register,
)

__all__ = [  # repro: noqa[REP104] rule-author API: ctx argument type of Rule.visit
    "ANALYZER_VERSION",
    "AnalysisCache",
    "AnalysisConfig",
    "Analyzer",
    "Finding",
    "META_RULE_ID",
    "ModuleContext",
    "ModuleSummary",
    "ProjectModel",
    "ProjectRule",
    "Rule",
    "Severity",
    "all_rule_ids",
    "explain",
    "instantiate",
    "load_cache",
    "load_config",
    "main",
    "register",
    "run_lint",
    "save_cache",
]

