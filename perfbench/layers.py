"""Which layer calls the traced runs wrap, and the per-layer metrics.

Every wrapper sits around one public function or method of a layer —
one span per layer call, never one per row.  Span names are the
per-layer metric names without their ``_s`` suffix.  The metric list
with units lives in ``BENCHMARK.json`` at the repository root; the
layer of each metric and the end-to-end metric it should move live in
``layer_map.json`` beside this file.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core import origin, reports, scale, security
from repro.dga.base import DgaFamily
from repro.dga.detector import DgaDetector
from repro.dga.families import ALL_FAMILIES
from repro.passivedns import pipeline as pipeline_mod
from repro.passivedns.database import PassiveDnsDatabase
from repro.passivedns.pipeline import ResilientIngestPipeline
from repro.passivedns.spill import SpillStore
from repro.serving.admission import AdmissionController
from repro.serving.queries import (
    ActivityWindowQuery,
    DailySeriesQuery,
    TimelineQuery,
    TopDomainsQuery,
)
from repro.serving.server import QueryServer
from repro.workloads import trace as trace_mod
from tracing import Target

MAP_PATH = Path(__file__).resolve().parent / "layer_map.json"
BENCHMARK_PATH = MAP_PATH.parent.parent / "BENCHMARK.json"

FAMILIES = [cls.name for cls in ALL_FAMILIES]
QUERY_CLASSES = (TopDomainsQuery, DailySeriesQuery, TimelineQuery, ActivityWindowQuery)
QUERY_KINDS = [cls.kind for cls in QUERY_CLASSES]

SQUAT_GENERATORS = (
    "typosquat_variants",
    "combosquat_variants",
    "dotsquat_variants",
    "bitsquat_variants",
    "homosquat_variants",
)

SCALE_FUNCTIONS = (
    "monthly_response_series",
    "tld_distribution",
    "lifespan_distribution",
    "expiry_timeline",
    "long_lived_cohort",
)
ORIGIN_FUNCTIONS = (
    "whois_join",
    "dga_census",
    "dga_registration_rate",
    "squatting_census",
    "blocklist_census",
)
SECURITY_DISTRIBUTIONS = (
    "port_distribution",
    "inapp_browser_distribution",
    "inapp_shape_checks",
    "botnet_country_distribution",
    "botnet_hostname_distribution",
)
DATABASE_METHODS = (
    "add_batch",
    "intern_many",
    "monthly_response_series",
    "tld_histogram",
    "lifespan_decay",
    "fingerprint",
    "digest",
    "aggregate_snapshot",
    "spill_commit",
    "spill_compact",
)
SPILL_METHODS = ("commit", "compact", "append_segment", "write_sidecar", "open")
PIPELINE_METHODS = {
    "ingest_many": "pipeline.ingest",
    "checkpoint": "pipeline.checkpoint",
    "replay_dead_letters": "pipeline.replay",
    "finish": "pipeline.finish",
}


def _dga_span(stack: Tuple[str, ...], args: tuple, kwargs: dict) -> Optional[str]:
    # Family generation inside detector training stays in dga.train.
    if "trace.generate" not in stack:
        return None
    return f"trace.dga.{args[0].name}"


def _query_span(kind: str):
    name = f"queries.{kind}.execute"

    def namer(stack: Tuple[str, ...], args: tuple, kwargs: dict) -> Optional[str]:
        # Direct executions (the identity check) are not serving work.
        return name if "server.serve" in stack else None

    return namer


def _batch_rows(args: tuple, kwargs: dict) -> Tuple[str, int]:
    ids = args[1] if len(args) > 1 else kwargs["domain_ids"]
    return "database.add_batch_rows", len(ids)


def targets() -> List[Target]:
    """Every wrapper a traced run installs."""
    out = [
        Target(trace_mod.NxdomainTraceGenerator, "generate", "trace.generate"),
        Target(DgaFamily, "domains_for_day", _dga_span),
        Target(PassiveDnsDatabase, "add_rows", "trace.add_rows"),
        Target(DgaDetector, "train_default", "dga.train"),
        Target(DgaDetector, "classify", "dga.classify"),
    ]
    out += [Target(trace_mod, f, "trace.squat_variants") for f in SQUAT_GENERATORS]
    out += [Target(scale, f, f"scale.{f}") for f in SCALE_FUNCTIONS]
    out += [Target(origin, f, f"origin.{f}") for f in ORIGIN_FUNCTIONS]
    out.append(
        Target(
            security,
            "run_security_experiment",
            "security.run_security_experiment",
        )
    )
    out += [
        Target(security, f, "security.distributions") for f in SECURITY_DISTRIBUTIONS
    ]
    out += [
        Target(reports, name, "reports.render")
        for name in sorted(vars(reports))
        if name.startswith("render_") and callable(getattr(reports, name))
    ]
    out += [
        Target(ResilientIngestPipeline, method, span)
        for method, span in PIPELINE_METHODS.items()
    ]
    out.append(Target(pipeline_mod, "save_checkpoint", "io.save_checkpoint"))
    out += [
        Target(
            PassiveDnsDatabase,
            method,
            f"database.{method}",
            _batch_rows if method == "add_batch" else None,
        )
        for method in DATABASE_METHODS
    ]
    out += [Target(SpillStore, method, f"spill.{method}") for method in SPILL_METHODS]
    out += [
        Target(QueryServer, "serve", "server.serve"),
        Target(AdmissionController, "offer", "admission.offer"),
    ]
    out += [Target(cls, "execute", _query_span(cls.kind)) for cls in QUERY_CLASSES]
    return out


def load_map() -> Dict:
    """Per metric name: its layer, what it should move and where."""
    return json.loads(MAP_PATH.read_text(encoding="utf-8"))


def units(kind: str) -> Dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, in
    BENCHMARK.json order."""
    bench = json.loads(BENCHMARK_PATH.read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"] for entry in bench[kind]}


def per_layer_names() -> List[str]:
    return list(units("per_layer"))


def span_metrics(summary: Dict[str, Dict[str, float]], units: float) -> Dict[str, float]:
    """Self seconds and call counts per span name, per unit of work.

    Metric ``X_s`` is the self time of span ``X``; ``X.calls`` (for
    the query kinds) and the ``spill``/``admission`` counts are call
    counts of the matching spans.
    """
    out: Dict[str, float] = {}
    for name, row in summary.items():
        out[f"{name}_s"] = row["self_s"] / units
    calls = {name: row["calls"] / units for name, row in summary.items()}
    for kind in QUERY_KINDS:
        out[f"queries.{kind}.calls"] = calls.get(f"queries.{kind}.execute", 0.0)
    out["admission.offers"] = calls.get("admission.offer", 0.0)
    out["spill.commits"] = calls.get("spill.commit", 0.0)
    out["spill.compactions"] = calls.get("spill.compact", 0.0)
    return out
