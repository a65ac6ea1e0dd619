"""Tests of the benchmark's own machinery (not of the program).

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import contextlib
import io
import json
import re
import subprocess
from pathlib import Path

import numpy as np

import inputs
import layers
import run
import workloads
from repro.dga.detector import DgaDetector
from repro.passivedns.database import PassiveDnsDatabase
from tracing import Target, Tracer, wrapper_cost_s

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_inputs_are_deterministic_per_seed():
    a = inputs.make_population(7, 300)
    b = inputs.make_population(7, 300)
    c = inputs.make_population(8, 300)
    assert [str(n) for n in a.names] == [str(n) for n in b.names]
    assert np.array_equal(a.weights, b.weights)
    assert [str(n) for n in a.names] != [str(n) for n in c.names]
    rows_a = inputs.make_rows(7, a, 0, 3, 500)
    rows_b = inputs.make_rows(7, b, 0, 3, 500)
    for field in ("domain_index", "timestamps", "counts", "nxdomain", "subdomain"):
        assert np.array_equal(getattr(rows_a, field), getattr(rows_b, field))
    assert np.all(np.diff(rows_a.timestamps) >= 0)
    assert inputs.observations(a, rows_a) == inputs.observations(b, rows_b)


def test_a_later_day_does_not_depend_on_earlier_days():
    population = inputs.make_population(3, 200)
    span = inputs.make_rows(3, population, 0, 4, 100)
    day = inputs.make_rows(3, population, 3, 1, 100)
    assert np.array_equal(span.domain_index[300:], day.domain_index)


def test_metric_names_are_well_formed_and_mapped():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    mapping = layers.load_map()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert set(mapping["per_layer"]) == set(layers.per_layer_names())
    assert set(mapping["end_to_end"]) == set(layers.units("end_to_end"))
    for entry in mapping["per_layer"].values():
        assert entry["moves"] and entry["workload"] and entry["layer"]


def test_span_names_are_per_layer_metrics():
    known = set(layers.per_layer_names())
    for family in layers.FAMILIES:
        assert f"trace.dga.{family}_s" in known
    for kind in layers.QUERY_KINDS:
        assert f"queries.{kind}.execute_s" in known
        assert f"queries.{kind}.calls" in known
    for target in layers.targets():
        if isinstance(target.name, str):
            assert f"{target.name}_s" in known, target.name


def _attributes(targets):
    out = []
    for target in targets:
        owner = target.owner
        if isinstance(owner, type):
            out.append(vars(owner).get(target.attr))
        else:
            out.append(getattr(owner, target.attr))
    return out


def test_wrappers_are_removed_after_a_traced_run():
    targets = layers.targets()
    before = _attributes(targets)
    tracer = Tracer()
    with tracer.installed(targets):
        assert _attributes(targets) != before
        db = PassiveDnsDatabase()
        ids = db.intern_many(inputs.make_population(1, 20).names)
        db.add_batch(ids, np.arange(20, dtype=np.int64) + 10**9, np.ones(20))
        db.monthly_response_series()
        detector = DgaDetector.train_default(seed=1, samples_per_family=5)
        detector.classify(["example.com"])
    after = _attributes(targets)
    assert all(a is b for a, b in zip(before, after))
    summary = tracer.summary()
    assert summary["database.add_batch"]["calls"] == 1
    assert summary["dga.train"]["calls"] == 1
    assert tracer.counters["database.add_batch_rows"] == 20


def test_inherited_methods_are_restored_by_removing_the_override():
    class Base:
        def hello(self):
            return "hi"

    class Child(Base):
        pass

    tracer = Tracer()
    with tracer.installed([Target(Child, "hello", "hello")]):
        assert "hello" in vars(Child)
        assert Child().hello() == "hi"
    assert "hello" not in vars(Child)
    assert tracer.summary()["hello"]["calls"] == 1


def test_self_time_excludes_children():
    tracer = Tracer()

    class Box:
        @staticmethod
        def inner():
            return 1

        @classmethod
        def outer(cls):
            return cls.inner() + cls.inner()

    targets = [Target(Box, "outer", "outer"), Target(Box, "inner", "inner")]
    with tracer.installed(targets):
        assert Box.outer() == 2
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 1 and summary["inner"]["calls"] == 2
    outer = summary["outer"]
    assert abs(outer["incl_s"] - outer["self_s"] - summary["inner"]["incl_s"]) < 1e-9
    assert tracer.breakdown("outer").keys() == {"(self)", "inner"}
    assert isinstance(vars(Box)["outer"], classmethod)
    assert isinstance(vars(Box)["inner"], staticmethod)


def test_wrapper_calls_are_counted_and_costed():
    class Box:
        @staticmethod
        def hello():
            return "hi"

    tracer = Tracer()
    with tracer.installed([Target(Box, "hello", lambda stack, a, k: None)]):
        Box.hello()
        with tracer.paused():
            Box.hello()
    assert tracer.calls == 1 and tracer.spans == []
    assert 0.0 <= wrapper_cost_s(calls=2000, repeats=3) < 1e-3


def test_every_study_run_visits_every_pinned_seed():
    pinned = sorted(int(seed) for seed in workloads.load_pins())
    orders = set()
    for seed in range(1, 6):
        study = workloads.StudyWorkload(seed, Path("unused"))
        study.setup()
        assert sorted(study.order) == pinned
        orders.add(tuple(study.order))
    assert len(orders) == min(len(pinned), 5)


class TinyWorkload(workloads.Workload):
    """Stands in for a real workload so the driver code runs fast."""

    def run(self, seconds, tracer):
        return workloads.Outcome(
            primary_p50_ms=1.0,
            throughput_per_s=2.0,
            side_p50_ms=3.0,
            named={"tiny_s": 0.5},
            headline_s=0.5,
            attempted=1,
            failed=0,
        )


def _in_process(command):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = run.main(command[2:])
    return subprocess.CompletedProcess(command, code, buffer.getvalue(), "")


def test_all_workloads_print_every_end_to_end_metric(tmp_path, monkeypatch, capsys):
    for name in run.WORKLOAD_NAMES:
        monkeypatch.setitem(workloads.WORKLOADS, name, TinyWorkload)
    monkeypatch.setattr(run, "TMP_DIR", tmp_path / "tmp")
    monkeypatch.setattr(run, "run_child", _in_process)
    code = run.main(["--workload", "all", "--seed", "1", "--seconds", "0.01"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and result["correct"], result
    for name in run.WORKLOAD_NAMES:
        for metric in list(layers.units("end_to_end")) + ["tiny_s"]:
            assert f"{name}.{metric}" in result["metrics"]
    assert not (tmp_path / "tmp").exists()


def test_result_file_survives_the_runs_own_clean_up(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "ingest", TinyWorkload)
    monkeypatch.setattr(run, "TMP_DIR", tmp_path / "tmp")
    (tmp_path / "tmp").mkdir()
    result_file = tmp_path / "tmp" / "result.json"
    argv = ["--workload", "ingest", "--seed", "1", "--seconds", "0.01"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run.main(argv + ["--result-file", str(result_file)]) == 0
    assert json.loads(result_file.read_text())["named"] == {"tiny_s": 0.5}
