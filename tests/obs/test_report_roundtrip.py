"""Round-trip gate: offline reports agree with the live registry.

A resilience-style seeded study (transient crashes + retries + speculation)
runs once with a live registry, tracer and durable event log.  The report
rebuilt offline from the log must agree with the live instruments field by
field — same counter names, same counts — and the live tracer's spans must
equal the spans rebuilt from the log.  The CLI is exercised end to end on
the same log.
"""

import json

import pytest

from repro.cloud import Cluster
from repro.core import (
    EventLog,
    ExecutionEngine,
    RetryPolicy,
    TunaSampler,
    TuningLoop,
)
from repro.faults import build_crash_model, build_fault_model
from repro.obs import MetricsRegistry, TraceRecorder, spans_from_events
from repro.obs.__main__ import main as obs_main
from repro.obs.report import RunReport, report_from_log
from repro.optimizers import RandomSearchOptimizer
from repro.systems import PostgreSQLSystem
from repro.workloads import TPCC

SEED = 90

#: Counter names whose live value must equal the offline report's count.
MATCHED_COUNTERS = (
    "engine.items.submitted",
    "engine.items.retried",
    "engine.items.speculated",
    "engine.items.completed",
    "engine.items.failed",
    "engine.items.cancelled",
    "engine.samples.landed",
    "engine.samples.crashed",
)


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    """One resilience-style study: crashes, retries, speculation, full obs."""
    tmp_path = tmp_path_factory.mktemp("obs_study")
    log = str(tmp_path / "events.jsonl")
    system = PostgreSQLSystem()
    cluster = Cluster(n_workers=10, seed=SEED)
    execution = ExecutionEngine(system, TPCC, seed=SEED)
    opt = RandomSearchOptimizer(system.knob_space, seed=SEED)
    sampler = TunaSampler(opt, execution, cluster, seed=SEED)
    registry = MetricsRegistry()
    tracer = TraceRecorder()
    loop = TuningLoop(
        sampler,
        max_samples=40,
        batch_size=5,
        crash_model=build_crash_model("transient", seed=3),
        retry_policy=RetryPolicy(max_retries=2, backoff_hours=0.05),
        fault_model=build_fault_model("lognormal", seed=7),
        speculation=True,
        event_log=log,
        metrics=registry,
        tracer=tracer,
    )
    result = loop.run()
    return {
        "log": log,
        "registry": registry,
        "tracer": tracer,
        "result": result,
        "tmp_path": tmp_path,
    }


class TestReportMatchesLiveRegistry:
    def test_lifecycle_counters_agree_field_by_field(self, study):
        report = report_from_log(study["log"])
        registry = study["registry"]
        for name in MATCHED_COUNTERS:
            assert report.counters[name] == registry.counter_value(name), name
        # The study genuinely exercised the resilience paths.
        assert report.counters["engine.samples.crashed"] > 0 or (
            report.counters["engine.items.retried"] > 0
        )

    def test_failures_by_fault_match_the_labelled_counters(self, study):
        report = report_from_log(study["log"])
        live = {
            key.split("fault=")[1].rstrip("}"): value
            for key, value in study["registry"].labelled("engine.failures").items()
        }
        assert {k: float(v) for k, v in report.failures_by_fault.items()} == live

    def test_crash_and_retry_budget_lines_match(self, study):
        report = report_from_log(study["log"])
        registry = study["registry"]
        if report.retries:
            assert report.retries["n_retries"] == registry.counter_value(
                "engine.items.retried"
            )
            assert report.retries["n_exhausted"] == registry.counter_value(
                "engine.retries.exhausted"
            )
        if report.speculation:
            assert report.speculation["n_duplicates"] == registry.counter_value(
                "engine.items.speculated"
            )
            assert report.speculation["n_wins"] == registry.counter_value(
                "engine.speculation.wins"
            )
            assert report.speculation["n_losses"] == registry.counter_value(
                "engine.speculation.losses"
            )

    def test_live_spans_equal_offline_spans(self, study):
        events = EventLog.replay(study["log"])
        offline = [span.as_dict() for span in spans_from_events(events)]
        live = [span.as_dict() for span in study["tracer"].spans()]
        assert live == offline

    def test_report_macro_facts(self, study):
        report = report_from_log(study["log"])
        result = study["result"]
        assert report.makespan_hours == result.wall_clock_hours
        assert report.counters["engine.samples.landed"] == result.n_samples
        assert report.provenance["git_sha"]
        assert 0 < report.n_workers <= 10
        assert report.utilization["busy_fraction"]
        assert 0.0 < report.utilization["mean_busy_fraction"] <= 1.0
        assert report.queue_wait_hours["p50"] >= 0.0
        assert report.duration_hours["p99"] > 0.0
        assert report.waves["n_waves"] >= 1


class TestCli:
    def test_cli_writes_markdown_json_and_trace(self, study):
        out = study["tmp_path"]
        md, js, tr = out / "report.md", out / "report.json", out / "trace.json"
        code = obs_main(
            [
                "report",
                study["log"],
                "--markdown", str(md),
                "--json", str(js),
                "--trace", str(tr),
                "--bins", "12",
            ]
        )
        assert code == 0
        markdown = md.read_text()
        assert markdown.startswith("# Study run report")
        assert "## Lifecycle counters" in markdown
        assert "## Worker-utilization timeline" in markdown
        data = json.loads(js.read_text())
        registry = study["registry"]
        for name in MATCHED_COUNTERS:
            assert data["counters"][name] == registry.counter_value(name)
        assert len(data["utilization"]["busy_fraction"]) == 12
        trace = json.loads(tr.read_text())
        assert trace["otherData"]["n_spans"] > 0
        assert any(e["ph"] == "X" for e in trace["traceEvents"])

    def test_cli_default_prints_markdown(self, study, capsys):
        assert obs_main(["report", study["log"]]) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("# Study run report")

    def test_cli_reports_a_corrupt_log_on_stderr(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"seq": 0, "kind": "open", "version": 1}\n{broken\n')
        assert obs_main(["report", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_report_json_round_trips_through_from_events(self, study):
        events = EventLog.replay(study["log"])
        direct = RunReport.from_events(events).as_dict()
        via_log = report_from_log(study["log"]).as_dict()
        assert direct == via_log
