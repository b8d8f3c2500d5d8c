"""Guard rails for the shell tooling under ``tools/``.

Every gate/benchmark script must fail loudly: ``set -euo pipefail`` so a
failing pytest invocation (or an unset variable) can never report success,
and the executable bit so ``make`` targets and CI can run them directly.
The same fail-loud discipline is asserted for the durable event log: a
damaged study log must refuse to load, naming the offending line.
"""

import importlib.util
import json
import os
import re
import stat

import pytest

TOOLS_DIR = os.path.join(os.path.dirname(__file__), "..", "tools")
REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")


def _scripts():
    return sorted(
        os.path.join(TOOLS_DIR, name)
        for name in os.listdir(TOOLS_DIR)
        if name.endswith(".sh")
    )


def test_tools_directory_has_scripts():
    assert len(_scripts()) >= 5


def test_every_script_fails_loudly():
    for path in _scripts():
        with open(path) as fh:
            content = fh.read()
        assert "set -euo pipefail" in content, (
            f"{os.path.basename(path)} must 'set -euo pipefail' so failures "
            "propagate instead of being swallowed"
        )


def test_every_script_is_executable_with_a_shebang():
    for path in _scripts():
        mode = os.stat(path).st_mode
        assert mode & stat.S_IXUSR, f"{os.path.basename(path)} is not executable"
        with open(path) as fh:
            first = fh.readline()
        assert first.startswith("#!"), f"{os.path.basename(path)} lacks a shebang"


def test_static_analysis_gates_are_wired_into_make_and_ci():
    """`make lint-det` / `make typecheck` exist, their scripts exist, and CI
    runs both before the tier-1 gate — a linter nobody runs guards nothing."""
    with open(os.path.join(REPO_ROOT, "Makefile")) as fh:
        makefile = fh.read()
    assert re.search(r"^lint-det:", makefile, re.MULTILINE)
    assert re.search(r"^typecheck:", makefile, re.MULTILINE)
    for script in ("run_detlint.sh", "run_typecheck.sh"):
        assert os.path.exists(os.path.join(TOOLS_DIR, script)), script

    with open(os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")) as fh:
        ci = fh.read()
    assert "make lint-det" in ci, "CI must run the determinism lint"
    assert "make typecheck" in ci, "CI must run the typing gate"
    # Both gates must come before the tier-1 gate in the test job (the
    # run step, not the comment that merely mentions the script).
    tier1 = ci.index("run: ./tools/run_tier1.sh")
    assert ci.index("make lint-det") < tier1
    assert ci.index("make typecheck") < tier1


def test_bench_gates_are_wired_into_make_and_ci():
    """The event-loop scale bench and the perf-trajectory compare gate are
    reachable: make targets exist, their tools exist, CI runs both, and the
    compare step follows the full bench suite (it diffs its artifacts)."""
    with open(os.path.join(REPO_ROOT, "Makefile")) as fh:
        makefile = fh.read()
    assert re.search(r"^bench-eventloop:", makefile, re.MULTILINE)
    assert re.search(r"^bench-compare:", makefile, re.MULTILINE)
    # The help header documents both new targets.
    assert "make bench-eventloop" in makefile
    assert "make bench-compare" in makefile
    assert os.path.exists(os.path.join(TOOLS_DIR, "run_eventloop_bench.sh"))
    assert os.path.exists(os.path.join(TOOLS_DIR, "bench_compare.py"))
    # Committed baselines exist for the compare gate to diff against.
    baselines = os.path.join(REPO_ROOT, "benchmarks", "baselines")
    assert os.path.isdir(baselines)
    assert any(name.startswith("BENCH_") for name in os.listdir(baselines))

    with open(os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")) as fh:
        ci = fh.read()
    assert "make bench-eventloop" in ci, "CI must run the event-loop scale gate"
    assert "tools/bench_compare.py" in ci, "CI must run the perf-trajectory gate"
    assert ci.index("run: make bench\n") < ci.index("tools/bench_compare.py"), (
        "bench-compare must run after the full bench suite generated artifacts"
    )
    assert "GITHUB_STEP_SUMMARY" in ci, (
        "CI must publish the bench_compare table to the job summary"
    )


def test_obs_bench_gate_is_wired_into_make_and_ci():
    """`make bench-obs` exists, its runner exists, CI runs it, the compare
    gate guards its artifact, and the example run report reaches the job
    summary — an overhead gate nobody runs guards nothing."""
    with open(os.path.join(REPO_ROOT, "Makefile")) as fh:
        makefile = fh.read()
    assert re.search(r"^bench-obs:", makefile, re.MULTILINE)
    assert "make bench-obs" in makefile  # help header documents the target
    assert os.path.exists(os.path.join(TOOLS_DIR, "run_obs_bench.sh"))
    # The perf-trajectory gate tracks the obs artifact's guarded metrics.
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_compare", os.path.join(TOOLS_DIR, "bench_compare.py")
    )
    bench_compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_compare)
    assert bench_compare.GUARDED["BENCH_OBS.json"] == {
        "enabled_overhead_frac": "ceiling",
        "disabled_overhead_frac": "ceiling",
        "trajectory_identical": "flag",
    }
    baseline = os.path.join(
        REPO_ROOT, "benchmarks", "baselines", "BENCH_OBS.json"
    )
    assert os.path.exists(baseline), "bench-compare needs a committed baseline"

    with open(os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")) as fh:
        ci = fh.read()
    assert "make bench-obs" in ci, "CI must run the observability gate"
    assert "RUN_REPORT.md" in ci, (
        "CI must publish the example run report to the job summary"
    )


def test_graydeg_gate_is_wired_into_make_and_ci():
    """`make bench-graydeg` exists, its runner exists, CI runs it alongside
    the chaos suite, and the compare gate guards its artifact — a gray-
    failure retention gate nobody runs guards nothing."""
    with open(os.path.join(REPO_ROOT, "Makefile")) as fh:
        makefile = fh.read()
    assert re.search(r"^bench-graydeg:", makefile, re.MULTILINE)
    assert "make bench-graydeg" in makefile  # help header documents the target
    assert os.path.exists(os.path.join(TOOLS_DIR, "run_graydeg_bench.sh"))
    # The perf-trajectory gate tracks the retention as a guarded ratio.
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_compare", os.path.join(TOOLS_DIR, "bench_compare.py")
    )
    bench_compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_compare)
    assert bench_compare.GUARDED["BENCH_GRAYDEG.json"] == {
        "geomean_retention": "ratio"
    }
    baseline = os.path.join(
        REPO_ROOT, "benchmarks", "baselines", "BENCH_GRAYDEG.json"
    )
    assert os.path.exists(baseline), "bench-compare needs a committed baseline"

    with open(os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")) as fh:
        ci = fh.read()
    assert "make bench-graydeg" in ci, "CI must run the gray-failure gate"
    assert re.search(r"pytest tests/chaos", ci), (
        "CI must run the chaos suite as its own step"
    )


def test_batch_gate_is_wired_into_make_and_ci():
    """`make bench-batch` exists, its runner exists, CI runs it, and the
    compare gate guards both the quality margin and the refit reduction."""
    with open(os.path.join(REPO_ROOT, "Makefile")) as fh:
        makefile = fh.read()
    assert re.search(r"^bench-batch:", makefile, re.MULTILINE)
    assert "make bench-batch" in makefile  # help header documents the target
    assert os.path.exists(os.path.join(TOOLS_DIR, "run_batch_bench.sh"))
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_compare", os.path.join(TOOLS_DIR, "bench_compare.py")
    )
    bench_compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_compare)
    assert bench_compare.GUARDED["BENCH_BATCH.json"] == {
        "quality_margin": "ratio",
        "refit_reduction": "ratio",
    }
    baseline = os.path.join(REPO_ROOT, "benchmarks", "baselines", "BENCH_BATCH.json")
    assert os.path.exists(baseline), "bench-compare needs a committed baseline"

    with open(os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")) as fh:
        ci = fh.read()
    bench_job = ci[ci.index("\n  bench:"):]
    assert "run: make bench-batch" in bench_job, "the CI bench job must run bench-batch"


def test_refit_gate_is_wired_into_make_and_ci():
    """`make bench-refit` exists, its runner exists, CI runs it, and the
    compare gate guards its quality margins, fit reduction and speedup."""
    with open(os.path.join(REPO_ROOT, "Makefile")) as fh:
        makefile = fh.read()
    assert re.search(r"^bench-refit:", makefile, re.MULTILINE)
    assert "make bench-refit" in makefile  # help header documents the target
    assert os.path.exists(os.path.join(TOOLS_DIR, "run_refit_bench.sh"))
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "bench_compare", os.path.join(TOOLS_DIR, "bench_compare.py")
    )
    bench_compare = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_compare)
    assert bench_compare.GUARDED["BENCH_REFIT.json"] == {
        "quality_margin_150": "ratio",
        "quality_margin_600": "ratio",
        "fit_reduction_600": "ratio",
        "host_speedup_600": "ratio",
    }
    baseline = os.path.join(REPO_ROOT, "benchmarks", "baselines", "BENCH_REFIT.json")
    assert os.path.exists(baseline), "bench-compare needs a committed baseline"
    with open(baseline) as fh:
        recorded = json.load(fh)
    for metric in bench_compare.GUARDED["BENCH_REFIT.json"]:
        assert metric in recorded, f"baseline lacks guarded metric {metric!r}"

    with open(os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")) as fh:
        ci = fh.read()
    bench_job = ci[ci.index("\n  bench:"):]
    assert "run: make bench-refit" in bench_job, "the CI bench job must run bench-refit"


def test_ci_workflow_is_hardened():
    """Concurrency cancellation, job timeouts and the unit-test version
    matrix — CI hygiene the workflow must not silently lose."""
    with open(os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")) as fh:
        ci = fh.read()
    assert "concurrency:" in ci, "workflow must declare a concurrency group"
    assert "cancel-in-progress:" in ci, (
        "superseded pull-request runs must be cancelled, not queued"
    )
    n_jobs = len(re.findall(r"^\s{2}\w[\w-]*:\s*$\n(?=\s{4}runs-on:)", ci, re.MULTILINE))
    n_timeouts = len(re.findall(r"^\s+timeout-minutes:\s*\d+", ci, re.MULTILINE))
    assert n_jobs == 3, f"expected the three lint/test/bench jobs, found {n_jobs}"
    assert n_timeouts == n_jobs, (
        f"every job needs a timeout-minutes ({n_timeouts}/{n_jobs} set)"
    )
    assert re.search(r"matrix:\s*\n\s*python-version:", ci), (
        "the test job must run a python-version matrix"
    )
    assert '"3.11"' in ci and '"3.12"' in ci, (
        "unit tests must cover Python 3.11 and 3.12"
    )


def test_readme_rule_table_matches_the_registry():
    """The README's detlint rule table stays in sync with the registry:
    every registered code documented, no stale rows for removed rules."""
    from repro.analysis import RULES

    with open(os.path.join(REPO_ROOT, "README.md")) as fh:
        readme = fh.read()
    table_rows = re.findall(r"^\| `(DET\d{3})` \|", readme, re.MULTILINE)
    registered = sorted(rule.code for rule in RULES)
    assert sorted(table_rows) == registered, (
        "README rule table out of sync with repro.analysis.RULES: "
        f"table={sorted(table_rows)} registry={registered}"
    )
    # The bookkeeping codes are documented too (pragma audit + parse error).
    assert "DET000" in readme
    assert "DET999" in readme


def test_event_log_replay_fails_loudly_on_damage(tmp_path):
    """A truncated or corrupted study log must refuse to load with a
    line-numbered error — silently replaying a partial study would poison
    every conclusion drawn from it."""
    from repro.core import EventLog, EventLogError

    path = str(tmp_path / "events.jsonl")
    log = EventLog(path)
    for _ in range(3):
        log.append("submit", worker="w-0")
    log.close()

    # Truncation: chop the last record mid-JSON.
    truncated = str(tmp_path / "truncated.jsonl")
    content = open(path, encoding="utf-8").read()
    with open(truncated, "w", encoding="utf-8") as fh:
        fh.write(content[:-20] + "\n")
    with pytest.raises(EventLogError) as excinfo:
        EventLog.replay(truncated)
    assert excinfo.value.line == 4
    assert ":4:" in str(excinfo.value)

    # Corruption: mangle a middle record.
    corrupted = str(tmp_path / "corrupted.jsonl")
    lines = content.splitlines()
    lines[1] = lines[1][:-4] + "\x00"
    with open(corrupted, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with pytest.raises(EventLogError) as excinfo:
        EventLog.replay(corrupted)
    assert excinfo.value.line == 2
    assert ":2:" in str(excinfo.value)


def test_e2e_bench_is_wired_into_make_and_ci():
    """`make bench-e2e` runs the end-to-end harness once per declared
    workload (seed 1, 10 s, untraced), and CI runs it in the bench job so
    a failed correctness check (exit 1) fails the job."""
    with open(os.path.join(REPO_ROOT, "Makefile")) as fh:
        makefile = fh.read()
    assert re.search(r"^bench-e2e:", makefile, re.MULTILINE)
    assert "make bench-e2e" in makefile  # help header documents the target
    script_path = os.path.join(TOOLS_DIR, "run_e2e_bench.sh")
    with open(script_path) as fh:
        script = fh.read()
    assert "e2ebench/run.py" in script
    assert "--seed 1 --seconds 10 --trace 0" in script
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    for workload in workloads:
        assert workload in script, f"bench-e2e must run workload {workload!r}"

    with open(os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")) as fh:
        ci = fh.read()
    bench_job = ci[ci.index("\n  bench:"):]
    assert "run: make bench-e2e" in bench_job, "the CI bench job must run bench-e2e"


def test_src_lines_counts_code_only_and_reports_in_ci():
    """`make loc` runs tools/src_lines.py, which counts non-blank,
    non-comment, non-docstring lines; the CI lint job appends its table to
    the job summary without gating on it."""
    spec = importlib.util.spec_from_file_location(
        "src_lines", os.path.join(TOOLS_DIR, "src_lines.py")
    )
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    source = (
        '"""Module docstring."""\n'  # 1
        "\n"
        "import os  # trailing comment\n"  # 3
        "# a comment line\n"
        "\n"
        "class A:\n"  # 6
        '    """Class docstring,\n'
        '    two lines."""\n'
        "\n"
        "    value = (\n"  # 10
        "        os.sep,\n"  # 11
        "    )\n"  # 12
        '    text = """not a\n'  # 13
        '    docstring"""\n'  # 14
    )
    assert src_lines.code_lines(source) == {3, 6, 10, 11, 12, 13, 14}

    with open(os.path.join(REPO_ROOT, "Makefile")) as fh:
        makefile = fh.read()
    assert re.search(r"^loc:\n\tpython tools/src_lines.py", makefile, re.MULTILINE)
    with open(os.path.join(REPO_ROOT, ".github", "workflows", "ci.yml")) as fh:
        ci = fh.read()
    lint_job = ci[ci.index("\n  lint:"):ci.index("\n  test:")]
    assert "tools/src_lines.py --markdown" in lint_job
    assert "GITHUB_STEP_SUMMARY" in lint_job
