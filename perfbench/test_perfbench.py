"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""

import json
import math
import sys
import types
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_what_children_cover():
    # a [0, 10] holds b [1, 4] and d [5, 6]; b holds c [2, 3]; e is another root
    synthetic = [
        spans.Span("a", 0.0, 10.0, -1, "pass0"),
        spans.Span("b", 1.0, 4.0, 0, "pass0"),
        spans.Span("c", 2.0, 3.0, 1, "pass0"),
        spans.Span("d", 5.0, 6.0, 0, "pass0"),
        spans.Span("b", 11.0, 13.0, -1, "pass1"),
    ]
    stats = spans.self_times(synthetic)
    assert stats["a"] == (6.0, 10.0, 1)
    assert stats["b"] == (4.0, 5.0, 2)
    assert stats["c"] == (1.0, 1.0, 1)
    assert stats["d"] == (1.0, 1.0, 1)
    first = spans.self_times(synthetic, keep=lambda s: s.run == "pass0")
    assert first["b"] == (2.0, 3.0, 1)


def test_time_table_groups_spans_by_run_label():
    rec = spans.Recorder()
    rec.spans = [
        spans.Span("cli.run_config", 0.0, 2.0, -1, "pass0/a.cfg"),
        spans.Span("flow.solve_ivp", 0.5, 1.5, 0, "pass0/a.cfg"),
        spans.Span("cli.run_config", 2.0, 3.0, -1, "pass0/b.cfg"),
        spans.Span("setup", 5.0, 9.0, -1, ""),
    ]
    table = {group: (wall, rows) for group, wall, rows in spans.time_table(rec, 1, 3.5)}
    assert set(table) == {"a.cfg", "b.cfg"}
    wall, rows = table["a.cfg"]
    assert wall == 2.0
    assert rows == [("cli.run_config", 1.0, 2.0, 1.0), ("flow.solve_ivp", 1.0, 1.0, 1.0)]


def test_oracle_counts_wrong_and_raising_verdicts_as_failed():
    oracle = checks.Oracle()
    passed = types.SimpleNamespace(ok=True)
    # domination below ln(2)/3 is a wrong verdict; above it is right
    verdict_at = workloads.check_domination_verdict
    oracle.verdict("l=0.192", lambda: passed, check=partial(verdict_at, 0.192))
    oracle.verdict("l=0.292", lambda: passed, check=partial(verdict_at, 0.292))
    oracle.verdict("raises", lambda: 1.0 / 0.0)
    assert (oracle.attempted, oracle.failed) == (3, 2)
    assert oracle.err_frac == 0.0


def test_oracle_runs_the_reference_before_every_verdict():
    order = []
    oracle = checks.Oracle(reference=lambda: order.append("reference"))
    oracle.verdict("a", lambda: order.append("a"))
    oracle.verdict("raises", lambda: 1.0 / 0.0)
    assert order == ["reference", "a", "reference"]
    assert oracle.ref_runs == oracle.attempted == 2
    assert all(t >= 0.0 for t in oracle.ref_s)


def test_oracle_error_fraction_measures_against_the_tolerance():
    oracle = checks.Oracle()
    fit = types.SimpleNamespace(
        ok=True, reason="", lambda_stable=math.exp(-2.0) * 1.01, lambda_unstable=math.exp(-1.0)
    )
    oracle.verdict("fit within tolerance", lambda: fit, check=workloads.check_fit)
    assert oracle.failed == 0
    assert math.isclose(oracle.err_frac, 0.5)
    fit.lambda_stable = math.exp(-2.0) * 1.05
    oracle.verdict("fit outside tolerance", lambda: fit, check=workloads.check_fit)
    assert oracle.failed == 1
    assert math.isclose(oracle.err_frac, 2.5)


def _reports(tmp_path, tag):
    from flowlab import cli

    out = {}
    for name in ("splitting.cfg", "chain_graph.cfg", "refute.cfg", "classify.cfg"):
        outdir = tmp_path / tag / name
        code = cli.run_config(str(ROOT / "configs" / name), str(outdir), seed=3)
        out[name] = (
            code,
            (outdir / "report.json").read_bytes(),
            (outdir / "series.csv").read_bytes(),
        )
    return out


def test_tracing_and_counting_spec_leave_results_unchanged(tmp_path):
    import flowlab.cli
    import flowlab.splitting

    plain = _reports(tmp_path, "plain")
    original = flowlab.cli.run_config
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        rec.run_id = "pass0"
        traced = _reports(tmp_path, "traced")
    finally:
        undo()
    assert traced == plain
    assert flowlab.cli.run_config is original
    assert flowlab.splitting.np is np

    names = {s.name for s in rec.spans}
    assert {"cli.run_config", "splitting.check_domination", "chain_graph.solve_ivp"} <= names
    assert all(s.end >= s.start for s in rec.spans)
    metrics = spans.layer_metrics(rec, [1.0], 1.0)
    assert metrics["splitting.check_domination.calls"] == 1
    assert metrics["chain_graph.cells"] == 16
    assert metrics["scenarios.field_calls"] > 0
    assert metrics["scenarios.jacobian_calls"] > 0
    assert metrics["splitting.svd.calls"] > 0
    assert metrics["flow.nfev"] > 0
    assert metrics["cli.pipeline_frac"] > 0.0
    assert metrics["cli.io_frac"] > 0.0


def test_names_agree_with_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOAD_NAMES)
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer_units == spans.layer_metric_units()
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_ref", "cpu_ref", "peak_rss_mb", "oracle_err_frac", "setup_s"
    }
