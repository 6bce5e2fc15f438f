"""Span coverage of the tracer, on toy spans and on every workload's solve."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import worker
import workloads

ROOT = Path(__file__).resolve().parents[2]


def test_self_times_partition_nested_spans():
    tracer = tracing.Tracer()

    def leaf():
        sum(range(20000))

    traced_leaf = tracer.wrap("toy.leaf", leaf)
    traced_middle = tracer.wrap("toy.middle", lambda: (traced_leaf(), traced_leaf()))
    with tracer.span("solve"):
        traced_middle()
        traced_leaf()
    spans = tracer.spans
    assert [s.name for s in spans] == ["solve", "toy.middle", "toy.leaf",
                                       "toy.leaf", "toy.leaf"]
    assert [s.parent for s in spans] == [-1, 0, 1, 1, 0]
    assert tracing.check_nesting(spans) == []
    selfs = tracing.self_times(spans)
    assert all(t >= 0 for t in selfs)
    assert sum(selfs) == pytest.approx(spans[0].duration, rel=1e-12)
    rep = tracing.phase_report(spans, "solve")
    assert rep["self_by_span_s"]["toy.leaf"] == pytest.approx(
        sum(s.duration for s in spans if s.name == "toy.leaf"))


def test_nesting_check_catches_a_child_outside_its_parent():
    parent = tracing.Span("solve", 0.0, -1)
    parent.end = 1.0
    child = tracing.Span("x.f", 0.5, 0)
    child.end = 1.5
    assert tracing.check_nesting([parent, child])


def test_install_patches_every_import_site_and_uninstall_restores():
    import subwave
    from subwave import cli, semilinear, transform

    original = transform.forward_transform
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = transform.forward_transform
        assert wrapped is not original
        assert semilinear.forward_transform is wrapped
        assert cli.forward_transform is wrapped
        assert subwave.forward_transform is wrapped
        assert semilinear.synthesize_on_grid is transform.synthesize_on_grid
    finally:
        tracer.uninstall()
    assert transform.forward_transform is original
    assert semilinear.forward_transform is original


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_solve_is_fully_covered(name):
    """Spans nest, self times partition the solve, and the call counts of the
    transform prove that every import site is patched (on heis-picard the
    forward transforms and syntheses in the solve are H x (iterations + 1))."""
    res = worker.sample(name, workloads.DEFAULT_SEED, trace=True, setup_only=False)
    assert res["failures"] == []
    p = workloads.params(name, workloads.DEFAULT_SEED)
    expected = workloads.expected_calls(name, p, res["outputs"])
    assert run._coverage(res, expected) == []
    if name == "heis-picard":
        assert expected["transform.forward"] == p["H"] * (res["outputs"]["iterations"] + 1)
    purpose = run._purpose(res["solve_trace"], workloads.WORKLOADS[name].dominant)
    print(name, purpose)
    if name != "oracle-compare":
        # on oracle-compare the leapfrog and the syntheses are within a few
        # percent of each other, so the ordering is reported, not asserted
        assert purpose["holds"]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "heis-picard", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_the_metrics_a_traced_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    printed = list(tracing.layer_metrics([], 0)) + ["trace.solve_s", "trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == printed
    for m in spec["per_layer"]:
        assert m["unit"] == ("s" if m["name"].endswith("_s") else "count")
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "solve_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
