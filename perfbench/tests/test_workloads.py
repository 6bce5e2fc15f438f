"""Workload seeds, and equivalence of each workload with the CLI run."""

import csv
import json

import pytest

import worker
import workloads


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seed_fixes_the_inputs(name):
    a = workloads.params(name, workloads.DEFAULT_SEED)
    assert a == workloads.params(name, workloads.DEFAULT_SEED)
    assert a != workloads.params(name, workloads.HELD_OUT_SEED)


def _cli_numbers(name, p, tmp_path):
    from subwave import cli, transform

    subcommand, cfg = workloads.cli_config(name, p)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    transform.clear_plan_cache()
    cli.run(subcommand, str(config), tmp_path / "out")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    with open(tmp_path / "out" / f"{subcommand}.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return manifest["results"], rows


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_outputs_equal_the_cli_run(name, tmp_path):
    p = workloads.params(name, workloads.DEFAULT_SEED)
    out = worker.sample(name, workloads.DEFAULT_SEED, trace=False,
                        setup_only=False)["outputs"]
    results, rows = _cli_numbers(name, p, tmp_path)
    if name == "oracle-compare":
        assert results["max_discrepancy"] == out["max_discrepancy"]
        assert results["steps"] == out["steps"]
        assert results["dt"] == out["dt"]
        assert results["boundary_flux"] == out["boundary_flux"]
        assert results["passed"] == out["verdict_passed"]
        assert [float(r["relative_l2_discrepancy"]) for r in rows] == out["discrepancies"]
    else:
        assert results["status"] == out["status"]
        assert results["iterations"] == out["iterations"]
        assert results["ratios"] == out["ratios"]
        assert results["threshold"] == out["threshold"]
        assert results["data_norm"] == out["data_norm"]
        assert results["decay_slopes"] == out["decay_slopes"]
        assert [float(r["increment"]) for r in rows] == out["increments"]
        # the CLI pairs each increment with the Z norm before the update
        assert [float(r["z_norm"]) for r in rows] == out["z_norms"][:len(rows)]
