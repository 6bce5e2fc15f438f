"""Benchmark of `subwave`: three workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload oracle-compare --seed 0 --seconds 60 --trace 0

Each sample runs in a fresh process (`worker.py`) with the BLAS thread count
fixed, because a CLI user pays imports, plan construction and peak memory on
every run.  A run starts with one set-up-only warm-up sample that is not
reported: it brings the interpreter, NumPy, SciPy and `subwave` into the page
cache and writes their byte code.  Full samples (set-up and solve) then run
while the next one is expected to end within `--seconds`, keeping time for
set-up-only samples that bring the set-up count to MIN_SETUP_SAMPLES; at
least two full samples always run, so that one slow sample is never a run's
median.  Set-up-only samples fill the rest of `--seconds`.

With --trace 0 the last line reports the end-to-end metrics: medians of
setup_s, solve_s and peak_rss_mb.  With --trace 1 full samples alternate
between traced and untraced, and the last line reports the per-layer
metrics of the traced ones plus the tracing overhead.  The line before it
holds the details: every sample's timings, the numeric outputs, and for
traced runs the span-coverage and workload-purpose checks.  A sample fails
when it raises, produces non-finite output or breaks a workload check;
`failed` counts them and `correct` is false if any did.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
MIN_FULL_SAMPLES = 2         # also gives a traced run one untraced sample
MIN_SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0          # every run must end within 180 s
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in _THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def _run_child(root, env, workload, seed, trace, setup_only, timeout):
    cmd = [sys.executable, str(root / "perfbench" / "worker.py"),
           "--workload", workload, "--seed", str(seed), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"failures": ["timed out"], "traced": trace, "wall_s": timeout}
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        result = {"failures": [f"exit {proc.returncode}: {tail[0]}"]}
    if proc.returncode != 0:
        result.setdefault("failures", []).append(f"exit {proc.returncode}")
    result["traced"] = trace
    result["wall_s"] = wall
    return result


def _median(values):
    return statistics.median(values) if values else None


def _coverage(res, expected_calls) -> list[str]:
    """Span-coverage problems of one traced sample's solve phase."""
    rep = res["solve_trace"]
    problems = list(rep["nesting_problems"])
    if abs(rep["self_sum_s"] - rep["duration_s"]) > 1e-6 * rep["duration_s"]:
        problems.append("self times do not add up to the solve span")
    if abs(rep["duration_s"] - res["solve_s"]) > 0.01 * res["solve_s"]:
        problems.append("solve span does not cover the timed solve")
    for group, count in expected_calls.items():
        if rep["calls"][group] != count:
            problems.append(f"{group}: {rep['calls'][group]} calls in the solve, "
                            f"expected {count}")
    return problems


def _purpose(rep, dominant) -> dict:
    """Is the workload's dominant bucket the largest self-time share?"""
    bucket, others = 0.0, {}
    for name, t in rep["self_by_span_s"].items():
        if name.startswith(dominant):
            bucket += t
        else:
            layer = name.split(".")[0]
            others[layer] = others.get(layer, 0.0) + t
    largest_other = max(others.items(), key=lambda kv: kv[1])
    return {"dominant": list(dominant), "dominant_share": bucket / rep["duration_s"],
            "largest_other": largest_other[0],
            "largest_other_share": largest_other[1] / rep["duration_s"],
            "holds": bucket >= largest_other[1]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "subwave" / "__init__.py").is_file():
        print("perfbench: run from the root of a subwave checkout "
              "(src/subwave not found)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    env = _child_env(root)
    start = time.perf_counter()
    deadline = start + args.seconds

    def remaining():
        return start + RUN_LIMIT_S - time.perf_counter()

    def sample(traced, setup_only):
        return _run_child(root, env, args.workload, args.seed, traced,
                          setup_only, remaining())

    warm_up = sample(False, True)
    setup_wall = warm_up["wall_s"]
    full = []
    while True:
        traced = trace and len(full) % 2 == 0
        full.append(sample(traced, False))
        typical = _median([r["wall_s"] for r in full])
        top_up = max(0, MIN_SETUP_SAMPLES - len(full) - 1) * setup_wall
        if (len(full) >= MIN_FULL_SAMPLES
                and time.perf_counter() + typical + top_up > deadline):
            break
        if remaining() < 2 * typical:
            break
    setup_only = []
    while not trace and remaining() > 10 and (
            len(full) + len(setup_only) < MIN_SETUP_SAMPLES
            or time.perf_counter() + setup_wall <= deadline):
        setup_only.append(sample(False, True))

    children = [warm_up] + full + setup_only
    failed = [r for r in children if r["failures"]]
    ok_full = [r for r in full if "solve_s" in r]
    untraced = [r for r in ok_full if not r["traced"]]
    traced = [r for r in ok_full if r["traced"]]
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "params": workloads.params(args.workload, args.seed),
        "blas_threads": BLAS_THREADS,
        "samples": {"warm_up": 1, "full": len(full), "setup_only": len(setup_only),
                    "traced": len(traced)},
        "setup_s": [r["setup_s"] for r in full + setup_only
                    if "setup_s" in r and not r["traced"]],
        "solve_s": [r["solve_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        "failures": [f for r in children for f in r["failures"]],
        "outputs": ok_full[0]["outputs"] if ok_full else None,
        "outputs_identical": all(r["outputs"] == ok_full[0]["outputs"] for r in ok_full),
    }
    if trace and traced:
        details["traced_solve_s"] = [r["solve_s"] for r in traced]
        first = traced[0]
        expected = workloads.expected_calls(args.workload, details["params"],
                                            first["outputs"])
        details["coverage_problems"] = sorted(
            {p for r in traced for p in _coverage(r, expected)})
        details["solve_self_by_layer_s"] = first["solve_trace"]["self_by_layer_s"]
        details["setup_self_by_layer_s"] = first["setup_trace"]["self_by_layer_s"]
        details["purpose"] = _purpose(first["solve_trace"],
                                      workloads.WORKLOADS[args.workload].dominant)
    print(json.dumps(details))

    if trace:
        if not traced or not untraced:
            print("perfbench: no successful traced and untraced sample pair",
                  file=sys.stderr)
            return 1
        metrics = {}
        for name in traced[0]["layers"]:
            unit = "count" if not name.endswith("_s") else "s"
            metrics[name] = {"value": _median([r["layers"][name] for r in traced]),
                             "unit": unit}
        traced_solve = _median(details["traced_solve_s"])
        metrics["trace.solve_s"] = {"value": traced_solve, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": traced_solve - _median(details["solve_s"]), "unit": "s"}
    else:
        if not untraced:
            print("perfbench: no sample completed", file=sys.stderr)
            return 1
        metrics = {
            "setup_s": {"value": _median(details["setup_s"]), "unit": "s"},
            "solve_s": {"value": _median(details["solve_s"]), "unit": "s"},
            "peak_rss_mb": {"value": _median(details["peak_rss_mb"]), "unit": "MB"},
        }
    print(json.dumps({"correct": not failed, "attempted": len(children),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
