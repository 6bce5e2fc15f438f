"""One benchmark sample: set up and (unless --setup-only) solve one workload.

Run by `run.py` in a fresh process per sample, so every sample pays plan
construction and reports its own peak memory, as a CLI run would.  Prints
one JSON object on stdout: timings, peak RSS, the workload checks that
failed, the numeric outputs and, with --trace 1, the per-layer metrics and
the coverage facts of the traced solve.

`setup_s` counts from the start of this module, before `subwave` (and with
it NumPy and SciPy) is imported: a CLI run pays those imports, and work that
a change moves to import time shows there.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse
import json
import resource
import traceback

import tracing
import workloads


def sample(workload: str, seed: int, trace: bool, setup_only: bool,
           started: float | None = None) -> dict:
    """One sample; set-up time counts from `started` (default: now)."""
    t0 = time.perf_counter() if started is None else started
    w = workloads.WORKLOADS[workload]
    p = workloads.params(workload, seed)
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        if tracer is not None:
            with tracer.span("setup"):
                state = w.setup(p)
        else:
            state = w.setup(p)
        t1 = time.perf_counter()
        result = {"params": p, "setup_s": t1 - t0, "failures": []}
        if setup_only:
            return result
        if tracer is not None:
            with tracer.span("solve"):
                out = w.solve(state)
        else:
            out = w.solve(state)
        result["solve_s"] = time.perf_counter() - t1
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["outputs"] = out
    result["failures"] = w.check(out)
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, out.get("iterations", 0))
        result["solve_trace"] = tracing.phase_report(tracer.spans, "solve")
        result["setup_trace"] = tracing.phase_report(tracer.spans, "setup")
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    try:
        result = sample(args.workload, args.seed, bool(args.trace), args.setup_only,
                        started=STARTED)
    except Exception:
        result = {"failures": ["error: " + traceback.format_exc(limit=-3)]}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
