"""fastive benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload extract-m6-3s --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; fastive is imported from its ``src/``.
``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs
one untraced and one traced pass of fixed work and reports per-layer
metrics.  Human-readable lines come first; the last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Traces are written to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# end-to-end metrics of an untraced run, in report order
END_TO_END = {
    "setup_s": "s",
    "extract_ms": "ms",
    "audio_xrt": "s/s",
    "trials_per_s": "1/s",
    "sirimp_db": "dB",
    "success_rate": "ratio",
    "error_rate": "ratio",
    "peak_rss_mb": "MB",
}
# printed but not in the JSON line: zero on a healthy run, and already
# carried there by "failed" / "attempted"
UNGATED = ("error_rate",)

PER_LAYER = {
    "stft.analyze_ms": "ms",
    "stft.synthesize_ms": "ms",
    "whitening.estimate_covariance_ms": "ms",
    "whitening.build_whitener_ms": "ms",
    "whitening.apply_whitener_ms": "ms",
    "priors.calls": "count",
    "priors.contrast_ms": "ms",
    "extractor.solve_ms": "ms",
    "extractor.iterations": "count",
    "extractor.iter_ms": "ms",
    "extractor.converged_share": "ratio",
    "extractor.rescale_ms": "ms",
    "extractor.extract_self_ms": "ms",
    "extractor.runtime_seconds_ms": "ms",
    "roomsim.compute_rirs_ms": "ms",
    "roomsim.render_ms": "ms",
    "roomsim.sources_ms": "ms",
    "metrics.evaluate_ms": "ms",
    "metrics.decompose_ms": "ms",
    "metrics.decompose_calls": "count",
    "cli.run_grid_self_ms": "ms",
    "cli.trial_errors": "count",
    "bench.self_ms": "ms",
    "trace.untraced_ms": "ms",
    "trace.traced_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.span_cost_ms": "ms",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="extract or sweep time to measure in an untraced run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_table(values, units, notes):
    for name, unit in units.items():
        print(f"  {name:<34} {values[name]:>16.6g} {unit:<6} {notes.get(name, '')}")


def run_untraced(workloads, wl, args, import_s):
    if isinstance(wl, workloads.GridWorkload):
        summary = workloads.measure_grid(wl, args.seed, args.seconds, OUT / args.workload)
        count_note = f"median of {summary['calls']} calls in {summary['sweeps']} sweep(s)"
    else:
        summary = workloads.measure_extract(wl, args.seed, args.seconds)
        count_note = (f"per-scene median, mean over {summary['scenes']} scenes; "
                      f"{summary['calls']} calls")
    if "extract_ms" not in summary:
        raise RuntimeError("no operation succeeded; nothing to report")
    values = {
        **{k: summary[k] for k in END_TO_END if k in summary},
        "setup_s": import_s + summary["setup_s"],
        "error_rate": summary["failed"] / summary["attempted"],
        "peak_rss_mb": peak_rss_mb(),
    }
    notes = {
        "setup_s": f"import {import_s:.3f} s + input build {summary['setup_s']:.3f} s",
        "extract_ms": count_note,
        "error_rate": f"{summary['failed']} of {summary['attempted']} failed",
    }
    for line in summary.get("lines", ()):
        print("  " + line)
    print_table(values, END_TO_END, notes)
    metrics = {k: {"value": values[k], "unit": u}
               for k, u in END_TO_END.items() if k not in UNGATED}
    correct = summary["failed"] == 0
    return correct, summary["attempted"], summary["failed"], metrics


def run_traced(workloads, wl, args, info):
    values, spans, attempted, failed, same = workloads.trace_run(
        wl, args.seed, OUT / args.workload)
    print_table(values, PER_LAYER, {})
    if not same:
        print("perfbench: traced results differ from untraced results",
              file=sys.stderr)
    OUT.mkdir(parents=True, exist_ok=True)
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with open(trace_path, "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "machine": info,
                   "metrics": values, "spans": spans}, f)
    print(f"spans: {len(spans)} written to {trace_path}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
    return same and failed == 0, attempted, failed, metrics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fastive" / "__init__.py").is_file():
        print(f"perfbench: no fastive package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import workloads  # imports numpy, scipy and fastive
    import_s = time.perf_counter() - start
    import machine

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    info = machine.machine_info(ROOT)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("machine " + json.dumps(info))
    if args.trace:
        correct, attempted, failed, metrics = run_traced(workloads, wl, args, info)
    else:
        correct, attempted, failed, metrics = run_untraced(workloads, wl, args, import_s)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
