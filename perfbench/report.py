"""Per-layer report: each layer's self time as a share of the untraced wall time.

    python3 perfbench/report.py --seed 1 > perfbench/REPORT.md

Runs ``run.py --trace 1`` for every workload, each in its own process, and
prints a Markdown table per workload.  The shares are of the untraced pass;
they add up to 100% plus the tracing overhead, which is stated beside them
both as measured (traced minus untraced pass, noisy on a shared machine)
and as calibrated (span count times the measured cost of one span).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracing import SELF_TIME_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    machine = next(line[len("machine "):] for line in lines
                   if line.startswith("machine "))
    return json.loads(machine), json.loads(lines[-1])


# layers that run inside fastive.extractor.extract
EXTRACT_LAYERS = [k for k in SELF_TIME_METRICS
                  if k.split(".")[0] in ("stft", "whitening", "priors", "extractor")]


def table(workload, result):
    m = {k: v["value"] for k, v in result["metrics"].items()}
    untraced = m["trace.untraced_ms"]
    rows = sorted(((m[k], k) for k in SELF_TIME_METRICS if m[k] > 0), reverse=True)
    inside = sum(m[k] for k in EXTRACT_LAYERS)
    top = max(EXTRACT_LAYERS, key=m.get)
    out = [f"## {workload}", "",
           "| layer (self time) | ms | share of untraced wall |",
           "| --- | ---: | ---: |"]
    out += [f"| `{k}` | {v:.1f} | {100 * v / untraced:.1f}% |" for v, k in rows]
    total = sum(v for v, _ in rows)
    out += [f"| **sum = traced wall** | {total:.1f} | {100 * total / untraced:.1f}% |",
            "",
            f"- untraced pass {untraced:.1f} ms, traced pass "
            f"{m['trace.traced_ms']:.1f} ms: measured overhead "
            f"{m['trace.overhead_pct']:+.1f}%; calibrated span cost "
            f"{m['trace.span_cost_ms']:.2f} ms "
            f"({100 * m['trace.span_cost_ms'] / untraced:.3f}%)",
            f"- dominant layer: `{rows[0][1]}` at {100 * rows[0][0] / untraced:.0f}% "
            "of the untraced wall time",
            f"- inside extract calls ({inside:.1f} ms of self time): `{top}` "
            f"takes {100 * m[top] / inside:.0f}%",
            f"- counts: {m['extractor.iterations']} solver iterations, "
            f"{m['priors.calls']} prior calls, {m['metrics.decompose_calls']} "
            f"decompositions, {m['cli.trial_errors']} trial errors; converged share "
            f"{m['extractor.converged_share']:.2f}",
            f"- per iteration {m['extractor.iter_ms']:.2f} ms; package "
            f"`runtime_seconds` median {m['extractor.runtime_seconds_ms']:.1f} ms",
            f"- correct: {result['correct']}, attempted {result['attempted']}, "
            f"failed {result['failed']}",
            ""]
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    lines = ["# Per-layer report", "",
             f"One traced pass per workload, seed {args.seed}; regenerate with "
             "`python3 perfbench/report.py`.", ""]
    machine = None
    for workload in WORKLOADS:
        machine, result = traced(workload, args.seed)
        lines += table(workload, result)
    lines += [f"Machine: `{json.dumps(machine)}`"]
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
