"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload paper_bulyan --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of alternating untraced and traced passes.  Before the result the
run prints its provenance (workload, seed, code revision, host fingerprint)
and its details as JSON lines, and writes all three to
``.perfbench/<workload>-seed<seed>-trace<0|1>.json``.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 when every correctness check passed, 1 when one failed (the
result then carries no metrics) and 2 when the simulator's sources are not
next to the benchmark.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    measure = harness.measure_traced if args.trace else harness.measure
    metrics, details, problems = measure(workload, args.seed, args.seconds)
    units = (
        {name: spec[0] for name, spec in harness.PER_LAYER.items()}
        if args.trace else {name: spec[0] for name, spec in harness.END_TO_END.items()}
    )
    result = {
        "correct": not problems,
        "attempted": details["attempted"],
        "failed": details["failed"] if not problems else details["attempted"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}
        if not problems else {},
    }
    record = {
        "provenance": harness.provenance(ROOT, workload.name, args.seed, bool(args.trace)),
        "details": dict(details, problems=problems),
    }
    out = ROOT / ".perfbench" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(dict(record, result=result), indent=2) + "\n")
    for problem in problems:
        print(f"perfbench: correctness check failed: {problem}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps({"details": record["details"]}))
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
