"""Layer-by-layer benchmark for homrf.

    python3 perfbench/run.py --workload stereo-32 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout, single-process and single-threaded,
against the homrf sources in `src/`.  The seed picks a workload's inputs;
`--seconds` sizes its batch of instances.  The run prints a report line
(environment, instances, failures, pass-time percentiles with their sample
count) and, last, one JSON object: the end-to-end metrics with `--trace 0`,
the per-layer metrics from spans with `--trace 1`.  See README.md.
"""

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Pin native thread pools before numpy is first imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"


def parse_args(argv, names):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None):
    if not (SRC / "homrf" / "__init__.py").is_file():
        print(f"error: no homrf sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    import workloads

    args = parse_args(argv, sorted(workloads.WORKLOADS))
    w = workloads.WORKLOADS[args.workload]
    refs = harness.load_references(w)
    spans = HERE / "out" / f"spans-{w.name}-seed{args.seed}.jsonl"
    report, result = harness.run(w, args.seed, args.seconds, bool(args.trace), refs, spans)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
