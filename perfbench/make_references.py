"""Regenerate the checked-in reference bound traces.

    python3 perfbench/make_references.py [workload ...]

A reference holds the TRW-S bound trace of every pool instance of a
workload, computed through the benchmark's own path.  Every run checks its
traces against these to 1e-9 relative, so regenerate a file only with a
change that is meant to alter the bound trace, and say so.
"""

import json
import sys

from run import HERE, SRC

sys.path.insert(0, str(SRC))

from harness import reference_settings  # noqa: E402
from pipeline import reference_trace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def write(w, path):
    head = json.dumps({"workload": w.name, "settings": reference_settings(w)})[:-1]
    lines = [f'  "{i}": {json.dumps(reference_trace(w, i))}' for i in range(w.pool)]
    with open(path, "w") as fh:
        fh.write(head + ', "traces": {\n' + ",\n".join(lines) + "\n}}\n")


if __name__ == "__main__":
    for name in sys.argv[1:] or sorted(WORKLOADS):
        path = HERE / "references" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        write(WORKLOADS[name], path)
        print(f"wrote {path}")
