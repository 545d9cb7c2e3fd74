"""One benchmark run: a workload's batch of instances plus one CLI call,
their checks, and the metrics.

An untraced run reports the end-to-end metrics.  A traced run records spans
around every call into homrf and reports the per-layer metrics; it also runs
each instance once untraced so that the tracing overhead is measured on the
same inputs.
"""

import json
import os
import platform
import resource
import statistics
import tempfile
import traceback
from dataclasses import asdict
from pathlib import Path

import numpy as np

from homrf import serialize_model
from pipeline import (
    CLI_PASSES,
    MSD_PASSES,
    SUBGRAD_PASSES,
    SUBGRAD_STEP,
    Instance,
    median_setup_s,
    run_cli,
    run_instance,
)
from tracing import Tracer
from workloads import EPS, REUSE

HERE = Path(__file__).resolve().parent

# Every end-to-end metric with its unit.  A run prints them all in its report;
# the result line carries the GATED ones, which BENCHMARK.json bounds.  The
# pass-time percentiles stay ungated: their run-to-run spread on nested-mix
# reached the largest bound allowed (see README.md).
END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "pass_ms.p50": "ms",
    "pass_ms.p90": "ms",
    "total_s": "s",
    "passes": "count",
    "peak_rss_mb": "MB",
    "fail_rate": "ratio",
    "ok_rate": "ratio",
}
GATED = ("setup_s", "solve_s", "total_s", "passes", "peak_rss_mb", "ok_rate")

LAYERS = ("generators", "fileio", "model", "decomposition", "trws", "oracle", "baselines", "cli", "bench")

# Per-layer metric -> (unit, the end-to-end metric and workload it should move).
PER_LAYER = {
    "generators.gen_s": ("s", "none: outside setup_s, shows generator work"),
    "fileio.parse_s": ("s", "setup_s on stereo-32"),
    "fileio.model_bytes": ("bytes", "setup_s on stereo-32"),
    "model.close_j_s": ("s", "setup_s; a separate close_j call on the parsed scopes and edges"),
    "model.closed_edges": ("count", "setup_s"),
    "decomposition.build_s": ("s", "setup_s: most on stereo-32, some on potts-32, none on nested-mix"),
    "decomposition.chains": ("count", "shape of the work behind setup_s and solve_s"),
    "decomposition.separators": ("count", "shape of the work behind setup_s and solve_s"),
    "decomposition.message_edges": ("count", "shape of the work behind solve_s"),
    "decomposition.augmented_factors": ("count", "shape of the work behind setup_s"),
    "decomposition.max_table_cells": ("cells", "shape of the work behind solve_s"),
    "trws.init_s": ("s", "setup_s"),
    "trws.pass_s": ("s", "solve_s and pass_ms.p50 on all workloads"),
    "trws.bound_s": ("s", "solve_s: most on stereo-32, least on potts-32"),
    "trws.msg_s": ("s", "derived as trws.pass_s - trws.bound_s; solve_s, most on potts-32"),
    "trws.meff": ("cells", "work saved, told apart from wall-clock gains"),
    "trws.diag_cells": ("cells", "bound work saved, told apart from wall-clock gains"),
    "trws.msg_op_ratio": ("ratio", "base: message edges; message operations in the last pass per edge"),
    "oracle.extract_primal_s": ("s", "total_s"),
    "oracle.check_ewta_s": ("s", "total_s on nested-mix"),
    "oracle.brute_force_s": ("s", "total_s on nested-mix"),
    "oracle.agree_ratio": ("ratio", "base: oracle instances (nested-mix); chains agree"),
    "oracle.exact_ratio": ("ratio", "base: oracle instances (nested-mix); bound equals the optimum"),
    "baselines.msd_s": ("s", "total_s on nested-mix only"),
    "baselines.msd_meff": ("cells", "total_s on nested-mix only"),
    "baselines.subgrad_s": ("s", "total_s on nested-mix only"),
    "baselines.subgrad_meff": ("cells", "total_s on nested-mix only"),
    "cli.run_s": ("s", "ok_rate"),
    "cli.exit_nonzero": ("count", "ok_rate"),
    **{f"{layer}.self_s": ("s", "self time of the layer's spans") for layer in LAYERS},
    "trace.overhead_s": ("s", "traced total_s minus untraced total_s, re-evaluations left out"),
}


def environment():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_THREADS")},
    }


def load_references(w):
    """Checked-in bound traces by pool index; empty when the file is missing
    or was made with other settings, so every trace check then fails."""
    try:
        with open(HERE / "references" / f"{w.name}.json") as fh:
            data = json.load(fh)
    except OSError:
        return {}
    if data.get("settings") != reference_settings(w):
        return {}
    return {int(k): v for k, v in data["traces"].items()}


def reference_settings(w):
    return {
        "generator": w.generator,
        "params": w.params,
        "passes": w.passes,
        "eps": EPS,
        "reuse": REUSE,
    }


def _instance(w, index, refs, tr, traced, twin_first):
    """Generate, serialize and solve one pool instance; any exception makes
    the operation failed rather than ending the run.  A traced run also runs
    an untraced twin, before or after the traced one as `twin_first` says."""
    try:
        tr.instance = str(index)
        with tr.span("generators.gen"):
            model, js = w.make(index)
        with tr.span("fileio.serialize"):
            text = serialize_model(model, js)
        del model, js
        ref = refs.get(index)
        if not traced:
            res = run_instance(w, index, text, ref, tr)
            if w.setup_reps > 1:
                # total_s counts the median set-up too, so that one slow
                # set-up does not skew it.
                setup_s = median_setup_s(w, text, res.setup_s)
                res.total_s += setup_s - res.setup_s
                res.setup_s = setup_s
            return res, None, text
        if twin_first:
            twin = run_instance(w, index, text, ref, Tracer(False))
        res = run_instance(w, index, text, ref, tr)
        if not twin_first:
            twin = run_instance(w, index, text, ref, Tracer(False))
        res.failures += [f for f in twin.failures if f not in res.failures]
        return res, twin, text
    except Exception:
        return Instance(index, failures=[traceback.format_exc(limit=-3)]), None, None


def run(w, seed, seconds, traced, refs, spans_path=None):
    """Run one workload batch; returns (report, result) as JSON-ready dicts."""
    ids = w.pick(seed, seconds)
    tr = Tracer(traced)
    instances, twins, first_text = [], [], None
    model_bytes = 0
    for k, index in enumerate(ids):
        # Alternate the twin's order, across the batch and across seeds, so
        # warm caches favour neither side.
        twin_first = (seed + k) % 2 == 0
        res, twin, text = _instance(w, index, refs, tr, traced, twin_first)
        instances.append(res)
        twins.append(twin)
        if text is not None:
            model_bytes += len(text.encode())
            first_text = first_text or text

    lib = instances[0].bounds
    try:
        if not lib:
            raise RuntimeError("the first instance produced no bound for the CLI to match")
        # The model file stays inside the checkout, under the ignored out/.
        (HERE / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
            path = Path(tmp) / "model.txt"
            path.write_text(first_text)
            cli = run_cli(path, lib[min(CLI_PASSES, len(lib)) - 1], tr)
        cli_ok = cli.code == 0 and not cli.failures
        cli_checks = cli.failures
    except Exception:
        cli, cli_ok, cli_checks = None, False, [traceback.format_exc(limit=-3)]

    attempted = len(instances) + 1
    failed = sum(1 for r in instances if r.failures) + (0 if cli_ok else 1)
    correct = not any(r.failures for r in instances) and not cli_checks

    report = {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "instances": ids,
        "workload_params": {k: v for k, v in asdict(w).items() if k not in ("name", "why")}
        | {
            "eps": EPS,
            "reuse": REUSE,
            "cli_passes": CLI_PASSES,
            "msd_passes": MSD_PASSES,
            "subgrad_passes": SUBGRAD_PASSES,
            "subgrad_step": SUBGRAD_STEP,
        },
        "env": environment(),
        "cli": {"exit": cli.code, "stderr": cli.stderr} if cli else None,
        "failures": {str(r.index): r.failures for r in instances if r.failures}
        | ({"cli": cli_checks} if cli_checks else {}),
    }

    if traced:
        values = _per_layer(w, tr, instances, twins, model_bytes, cli)
        report["targets"] = {name: target for name, (_, target) in PER_LAYER.items()}
        report["spans"] = len(tr.spans)
        if spans_path is not None:
            spans_path.parent.mkdir(parents=True, exist_ok=True)
            tr.write(spans_path)
            report["spans_file"] = str(spans_path)
        metrics = {n: {"value": values[n], "unit": PER_LAYER[n][0]} for n in PER_LAYER}
    else:
        pass_ms = [1e3 * t for r in instances for t in r.pass_s]
        values = {
            "setup_s": sum(r.setup_s for r in instances),
            "solve_s": sum(r.solve_s for r in instances),
            "pass_ms.p50": statistics.median(pass_ms) if pass_ms else 0.0,
            "total_s": sum(r.total_s for r in instances),
            "passes": len(pass_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "fail_rate": failed / attempted,
            "ok_rate": (attempted - failed) / attempted,
        }
        if len(pass_ms) >= 100:
            values["pass_ms.p90"] = statistics.quantiles(pass_ms, n=10)[-1]
        report["end_to_end"] = {
            n: {"value": values[n], "unit": u} for n, u in END_TO_END.items() if n in values
        }
        report["pass_ms_samples"] = len(pass_ms)
        metrics = {n: report["end_to_end"][n] for n in GATED}

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return report, result


def _ratio(num, den):
    return num / den if den else 0.0


def _per_layer(w, tr, instances, twins, model_bytes, cli):
    def shape(key):
        return [r.shape.get(key, 0) for r in instances]

    oracle_base = len(instances) if w.oracle else 0
    pass_s, bound_s = tr.total("trws.pass"), tr.total("trws.bound")
    extra_s = bound_s + tr.total("model.close_j")
    traced_total = sum(r.total_s for r in instances) - extra_s
    untraced_total = sum(t.total_s for t in twins if t is not None)
    self_times = tr.self_times()
    return {
        "generators.gen_s": tr.total("generators.gen"),
        "fileio.parse_s": tr.total("fileio.parse"),
        "fileio.model_bytes": model_bytes,
        "model.close_j_s": tr.total("model.close_j"),
        "model.closed_edges": sum(r.closed_edges for r in instances),
        "decomposition.build_s": tr.total("decomposition.build"),
        "decomposition.chains": sum(shape("chains")),
        "decomposition.separators": sum(shape("separators")),
        "decomposition.message_edges": sum(shape("message_edges")),
        "decomposition.augmented_factors": sum(shape("augmented_factors")),
        "decomposition.max_table_cells": max(shape("max_table_cells"), default=0),
        "trws.init_s": tr.total("trws.init"),
        "trws.pass_s": pass_s,
        "trws.bound_s": bound_s,
        "trws.msg_s": pass_s - bound_s,
        "trws.meff": sum(r.meff for r in instances),
        "trws.diag_cells": sum(r.diag_cells for r in instances),
        "trws.msg_op_ratio": _ratio(
            sum(r.ops_last_pass for r in instances), sum(shape("message_edges"))
        ),
        "oracle.extract_primal_s": tr.total("oracle.extract_primal"),
        "oracle.check_ewta_s": tr.total("oracle.check_ewta"),
        "oracle.brute_force_s": tr.total("oracle.brute_force"),
        "oracle.agree_ratio": _ratio(sum(r.agree for r in instances), oracle_base),
        "oracle.exact_ratio": _ratio(sum(r.exact for r in instances), oracle_base),
        "baselines.msd_s": tr.total("baselines.msd"),
        "baselines.msd_meff": sum(r.msd_meff for r in instances),
        "baselines.subgrad_s": tr.total("baselines.subgrad"),
        "baselines.subgrad_meff": sum(r.subgrad_meff for r in instances),
        "cli.run_s": tr.total("cli.run"),
        "cli.exit_nonzero": int(cli is None or cli.code != 0),
        **{f"{layer}.self_s": self_times.get(layer, 0.0) for layer in LAYERS},
        "trace.overhead_s": traced_total - untraced_total,
    }
