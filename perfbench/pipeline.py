"""One instance's library pipeline and the CLI operation, with their checks.

The calls follow the CLI's order: parse_model_file -> build_monotonic_chains
-> chain_state_init -> TRW-S passes to the stop -> extract_primal -> oracle
checks.  Every failed check is recorded as a message; an instance or CLI
operation with any message counts as failed.
"""

import io
import math
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

from homrf import (
    bound,
    brute_force_map,
    build_monotonic_chains,
    chain_state_init,
    chain_state_tree_params,
    check_ewta,
    close_j,
    energy,
    extract_primal,
    parse_model_file,
    run_solver_cli,
    serialize_model,
    solve_msd,
    solve_subgradient,
    trws_chain_pass,
)
from tracing import Tracer
from workloads import EPS, REUSE

REL_TOL = 1e-9
CLI_PASSES = 2
MSD_PASSES = 500
SUBGRAD_PASSES = 50
SUBGRAD_STEP = 1.0


def close(a, b):
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


@dataclass
class Instance:
    """What one pipeline run measured and which of its checks failed."""

    index: int
    failures: list = field(default_factory=list)
    setup_s: float = 0.0
    solve_s: float = 0.0
    total_s: float = 0.0
    pass_s: list = field(default_factory=list)
    bounds: list = field(default_factory=list)
    meff: int = 0
    diag_cells: int = 0
    ops_last_pass: int = 0
    shape: dict = field(default_factory=dict)
    closed_edges: int = 0
    agree: bool = False
    exact: bool = False
    msd_meff: int = 0
    subgrad_meff: int = 0


def setup(text, tr):
    """Model text -> decomposition and fresh solver state (the set-up)."""
    with tr.span("fileio.parse"):
        model, js, order = parse_model_file(text)
    with tr.span("decomposition.build"):
        decomp = build_monotonic_chains(model, js, order)
    with tr.span("trws.init"):
        state = chain_state_init(decomp)
    return model, js, decomp, state


def solve(w, decomp, state, tr, res):
    """Alternate sweeps until the relative bound change drops to eps or the
    budget runs out, the stop rule of `solve_trws` and the CLI.  The traced
    run re-evaluates each pass's bound from the state and checks it."""
    prev = None
    for _ in range(w.passes):
        with tr.span("trws.pass"):
            t0 = time.perf_counter()
            phi = trws_chain_pass(decomp, state, reuse=REUSE)
            res.pass_s.append(time.perf_counter() - t0)
        res.bounds.append(phi)
        if tr.enabled:
            with tr.span("trws.bound", extra=True):
                again = bound(decomp, chain_state_tree_params(decomp, state))
            if not close(again, phi):
                res.failures.append(
                    f"pass {len(res.bounds)}: re-evaluated bound {again!r} != {phi!r}"
                )
        if prev is not None and abs(phi - prev) <= EPS * max(1.0, abs(phi)):
            break
        prev = phi


def check_trace(bounds, ref, failures):
    """Bound trace against its checked-in reference, and monotone from the
    second pass on."""
    if ref is None:
        failures.append("no reference bound trace")
    elif len(ref) != len(bounds):
        failures.append(f"bound trace has {len(bounds)} passes, reference {len(ref)}")
    else:
        bad = [k for k, (a, b) in enumerate(zip(bounds, ref)) if not close(a, b)]
        if bad:
            k = bad[0]
            failures.append(
                f"bound trace differs from reference at pass {k + 1}: {bounds[k]!r} vs {ref[k]!r}"
            )
    for k in range(1, len(bounds)):
        if bounds[k] < bounds[k - 1] - REL_TOL * max(1.0, abs(bounds[k - 1])):
            failures.append(f"bound decreased at pass {k + 1}")
            break


def run_instance(w, index, text, ref, tr):
    """The library pipeline on one instance, from model text to a checked
    answer."""
    res = Instance(index)
    fail = res.failures.append
    tr.instance = str(index)
    with tr.span("bench.pipeline"):
        t0 = time.perf_counter()
        model, js, decomp, state = setup(text, tr)
        res.setup_s = time.perf_counter() - t0
        if tr.enabled:
            with tr.span("model.close_j", extra=True):
                res.closed_edges = len(close_j(model.scopes, js.edges).closed_edges)

        with tr.span("bench.solve"):
            t1 = time.perf_counter()
            solve(w, decomp, state, tr, res)
            res.solve_s = time.perf_counter() - t1
        phi = res.bounds[-1]
        check_trace(res.bounds, ref, res.failures)

        with tr.span("oracle.extract_primal"):
            labeling = extract_primal(decomp, state)
        with tr.span("model.energy"):
            e = energy(decomp.model, labeling)
        if not math.isfinite(e):
            fail(f"rounded energy {e!r} is not finite")

        if w.oracle:
            with tr.span("trws.tree_params"):
                params = chain_state_tree_params(decomp, state)
            with tr.span("oracle.check_ewta"):
                res.agree = check_ewta(decomp, params).holds
            with tr.span("oracle.brute_force"):
                _, opt = brute_force_map(decomp.model)
            tol = REL_TOL * max(1.0, abs(opt))
            res.exact = abs(phi - opt) <= tol
            if phi > opt + tol:
                fail(f"TRW-S bound {phi!r} exceeds the optimum {opt!r}")
            if e < opt - tol:
                fail(f"rounded energy {e!r} is below the optimum {opt!r}")
            with tr.span("baselines.msd"):
                msd_bounds, msd_state = solve_msd(decomp, passes=MSD_PASSES, eps=EPS)
            res.msd_meff = msd_state.meff
            if msd_bounds[-1] > opt + tol:
                fail(f"diffusion bound {msd_bounds[-1]!r} exceeds the optimum {opt!r}")
            with tr.span("baselines.subgrad"):
                _, sg_state = solve_subgradient(decomp, SUBGRAD_STEP, passes=SUBGRAD_PASSES)
            res.subgrad_meff = sg_state.meff
            if sg_state.best > opt + tol:
                fail(f"subgradient bound {sg_state.best!r} exceeds the optimum {opt!r}")
        res.total_s = time.perf_counter() - t0

    res.meff = state.meff
    res.diag_cells = state.diag_cells
    res.ops_last_pass = state.msg_ops_last_pass
    res.shape = {
        "chains": len(decomp.chains),
        "separators": len(decomp.jstructure.separators),
        "message_edges": len(decomp.message_edges),
        "augmented_factors": len(decomp.augmented_factors),
        "max_table_cells": max(f.table.size for f in decomp.model.factors),
    }
    return res


def median_setup_s(w, text, first):
    """Median set-up time over the workload's repetitions, `first` included."""
    times = [first]
    for _ in range(w.setup_reps - 1):
        t0 = time.perf_counter()
        setup(text, Tracer(False))
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


@dataclass
class CliRun:
    """One CLI invocation: its exit code, its stderr, and its failed checks."""

    code: object
    stderr: str
    failures: list


def run_cli(model_path, expected_bound, tr):
    """One in-process CLI invocation on the serialized model file.  It must
    print the library's bound for the same pass count; the exit code is
    judged by the caller."""
    out, err = io.StringIO(), io.StringIO()
    argv = ["--input", str(model_path), "--passes", str(CLI_PASSES)]
    tr.instance = "cli"
    with tr.span("cli.run"):
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = run_solver_cli(argv)
        except SystemExit as exc:
            code = exc.code
    failures = []
    printed = [ln for ln in out.getvalue().splitlines() if ln.startswith("final bound:")]
    want = f"{expected_bound:.9g}"
    if not printed:
        failures.append("cli printed no final bound")
    elif printed[0].split(":", 1)[1].strip() != want:
        failures.append(f"cli {printed[0]!r} != library bound {want}")
    return CliRun(code, err.getvalue().strip(), failures)


def reference_trace(w, index):
    """Bound trace of one pool instance through the benchmark's own path."""
    off = Tracer(False)
    _, _, decomp, state = setup(serialize_model(*w.make(index)), off)
    res = Instance(index)
    solve(w, decomp, state, off, res)
    return res.bounds

