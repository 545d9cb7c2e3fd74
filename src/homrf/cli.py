"""Command-line driver: load or generate a model, run a solver, emit a CSV
trace and a final summary."""

import argparse
import csv
import math
import sys
import time

from .baselines import msd_init, msd_pass, msd_sweep_order, subgrad_init, subgradient_pass
from .decomposition import build_monotonic_chains
from .errors import HomrfError, TooLarge
from .fileio import parse_model_file
from .generators import gen_potts_2x2, gen_stereo_second_order
from .model import energy
from .oracle import (
    STATE_SPACE_GUARD,
    check_ewta,
    check_j_consistency_enhanced,
    extract_primal,
)
from .trws import (
    TraceRow,
    chain_state_init,
    chain_state_tree_params,
    init_tree_params,
    trws_chain_pass,
    trws_general_pass,
)


def build_parser():
    p = argparse.ArgumentParser(
        prog="homrf",
        description="Dual solvers for MAP inference in higher-order graphical models",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="model file in the HOMRF text format")
    src.add_argument("--gen", choices=["stereo", "potts2x2"], help="synthetic instance")
    p.add_argument("--width", type=int, default=6)
    p.add_argument("--height", type=int, default=6)
    p.add_argument("--labels", type=int, default=None)
    p.add_argument("--stereo-lambda", type=float, default=15.0, help="stereo smoothness weight")
    p.add_argument("--block-weight", type=float, default=5000.0, help="2x2 block disagreement cost")
    p.add_argument("--potts-variant", choices=["all-equal", "pairwise"], default="all-equal")
    p.add_argument("--separators", choices=["singleton", "pair"], default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--method", choices=["trws", "trws-general", "msd", "subgrad"], default="trws"
    )
    p.add_argument("--passes", type=int, default=500)
    p.add_argument("--eps", type=float, default=1e-7, help="relative per-pass stop threshold")
    p.add_argument("--reuse", choices=["none", "after", "before-after"], default="after")
    p.add_argument("--lambda", dest="step_base", type=float, default=1.0, help="subgradient step base")
    p.add_argument("--node-order", default="input", help="'input' or a file with a node permutation")
    p.add_argument("--trace", help="write a CSV trace to this file")
    return p


def _load(args, parser):
    node_order = None
    if args.input:
        if args.separators is not None:
            parser.error("--separators applies only to generated instances")
        try:
            with open(args.input) as fh:
                text = fh.read()
        except OSError as exc:
            raise HomrfError(f"cannot read {args.input}: {exc}") from exc
        model, js, node_order = parse_model_file(text)
    else:
        separators = args.separators or "singleton"
        if args.gen == "stereo":
            model, js = gen_stereo_second_order(
                args.width,
                args.height,
                labels=args.labels or 8,
                smooth_weight=args.stereo_lambda,
                seed=args.seed,
                separators=separators,
            )
        else:
            model, js = gen_potts_2x2(
                args.width,
                args.height,
                labels=args.labels or 4,
                block_weight=args.block_weight,
                seed=args.seed,
                separators=separators,
                variant=args.potts_variant,
            )
    if args.node_order != "input":
        try:
            with open(args.node_order) as fh:
                node_order = tuple(int(tok) for tok in fh.read().split())
        except OSError as exc:
            raise HomrfError(f"cannot read {args.node_order}: {exc}") from exc
    return model, js, node_order


def _run(decomp, args):
    rows = []
    prev = None

    def record(k, direction, phi, meff, t0):
        rows.append(
            TraceRow(k, direction, args.method, phi, meff, (time.perf_counter() - t0) * 1e3)
        )

    def stalled(phi):
        nonlocal prev
        done = prev is not None and abs(phi - prev) <= args.eps * max(1.0, abs(phi))
        prev = phi
        return done

    if args.method == "trws":
        state = chain_state_init(decomp)
        for k in range(args.passes):
            t0 = time.perf_counter()
            direction = state.direction
            phi = trws_chain_pass(decomp, state, reuse=args.reuse)
            record(k, direction, phi, state.meff, t0)
            if stalled(phi):
                break
        return rows, state, chain_state_tree_params(decomp, state), phi
    if args.method == "trws-general":
        params = init_tree_params(decomp)
        for k in range(args.passes):
            t0 = time.perf_counter()
            direction = "forward" if k % 2 == 0 else "backward"
            order = decomp.separator_order if k % 2 == 0 else tuple(reversed(decomp.separator_order))
            phi = trws_general_pass(decomp, params, order)
            record(k, direction, phi, params.cells, t0)
            if stalled(phi):
                break
        return rows, params, params, phi
    if args.method == "msd":
        state = msd_init(decomp.model)
        order = msd_sweep_order(decomp.jstructure, decomp.node_order)
        for k in range(args.passes):
            t0 = time.perf_counter()
            psi = msd_pass(decomp.model, decomp.jstructure, state, order)
            record(k, "forward", psi, state.meff, t0)
            if stalled(psi):
                break
        return rows, state, state.tables, psi
    # subgradient
    state = subgrad_init(decomp, args.step_base)
    for k in range(args.passes):
        t0 = time.perf_counter()
        phi = subgradient_pass(decomp, state)
        record(k, "forward", phi, state.meff, t0)
    return rows, state, state.best_params or state.params, state.best


def run_solver_cli(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    if not (math.isfinite(args.eps) and args.eps >= 0):
        parser.error("--eps must be a finite non-negative number")
    try:
        model, js, node_order = _load(args, parser)
        decomp = build_monotonic_chains(model, js, node_order)
        rows, state, primal_source, final_bound = _run(decomp, args)

        if args.trace:
            with open(args.trace, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["pass", "direction", "method", "bound", "meff", "ms"])
                for r in rows:
                    w.writerow(
                        [r.pass_index, r.direction, r.method, f"{r.bound:.12g}", r.meff, f"{r.ms:.3f}"]
                    )

        labeling = extract_primal(decomp, primal_source)
        primal = energy(decomp.model, labeling)
        print(f"final bound: {final_bound:.9g}")
        print(f"primal energy: {primal:.9g}")

        per_tree = max(
            (
                math.prod(decomp.model.label_counts[v] for v in decomp.tree_nodes[t])
                for t in range(len(decomp.chains))
            ),
            default=1,
        )
        if args.method in ("trws", "trws-general") and per_tree <= STATE_SPACE_GUARD:
            params = primal_source if args.method == "trws-general" else chain_state_tree_params(decomp, state)
            report = check_ewta(decomp, params)
            print(f"tree agreement: {'yes' if report.holds else 'no'}")
        elif args.method == "msd":
            report = check_j_consistency_enhanced(state.tables, decomp.jstructure)
            print(f"edge consistency: {'yes' if report.holds else 'no'}")
        return 0
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HomrfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


main = run_solver_cli


if __name__ == "__main__":
    sys.exit(main())
