"""Command-line driver: load or generate a model, run a solver, emit a CSV
trace and a final summary."""

import argparse
import csv
import math
import sys

from .baselines import _msd_steps, _subgrad_steps
from .decomposition import build_monotonic_chains
from .errors import HomrfError
from .fileio import parse_model_file
from .generators import gen_potts_2x2, gen_stereo_second_order
from .model import energy
from .oracle import (
    STATE_SPACE_GUARD,
    _general_steps,
    check_ewta,
    check_j_consistency_enhanced,
    extract_primal,
)
from .trws import REUSE_MODES, _run_passes, _trws_steps, chain_state_tree_params


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
    p.add_argument("--reuse", choices=REUSE_MODES, default="after")
    p.add_argument("--lambda", dest="step_base", type=float, default=1.0, help="subgradient step base")
    p.add_argument("--node-order", default="input", help="'input' or a file with a node permutation")
    p.add_argument("--trace", help="write a CSV trace to this file")
    return p


def _read(path):
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise HomrfError(f"cannot read {path}: {exc}") from exc


def _load(args, parser):
    node_order = None
    if args.input:
        if args.separators is not None:
            parser.error("--separators applies only to generated instances")
        model, js, node_order = parse_model_file(_read(args.input))
    else:
        separators = args.separators or "singleton"
        try:
            if args.gen == "stereo":
                model, js = gen_stereo_second_order(
                    args.width,
                    args.height,
                    labels=8 if args.labels is None else args.labels,
                    smooth_weight=args.stereo_lambda,
                    seed=args.seed,
                    separators=separators,
                )
            else:
                model, js = gen_potts_2x2(
                    args.width,
                    args.height,
                    labels=4 if args.labels is None else args.labels,
                    block_weight=args.block_weight,
                    seed=args.seed,
                    separators=separators,
                    variant=args.potts_variant,
                )
        except ValueError as exc:
            parser.error(f"--gen {args.gen}: {exc}")
    if args.node_order != "input":
        try:
            node_order = tuple(int(tok) for tok in _read(args.node_order).split())
        except ValueError:
            raise HomrfError(f"{args.node_order}: node ids must be integers") from None
        if sorted(node_order) != list(range(model.node_count)):
            raise HomrfError(
                f"{args.node_order}: not a permutation of the {model.node_count} nodes"
            )
    return model, js, node_order


# method -> (state, pass step) for the shared pass/stop loop
_STEPS = {
    "trws": lambda decomp, args: _trws_steps(decomp, args.reuse),
    "trws-general": lambda decomp, args: _general_steps(decomp),
    "msd": lambda decomp, args: _msd_steps(decomp),
    "subgrad": lambda decomp, args: _subgrad_steps(decomp, args.step_base),
}


def _run(decomp, args):
    state, step = _STEPS[args.method](decomp, args)
    if args.method == "subgrad":
        # diminishing steps, no stop rule: run the budget, report the best bound
        rows, stop = _run_passes(step, args.passes, None, args.method)
        return rows, stop, state.best_params or state.params, state.best
    rows, stop = _run_passes(step, args.passes, args.eps, args.method)
    if args.method == "trws":
        primal_source = chain_state_tree_params(decomp, state)
    elif args.method == "msd":
        primal_source = state.tables
    else:
        primal_source = state
    return rows, stop, primal_source, rows[-1].bound


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
        rows, stop, primal_source, final_bound = _run(decomp, args)

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
        print(f"stopped: {stop}")
        print(f"primal energy: {primal:.9g}")

        per_tree = max(
            (
                math.prod(decomp.model.label_counts[v] for v in decomp.tree_nodes[t])
                for t in range(len(decomp.chains))
            ),
            default=1,
        )
        if args.method in ("trws", "trws-general") and per_tree <= STATE_SPACE_GUARD:
            report = check_ewta(decomp, primal_source)
            print(f"tree agreement: {'yes' if report.holds else 'no'}")
        elif args.method == "msd":
            report = check_j_consistency_enhanced(primal_source, decomp.jstructure)
            print(f"edge consistency: {'yes' if report.holds else 'no'}")
        return 0
    except (HomrfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


main = run_solver_cli


if __name__ == "__main__":
    sys.exit(main())
