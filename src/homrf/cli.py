"""Command-line driver: load or generate a model, run a solver, emit a CSV
trace and a final summary."""

import argparse
import csv
import sys

from .baselines import DEFAULT_STEP_BASE, _msd_steps, _subgrad_steps
from .decomposition import build_monotonic_chains
from .errors import HomrfError, TooLarge
from .fileio import parse_model_file
from .generators import gen_potts_2x2, gen_stereo_second_order
from .model import energy
from .oracle import _general_steps, _guard, check_ewta, check_j_consistency_enhanced, extract_primal
from .trws import DEFAULT_EPS, DEFAULT_PASSES, DEFAULT_REUSE, REUSE_MODES
from .trws import _check_eps, _run_passes, _trws_steps, chain_state_tree_params

# --gen choice -> (generator, the keywords its flags set).  A flag left unset
# is not passed on, so it takes the generator's own default; the grid size,
# which the generators lack, takes `_GRID`.  A generator flag that the chosen
# source does not take is a usage error.
_GRID = {"width": 6, "height": 6}
_GENERATORS = {
    "stereo": (gen_stereo_second_order, (*_GRID, "labels", "smooth_weight", "seed", "separators")),
    "potts2x2": (gen_potts_2x2, (*_GRID, "labels", "block_weight", "variant", "seed", "separators")),
}
_GEN_KEYWORDS = {k for _, keywords in _GENERATORS.values() for k in keywords}


def build_parser():
    p = argparse.ArgumentParser(
        prog="homrf",
        description="Dual solvers for MAP inference in higher-order graphical models",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="model file in the HOMRF text format")
    src.add_argument("--gen", choices=list(_GENERATORS), help="synthetic instance")
    p.add_argument("--width", type=int)
    p.add_argument("--height", type=int)
    p.add_argument("--labels", type=int)
    p.add_argument(
        "--stereo-lambda", dest="smooth_weight", metavar="STEREO_LAMBDA", type=float,
        help="stereo smoothness weight",
    )
    p.add_argument("--block-weight", type=float, help="2x2 block disagreement cost")
    p.add_argument("--potts-variant", dest="variant", choices=["all-equal", "pairwise"])
    p.add_argument("--separators", choices=["singleton", "pair"])
    p.add_argument("--seed", type=int)
    p.add_argument("--method", choices=["trws", "trws-general", "msd", "subgrad"], default="trws")
    p.add_argument("--passes", type=int, default=DEFAULT_PASSES)
    p.add_argument("--eps", type=float, default=DEFAULT_EPS, help="relative per-pass stop threshold")
    p.add_argument("--reuse", choices=REUSE_MODES, default=DEFAULT_REUSE)
    p.add_argument(
        "--lambda", dest="step_base", type=float, default=DEFAULT_STEP_BASE,
        help="subgradient step base",
    )
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
    gen, keywords = _GENERATORS[args.gen] if args.gen else (None, ())
    for action in parser._actions:
        k = action.dest
        if k in _GEN_KEYWORDS and k not in keywords and getattr(args, k) is not None:
            source = f"--gen {args.gen}" if gen else "--input"
            parser.error(f"{action.option_strings[0]} does not apply to {source}")
    node_order = None
    if args.input:
        model, js, node_order = parse_model_file(_read(args.input))
    else:
        given = {k: getattr(args, k) for k in keywords if getattr(args, k) is not None}
        try:
            model, js = gen(**{**_GRID, **given})
        except ValueError as exc:
            parser.error(f"--gen {args.gen}: {exc}")
    if args.node_order != "input":
        try:
            node_order = tuple(int(tok) for tok in _read(args.node_order).split())
        except ValueError:
            raise HomrfError(f"{args.node_order}: node ids must be integers") from None
        if sorted(node_order) != list(range(model.node_count)):
            raise HomrfError(f"{args.node_order}: not a permutation of the {model.node_count} nodes")
    return model, js, node_order


def _write_trace(path, rows):
    try:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["pass", "direction", "method", "bound", "meff", "ms"])
            w.writerows(
                [r.pass_index, r.direction, r.method, f"{r.bound:.12g}", r.meff, f"{r.ms:.3f}"]
                for r in rows
            )
    except OSError as exc:
        raise HomrfError(f"cannot write --trace {path}: {exc}") from exc


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
    return rows, stop, state.tables if args.method == "msd" else state, rows[-1].bound


def run_solver_cli(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    try:
        _check_eps(args.eps)
    except ValueError:
        parser.error("--eps must be a finite non-negative number")
    try:
        model, js, node_order = _load(args, parser)
        decomp = build_monotonic_chains(model, js, node_order)
        rows, stop, primal_source, final_bound = _run(decomp, args)

        if args.trace:
            _write_trace(args.trace, rows)

        labeling = extract_primal(decomp, primal_source)
        primal = energy(decomp.model, labeling)
        print(f"final bound: {final_bound:.9g}")
        print(f"stopped: {stop}")
        print(f"primal energy: {primal:.9g}")

        if args.method == "msd":
            report = check_j_consistency_enhanced(primal_source, decomp.jstructure)
            print(f"edge consistency: {'yes' if report.holds else 'no'}")
        elif args.method != "subgrad":
            try:  # the check enumerates every chain's joint states
                for nodes in decomp.tree_nodes:
                    _guard(decomp.model.label_counts, nodes, "tree agreement")
            except TooLarge:
                return 0
            if args.method == "trws":
                primal_source = chain_state_tree_params(decomp, primal_source)
            report = check_ewta(decomp, primal_source)
            print(f"tree agreement: {'yes' if report.holds else 'no'}")
        return 0
    except (HomrfError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


main = run_solver_cli


if __name__ == "__main__":
    sys.exit(main())
