"""Command-line interface.

Subcommands: ``gen`` (write synthetic data), ``fit`` (train one filter),
``apply`` (estimate one position), ``eval`` (score stored models, one per
order, and baselines on stored data), ``bench`` (full generate/fit/evaluate
pipeline), ``epsnet`` (greedy center selection). ``eval`` and ``bench`` score
and diagnose through the same ``bench.evaluate``. Exit codes: 0 success,
1 user error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .analysis import greedy_eps_net, load_bound_constants
from .bench import (
    ExperimentConfig,
    RunReport,
    config_to_dict,
    evaluate,
    gen_observations,
    gen_reference_sequence,
    lag_specs,
    load_config,
    node_training_set,
    nodes_for,
    run_benchmark,
    validate_config,
    write_report,
)
from .exceptions import IfltError, NumericalError, ParseError
from .interp import (
    FilterContext,
    FilterModel,
    apply_filter,
    fit,
    load_model,
    save_model,
)
from .ortho import window
from .sigio import (
    ManifestSequence,
    load_sequence,
    save_sequence,
    write_ensemble_bin,
    write_ensemble_csv,
)


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 instead of argparse's default 2
        raise _UsageError(self, message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="iflt", description=__doc__)
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    def common(p):
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--seed", type=int, help="override the config seed")

    def rls_flags(p):
        p.add_argument("--rls-lambda", type=float, dest="rls_lambda",
                       help="override the RLS forgetting factor")
        p.add_argument("--rls-delta", type=float, dest="rls_delta",
                       help="override the RLS prior scale")

    p_gen = sub.add_parser("gen", help="generate synthetic reference/observation data")
    common(p_gen)
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--format", choices=("bin", "csv"), default="bin")

    p_fit = sub.add_parser("fit", help="fit an interpolation filter from stored data")
    common(p_fit)
    p_fit.add_argument("--refs", required=True, help="reference sequence manifest")
    p_fit.add_argument("--obs", required=True, help="observation sequence manifest")
    p_fit.add_argument("--p", type=int, required=True, help="filter order")
    p_fit.add_argument("--out", required=True, help="model JSON path")

    p_apply = sub.add_parser("apply", help="apply a stored model at one position")
    p_apply.add_argument("--model", required=True)
    p_apply.add_argument("--obs", required=True, help="observation sequence manifest")
    p_apply.add_argument("--index", type=int, required=True, help="1-based position")
    p_apply.add_argument("--out", required=True, help="estimate output file")
    p_apply.add_argument("--format", choices=("bin", "csv"), default="bin")
    p_apply.add_argument("--fixed-r", action="store_true",
                         help="replay fit-time deflation matrices")

    p_eval = sub.add_parser("eval", help="score stored models (and baselines) on stored data")
    common(p_eval)
    p_eval.add_argument("--refs", required=True)
    p_eval.add_argument("--obs", required=True)
    p_eval.add_argument("--model", action="append", default=[],
                        help="model JSON path (repeatable)")
    p_eval.add_argument("--baselines", action="store_true",
                        help="also score per-signal Wiener and RLS filters")
    p_eval.add_argument("--out", required=True, help="output directory")
    rls_flags(p_eval)

    p_bench = sub.add_parser("bench", help="run the full benchmark pipeline")
    common(p_bench)
    p_bench.add_argument("--out", required=True, help="output directory")
    p_bench.add_argument("--probe-constants", action="store_true",
                         help="probe bound constants (reported as lower bounds)")
    p_bench.add_argument("--bound-constants", metavar="FILE",
                         help="JSON file of bound constants to use instead of probes")
    rls_flags(p_bench)

    p_net = sub.add_parser("epsnet", help="greedy center selection over a sequence")
    p_net.add_argument("--data", required=True, help="sequence manifest")
    p_net.add_argument("--eps", type=float, required=True,
                       help="squared covering radius")
    p_net.add_argument("--out", required=True, help="output JSON path")
    return parser


def _load_cfg(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if getattr(args, "seed", None) is not None:
        cfg = replace(cfg, seed=args.seed)
    if getattr(args, "rls_lambda", None) is not None:
        cfg = replace(cfg, rls_forgetting=args.rls_lambda)
    if getattr(args, "rls_delta", None) is not None:
        cfg = replace(cfg, rls_delta=args.rls_delta)
    validate_config(cfg)
    return cfg


def _cmd_gen(args) -> int:
    cfg = _load_cfg(args)
    xs = gen_reference_sequence(cfg)
    ys = gen_observations(xs, cfg)
    refs = save_sequence(args.out, "refs", xs, args.format)
    obs = save_sequence(args.out, "obs", ys, args.format)
    config = json.dumps(config_to_dict(cfg), indent=2, sort_keys=True)
    (Path(args.out) / "config.json").write_text(config + "\n")
    print(f"wrote {refs}")
    print(f"wrote {obs}")
    return 0


def _read_windows(seq: ManifestSequence, q_specs, positions) -> None:
    """Read every ensemble ``ortho.window`` reads at ``positions``, up front.

    The library calls that follow then do no file I/O, so what they spend is
    compute only.
    """
    for i in positions:
        window(seq, q_specs, i)


def _cmd_fit(args) -> int:
    cfg = _load_cfg(args)
    if not 1 <= args.p <= len(cfg.s_indices):
        raise IfltError(f"--p {args.p} out of range [1, {len(cfg.s_indices)}]: "
                        "an order-p filter trains on the first p s_indices")
    xs = ManifestSequence(args.refs)
    ys = ManifestSequence(args.obs)
    q_specs = lag_specs(args.p)
    train = node_training_set(xs, ys, nodes_for(cfg, args.p), "s_indices")
    _read_windows(ys, q_specs, train.s_y_indices)
    model = fit(train, q_specs, residual_tol=cfg.residual_tol)
    Path(args.out).write_bytes(save_model(model))
    print(f"wrote {args.out}")
    return 0


def _read_model(path) -> FilterModel:
    try:
        return load_model(Path(path).read_bytes())
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _cmd_apply(args) -> int:
    model = _read_model(args.model)
    ys = ManifestSequence(args.obs)
    if not 1 <= args.index <= len(ys):
        raise IfltError(f"--index {args.index} out of range [1, {len(ys)}]")
    i = args.index - 1
    _read_windows(ys, model.q_specs, [i])
    estimate = apply_filter(model, FilterContext(ys), i, fixed_r=args.fixed_r)
    if args.format == "bin":
        write_ensemble_bin(args.out, estimate)
    else:
        write_ensemble_csv(args.out, estimate)
    print(f"wrote {args.out}")
    return 0


def _evaluate(cfg, xs, ys, models, with_baselines: bool, names) -> RunReport:
    """Score the loaded models, keyed ``interp_p<p>``, as ``bench`` scores its own."""
    return evaluate(replace(cfg, include_baselines=with_baselines), xs, ys,
                    {f"interp_p{m.p}": m for m in models}, names=names)


def _cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    models = [_read_model(p) for p in args.model]
    orders = [model.p for model in models]
    for j, p in enumerate(orders):
        if orders.index(p) < j:
            raise IfltError(f"--model {args.model[orders.index(p)]} and {args.model[j]} "
                            f"are both interp_p{p}")
    if not models and not args.baselines:
        raise IfltError("nothing to evaluate: pass --model and/or --baselines")
    xs = load_sequence(args.refs)
    ys = load_sequence(args.obs)
    report = _evaluate(cfg, xs, ys, models, args.baselines,
                       (f"--refs {args.refs}", f"--obs {args.obs}"))
    paths = write_report(report, args.out)
    for path in paths.values():
        print(f"wrote {path}")
    return 0


def _cmd_bench(args) -> int:
    cfg = _load_cfg(args)
    if args.probe_constants:
        cfg = replace(cfg, probe_constants=True)
    constants = load_bound_constants(args.bound_constants) if args.bound_constants else None
    report = run_benchmark(cfg, bound_constants=constants)
    paths = write_report(report, args.out)
    out = Path(args.out)
    for method, model in report.models.items():
        model_path = out / f"model_{method}.json"
        model_path.write_bytes(save_model(model))
        paths[method] = model_path
    for path in paths.values():
        print(f"wrote {path}")
    return 0


def _cmd_epsnet(args) -> int:
    if not 0.0 < args.eps < float("inf"):  # nan fails both; 1e400 reads as inf
        raise IfltError(f"--eps must be positive and finite, got {args.eps}")
    seq = load_sequence(args.data)
    net = greedy_eps_net(seq.items, args.eps)
    doc = {"eps": args.eps, "achieved_eps": net.achieved_eps,
           "center_positions": [i + 1 for i in net.center_indices]}
    Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "fit": _cmd_fit,
    "apply": _cmd_apply,
    "eval": _cmd_eval,
    "bench": _cmd_bench,
    "epsnet": _cmd_epsnet,
}


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except (IfltError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
