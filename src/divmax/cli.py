"""Command line interface.

Subcommands: gen, validate, solve, oracle, experiment, bench. Exit codes:
0 success, 2 validation, schema or option failure, 3 oracle limit exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import harness, instgen, objective, solvers
from .model import validate_instance


def _parse_budgets(text: str):
    parts = _parse_ints(text, "budgets")
    return parts[0] if len(parts) == 1 else parts


def _parse_ints(text: str, name: str = "value") -> list:
    try:
        return [int(p) for p in text.split(",") if p]
    except ValueError:
        raise ValueError(f"{name} must be comma-separated integers, got {text!r}") from None


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--epsilon", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="override the instance's lambda")
    p.add_argument("--odd-policy", choices=[p.value for p in solvers.OddPolicy],
                   default=None)
    p.add_argument("--enhanced", action="store_true")
    p.add_argument("--cluster-order", type=_parse_ints, default=None)


def _config_from_args(args, algorithm: str) -> solvers.SolverConfig:
    return solvers.SolverConfig(
        algorithm=solvers.Algorithm(algorithm),
        alpha=args.alpha,
        epsilon=args.epsilon,
        seed=args.seed,
        cluster_order=args.cluster_order,
        enhanced=args.enhanced,
        odd_policy=(None if args.odd_policy is None
                    else solvers.OddPolicy(args.odd_policy)),
    )


def _algorithm(name: str) -> solvers.Algorithm:
    try:
        return solvers.Algorithm(name)
    except ValueError:
        names = ", ".join(a.value for a in solvers.Algorithm)
        raise ValueError(f"algorithm must be one of {names}, got {name!r}") from None


def _options(build):
    """What build() returns, or None once the ValueError it raises is
    printed to stderr as an invalid option."""
    try:
        return build()
    except ValueError as exc:
        print(f"invalid option: {exc}", file=sys.stderr)
        return None


def _checked(build, m=None, **counts):
    """The configs that build() returns, once every count (runs, repeats)
    is >= 1 and every config passes solvers.check_config (cluster_order
    against m clusters); None once the first failure is printed to
    stderr."""
    def checked():
        for name, k in counts.items():
            if k < 1:
                raise ValueError(f"{name} must be >= 1, got {k}")
        configs = build()
        for cfg in configs:
            solvers.check_config(cfg, m)
        return configs
    return _options(checked)


def _load_checked(path: str, out=None, lam=None):
    """The instance at path, with lambda replaced by lam unless it is None,
    or None once the reason is printed: load errors to stderr, validation
    violations to out (stderr by default)."""
    try:
        instance = harness.load_instance(path)
    except harness.SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return None
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return None
    if lam is not None:
        instance = dataclasses.replace(instance, lam=lam)
    violations = validate_instance(instance)
    for v in violations:
        print(str(v), file=out or sys.stderr)
    return None if violations else instance


def _cmd_gen(args) -> int:
    spec = _options(lambda: instgen.check_spec(instgen.GenSpec(
        family=args.family, n=args.n, dim=args.dim, m=args.m,
        budgets=_parse_budgets(args.budgets), overlap=args.overlap,
        spread=args.spread, D=args.D, q=args.q, eps=args.eps, seed=args.seed)))
    if spec is None:
        return 2
    out = instgen.generate(spec)
    # tight also returns its adversarial and optimal reference solutions
    instance, *refs = out if args.family == "tight" else (out,)
    try:
        harness.save_instance(args.output, instance)
    except harness.SchemaError as exc:  # raised before the file is opened
        print(f"schema error: {exc}", file=sys.stderr)
        return 2
    for path, solution in zip((args.adv_out, args.opt_out), refs):
        if path:
            harness.save_solution(path, solution,
                                  objective.combined_objective(instance, solution))
    print(f"wrote {args.output}")
    return 0


def _cmd_validate(args) -> int:
    if _load_checked(args.instance, sys.stdout) is None:
        return 2
    print("ok")
    return 0


def _cmd_solve(args) -> int:
    instance = _load_checked(args.instance, lam=args.lam)
    if instance is None:
        return 2
    configs = _checked(lambda: [_config_from_args(args, args.algorithm)], instance.m)
    if configs is None:
        return 2
    solution, trace = solvers.solve(instance, configs[0])
    val = objective.combined_objective(instance, solution)
    print(f"{args.algorithm}: quality={val.quality:.6g} "
          f"dispersion={val.dispersion:.6g} combined={val.combined:.6g}")
    if args.output:
        harness.save_solution(args.output, solution, val,
                              trace_file=args.trace_out)
    if args.trace_out:
        events = [dataclasses.asdict(e) for e in trace.events]
        harness._canonical_dump({"algorithm": trace.algorithm, "events": events,
                                 "init": trace.init}, args.trace_out)
    return 0


def _cmd_oracle(args) -> int:
    instance = _load_checked(args.instance, lam=args.lam)
    if instance is None:
        return 2
    try:
        solution, value = solvers.solve_exact(instance, limit=args.limit)
    except solvers.OracleLimitError as exc:
        print(f"oracle limit: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # a limit below 1, raised before any search
        print(f"invalid option: {exc}", file=sys.stderr)
        return 2
    print(f"exact: combined={value:.6g}")
    if args.output:
        harness.save_solution(args.output, solution,
                              objective.combined_objective(instance, solution))
    return 0


def _cmd_experiment(args) -> int:
    instance = _load_checked(args.instance)
    if instance is None:
        return 2
    configs = _checked(lambda: [
        solvers.SolverConfig(algorithm=_algorithm(name.strip()), alpha=args.alpha,
                             seed=args.seed, enhanced=args.enhanced)
        for name in args.algorithms.split(",")], runs=args.runs)
    if configs is None:
        return 2
    spec = harness.ExperimentSpec(
        instance=instance, algorithms=configs, runs=args.runs,
        vary=args.vary)
    report = harness.run_experiment(spec)
    for label in report.labels():
        print(f"{label}: mean normalized {report.mean_normalized(label):.4f}")
    if args.output:
        report.to_csv(args.output)
        print(f"wrote {args.output}")
    return 0


def _bench_inputs(args) -> tuple:
    """(spec, sizes) of a bench run, once the spec at every size passes
    instgen.check_spec."""
    spec = instgen.GenSpec(
        family=args.family, dim=args.dim, m=args.m,
        budgets=_parse_budgets(args.budgets), overlap=args.overlap,
        seed=args.seed)
    sizes = _parse_ints(args.sizes, "sizes")
    for n in sizes:
        instgen.check_spec(dataclasses.replace(spec, n=n))
    return spec, sizes


def _cmd_bench(args) -> int:
    inputs = _options(lambda: _bench_inputs(args))
    if inputs is None:
        return 2
    configs = _checked(lambda: [solvers.SolverConfig(
        algorithm=_algorithm(args.algorithm), alpha=args.alpha,
        enhanced=args.enhanced)], repeats=args.repeats)
    if configs is None:
        return 2
    spec, sizes = inputs
    points = harness.bench_scaling(spec, sizes, configs[0], repeats=args.repeats)
    for p in points:
        ratio = "" if p.ratio is None else f" ratio={p.ratio:.2f}"
        print(f"n={p.n} seconds={p.seconds:.4f}{ratio}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divmax",
        description="Diversity maximization over overlapping clusters")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate an instance")
    p.add_argument("--family", choices=sorted(instgen._FAMILIES), default="random")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--m", type=int, default=5)
    p.add_argument("--budgets", "--b", default="2")
    p.add_argument("--overlap", type=int, default=1)
    p.add_argument("--spread", type=float, default=0.1)
    p.add_argument("--D", type=float, default=10.0)
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--adv-out", default=None)
    p.add_argument("--opt-out", default=None)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("validate", help="validate an instance file")
    p.add_argument("--instance", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("solve", help="run one solver")
    p.add_argument("--instance", required=True)
    p.add_argument("--algorithm", required=True,
                   choices=[a.value for a in solvers.Algorithm if a.value != "exact"])
    _add_solver_flags(p)
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--trace-out", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="exhaustive optimum (small instances)")
    p.add_argument("--instance", required=True)
    p.add_argument("--limit", type=int, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("experiment", help="normalized multi-run comparison")
    p.add_argument("--instance", required=True)
    p.add_argument("--algorithms", default="gp,gpa,gelms,rn")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--vary", choices=["seed", "cluster_order", "alpha"],
                   default="seed")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--enhanced", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("bench", help="wall-time scaling across sizes")
    p.add_argument("--family", choices=sorted(instgen._FAMILIES), default="random")
    p.add_argument("--sizes", required=True)
    p.add_argument("--algorithm", default="gpa")
    p.add_argument("--alpha", type=float, default=0.95)
    p.add_argument("--enhanced", action="store_true")
    p.add_argument("--m", type=int, default=10)
    p.add_argument("--budgets", "--b", default="10")
    p.add_argument("--overlap", type=int, default=1)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
