"""Command-line interface.

Subcommands:

    eval            evaluate a model once and print the stage trace
    sweep           evaluate over a parameter/covariate grid, write CSV
    effect          contrast a target covariate at two levels (RR/SR/OR)
    marginalize     average the probability over a covariate distribution
    check-recovery  balance condition vs. marginal risk-ratio recovery
    orderings       partition flow orderings into generically equal models

Data goes to stdout (or --out); diagnostics go to stderr.  Exit codes:
0 success, 2 model parse error, 3 config/binding error, 4 invalid or
non-finite evaluation, 5 effect error, 6 marginalization error, 7 recovery
error, 8 orderings error.  Each command's own code is set once, in the parser
wiring, and ``main`` maps errors to codes: a ``ValueError`` that is not a
parse, config or binding error, whether a refusal here (``CommandError``) or
raised by the analysis the command runs, exits with the command's code.
``eval`` and ``sweep`` have none, so such an error there propagates.
Identical configs and flags produce byte-identical output files.

Every command reads a model, so the module imports ``config``, ``dsl`` and
``engine``.  Each command imports only the analysis module it runs, when it
runs it: ``effect`` loads ``measures``, ``marginalize`` and ``check-recovery``
load ``marginal``, ``orderings`` loads ``orderings``, and ``eval``, ``sweep``
and ``--help`` load none of the three.  The analysis functions are reached
through ``_analysis``, which is also the module's ``__getattr__``, so
``cli.effect`` still names ``measures.effect``.
"""

from __future__ import annotations

import argparse
import importlib
import io
import itertools
import json
import math
import sys

from .config import CONFIG_DIR_ENV, ConfigError, NameResolver, RunConfig, load_config
from .dsl import ModelSpec, ModelSyntaxError, parse
from .engine import MODEL1_SPEC, BindingError, EvaluationError, eta, evaluate, evaluate_batch

__all__ = ["main"]

_ANALYSES = {"effect": "measures", "enumerate_orderings": "orderings", "marginalize": "marginal",
             "recovery_condition": "marginal", "recovery_equivalence_suite": "marginal"}


def _analysis(name: str):
    """The analysis function ``name``, which the commands call through here
    and which is this module's ``__getattr__`` (PEP 562), so ``cli.effect``
    resolves.  A value set on this module, such as a tracer's wrapper, comes
    first; else the function is read off its module in ``_ANALYSES``, which
    loads when a command first calls into it, so ``eval`` never imports
    ``marginal``."""
    if name not in _ANALYSES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().get(name) or getattr(importlib.import_module(f"{__package__}.{_ANALYSES[name]}"), name)


__getattr__ = _analysis

#: Largest grid ``sweep`` evaluates, the same budget as ``orderings``' grid.
_MAX_SWEEP_ROWS = 1_000_000


class CommandError(ValueError):
    """A command refuses its input; ``main`` exits with the command's code."""


def _emit(obj) -> None:
    """Write ``obj`` to stdout as JSON indented by 2, as ``orderings`` writes
    its report through ``OrderingReport.to_json``."""
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from None


def _load_inputs(args) -> tuple[ModelSpec, dict[str, float], dict[str, float], RunConfig, NameResolver]:
    """The model, bindings, config and name resolver a command reads.  The
    model comes from ``parse``, which compiles nothing, so a command that
    folds it in batches or once compiles no scalar fold."""
    config = load_config(args.config) if args.config else RunConfig()
    model_text = args.model or config.model
    if not model_text:
        raise ConfigError("no model given: pass --model or a config with a \"model\" entry")
    spec = parse(model_text)
    resolver = NameResolver(spec, config.aliases)
    params = resolver.resolve_params(config.params)
    covariates = dict(config.covariates)
    resolver.apply_binds(params, covariates, args.bind or [])
    return spec, params, covariates, config, resolver


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_eval(args) -> int:
    spec, params, covariates, _, _ = _load_inputs(args)
    result = evaluate(spec, params, covariates)
    _emit(
        {
            "probability": result.probability,
            "valid": result.valid,
            "stages": [{**stage._asdict(), "kind": stage.kind.value} for stage in result.stages],
        }
    )
    if not result.valid:
        flagged = [s.position for s in result.stages if not s.valid]
        print(f"invalid evaluation: stage(s) {flagged} left [0, 1]", file=sys.stderr)
        return 4
    return 0


def _parse_vary(text: str) -> tuple[str, float, float, float]:
    name, eq, rest = text.partition("=")
    parts = rest.split(":")
    if not eq or len(parts) != 3:
        raise ConfigError(f"bad --vary {text!r}: expected name=start:stop:step")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise ConfigError(f"bad --vary {text!r}: start:stop:step must be numbers") from None
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step)):
        raise ConfigError(f"bad --vary {text!r}: values must be finite")
    if step <= 0:
        raise ConfigError(f"bad --vary {text!r}: step must be positive")
    if stop < start:
        raise ConfigError(f"bad --vary {text!r}: stop is below start (empty grid)")
    if not math.isfinite((stop - start) / step):
        raise ConfigError(f"bad --vary {text!r}: (stop - start) / step overflows")
    return name, start, stop, step


def cmd_sweep(args) -> int:
    import csv
    import numpy as np

    spec, params, covariates, _, resolver = _load_inputs(args)
    # One (display name, (kind, target), start, step, count) entry per axis.
    axes: list[tuple[str, tuple[str, str], float, float, int]] = []
    n_rows = 1
    for text in args.vary or []:
        name, start, stop, step = _parse_vary(text)
        resolved = resolver.resolve(name, covariates)
        if resolved is None:
            raise ConfigError(f"--vary name {name!r} is neither a parameter nor a covariate")
        if any(resolved == axis[1] for axis in axes):
            raise ConfigError(f"duplicate --vary for {resolved[1]!r}: {name!r} names it again")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        n_rows *= count
        if n_rows > _MAX_SWEEP_ROWS:
            raise ConfigError(f"--vary {text!r} takes the grid past {_MAX_SWEEP_ROWS} rows")
        axes.append((name, resolved, start, step, count))
    if not args.out:
        raise ConfigError("sweep requires --out")
    values = [start + np.arange(count) * step for _, _, start, step, count in axes]
    for (_, (kind, target), _, _, _), column in zip(axes, np.meshgrid(*values, indexing="ij", sparse=True)):
        (params if kind == "param" else covariates)[target] = column
    probability, valid = (a.ravel() for a in evaluate_batch(spec, params, covariates))
    # Odometer order, last axis fastest, as the grid's C-order ravel.  Aliases
    # in the header can need CSV quoting, so csv.writer writes it; numbers
    # and true/false never do, so data rows are plain text: each grid
    # combination's axis values, comma-terminated, make one row prefix.
    header = io.StringIO()
    csv.writer(header, lineterminator="\n").writerow([axis[0] for axis in axes] + ["probability", "valid"])
    prefixes = map("".join, itertools.product(*([f"{v:.17g}," for v in axis.tolist()] for axis in values)))
    rows = [
        f"{prefix}{p:.17g},{'true' if ok else 'false'}\n"
        for prefix, p, ok in zip(prefixes, probability.tolist(), valid.tolist())
    ]
    _write_text(args.out, "".join([header.getvalue(), *rows]))
    print(f"wrote {len(rows)} rows to {args.out}", file=sys.stderr)
    return 0


def _refuse_binds_of(args, resolver: NameResolver, covariates, names: tuple[str, ...], why: str) -> None:
    """Refuse, naming each, the --bind flags that set one of the covariates
    ``names``, which the command sets itself and would otherwise ignore.
    Binds resolve as ``apply_binds`` resolves them, so a parameter alias
    spelled like one of ``names`` still applies."""
    targets = {("covariate", name) for name in names}
    ignored = [b for b in args.bind or [] if resolver.resolve(b.partition("=")[0], covariates) in targets]
    if ignored:
        raise CommandError(f"{why} and takes no {', '.join(f'--bind {b}' for b in ignored)}")


def _refuse_own_covariate(args, spec: ModelSpec, resolver: NameResolver, covariates, option: str) -> None:
    """Refuse the covariate that the command sets itself, named by ``--option``,
    when the model never references it or a --bind sets it too."""
    name = getattr(args, option)
    command = f"{args.command} --{option} {name}"
    if name not in spec.covariate_names:
        known = ", ".join(spec.covariate_names) or "none"
        raise CommandError(f"{command} is not a covariate of the model (covariates: {known})")
    _refuse_binds_of(args, resolver, covariates, (name,), f"{command} sets {name} itself")


def cmd_effect(args) -> int:
    from .measures import EffectQuery, Measure
    spec, params, covariates, _, resolver = _load_inputs(args)
    _refuse_own_covariate(args, spec, resolver, covariates, "target")
    context = {k: v for k, v in covariates.items() if k != args.target}
    try:
        query = EffectQuery(
            target=args.target,
            context=context,
            low=args.low,
            high=args.high,
            measure=Measure(args.measure),
        )
    except ValueError as exc:
        raise CommandError(f"bad effect query: {exc}") from None
    report = _analysis("effect")(spec, params, query)
    _emit(
        {
            "measure": query.measure.value,
            "target": query.target,
            "low": query.low,
            "high": query.high,
            **vars(report),
        }
    )
    if not report.valid:
        print("effect is not valid (invalid endpoint or zero denominator)", file=sys.stderr)
        return args.code
    return 0


def cmd_marginalize(args) -> int:
    from .marginal import CovariateDistribution
    spec, params, covariates, config, resolver = _load_inputs(args)
    _refuse_own_covariate(args, spec, resolver, covariates, "over")
    rows = config.distributions.get(args.over)
    if rows is None:
        raise CommandError(f"config has no distribution for covariate {args.over!r}")
    over = CovariateDistribution.from_table(args.over, rows)
    context = {k: v for k, v in covariates.items() if k != args.over}
    probability = _analysis("marginalize")(spec, params, over, context)
    _emit({"covariate": args.over, "probability": probability})
    return 0


def _refuse_given(args, names: tuple[str, ...], why: str) -> None:
    given = [f"--{name}" for name in names if getattr(args, name) is not None]
    if given:
        raise CommandError(f"{why} takes no {', '.join(given)}")


def _derive_recovery_inputs(args) -> tuple[float, float, float, float, float]:
    from .marginal import CovariateDistribution
    flags = (args.eta1, args.beta, args.gamma, args.pi0, args.pi1)
    if all(v is not None for v in flags):
        why = "check-recovery with all of --eta1/--beta/--gamma/--pi0/--pi1"
        _refuse_given(args, ("config", "model", "bind"), why)
        return flags
    if not args.config:
        raise CommandError("check-recovery needs --eta1/--beta/--gamma/--pi0/--pi1 or a config")
    spec, params, covariates, config, resolver = _load_inputs(args)
    model1 = parse(MODEL1_SPEC)
    if (spec.base_prob, spec.flows) != (model1.base_prob, model1.flows):
        raise CommandError(f"cannot derive inputs: the model must be {MODEL1_SPEC!r}, up to its outcome")
    why = "check-recovery sets trt1 and trt2 itself"
    _refuse_binds_of(args, resolver, covariates, ("trt1", "trt2"), why)
    missing = sorted(model1.parameter_set.difference(params))
    if missing:
        raise CommandError(f"config params missing {', '.join(missing)}; cannot derive inputs")
    if args.eta1 is not None:
        eta1 = args.eta1
    else:
        if "age" not in covariates:
            raise CommandError("config covariates must bind age to derive eta1")
        try:
            eta1 = eta(spec.flows[0], params, covariates)
        except EvaluationError as exc:
            raise CommandError(f"cannot derive eta1: {exc}") from None
    beta_name, gamma_name = model1.parameter_names[2:]
    beta = args.beta if args.beta is not None else params[beta_name]
    gamma = args.gamma if args.gamma is not None else params[gamma_name]
    pi0, pi1 = args.pi0, args.pi1
    if pi0 is None or pi1 is None:
        rows = config.distributions.get("trt2")
        if rows is None:
            raise CommandError("config has no trt2 distribution; pass --pi0/--pi1")
        over = CovariateDistribution.from_table("trt2", rows)
        if not set(over.support) <= {0.0, 1.0}:
            raise CommandError(f"trt2 must be binary, but its support is {over.support}")
        # The probability of trt2 = 1 at each trt1 level, or 0.0 when 1 is not in the support,
        # under marginalize's context with trt1 set; only covariates the table binds can match.
        bound = {k for items, _ in over.groups for k, _ in items} - {"trt1"}
        context = {k: v for k, v in covariates.items() if k in bound}
        pi0, pi1 = (
            dict(zip(over.support, over.weights({**context, "trt1": trt1}))).get(1.0, 0.0) if pi is None else pi
            for trt1, pi in ((0.0, pi0), (1.0, pi1))
        )
    return eta1, beta, gamma, pi0, pi1


def cmd_check_recovery(args) -> int:
    if args.trials is not None:
        flags = ("eta1", "beta", "gamma", "pi0", "pi1", "config", "model", "bind")
        _refuse_given(args, flags, "--trials draws its own inputs and")
        report = _analysis("recovery_equivalence_suite")(
            n_random=args.trials,
            n_constructed=1000 if args.constructed is None else args.constructed,
            seed=0 if args.seed is None else args.seed,
        )
        _emit(vars(report))
        return 0
    _refuse_given(args, ("constructed", "seed"), "check-recovery without --trials")
    eta1, beta, gamma, pi0, pi1 = _derive_recovery_inputs(args)
    report = _analysis("recovery_condition")(eta1, beta, gamma, pi0, pi1)
    _emit({"eta1": eta1, "beta": beta, "gamma": gamma, "pi0": pi0, "pi1": pi1, **vars(report)})
    return 0


def cmd_orderings(args) -> int:
    if args.bind:
        raise CommandError("orderings takes no --bind: it sets every parameter and covariate from its grid")
    spec, _, _, _, _ = _load_inputs(args)
    ranges: dict[str, tuple[float, float]] = {}
    for text in args.range or []:
        name, eq, rest = text.partition("=")
        parts = rest.split(":")
        if not eq or len(parts) != 2:
            raise CommandError(f"bad --range {text!r}: expected name=lo:hi")
        if name in ranges:
            raise CommandError(f"duplicate --range for {name!r}")
        try:
            ranges[name] = (float(parts[0]), float(parts[1]))
        except ValueError:
            raise CommandError(f"bad --range {text!r}: lo and hi must be numbers") from None
    report = _analysis("enumerate_orderings")(spec, grid_size=args.grid_size, covariate_ranges=ranges)
    text = report.to_json()
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowcalc",
        description="Evaluate and analyze sequentially composed binary-outcome flow models.",
        epilog=(
            "Exit codes: 0 ok, 2 model parse error, 3 config/binding error, "
            "4 invalid evaluation, 5 effect, 6 marginalization, 7 recovery, 8 orderings. "
            f"Relative config paths are also searched under ${CONFIG_DIR_ENV}."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (model, params, covariates, ...)")
    common.add_argument("--model", help="model text; overrides the config's model")
    common.add_argument(
        "--bind",
        action="append",
        metavar="NAME=VALUE",
        help="override one parameter or covariate (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", parents=[common], help="evaluate once, print the stage trace")
    p.set_defaults(handler=cmd_eval, code=None)

    p = sub.add_parser("sweep", parents=[common], help="evaluate over a grid, write CSV")
    p.add_argument(
        "--vary",
        action="append",
        metavar="NAME=START:STOP:STEP",
        help="vary one parameter or covariate (repeatable; last one cycles fastest)",
    )
    p.add_argument("--out", help="output CSV path (required)")
    p.set_defaults(handler=cmd_sweep, code=None)

    p = sub.add_parser("effect", parents=[common], help="two-level contrast of a covariate")
    p.add_argument("--target", required=True, help="covariate to contrast")
    p.add_argument("--low", type=float, default=0.0)
    p.add_argument("--high", type=float, default=1.0)
    p.add_argument("--measure", choices=["RR", "SR", "OR"], default="RR")  # measures.Measure's values
    p.set_defaults(handler=cmd_effect, code=5)

    p = sub.add_parser("marginalize", parents=[common], help="average over a covariate distribution")
    p.add_argument("--over", required=True, help="covariate to marginalize (needs a config distribution)")
    p.set_defaults(handler=cmd_marginalize, code=6)

    p = sub.add_parser(
        "check-recovery",
        parents=[common],
        help="marginal risk-ratio recovery vs. the balance condition",
    )
    p.add_argument("--eta1", type=float, help="baseline odds scaler")
    p.add_argument("--beta", type=float, help="log risk coefficient of trt1")
    p.add_argument("--gamma", type=float, help="log survival coefficient of trt2")
    p.add_argument("--pi0", type=float, help="prevalence of trt2=1 given trt1=0")
    p.add_argument("--pi1", type=float, help="prevalence of trt2=1 given trt1=1")
    p.add_argument("--trials", type=int, help="run the randomized equivalence suite instead")
    p.add_argument("--constructed", type=int, help="balance-constructed draws for --trials (default 1000)")
    p.add_argument("--seed", type=int, help="seed for --trials (default 0)")
    p.set_defaults(handler=cmd_check_recovery, code=7)

    p = sub.add_parser("orderings", parents=[common], help="partition flow orderings into equal models")
    p.add_argument("--grid-size", type=int, default=8, help="values per parameter axis")
    p.add_argument(
        "--range",
        action="append",
        metavar="NAME=LO:HI",
        help="treat covariate NAME as continuous over [LO, HI] (default: binary 0/1)",
    )
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.set_defaults(handler=cmd_orderings, code=8)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ModelSyntaxError as exc:
        print(f"model parse error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, BindingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except EvaluationError as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        if args.code is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return args.code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
