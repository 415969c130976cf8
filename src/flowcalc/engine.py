"""Evaluation engine: turn a parsed model plus bindings into a probability.

Each flow first computes a strictly positive scaler

    eta = exp(intercept + sum(coefficient * covariate))

from its own parameters, then updates the running probability p:

    ScOdds   p -> p*eta / (p*eta + (1-p))     always stage-valid
    ScRisk1  p -> p*eta                        stage-valid iff result <= 1
    ScRisk0  p -> p + (1-p)*(1-eta)            stage-valid iff result >= 0

ScRisk0 is algebraically 1 - (1-p)*eta; the additive form is used so that
eta = 1 leaves p bit-identical.  Evaluation continues past an invalid stage,
carrying the raw value, so the stage trace is complete; overall validity is
the conjunction of the stage flags.

One private scalar fold, ``_fold``, checks one set of bindings and folds
the flows, returning the probability and validity; it builds a stage record
per flow only when asked for a trace.  ``evaluate`` is that fold plus the
trace; ``measures.effect`` and ``marginal.marginalize`` call the fold
without one.  It first tries a fast path: compare whole key sets with the
spec's, then run the spec's compiled fold, straight-line code generated once
per spec that requires each scaler to lie in (0, inf) and the final
probability to be finite, with no name-by-name finiteness check.  Every
bound parameter and every referenced covariate enters some predictor, so a
non-finite binding makes that scaler 0, inf or NaN; and a non-finite
probability stays non-finite through every update rule.  Anything else
falls back to the checked fold, which checks each name and value and each
stage in turn and raises the first failure's exception and message.

``_RULES`` is the only statement of the three update rules: one expression
text each for the scaled value, the new probability and the stage flag.
Both ``apply_flow``, which the checked fold and the batch fold call, and
each spec's compiled fold are generated from it, so the two paths perform
the same operations.  ``_fold`` alone decides when a spec compiles: its
first scalar fold is the checked fold, its second compiles the spec's fold
and runs it, and every later one runs it.  The gain rests on one property:
the same spec is folded repeatedly; a spec folded once, or only in batches,
compiles nothing.

``evaluate_batch`` folds many sets of bindings at once: each binding is a
float or a float64 array, all arrays broadcast to one shape (a grid may be
given as sparse axes), and it returns the probability and validity of every
cell of that shape as arrays.  Its two steps, which ``orderings`` and the
recovery suite share, are ``batch_scalers``, which builds each linear
predictor in numpy in the same operation order as ``eta``, and
``fold_batch``, which folds with the same ``apply_flow``; so every cell
equals ``evaluate`` bit for bit.  The fold's state, a ``(probability, valid,
ok)`` triple from ``base_state``, is its caller's: ``fold_batch`` updates
its flags in place, and ``orderings`` folds on from the states it returns.
The one exception to doing the arithmetic in numpy is the exponential:
``np.exp`` and ``math.exp`` round differently on a few percent of inputs, so
the batch takes ``math.exp`` of each nonzero value of a predictor at the
predictor's own, unbroadcast shape (exp(+-0.0) is exactly 1.0).
``batch_scalers`` returns each scaler at that shape, and ``fold_batch``
broadcasts it through numpy's arithmetic as it folds, so each flow's
positivity check also runs at its scaler's shape.  Binding names are checked
once per batch; ``fold_batch`` flags every cell that ``evaluate`` would
refuse (a scaler that is not a positive real, a non-finite binding among
them, or a non-finite probability), and the batch re-runs the first such
cell, in C order, through ``evaluate``, which raises its exception and
message.

numpy is imported inside the functions where a batch runs, not at module
level, so ``evaluate`` and the commands built on it never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from .dsl import Flow, FlowKind, ModelSpec

__all__ = [
    "ParamEnv",
    "CovariateEnv",
    "StageRecord",
    "EvalResult",
    "BindingError",
    "EvaluationError",
    "eta",
    "apply_flow",
    "evaluate",
    "evaluate_batch",
    "closed_form_model1",
    "closed_form_model2",
    "MODEL1_SPEC",
    "MODEL2_SPEC",
]

#: Reference three-flow models used throughout the docs and tests.  They are
#: built from the same components; the only difference is whether the
#: risk-scaling flow (ScRisk1) runs before or after the survival-scaling flow
#: (ScRisk0), which is enough to make them distinct models.
MODEL1_SPEC = "y = Ber(1/2) | ScOdds(1+age) | ScRisk1(0+trt1) | ScRisk0(0+trt2)"
MODEL2_SPEC = "y = Ber(1/2) | ScOdds(1+age) | ScRisk0(0+trt2) | ScRisk1(0+trt1)"

ParamEnv = Mapping[str, float]
CovariateEnv = Mapping[str, float]


class BindingError(ValueError):
    """A parameter or covariate is missing, unexpected, or non-finite."""


class EvaluationError(ArithmeticError):
    """A numeric stage produced a non-finite (or zero-scaler) result."""


class StageRecord(NamedTuple):
    """Trace entry for one flow: its scaler, the post-flow probability, and
    whether that single stage kept the value inside [0, 1].  A named tuple,
    immutable and hashable, because it is cheaper to build than a frozen
    dataclass."""

    position: int
    kind: FlowKind
    eta: float
    probability: float
    valid: bool


@dataclass(frozen=True)
class EvalResult:
    """Final probability, overall validity, and the full stage trace."""

    probability: float
    valid: bool
    stages: tuple[StageRecord, ...]


def _linear_predictor(flow: Flow, params: Mapping, covariates: Mapping):
    """intercept + sum(coefficient * covariate) of one flow, added left to
    right from 0.0; bindings may be floats or arrays (then so is the sum).
    Keys are the flow's ``intercept_key`` and ``term_keys``."""
    lp = 0.0
    if flow.intercept_key is not None:
        lp = lp + params[flow.intercept_key]
    for key, term in flow.term_keys:
        lp = lp + params[key] * covariates[term]
    return lp


def eta(flow: Flow, params: ParamEnv, covariates: CovariateEnv) -> float:
    """Scaler of one flow: exp of its linear predictor under the bindings.

    Raises BindingError for an unbound parameter or covariate and
    EvaluationError when exp overflows or underflows to zero (the scaler
    must stay strictly positive and finite).
    """
    try:
        lp = _linear_predictor(flow, params, covariates)
    except KeyError as exc:
        raise BindingError(f"unbound name {exc.args[0]!r} for flow {flow.position}") from None
    try:
        value = math.exp(lp)
    except OverflowError:
        raise EvaluationError(f"flow {flow.position}: scaler overflow (exp({lp!r}))") from None
    if value == 0.0 or not math.isfinite(value):
        raise EvaluationError(f"flow {flow.position}: scaler {value!r} is not a positive real")
    return value


def _exp(x: float) -> float:
    """``math.exp``, raising EvaluationError on overflow as ``eta`` does."""
    try:
        return math.exp(x)
    except OverflowError:
        raise EvaluationError(f"scaler overflow (exp({x!r}))") from None


#: The three update rules, stated only here: for each kind, the scaled value
#: (from ``p`` and ``eta``), the new probability (from ``scaled`` and the old
#: ``p``) and the stage-valid flag (from ``scaled``).  ``apply_flow`` and each
#: spec's compiled fold are generated from these texts.
_RULES = {
    FlowKind.SC_ODDS: ("p * eta", "scaled / (scaled + (1.0 - p))", "True"),
    FlowKind.SC_RISK1: ("p * eta", "scaled", "scaled <= 1.0"),
    FlowKind.SC_RISK0: ("p + (1.0 - p) * (1.0 - eta)", "scaled", "scaled >= 0.0"),
}


def _rule_lines(kind: FlowKind) -> list[str]:
    """``kind``'s rule as three statements, which set ``scaled``, ``p`` and ``ok``."""
    scaled, new_p, ok = _RULES[kind]
    return [f"scaled = {scaled}", f"p = {new_p}", f"ok = {ok}"]


def _define(source: str):
    """The one function ``source`` defines.  Its globals are this module's,
    looked up at call time, so a test that patches ``StageRecord`` sees it."""
    namespace: dict = {}
    exec(compile(source, "<flowcalc.engine>", "exec"), globals(), namespace)
    (function,) = namespace.values()
    return function


_APPLY = {kind: _define("\n    ".join(["def rule(p, eta):", *_rule_lines(kind), "return p, ok\n"])) for kind in FlowKind}


def apply_flow(p: float, flow: Flow, eta: float) -> tuple[float, bool]:
    """Apply one flow's update rule to probability p with scaler eta.

    Returns ``(new_p, stage_valid)``.  Expects p in [0, 1] and eta > 0;
    out-of-contract inputs are applied literally (the caller tracks validity).
    p and eta may also be numpy arrays, which gives elementwise results and
    flags.  The rule is generated from ``_RULES``, as each spec's compiled
    fold is, so both perform the same operations.
    """
    return _APPLY[flow.kind](p, eta)


def _predictor_source(flow: Flow) -> str:
    """``_linear_predictor`` of one flow as one expression over ``params`` and
    ``covariates``: the same additions, left to right from 0.0."""
    terms = ["0.0"]
    if flow.intercept_key is not None:
        terms.append(f"params[{flow.intercept_key!r}]")
    terms += [f"params[{key!r}] * covariates[{term!r}]" for key, term in flow.term_keys]
    return " + ".join(terms)


def _no_fast_path(params: ParamEnv, covariates: CovariateEnv, trace: list | None) -> None:
    return None


#: Most parameters of a spec whose fold is compiled.  One predictor of about
#: 3,000 terms nests too deep for CPython 3.11 to compile from a shallow call
#: stack, and about 1,200 from 600 frames down; perfbench's specs have at most 18.
_COMPILED_PARAMETERS_MAX = 1024


def _compile_fold(spec: ModelSpec):
    """Generate the spec's compiled fold, store it as ``spec.compiled_fold`` and
    return it.

    ``fold(params, covariates, trace)`` is ``_fold``'s fast path as straight-line
    code: for each flow, ``math.exp`` of its predictor, the check that the
    scaler lies in (0, inf), the flow's rule from ``_RULES`` and, when
    ``trace`` is a list, a StageRecord.  It returns ``(probability, valid)``,
    or None where ``_fold`` must fall back to the checked fold.  A spec of
    more than _COMPILED_PARAMETERS_MAX parameters gets ``_no_fast_path``, a
    fold that always falls back, with no source generated or compiled; so
    does a spec that nests too deep to compile from the caller's stack.
    """
    fold = _no_fast_path
    if len(spec.parameter_names) <= _COMPILED_PARAMETERS_MAX:
        lines = ["def fold(params, covariates, trace):", f"    p = {spec.base_float!r}", "    valid = True"]
        for flow in spec.flows:
            lines += [
                f"    eta = math.exp({_predictor_source(flow)})",
                "    if not 0.0 < eta < math.inf:",
                "        return None",
                *(f"    {line}" for line in _rule_lines(flow.kind)),
                "    valid = valid and ok",
                "    if trace is not None:",
                f"        trace.append(StageRecord({flow.position}, FlowKind.{flow.kind.name}, eta, p, ok))",
            ]
        lines += ["    if math.isfinite(p):", "        return p, valid", ""]
        try:
            fold = _define("\n".join(lines))
        except RecursionError:
            pass
    object.__setattr__(spec, "compiled_fold", fold)
    return fold


def _check_names(spec: ModelSpec, params: Mapping[str, object], covariates: Mapping[str, object]) -> None:
    """Check that the bindings name exactly the spec's parameters and at least
    its covariates."""
    missing = sorted(spec.parameter_set.difference(params))
    if missing:
        raise BindingError(f"unbound parameters: {', '.join(missing)}")
    extra = sorted(params.keys() - spec.parameter_set)
    if extra:
        raise BindingError(f"unexpected parameters: {', '.join(extra)}")
    missing_cov = sorted(spec.covariate_set.difference(covariates))
    if missing_cov:
        raise BindingError(f"unbound covariates: {', '.join(missing_cov)}")


def _check_env(kind: str, env: Mapping[str, float], names: tuple[str, ...]) -> None:
    for name in names:
        value = env[name]
        if not math.isfinite(value):
            raise BindingError(f"{kind} {name!r} is not finite: {value!r}")


def _fold(
    spec: ModelSpec, params: ParamEnv, covariates: CovariateEnv, trace: list | None = None
) -> tuple[float, bool]:
    """Check the bindings and fold the spec's flows over its base probability;
    return ``(probability, valid)``, appending one StageRecord per flow to
    ``trace`` when it is given.  ``evaluate`` documents the checks; this is
    the one scalar fold, which ``effect`` and ``marginalize`` call without a
    trace.

    The fast path is the module docstring's.  It first converts every
    binding to a float with ``math.fsum``: an int or Fraction too large for
    a float can vanish in an exact product (``2**1100 * 0 == 0``), where the
    checked fold's finiteness check raises OverflowError, and an array
    binding is refused there, before any array arithmetic could warn (``inf
    + -inf``).  It then runs the spec's compiled fold (see
    ``_compile_fold``).  Anything else (a key mismatch, an exception, a
    scaler outside (0, inf), a non-finite probability) empties ``trace`` and
    reruns the checked fold.

    A spec's first fold skips the fast path, so a spec folded once pays for
    no compiling: it runs the checked fold and sets ``spec.compiled_fold``
    from None to False, and the fast path of a later fold compiles the fold
    while it is False.
    """
    try:
        if spec.compiled_fold is None:
            object.__setattr__(spec, "compiled_fold", False)
        elif params.keys() == spec.parameter_set and covariates.keys() >= spec.covariate_set:
            math.fsum(params.values()) + math.fsum(covariates.values())
            folded = (spec.compiled_fold or _compile_fold(spec))(params, covariates, trace)
            if folded is not None:
                return folded
    except (AttributeError, KeyError, OverflowError, TypeError, ValueError, ZeroDivisionError):
        pass
    if trace is not None:
        trace.clear()
    return _checked_fold(spec, params, covariates, trace)


def _checked_fold(
    spec: ModelSpec, params: ParamEnv, covariates: CovariateEnv, trace: list | None
) -> tuple[float, bool]:
    """``_fold`` with every check stated in turn: the names, each binding's
    finiteness, then each flow's scaler and probability; it raises the
    first failure's exception and message."""
    _check_names(spec, params, covariates)
    _check_env("parameter", params, spec.parameter_names)
    _check_env("covariate", covariates, spec.covariate_names)

    p = spec.base_float
    valid = True
    for flow in spec.flows:
        scaler = eta(flow, params, covariates)
        try:
            p, stage_ok = apply_flow(p, flow, scaler)
        except ZeroDivisionError:
            raise EvaluationError(f"flow {flow.position}: division by zero") from None
        if not math.isfinite(p):
            raise EvaluationError(f"flow {flow.position}: non-finite probability {p!r}")
        valid = valid and stage_ok
        if trace is not None:
            trace.append(StageRecord(flow.position, flow.kind, scaler, p, stage_ok))
    return p, valid


def evaluate(spec: ModelSpec, params: ParamEnv, covariates: CovariateEnv) -> EvalResult:
    """Fold the spec's flows over its base probability, left to right.

    Bindings are validated up front: every parameter name of the spec must be
    bound, extra parameter bindings are an error, and every referenced
    covariate must be bound (extra covariates are ignored).  Evaluation
    continues past stages that leave [0, 1] so the trace is complete; a
    non-finite intermediate raises EvaluationError instead.
    """
    stages: list[StageRecord] = []
    p, valid = _fold(spec, params, covariates, stages)
    return EvalResult(probability=p, valid=valid, stages=tuple(stages))


def _exp_each(lp) -> np.ndarray:
    """``math.exp`` of every element of ``lp``, in ``lp``'s shape: one
    C-level pass over the nonzero values, and 1.0, which is exp(+-0.0)
    exactly, for the zeros; only when one overflows are they taken again
    one at a time.  An overflow gives ``inf``, which the caller treats like
    any other scaler that is not a positive real."""
    import numpy as np

    lp = np.asarray(lp, dtype=float)
    nonzero = lp != 0.0
    values = lp[nonzero].tolist()
    try:
        exps = np.fromiter(map(math.exp, values), float, len(values))
    except OverflowError:
        exps = []
        for value in values:
            try:
                exps.append(math.exp(value))
            except OverflowError:
                exps.append(math.inf)
    scalers = np.ones(lp.shape)
    scalers[nonzero] = exps
    return scalers


def _cell(env: Mapping[str, float | np.ndarray], index: tuple[int, ...], shape: tuple[int, ...]) -> dict[str, float]:
    """The bindings of one cell of ``shape``, each array broadcast to it."""
    import numpy as np

    return {name: float(np.broadcast_to(v, shape)[index]) if isinstance(v, np.ndarray) else v for name, v in env.items()}


def batch_scalers(spec: ModelSpec, params: Mapping, covariates: Mapping) -> list[np.ndarray]:
    """Each flow's scaler at the shape of its own predictor, bit for bit
    ``eta``'s in every cell: bindings are floats or arrays that broadcast
    together, predictors are built in ``eta``'s operation order, and
    ``math.exp`` runs once per nonzero value of a predictor (an overflow
    gives ``inf``, a zero 1.0 with no call).  Nothing is broadcast to the
    batch's shape: a flow whose predictor reads only float bindings gets a
    0-d scaler, and ``fold_batch`` broadcasts each scaler as it folds."""
    import numpy as np

    with np.errstate(invalid="ignore", over="ignore"):
        return [_exp_each(_linear_predictor(flow, params, covariates)) for flow in spec.flows]


def base_state(base_prob: float, shape: int | tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The first state of a batch fold, ``(probability, valid, ok)`` of
    ``shape``: ``base_prob`` and both flags true in every cell.  It belongs to
    the caller, who hands it to ``fold_batch``."""
    import numpy as np

    return np.full(shape, float(base_prob)), np.ones(shape, dtype=bool), np.ones(shape, dtype=bool)


def fold_batch(
    state: tuple[np.ndarray, np.ndarray, np.ndarray], flows: Sequence[Flow], scalers: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold ``flows`` with their scalers over every cell of ``state``, a
    ``(probability, valid, ok)`` triple from ``base_state`` or from this
    function, and return the state after the flows.  The state is the
    caller's: its two flag arrays are updated in place and returned, so two
    folds in turn give, bit for bit, the fold of both flow lists in one call.
    Each scaler need only broadcast to the state's shape, which may lead with
    an axis of rows; numpy broadcasts it in each update, and its check runs at
    its own shape.  ``ok`` is false where ``evaluate`` raises EvaluationError:
    a scaler that is not a positive real, or a probability that is not finite
    (checked at the end, as it then stays non-finite)."""
    import numpy as np

    p, valid, ok = state
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for flow, scaler in zip(flows, scalers):
            ok &= (scaler > 0.0) & (scaler < math.inf)
            p, stage_ok = apply_flow(p, flow, scaler)
            valid &= stage_ok
    ok &= np.isfinite(p)
    return p, valid, ok


def evaluate_batch(
    spec: ModelSpec,
    params: Mapping[str, float | np.ndarray],
    covariates: Mapping[str, float | np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate every cell of broadcast bindings at once; return
    ``(probability, valid)``, arrays of the bindings' broadcast shape.

    Each binding is a float, shared by every cell, or a float64 array; all
    arrays, unused covariates' included, must broadcast to one shape (it is
    ``()`` when no binding is an array), so a grid can be given as
    ``np.meshgrid(..., sparse=True)``.  Each cell equals ``evaluate`` on the
    cell's bindings, bit for bit, in both probability and validity.  Binding
    names are checked once, with ``evaluate``'s messages.  If ``evaluate``
    would raise on any cell, the first such cell in C order is evaluated by
    ``evaluate``, which raises its exception for the whole batch.
    """
    import numpy as np

    _check_names(spec, params, covariates)
    shapes = [v.shape for v in (*params.values(), *covariates.values()) if isinstance(v, np.ndarray)]
    try:
        shape = np.broadcast_shapes(*shapes)
    except ValueError:
        raise ValueError(f"binding arrays differ in length: {sorted(set(shapes))}") from None

    scalers = batch_scalers(spec, params, covariates)
    p, valid, ok = fold_batch(base_state(spec.base_prob, shape), spec.flows, scalers)
    if not ok.all():
        index = tuple(map(int, np.unravel_index(int(np.argmin(ok)), shape)))
        evaluate(spec, _cell(params, index, shape), _cell(covariates, index, shape))
        raise RuntimeError(f"cell {index} was flagged as failing but evaluates")
    return np.asarray(p), valid


def _check_scalers(*etas: float) -> None:
    for i, value in enumerate(etas, start=1):
        if not (value > 0.0 and math.isfinite(value)):
            raise ValueError(f"scaler #{i} must be a positive finite real, got {value!r}")


def closed_form_model1(eta1: float, eta2: float, eta3: float) -> float:
    """Closed form of MODEL1_SPEC with base 1/2, as a function of the three
    stage scalers: 1 - (1 + eta1 - eta1*eta2) / (1 + eta1) * eta3."""
    _check_scalers(eta1, eta2, eta3)
    return 1.0 - (1.0 + eta1 - eta1 * eta2) / (1.0 + eta1) * eta3


def closed_form_model2(eta1: float, eta2: float, eta3: float) -> float:
    """Closed form of MODEL2_SPEC with base 1/2: (1 + eta1 - eta3) / (1 + eta1) * eta2.

    eta2 scales risk (the ScRisk1 flow) and eta3 scales survival (the ScRisk0
    flow), matching the parameter roles of closed_form_model1.
    """
    _check_scalers(eta1, eta2, eta3)
    return (1.0 + eta1 - eta3) / (1.0 + eta1) * eta2
