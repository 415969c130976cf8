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
spec's, then fold, requiring each scaler to lie in (0, inf) and the final
probability to be finite, with no name-by-name finiteness check.  Every
bound parameter and every referenced covariate enters some predictor, so a
non-finite binding makes that scaler 0, inf or NaN; and a non-finite
probability stays non-finite through every update rule.  Anything else
falls back to the checked fold, which checks each name and value and each
stage in turn and raises the first failure's exception and message.

``evaluate_batch`` folds many sets of bindings at once: each binding is a
float or a 1-D float64 array, all arrays share one length, and it returns
the probability and validity of every row as arrays.  Its two steps, which ``orderings``
shares, are ``batch_scalers``, which builds each linear predictor in numpy
in the same operation order as ``eta``, and ``fold_batch``, which folds with
the same ``apply_flow``; so every row equals ``evaluate`` bit for bit.  The one
exception to doing the arithmetic in numpy is the exponential: ``np.exp``
and ``math.exp`` round differently on a few percent of inputs, so the batch
takes ``math.exp`` of each distinct predictor value.  Binding names are
checked once per batch; ``fold_batch`` flags every row that ``evaluate``
would refuse (a scaler that is not a positive real, a non-finite binding
among them, or a non-finite probability), and the batch re-runs the first
such row through ``evaluate``, which raises its exception and message.

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


def apply_flow(p: float, flow: Flow, eta: float) -> tuple[float, bool]:
    """Apply one flow's update rule to probability p with scaler eta.

    Returns ``(new_p, stage_valid)``.  Expects p in [0, 1] and eta > 0;
    out-of-contract inputs are applied literally (the caller tracks validity).
    p and eta may also be numpy arrays, which gives elementwise results and
    flags; this is the only statement of the three update rules.
    """
    if flow.kind is FlowKind.SC_ODDS:
        scaled = p * eta
        return scaled / (scaled + (1.0 - p)), True
    if flow.kind is FlowKind.SC_RISK1:
        scaled = p * eta
        return scaled, scaled <= 1.0
    scaled = p + (1.0 - p) * (1.0 - eta)
    return scaled, scaled >= 0.0


def _check_names(spec: ModelSpec, params: Mapping[str, object], covariates: Mapping[str, object]) -> None:
    """Check that the bindings name exactly the spec's parameters and at least
    its covariates."""
    required = spec.parameter_names
    missing = sorted(set(required) - set(params))
    if missing:
        raise BindingError(f"unbound parameters: {', '.join(missing)}")
    extra = sorted(set(params) - set(required))
    if extra:
        raise BindingError(f"unexpected parameters: {', '.join(extra)}")
    referenced = spec.covariate_names
    missing_cov = sorted(set(referenced) - set(covariates))
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
    + -inf``).  Anything else (a key mismatch, an exception, a scaler
    outside (0, inf), a non-finite probability) empties ``trace`` and reruns
    the checked fold.
    """
    try:
        if params.keys() == spec.parameter_set and covariates.keys() >= spec.covariate_set:
            math.fsum(params.values()) + math.fsum(covariates.values())
            p = spec.base_float
            valid = True
            for flow in spec.flows:
                scaler = math.exp(_linear_predictor(flow, params, covariates))
                if not 0.0 < scaler < math.inf:
                    break
                p, stage_ok = apply_flow(p, flow, scaler)
                valid = valid and stage_ok
                if trace is not None:
                    trace.append(StageRecord(flow.position, flow.kind, scaler, p, stage_ok))
            else:
                if math.isfinite(p):
                    return p, valid
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


def _exp_each_distinct(lp: np.ndarray) -> np.ndarray:
    """``math.exp`` of every element, computed once per distinct value.

    An overflow gives ``inf``, which the caller treats like any other
    scaler that is not a positive real.
    """
    import numpy as np

    values, inverse = np.unique(lp, return_inverse=True)
    scalers = []
    for value in values.tolist():
        try:
            scalers.append(math.exp(value))
        except OverflowError:
            scalers.append(math.inf)
    return np.array(scalers)[inverse]


def _row(env: Mapping[str, float | np.ndarray], i: int) -> dict[str, float]:
    import numpy as np

    return {name: float(v[i]) if isinstance(v, np.ndarray) else v for name, v in env.items()}


def batch_scalers(spec: ModelSpec, params: Mapping, covariates: Mapping, n: int) -> list[np.ndarray]:
    """Each flow's scaler on n rows, bit for bit ``eta``'s: bindings are floats
    or length-n arrays, predictors are built in ``eta``'s operation order, and
    ``math.exp`` runs once per distinct value (an overflow gives ``inf``)."""
    import numpy as np

    with np.errstate(invalid="ignore", over="ignore"):
        return [
            _exp_each_distinct(np.broadcast_to(_linear_predictor(flow, params, covariates), n))
            for flow in spec.flows
        ]


def fold_batch(
    base_prob: float,
    flows: Sequence[Flow],
    scalers: Sequence[np.ndarray],
    n: int,
    start: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fold ``flows`` with their scalers over n rows from ``base_prob``; return
    ``(probability, valid, ok)``.  ``ok`` is false where ``evaluate`` raises
    EvaluationError: a scaler that is not a positive real, or a probability
    that is not finite (checked at the end, as it then stays non-finite).

    Given ``start``, a triple this returned, the fold goes on from that
    state instead of ``base_prob``, which gives bit for bit the fold of both
    flow lists in one call; ``start``'s arrays are not modified.  A start
    state may be 2-D, one row of n values per state: each scaler then
    broadcasts over the rows, and every row is folded as it would be alone.
    """
    import numpy as np

    if start is None:
        p, valid, ok = np.full(n, float(base_prob)), np.ones(n, dtype=bool), np.ones(n, dtype=bool)
    else:
        p, valid, ok = start[0], start[1].copy(), start[2].copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for flow, scaler in zip(flows, scalers):
            ok &= (scaler > 0.0) & (scaler < math.inf)
            p, stage_ok = apply_flow(p, flow, scaler)
            valid &= stage_ok
    return p, valid, ok & np.isfinite(p)


def evaluate_batch(
    spec: ModelSpec,
    params: Mapping[str, float | np.ndarray],
    covariates: Mapping[str, float | np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate many binding rows at once; return ``(probability, valid)``.

    Each binding is a float, shared by every row, or a 1-D float64 array
    with one value per row; all arrays, unused covariates' included, must
    have the same length n (n is 1 when no binding is an array).  Row i
    equals ``evaluate`` on the row's bindings, bit for bit, in both
    probability and validity.  Binding names are checked once, with
    ``evaluate``'s messages.  If ``evaluate`` would raise on any row, the
    first such row is evaluated by ``evaluate``, which raises its exception
    for the whole batch.
    """
    import numpy as np

    _check_names(spec, params, covariates)
    values = [*params.values(), *covariates.values()]
    lengths = sorted({len(v) for v in values if isinstance(v, np.ndarray)})
    if len(lengths) > 1:
        raise ValueError(f"binding arrays differ in length: {lengths}")
    n = lengths[0] if lengths else 1

    scalers = batch_scalers(spec, params, covariates, n)
    p, valid, ok = fold_batch(spec.base_prob, spec.flows, scalers, n)
    if not ok.all():
        i = int(np.argmin(ok))
        evaluate(spec, _row(params, i), _row(covariates, i))
        raise RuntimeError(f"row {i} was flagged as failing but evaluates")
    return p, valid


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
