"""Effect measures: contrasts of model probabilities at two covariate levels.

Given a model and a target covariate, an effect query evaluates the model at
a low and a high level of the target (all other covariates fixed by the
query's context) and combines the endpoint probabilities into a ratio:

    RR  p_high / p_low                    risk ratio
    SR  (1 - p_high) / (1 - p_low)        survival ratio
    OR  odds(p_high) / odds(p_low)        odds ratio

Effects on truncated models (keep only the first k flows) are first-class:
``subcomposition`` builds the truncated spec so measures can be read off any
prefix of the flow pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .dsl import ModelSpec, _parse
from .engine import ParamEnv, _exp, _fold, evaluate

__all__ = [
    "Measure",
    "EffectQuery",
    "EffectReport",
    "effect",
    "subcomposition",
    "rr_model1_formula",
    "CompositeContrastPoint",
    "CompositeContrastReport",
    "composite_contrast_check",
    "MODEL3_SPEC",
]

#: Reference model in which the same covariate drives both the risk-scaling
#: and the survival-scaling flow, so a single treatment contrast mixes two
#: update rules.  Used by composite_contrast_check.
MODEL3_SPEC = "y = Ber(1/2) | ScOdds(1+age) | ScRisk1(0+trt2) | ScRisk0(0+trt2)"


class Measure(Enum):
    RR = "RR"
    SR = "SR"
    OR = "OR"


@dataclass(frozen=True)
class EffectQuery:
    """Contrast request: target covariate, fixed context, levels, measure."""

    target: str
    context: Mapping[str, float] = field(default_factory=dict)
    low: float = 0.0
    high: float = 1.0
    measure: Measure = Measure.RR

    def __post_init__(self) -> None:
        if self.target in self.context:
            raise ValueError(f"target {self.target!r} must not appear in the context")
        if self.low == self.high:
            raise ValueError(f"low and high levels are both {self.low!r}")


@dataclass(frozen=True)
class EffectReport:
    """Measure value, validity, and the endpoint probabilities (low, high).

    ``valid`` requires both endpoint evaluations to be valid and the
    measure's denominator to be nonzero; when the denominator vanishes the
    value is NaN.
    """

    value: float
    valid: bool
    endpoint_probs: tuple[float, float]


def _measure_value(measure: Measure, p_low: float, p_high: float) -> tuple[float, bool]:
    if measure is Measure.RR:
        num, den = p_high, p_low
    elif measure is Measure.SR:
        num, den = 1.0 - p_high, 1.0 - p_low
    else:
        num, den = p_high * (1.0 - p_low), p_low * (1.0 - p_high)
    if den == 0.0:
        return math.nan, False
    return num / den, True


def effect(spec: ModelSpec, params: ParamEnv, query: EffectQuery) -> EffectReport:
    """Evaluate the spec at the query's two target levels and take the ratio.

    Each endpoint is ``evaluate``'s probability and validity, folded
    without a stage trace."""
    p_low, low_valid = _fold(spec, params, {**query.context, query.target: query.low})
    p_high, high_valid = _fold(spec, params, {**query.context, query.target: query.high})
    value, computable = _measure_value(query.measure, p_low, p_high)
    return EffectReport(value=value, valid=low_valid and high_valid and computable, endpoint_probs=(p_low, p_high))


def subcomposition(spec: ModelSpec, keep: int) -> ModelSpec:
    """Truncate a spec to its first ``keep`` flows (0 <= keep <= len(flows)).

    Flow positions, and thus parameter names, are unchanged by truncation.
    """
    if not 0 <= keep <= len(spec.flows):
        raise ValueError(f"keep must be in [0, {len(spec.flows)}], got {keep}")
    return ModelSpec(outcome=spec.outcome, base_prob=spec.base_prob, flows=spec.flows[:keep])


def rr_model1_formula(eta1: float, eta3: float, beta: float) -> float:
    """Risk ratio of the trt1 contrast in the full MODEL1_SPEC, closed form.

    With eta1 the odds scaler, eta3 the survival scaler, and beta the log
    risk scaling coefficient:

        (1 + eta1 - eta3 + eta1*eta3*(exp(beta) - 1)) / (1 + eta1 - eta3)

    The denominator 1 + eta1 - eta3 is (1 + eta1) times the model
    probability at trt1 = 0, so it vanishes exactly when that probability
    is zero and the ratio is undefined.  An overflowing exp(beta) raises
    EvaluationError.
    """
    denominator = 1.0 + eta1 - eta3
    if denominator == 0.0:
        raise ZeroDivisionError("risk ratio undefined: probability at the low level is zero")
    return (denominator + eta1 * eta3 * (_exp(beta) - 1.0)) / denominator


# ---------------------------------------------------------------------------
# Composite contrast: one covariate driving two flows
# ---------------------------------------------------------------------------

_MODEL3 = _parse(MODEL3_SPEC)  # uncached, so its scalar fold compiles on its first scalar fold

#: How near exp(beta) and exp(gamma) a pointwise RR and SR must sit for
#: ``composite_contrast_check`` to call them a match.
CONTRAST_MARGIN = 1e-6


@dataclass(frozen=True)
class CompositeContrastPoint:
    """One age's worth of evidence: both endpoint probabilities, whether both
    evaluations were valid, the defect of the linear identity below, and the
    pointwise RR / SR of the trt2 contrast (NaN when undefined)."""

    age: float
    p_low: float
    p_high: float
    valid: bool
    identity_gap: float
    rr: float
    sr: float


@dataclass(frozen=True)
class CompositeContrastReport:
    """Result of composite_contrast_check over an age grid.

    The checked identity is

        p_high = 1 - exp(gamma) + exp(beta + gamma) * p_low

    which ties the two endpoint probabilities of the trt2 contrast together
    linearly.  ``matches_rr`` / ``matches_sr`` say whether the pointwise RR
    (resp. SR) sits within ``margin``, always CONTRAST_MARGIN, of exp(beta)
    (resp. exp(gamma)) at every valid grid point; with both coefficients
    nonzero, neither does.
    """

    points: tuple[CompositeContrastPoint, ...]
    max_identity_gap: float
    n_valid: int
    n_invalid: int
    rr_target: float
    sr_target: float
    matches_rr: bool
    matches_sr: bool
    margin: float


def composite_contrast_check(params: ParamEnv, age_grid) -> CompositeContrastReport:
    """Verify the linear endpoint identity of MODEL3_SPEC over an age grid.

    ``params`` binds MODEL3_SPEC's parameters; beta and gamma are the last
    two, the trt2 coefficients.  Grid points with an invalid endpoint
    evaluation are excluded from the aggregates and counted in ``n_invalid``.
    An overflowing exp(beta), exp(gamma) or exp(beta + gamma) raises
    EvaluationError before any age is evaluated, so also on an empty grid.
    """
    beta, gamma = (params[name] for name in _MODEL3.parameter_names[2:])
    rr_target = _exp(beta)
    sr_target = _exp(gamma)
    slope = _exp(beta + gamma)

    points: list[CompositeContrastPoint] = []
    for age in age_grid:
        age = float(age)
        low = evaluate(_MODEL3, params, {"age": age, "trt2": 0.0})
        high = evaluate(_MODEL3, params, {"age": age, "trt2": 1.0})
        ok = low.valid and high.valid
        p0, p1 = low.probability, high.probability
        gap = abs(p1 - (1.0 - sr_target + slope * p0))
        rr, _ = _measure_value(Measure.RR, p0, p1)
        sr, _ = _measure_value(Measure.SR, p0, p1)
        points.append(
            CompositeContrastPoint(
                age=age, p_low=p0, p_high=p1, valid=ok, identity_gap=gap, rr=rr, sr=sr
            )
        )
    valid = [pt for pt in points if pt.valid]
    return CompositeContrastReport(
        points=tuple(points),
        max_identity_gap=max((pt.identity_gap for pt in valid), default=0.0),
        n_valid=len(valid),
        n_invalid=len(points) - len(valid),
        rr_target=rr_target,
        sr_target=sr_target,
        matches_rr=bool(valid) and all(math.isfinite(pt.rr) and abs(pt.rr - rr_target) <= CONTRAST_MARGIN for pt in valid),
        matches_sr=bool(valid) and all(math.isfinite(pt.sr) and abs(pt.sr - sr_target) <= CONTRAST_MARGIN for pt in valid),
        margin=CONTRAST_MARGIN,
    )
