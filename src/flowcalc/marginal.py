"""Marginalization over covariates and the treatment-effect recovery check.

``marginalize`` averages a model's probability over a finite-support
covariate distribution (optionally conditional on the remaining context),
by the law of total probability.  A ``CovariateDistribution`` is a table
validated when it is built, one group of probabilities per conditioning
context, so a lookup only finds the group that applies.  The rest of the
module packages one delicate consequence: when the model MODEL1_SPEC is
marginalized over its survival covariate trt2, the marginal risk ratio of
trt1 equals exp(beta), the conditional one, exactly when a balance
condition between the two conditional trt2 prevalences holds.  ``recovery_condition`` computes both
sides; ``recovery_equivalence_suite`` stress-tests that the two are the
same predicate over random and balance-constructed configurations.  Their
tolerances are the module constants CONDITION_TOL, RR_TOL and
AMBIGUOUS_BAND, fixed because the suite's argument that the two tests agree
holds only for these values together.

``recovery_condition`` takes its two marginals from ``marginalize``; the
suite's ``_recovery_batch`` folds the four trt2 x trt1 support rows of many
draws through ``engine.batch_scalers`` and ``engine.fold_batch`` and
averages them in ``marginalize``'s order, bit for bit.  Both report through
``_recovery_fields``.  The suite draws from one ``random.Random(seed)``
stream in chunks of at most _CHUNK draws, the same values in the same order
as drawing one at a time, read into numpy from C; it sorts each chunk into
accepted and redrawn draws with boolean masks, not a loop over the draws.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping

from .dsl import _parse
from .engine import (
    MODEL1_SPEC,
    CovariateEnv,
    ParamEnv,
    _exp,
    _exp_each,
    _fold,
    batch_scalers,
    evaluate,
    fold_batch,
)

__all__ = [
    "DistributionError",
    "MarginalizationError",
    "CovariateDistribution",
    "marginalize",
    "expected_eta3",
    "RecoveryReport",
    "recovery_condition",
    "RecoverySuiteReport",
    "recovery_equivalence_suite",
]

_SUM_TOL = 1e-12


class DistributionError(ValueError):
    """A covariate distribution is malformed or does not sum to one."""


class MarginalizationError(ValueError):
    """Marginalization hit an invalid model evaluation or undefined ratio."""


@dataclass(frozen=True)
class CovariateDistribution:
    """Finite-support distribution of one covariate, possibly conditional.

    A validated table: ``groups`` holds one ``(context items, probabilities
    in support order)`` pair per row group, where the items are ``(name,
    value)`` bindings of other covariates.  A group applies to a query context
    that holds all of its bindings; exactly one may apply.  Building checks
    that there is a group and that each is as long as the support, with
    probabilities in [0, 1] summing to one within _SUM_TOL.
    """

    covariate: str
    support: tuple[float, ...]
    groups: tuple[tuple[tuple[tuple[str, float], ...], tuple[float, ...]], ...]

    def __post_init__(self) -> None:
        if not self.groups:
            raise DistributionError("distribution table is empty")
        for items, probs in self.groups:
            if len(probs) != len(self.support):
                raise DistributionError(f"context {dict(items)} does not cover the full support {self.support}")
            for value, prob in zip(self.support, probs):
                if not 0.0 <= prob <= 1.0:
                    where = f"{self.covariate}={value} under context {dict(items)}"
                    raise DistributionError(f"probability {prob!r} of {where} outside [0, 1]")
            total = sum(probs)
            if abs(total - 1.0) > _SUM_TOL:
                raise DistributionError(f"context {dict(items)} sums to {total!r}, not 1")

    @classmethod
    def from_table(cls, covariate: str, rows: Iterable[Mapping]) -> "CovariateDistribution":
        """Build a distribution from rows of {context, value, probability}.

        Rows are grouped by their (exactly equal) context mappings; each
        group must cover the full support once.  A row whose value or context
        values are not finite, or whose context binds ``covariate`` itself,
        could never be used and is refused as malformed.
        """
        groups: dict[tuple, dict[float, float]] = {}
        for row in rows:
            try:
                ctx = {str(k): float(v) for k, v in dict(row.get("context", {})).items()}
                value = float(row["value"])
                prob = float(row["probability"])
                if not all(map(math.isfinite, (value, *ctx.values()))):
                    raise ValueError("value and context values must be finite")
                if covariate in ctx:
                    raise ValueError(f"its context binds {covariate} itself")
            except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
                raise DistributionError(f"malformed distribution row {row!r}: {exc}") from None
            if not 0.0 <= prob <= 1.0:
                raise DistributionError(f"row probability {prob!r} outside [0, 1]")
            group = groups.setdefault(tuple(sorted(ctx.items())), {})
            if value in group:
                raise DistributionError(f"duplicate row for value {value} under context {ctx}")
            group[value] = prob
        support = tuple(sorted({value for group in groups.values() for value in group}))
        # A group that misses a support value comes out short, and is refused as not covering it.
        table = tuple((key, tuple(group[v] for v in support if v in group)) for key, group in groups.items())
        return cls(covariate, support, table)

    def weights(self, context: Mapping[str, float]) -> tuple[float, ...]:
        """Probabilities over the support of the one group that applies to ``context``."""
        matches = [
            probs for items, probs in self.groups if all(k in context and float(context[k]) == v for k, v in items)
        ]
        if not matches:
            raise DistributionError(f"no distribution rows match context {dict(context)}")
        if len(matches) > 1:
            raise DistributionError(
                f"ambiguous distribution: {len(matches)} row groups match context {dict(context)}"
            )
        return matches[0]


def marginalize(
    spec, params: ParamEnv, over: CovariateDistribution, context: CovariateEnv
) -> float:
    """Average the model probability over ``over``, conditional on ``context``.

    Every support evaluation must be valid; an invalid one raises
    MarginalizationError.  If the spec never references the covariate the
    result is the plain evaluation under ``context``.
    """
    if over.covariate in context:
        raise ValueError(f"covariate {over.covariate!r} is both marginalized and fixed")
    weights = over.weights(context)
    if over.covariate not in spec.covariate_set:
        result = evaluate(spec, params, context)
        if not result.valid:
            raise MarginalizationError(f"invalid evaluation under context {dict(context)}")
        return result.probability
    total = 0.0
    for value, weight in zip(over.support, weights):
        probability, valid = _fold(spec, params, {**context, over.covariate: value})
        if not valid:
            raise MarginalizationError(
                f"invalid evaluation at {over.covariate}={value} (probability {probability!r})"
            )
        total += weight * probability
    return total


def expected_eta3(gamma: float, pi: float) -> float:
    """Expected survival scaler of a binary covariate with coefficient gamma
    and prevalence pi: 1 + (exp(gamma) - 1) * pi.  An overflowing exp(gamma)
    raises EvaluationError."""
    if not 0.0 <= pi <= 1.0:
        raise ValueError(f"prevalence must be in [0, 1], got {pi!r}")
    return 1.0 + (_exp(gamma) - 1.0) * pi


# ---------------------------------------------------------------------------
# Recovery of the conditional risk ratio after marginalizing over trt2
# ---------------------------------------------------------------------------

_MODEL1 = _parse(MODEL1_SPEC)  # uncached, so its scalar fold compiles on its first scalar fold

#: Fixed tolerances of the recovery check.  ``recovery_equivalence_suite``
#: explains why its two tests agree only for these three values together.
CONDITION_TOL = 1e-12
RR_TOL = 1e-9
AMBIGUOUS_BAND = 1e-6


@dataclass(frozen=True)
class RecoveryReport:
    """Marginal risk ratio of trt1 versus its conditional target exp(beta).

    ``condition_value`` is the value of the balance condition, which is
    zero precisely when marginalizing over trt2 preserves the risk ratio; ``condition_holds`` tests it against CONDITION_TOL and
    ``rr_matches`` compares the marginal RR with exp(beta) within RR_TOL in
    relative terms.
    """

    lhs_rr: float
    target: float
    condition_value: float
    condition_holds: bool
    rr_matches: bool
    marginal_low: float
    marginal_high: float


def _balance_factor(eta1, exp_beta):
    """The factor of pi1 in the balance condition exp(beta)*pi0 = factor*pi1."""
    return 1.0 - eta1 * (exp_beta - 1.0)


def _recovery_fields(eta1, exp_beta, exp_gamma, pi0, pi1, low, high) -> dict:
    """RecoveryReport's fields from floats, or from float64 arrays of draws.
    ``low`` and ``high`` are the trt1 = 0 and 1 marginals; the condition
    value is the balance condition scaled by exp(gamma) - 1."""
    condition_value = (exp_gamma - 1.0) * (exp_beta * pi0 - _balance_factor(eta1, exp_beta) * pi1)
    lhs_rr = high / low
    return {
        "lhs_rr": lhs_rr,
        "target": exp_beta,
        "condition_value": condition_value,
        "condition_holds": abs(condition_value) <= CONDITION_TOL,
        "rr_matches": abs(lhs_rr - exp_beta) <= RR_TOL * exp_beta,
        "marginal_low": low,
        "marginal_high": high,
    }


def _model1_params(log_eta1, beta, gamma) -> dict:
    return dict(zip(_MODEL1.parameter_names, (log_eta1, 0.0, beta, gamma)))


def _recovery_batch(eta1, beta, gamma, pi0, pi1):
    """Both sides of the recovery check for n draws given as float64 arrays.

    Evaluates MODEL1_SPEC at ``f1.intercept = log(eta1)`` on the four
    support rows of every draw, a broadcast grid of shape (n, 2, 2): the
    parameters at shape (n, 1, 1), trt1 = [[0], [1]] and trt2 = [0, 1].
    It averages them as ``marginalize`` does, as ``0.0 + (1 - pi)*p0 +
    pi*p1``.  Returns the RecoveryReport fields as float64 and bool arrays,
    and a bool array that is true where ``recovery_condition`` returns a
    report: every support row is valid, ``evaluate`` refuses none of them,
    and the trt1 = 0 marginal is nonzero.  Every value equals
    ``recovery_condition``'s bit for bit: exp and log are math's, log once
    per draw and exp 5n times (once per value of each flow's predictor,
    which for flows 2 and 3 has two cells per draw), and every other step
    is the same IEEE operation in the same order.
    """
    import numpy as np

    n = len(eta1)
    log_eta1 = np.fromiter(map(math.log, eta1.tolist()), float, n)
    params = _model1_params(*(v.reshape(n, 1, 1) for v in (log_eta1, beta, gamma)))
    # Draw x trt1 x trt2: each draw's support rows are one 2 x 2 grid.
    covariates = {"age": 0.0, "trt1": np.array([[0.0], [1.0]]), "trt2": np.array([0.0, 1.0])}
    scalers = batch_scalers(_MODEL1, params, covariates, (n, 2, 2))
    p, valid, ok = fold_batch(_MODEL1.base_prob, _MODEL1.flows, scalers, (n, 2, 2))
    # exp(0.0 + x*1.0) is exp(x), so the trt1 = trt2 = 1 cell holds exp(beta) and exp(gamma).
    exp_beta, exp_gamma = (scaler[:, 1, 1] for scaler in scalers[1:])
    with np.errstate(all="ignore"):
        low = 0.0 + (1.0 - pi0) * p[:, 0, 0] + pi0 * p[:, 0, 1]
        high = 0.0 + (1.0 - pi1) * p[:, 1, 0] + pi1 * p[:, 1, 1]
        report = _recovery_fields(eta1, exp_beta, exp_gamma, pi0, pi1, low, high)
    fine = valid.all(axis=(1, 2)) & ok.all(axis=(1, 2)) & (low != 0.0)
    return report, fine


def recovery_condition(eta1: float, beta: float, gamma: float, pi0: float, pi1: float) -> RecoveryReport:
    """Check whether marginalizing MODEL1_SPEC over trt2 keeps RR(trt1) = exp(beta).

    ``pi0`` and ``pi1`` are the prevalences of trt2 = 1 given trt1 = 0 and
    trt1 = 1, the two groups of the trt2 distribution.  The marginal probabilities are ``marginalize``'s, so an
    invalid support evaluation raises its MarginalizationError, as does a
    zero marginal at trt1 = 0; the analytic balance condition is evaluated
    side by side.  Bad inputs, including a finite beta or gamma whose
    exponential overflows or underflows to 0, raise ValueError.
    """
    if not (eta1 > 0.0 and math.isfinite(eta1)):
        raise ValueError(f"eta1 must be a positive finite real, got {eta1!r}")
    for name, pi in (("pi0", pi0), ("pi1", pi1)):
        if not 0.0 <= pi <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {pi!r}")
    try:
        scalers = (math.exp(beta), math.exp(gamma))
    except OverflowError:
        raise ValueError(f"exp(beta) or exp(gamma) overflows: beta={beta!r}, gamma={gamma!r}") from None
    if 0.0 in scalers and math.isfinite(beta) and math.isfinite(gamma):
        raise ValueError(f"exp(beta) or exp(gamma) underflows to 0: beta={beta!r}, gamma={gamma!r}")
    params = _model1_params(math.log(eta1), beta, gamma)
    groups = ((("trt1", 0.0),), (1.0 - pi0, pi0)), ((("trt1", 1.0),), (1.0 - pi1, pi1))
    over = CovariateDistribution("trt2", (0.0, 1.0), groups)
    low, high = (marginalize(_MODEL1, params, over, {"age": 0.0, "trt1": trt1}) for trt1 in (0.0, 1.0))
    if low == 0.0:
        raise MarginalizationError("marginal probability at trt1=0 is zero; risk ratio undefined")
    return RecoveryReport(**_recovery_fields(eta1, *scalers, pi0, pi1, low, high))


@dataclass(frozen=True)
class RecoverySuiteReport:
    """Outcome of the randomized condition/RR equivalence check."""

    n_random: int
    n_constructed: int
    n_agree: int
    n_disagree: int
    all_agree: bool
    n_redrawn_invalid: int
    n_redrawn_ambiguous: int
    n_redrawn_infeasible: int
    seed: int


#: Most draws the suite evaluates at once, which bounds its memory.
_CHUNK = 512

#: (low, high) of each uniform of one draw, in draw order: log(eta1), beta,
#: gamma, pi0 and, in the random phase only, pi1.
_DRAW_RANGES = ((-2.0, 2.0), (-1.0, 1.0), (-1.0, 1.0), (0.01, 0.99), (0.01, 0.99))


def recovery_equivalence_suite(
    n_random: int = 10000, n_constructed: int = 1000, seed: int = 0
) -> RecoverySuiteReport:
    """Stress-test that condition_holds and rr_matches are the same predicate.

    Every draw takes log(eta1) uniform on [-2, 2], beta and gamma uniform on
    [-1, 1] and pi0 uniform on [0.01, 0.99], in that order.  The random
    phase, which runs first until ``n_random`` draws are accepted, then takes
    pi1 uniform on [0.01, 0.99] too.  It redraws when a support evaluation
    is invalid, or when the condition value lands in the open band
    (CONDITION_TOL, AMBIGUOUS_BAND): there the condition is genuinely
    violated but only by numerical dust, so the draw distinguishes rounding,
    not the predicate.  Outside the band the marginal RR provably misses its
    target by at least AMBIGUOUS_BAND / (1 + e^2), about 1.2e-7, orders of
    magnitude beyond RR_TOL.

    The constructed phase, which accepts ``n_constructed`` draws, instead
    solves the balance condition for pi1, rejecting draws whose pi1 leaves
    [0, 1] or whose marginal probabilities fall below 1e-4 (where the ratio
    is too ill-conditioned to certify at RR_TOL).  All of them must report
    both condition_holds and rr_matches.  Negative draw counts, or none at
    all, raise ValueError, as does a negative seed, which ``random.Random``
    would take as its absolute value; a phase that needs more than 100
    attempts per draw raises RuntimeError.

    Draws are taken in chunks of at most _CHUNK, never more than the draws
    a phase still needs, from one ``random.Random(seed)`` stream: each
    uniform(a, b) is CPython's a + (b - a) * random().  A chunk's uniforms
    are the stream's next values, read from C by ``np.fromiter``; no other
    generator takes the stream over.  Boolean masks over the chunk count
    each draw by the first redraw test it fails: a pi1 outside [0, 1], a
    condition value in the band, an invalid evaluation, then a marginal
    below 1e-4.  So every chunk is walked to its end, the constructed phase
    starts on the next unused value, and the accepted sample and every count
    equal those of drawing one value at a time and calling
    ``recovery_condition`` on each draw.
    Within these ranges every scaler lies in [exp(-2), exp(2)] and every
    probability stays finite, so ``evaluate`` refuses no support row, and
    every draw that ``recovery_condition`` rejects is one it raises
    MarginalizationError for.
    """
    import numpy as np

    if n_random < 0 or n_constructed < 0 or n_random + n_constructed == 0:
        raise ValueError(
            "draw counts must be non-negative and not both zero, "
            f"got n_random={n_random}, n_constructed={n_constructed}"
        )
    if seed < 0:
        # random.Random seeds with the absolute value, so -3 would replay seed 3.
        raise ValueError(f"seed must be non-negative, got {seed}")
    rng = random.Random(seed)
    n_agree = 0
    redrawn_invalid = 0
    redrawn_ambiguous = 0
    redrawn_infeasible = 0
    for constructed, count in ((False, n_random), (True, n_constructed)):
        width = 4 if constructed else 5
        accepted = 0
        attempts = 0
        while accepted < count:
            k = min(_CHUNK, count - accepted)
            attempts += k
            if attempts > 100 * count:
                phase = "constructed" if constructed else "random"
                raise RuntimeError(f"{phase} draw rejection rate is implausibly high")
            u = np.fromiter(iter(rng.random, None), float, k * width).reshape(k, width)
            columns = [lo + (hi - lo) * column for (lo, hi), column in zip(_DRAW_RANGES, u.T)]
            eta1 = _exp_each(columns[0])
            beta, gamma, pi0 = columns[1:4]
            if constructed:
                exp_beta = _exp_each(beta)
                factor = _balance_factor(eta1, exp_beta)
                with np.errstate(divide="ignore", invalid="ignore"):
                    solved = np.where(factor > 0.0, exp_beta * pi0 / factor, math.inf)
                feasible = (0.0 <= solved) & (solved <= 1.0)
                # Infeasible draws are redrawn before their report is read.
                pi1 = np.where(feasible, solved, 0.0)
            else:
                pi1 = columns[4]
            report, fine = _recovery_batch(eta1, beta, gamma, pi0, pi1)
            # Each draw is counted by the first redraw test it fails, in this order.
            if constructed:
                checked = feasible
                redrawn_infeasible += k - int(feasible.sum())
            else:
                condition = np.abs(report["condition_value"])
                checked = ~((CONDITION_TOL < condition) & (condition < AMBIGUOUS_BAND))
                redrawn_ambiguous += k - int(checked.sum())
            redrawn_invalid += int((checked & ~fine).sum())
            kept = checked & fine
            if constructed:
                low, high = report["marginal_low"], report["marginal_high"]
                # Python's min(low, high), which keeps low unless high < low.
                small = kept & (np.where(high < low, high, low) < 1e-4)
                redrawn_infeasible += int(small.sum())
                kept &= ~small
            accepted += int(kept.sum())
            holds, matches = report["condition_holds"][kept], report["rr_matches"][kept]
            n_agree += int(((holds & matches) if constructed else (holds == matches)).sum())

    n_disagree = n_random + n_constructed - n_agree
    return RecoverySuiteReport(
        n_random=n_random,
        n_constructed=n_constructed,
        n_agree=n_agree,
        n_disagree=n_disagree,
        all_agree=n_disagree == 0,
        n_redrawn_invalid=redrawn_invalid,
        n_redrawn_ambiguous=redrawn_ambiguous,
        n_redrawn_infeasible=redrawn_infeasible,
        seed=seed,
    )
