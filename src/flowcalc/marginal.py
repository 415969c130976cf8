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
averages them in ``marginalize``'s order, bit for bit; in the constructed
phase it also solves the balance condition for pi1 with the exp(beta) its
fold already holds.  Both report through ``_recovery_fields``.  The suite draws from one ``random.Random(seed)``
stream in chunks of _CHUNK draws (fewer only just before a phase's limit),
the same values in the same order as drawing one at a time, taken as the
bits of one ``getrandbits`` call.  ``_recovery_batch`` also decides each
draw's fate, as boolean masks of the draws that pass their phase's redraw
test and that agree, so the suite runs no loop over the draws: it only
counts the masks, and cuts a phase's last chunk at its last needed draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterable, Mapping

from .dsl import parse
from .engine import (
    MODEL1_SPEC,
    CovariateEnv,
    ParamEnv,
    _exp,
    _exp_each,
    _fold,
    base_state,
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
    that the support values are finite and distinct, that there is a group
    and that each is as long as the support, with probabilities in [0, 1]
    summing to one within _SUM_TOL.
    """

    covariate: str
    support: tuple[float, ...]
    groups: tuple[tuple[tuple[tuple[str, float], ...], tuple[float, ...]], ...]

    def __post_init__(self) -> None:
        if len(set(self.support)) < len(self.support) or not all(map(math.isfinite, self.support)):
            raise DistributionError(f"support {self.support} must hold distinct finite values")
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

_MODEL1 = parse(MODEL1_SPEC)

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

    marginal_rr: float
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
    marginal_rr = high / low
    return {
        "marginal_rr": marginal_rr,
        "target": exp_beta,
        "condition_value": condition_value,
        "condition_holds": abs(condition_value) <= CONDITION_TOL,
        "rr_matches": abs(marginal_rr - exp_beta) <= RR_TOL * exp_beta,
        "marginal_low": low,
        "marginal_high": high,
    }


def _model1_params(log_eta1, beta, gamma) -> dict:
    return dict(zip(_MODEL1.parameter_names, (log_eta1, 0.0, beta, gamma)))


def _recovery_batch(eta1, beta, gamma, pi0, pi1=None):
    """Both sides of the recovery check for n draws given as float64 arrays.

    Evaluates MODEL1_SPEC at ``f1.intercept = log(eta1)`` on the four
    support rows of every draw, a broadcast grid of shape (n, 2, 2): the
    parameters at shape (n, 1, 1), trt1 = [[0], [1]] and trt2 = [0, 1].
    It averages them as ``marginalize`` does, as ``0.0 + (1 - pi)*p0 +
    pi*p1``.  Every report value equals ``recovery_condition``'s bit for
    bit: exp and log are math's, log once per draw and exp 3n times (once
    per nonzero value of each flow's predictor: flows 2 and 3 have two cells
    per draw, and one is 0.0), and every other step is the same IEEE
    operation in the same order.  Given no ``pi1``, as in the suite's
    constructed phase, it solves the balance condition for pi1 with the
    fold's own exp(beta); an infeasible draw, whose pi1 leaves [0, 1], takes
    pi1 = 0.0.

    Returns the RecoveryReport fields as float64 and bool arrays, then three
    bool masks over the draws.  ``fine`` is true where ``recovery_condition``
    returns a report: every support row is valid, ``evaluate`` refuses none,
    and the trt1 = 0 marginal is nonzero.  ``passed`` is true where the draw
    passes its phase's redraw test: given ``pi1``, a condition value outside
    the band (CONDITION_TOL, AMBIGUOUS_BAND); solving for it, a feasible pi1
    and, where fine, both marginals at least 1e-4.  ``agree`` is the phase's
    expected outcome: ``condition_holds == rr_matches`` given ``pi1``, both
    true when solving for it.
    """
    import numpy as np

    n = len(eta1)
    log_eta1 = np.fromiter(map(math.log, eta1.tolist()), float, n)
    params = _model1_params(*(v.reshape(n, 1, 1) for v in (log_eta1, beta, gamma)))
    # Draw x trt1 x trt2: each draw's support rows are one 2 x 2 grid.
    covariates = {"age": 0.0, "trt1": np.array([[0.0], [1.0]]), "trt2": np.array([0.0, 1.0])}
    scalers = batch_scalers(_MODEL1, params, covariates)
    p, valid, ok = fold_batch(base_state(_MODEL1.base_prob, (n, 2, 2)), _MODEL1.flows, scalers)
    # Flows 2 and 3 have scalers of shape (n, 2, 1) and (n, 1, 2); exp(0.0 + x*1.0)
    # is exp(x), so their cells at trt1 = 1 and trt2 = 1 hold exp(beta) and exp(gamma).
    exp_beta, exp_gamma = (scaler.reshape(n, 2)[:, 1] for scaler in scalers[1:])
    constructed = pi1 is None
    with np.errstate(all="ignore"):
        if constructed:
            factor = _balance_factor(eta1, exp_beta)
            solved = np.where(factor > 0.0, exp_beta * pi0 / factor, math.inf)
            passed = (0.0 <= solved) & (solved <= 1.0)
            pi1 = np.where(passed, solved, 0.0)
        low = 0.0 + (1.0 - pi0) * p[:, 0, 0] + pi0 * p[:, 0, 1]
        high = 0.0 + (1.0 - pi1) * p[:, 1, 0] + pi1 * p[:, 1, 1]
        report = _recovery_fields(eta1, exp_beta, exp_gamma, pi0, pi1, low, high)
    fine = valid.all(axis=(1, 2)) & ok.all(axis=(1, 2)) & (low != 0.0)
    holds, matches = report["condition_holds"], report["rr_matches"]
    if constructed:
        # Python's min(low, high), which keeps low unless high < low.
        passed &= ~(fine & (np.where(high < low, high, low) < 1e-4))
        return report, fine, passed, holds & matches
    condition = np.abs(report["condition_value"])
    passed = ~((CONDITION_TOL < condition) & (condition < AMBIGUOUS_BAND))
    return report, fine, passed, holds == matches


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


def _uniforms(rng: random.Random, n: int):
    """The next ``n`` values of ``rng.random()`` as a float64 array, bit for
    bit, from one ``getrandbits`` call that leaves ``rng`` in the state the
    ``n`` calls would.  CPython's ``random()`` is ``((a >> 5) * 2**26 + (b >>
    6)) / 2**53`` of the next two 32-bit words a and b, and ``getrandbits``
    fills its result with the words it draws from the least significant up."""
    import numpy as np

    words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"), "<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)


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
    would take as its absolute value; a phase of ``count`` draws whose
    count-th accepted draw lies past draw 100 * count raises RuntimeError.

    Draws are taken from one ``random.Random(seed)`` stream: each uniform(a,
    b) is CPython's a + (b - a) * random().  A chunk is _CHUNK draws, or the
    fewer left before draw 100 * count, and its uniforms are the stream's
    next values, built from the bits of one ``getrandbits`` call by
    ``_uniforms``; no other generator takes the stream over.  The suite
    counts ``_recovery_batch``'s masks: a draw that fails its phase's redraw
    test is redrawn as ambiguous or infeasible, one that passes it but is
    not fine as invalid.  A phase ends at its count-th accepted draw:
    the masks are cut there, and when the chunk went past it the stream is
    rewound to just after it, so the constructed phase starts on the next
    unused value.  So the accepted sample and every count equal those of
    drawing one value at a time and calling ``recovery_condition`` on each
    draw.
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
    n_agree = redrawn_invalid = 0
    redrawn = []
    for phase, count, width in (("random", n_random, 5), ("constructed", n_constructed, 4)):
        accepted = attempts = rejected = 0
        while accepted < count:
            k = min(_CHUNK, 100 * count - attempts)
            if k == 0:
                raise RuntimeError(f"{phase} draw rejection rate is implausibly high")
            needed = count - accepted
            # Only a chunk longer than the draws still needed can overshoot and need a rewind.
            state = rng.getstate() if k > needed else None
            u = _uniforms(rng, k * width).reshape(k, width)
            columns = [lo + (hi - lo) * column for (lo, hi), column in zip(_DRAW_RANGES, u.T)]
            # The constructed phase draws no pi1 column: the batch solves for it.
            report, fine, passed, agree = _recovery_batch(_exp_each(columns[0]), *columns[1:])
            kept = passed & fine
            # The phase ends at its count-th kept draw, and the next phase starts on the value after it.
            ends = np.flatnonzero(kept)
            used = int(ends[needed - 1]) + 1 if len(ends) >= needed else k
            if used < k:
                rng.setstate(state)
                rng.getrandbits(64 * width * used)
            attempts += used
            accepted += min(needed, len(ends))
            rejected += used - int(passed[:used].sum())
            redrawn_invalid += int((passed & ~fine)[:used].sum())
            n_agree += int((kept & agree)[:used].sum())
        redrawn.append(rejected)

    n_disagree = n_random + n_constructed - n_agree
    return RecoverySuiteReport(
        n_random=n_random,
        n_constructed=n_constructed,
        n_agree=n_agree,
        n_disagree=n_disagree,
        all_agree=n_disagree == 0,
        n_redrawn_invalid=redrawn_invalid,
        n_redrawn_ambiguous=redrawn[0],
        n_redrawn_infeasible=redrawn[1],
        seed=seed,
    )
