"""Shared test utilities: tolerance helpers, random spec/config generators."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from flowcalc.dsl import (
    Flow,
    FlowKind,
    LinearPredictor,
    ModelSpec,
    covariate_names,
    parameter_names,
)
from flowcalc.engine import EvaluationError, evaluate, evaluate_batch
from flowcalc.marginal import (
    AMBIGUOUS_BAND,
    CONDITION_TOL,
    MarginalizationError,
    RecoverySuiteReport,
    recovery_condition,
)
from flowcalc.orderings import permute_spec, remap_params

COVARIATE_POOL = ["age", "trt1", "trt2", "sex", "dose", "bmi", "x1", "x2"]
OUTCOME_POOL = ["y", "z", "event", "resp", "out"]


def close(a: float, b: float, rel: float = 1e-12, floor: float = 1e-14) -> bool:
    """Relative comparison with an absolute floor near zero."""
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), floor)


def random_model_spec(rng: random.Random, max_flows: int = 5) -> ModelSpec:
    den = rng.randint(1, 20)
    base = Fraction(rng.randint(0, den), den)
    flows = []
    for position in range(1, rng.randint(0, max_flows) + 1):
        kind = rng.choice(list(FlowKind))
        has_intercept = rng.random() < 0.5
        terms = tuple(rng.sample(COVARIATE_POOL, rng.randint(0, 3)))
        flows.append(Flow(kind=kind, predictor=LinearPredictor(has_intercept, terms), position=position))
    return ModelSpec(outcome=rng.choice(OUTCOME_POOL), base_prob=base, flows=tuple(flows))


def loop_parameter_names(spec: ModelSpec) -> list[str]:
    """Oracle for ``ModelSpec.parameter_names``: flow by flow, in model order,
    each flow's intercept key first, spelled here apart from ``dsl``."""
    names: list[str] = []
    for flow in spec.flows:
        roles = ["intercept"] * flow.predictor.has_intercept + list(flow.predictor.terms)
        names.extend("f%d.%s" % (flow.position, role) for role in roles)
    return names


def loop_covariate_names(spec: ModelSpec) -> list[str]:
    """Oracle for ``ModelSpec.covariate_names``: in order of first use."""
    seen: list[str] = []
    for flow in spec.flows:
        for term in flow.predictor.terms:
            if term not in seen:
                seen.append(term)
    return seen


def model1_params(alpha0=0.0, alpha1=0.0, beta=0.0, gamma=0.0) -> dict[str, float]:
    """Canonical bindings for MODEL1_SPEC (odds, then risk, then survival)."""
    return {"f1.intercept": alpha0, "f1.age": alpha1, "f2.trt1": beta, "f3.trt2": gamma}


def model2_params(alpha0=0.0, alpha1=0.0, beta=0.0, gamma=0.0) -> dict[str, float]:
    """Canonical bindings for MODEL2_SPEC (odds, then survival, then risk)."""
    return {"f1.intercept": alpha0, "f1.age": alpha1, "f2.trt2": gamma, "f3.trt1": beta}


def random_bindings(spec: ModelSpec, rng: random.Random, param_scale: float = 1.0):
    from flowcalc.dsl import covariate_names

    params = {name: rng.uniform(-param_scale, param_scale) for name in parameter_names(spec)}
    covariates = {name: rng.uniform(0.0, 1.0) for name in covariate_names(spec)}
    return params, covariates


def mc_marginal(spec, params, over, context, n_draws: int, seed: int) -> float:
    """Monte Carlo oracle for marginalize: simulate the covariate, average.

    Draws the marginalized covariate from its distribution and averages the
    exactly evaluated conditional probabilities over the simulated sample.
    """
    rng = np.random.default_rng(seed)
    weights = np.asarray(over.weights(context))
    draws = rng.choice(len(over.support), size=n_draws, p=weights / weights.sum())
    counts = np.bincount(draws, minlength=len(over.support))
    conditionals = np.array(
        [
            evaluate(spec, params, {**context, over.covariate: value}).probability
            for value in over.support
        ]
    )
    return float(counts @ conditionals / n_draws)


def grid_partition(spec: ModelSpec, grid_size: int, tolerance: float) -> list[list[tuple[int, ...]]]:
    """Oracle for the ordering classes: group permutations by agreement on a grid.

    Every permutation is evaluated on ``enumerate_orderings``' grid
    (``grid_size`` values on [-2, 2] per parameter, covariates at 0 and 1).
    Permutations are taken in order, and each joins the first class whose
    first member agrees with it within ``tolerance`` wherever both are valid,
    or starts a new class.
    """
    pnames, cnames = parameter_names(spec), covariate_names(spec)
    axes = [np.linspace(-2.0, 2.0, grid_size)] * len(pnames) + [np.array([0.0, 1.0])] * len(cnames)
    mesh = np.meshgrid(*axes, indexing="ij") if axes else []
    cols = {name: grid.reshape(-1) for name, grid in zip(pnames + cnames, mesh)}
    params = {name: cols[name] for name in pnames}
    covariates = {name: cols[name] for name in cnames}
    perms = list(itertools.permutations(range(1, len(spec.flows) + 1)))
    probs, valids = {}, {}
    for perm in perms:
        permuted, param_map = permute_spec(spec, perm)
        probs[perm], valids[perm] = evaluate_batch(permuted, remap_params(params, param_map), covariates)
    classes: list[list[tuple[int, ...]]] = []
    for perm in perms:
        for group in classes:
            rep = group[0]
            mutual = valids[perm] & valids[rep]
            if not mutual.any():
                continue
            gap = float(np.max(np.abs(probs[perm][mutual] - probs[rep][mutual])))
            if gap <= tolerance:
                group.append(perm)
                break
        else:
            classes.append([perm])
    return classes


def orderings_oracle(spec: ModelSpec, classes, grid_size: int, covariate_ranges=None) -> dict:
    """Oracle for ``enumerate_orderings``' invalid counts, witnesses and ``max_gap``.

    Builds the same grid point by point (``grid_size`` values on [-2, 2] per
    parameter; per covariate its range's ``grid_size`` values, or 0 and 1)
    and evaluates every permutation at every point with ``permute_spec``,
    ``remap_params`` and ``evaluate``; an ``EvaluationError`` counts as
    invalid.  Each pair of class representatives, in class order, gets the
    first point of largest gap among the points valid for both, or no
    witness when there is none.
    """
    ranges = covariate_ranges or {}
    pnames, cnames = loop_parameter_names(spec), loop_covariate_names(spec)
    axes = [np.linspace(-2.0, 2.0, grid_size).tolist() for _ in pnames]
    axes += [np.linspace(*ranges[c], grid_size).tolist() if c in ranges else [0.0, 1.0] for c in cnames]
    points = [(dict(zip(pnames, row)), dict(zip(cnames, row[len(pnames):]))) for row in itertools.product(*axes)]
    results = {}  # perm -> one (probability, valid) per point
    for perm in itertools.permutations(range(1, len(spec.flows) + 1)):
        permuted, param_map = permute_spec(spec, perm)
        results[perm] = []
        for params, covariates in points:
            try:
                result = evaluate(permuted, remap_params(params, param_map), covariates)
                results[perm].append((result.probability, result.valid))
            except EvaluationError:
                results[perm].append((math.nan, False))
    witnesses = []
    for low, high in itertools.combinations([group[0] for group in classes], 2):
        best = None
        for k, ((p_low, ok_low), (p_high, ok_high)) in enumerate(zip(results[low], results[high])):
            if ok_low and ok_high and (best is None or abs(p_low - p_high) > best[0]):
                best = (abs(p_low - p_high), k, p_low, p_high)
        if best is not None:
            gap, k, p_low, p_high = best
            params, covariates = points[k]
            witnesses.append({"perm_low": low, "perm_high": high, "params": params, "covariates": covariates,
                              "prob_low": p_low, "prob_high": p_high, "gap": gap})
    return {
        "n_grid_points": len(points),
        "invalid_counts": {perm: sum(not ok for _, ok in rows) for perm, rows in results.items()},
        "n_points_any_invalid": sum(not all(ok for _, ok in col) for col in zip(*results.values())),
        "witnesses": witnesses,
        "max_gap": max((w["gap"] for w in witnesses), default=0.0),
    }


def scalar_recovery_suite(n_random: int, n_constructed: int, seed: int) -> RecoverySuiteReport:
    """Oracle for recovery_equivalence_suite: the documented draw order,
    one ``random.uniform`` at a time, and one ``recovery_condition`` call
    per draw that reaches it.

    Each attempt draws log(eta1), beta, gamma and pi0, then pi1 in the
    random phase; the constructed phase, which starts on the next value of
    the same stream, solves the balance condition
    exp(beta)*pi0 = (1 - eta1*(exp(beta) - 1))*pi1 for pi1 instead.
    """
    rng = random.Random(seed)
    n_agree = redrawn_invalid = redrawn_ambiguous = redrawn_infeasible = 0
    for constructed, count in ((False, n_random), (True, n_constructed)):
        accepted = attempts = 0
        while accepted < count:
            attempts += 1
            assert attempts <= 100 * count, "the suite raises RuntimeError here"
            eta1 = math.exp(rng.uniform(-2.0, 2.0))
            beta = rng.uniform(-1.0, 1.0)
            gamma = rng.uniform(-1.0, 1.0)
            pi0 = rng.uniform(0.01, 0.99)
            exp_beta = math.exp(beta)
            factor = 1.0 - eta1 * (exp_beta - 1.0)
            if constructed:
                pi1 = exp_beta * pi0 / factor if factor > 0.0 else math.inf
                if not 0.0 <= pi1 <= 1.0:
                    redrawn_infeasible += 1
                    continue
            else:
                pi1 = rng.uniform(0.01, 0.99)
                condition = (math.exp(gamma) - 1.0) * (exp_beta * pi0 - factor * pi1)
                if CONDITION_TOL < abs(condition) < AMBIGUOUS_BAND:
                    redrawn_ambiguous += 1
                    continue
            try:
                report = recovery_condition(eta1, beta, gamma, pi0, pi1)
            except MarginalizationError:
                redrawn_invalid += 1
                continue
            if constructed and min(report.marginal_low, report.marginal_high) < 1e-4:
                redrawn_infeasible += 1
                continue
            accepted += 1
            if constructed:
                n_agree += report.condition_holds and report.rr_matches
            else:
                n_agree += report.condition_holds == report.rr_matches
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


def scan_weights(rows, context):
    """Oracle for ``CovariateDistribution.weights`` on a table of config rows.

    Scans the rows and keeps those whose context bindings all hold in
    ``context``, as perfbench's closed-form check does, with every number
    read through ``float``.  If the kept rows share one context, returns
    their probabilities in increasing order of value; otherwise returns the
    number of distinct contexts kept (0 or more than 1).
    """
    kept = [
        row
        for row in rows
        if all(k in context and float(context[k]) == float(v) for k, v in row.get("context", {}).items())
    ]
    contexts = {frozenset((k, float(v)) for k, v in row.get("context", {}).items()) for row in kept}
    if len(contexts) != 1:
        return len(contexts)
    return tuple(float(row["probability"]) for row in sorted(kept, key=lambda row: float(row["value"])))
