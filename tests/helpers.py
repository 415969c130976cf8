"""Shared test utilities: tolerance helpers, random spec/config generators."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

from flowcalc.dsl import Flow, FlowKind, LinearPredictor, ModelSpec, covariate_names, parameter_names
from flowcalc.engine import evaluate, evaluate_batch
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
