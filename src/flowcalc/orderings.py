"""Order-dependence analysis: which flow orderings give the same model?

``enumerate_orderings`` evaluates every permutation of a spec's flows over a
deterministic parameter/covariate grid and groups permutations whose
probabilities agree (within tolerance) wherever both evaluate validly.
Grouping is by comparison against each group's first member, so the result
is a genuine partition; "co-classed" therefore means "not distinguished on
this grid at this tolerance", never a proof of equality.  Each pair of
distinct classes gets a witness point with both probabilities for replay.

Parameters travel with their flow when flows are permuted: the flow that was
at position k keeps its predictor, but its parameters are renamed to the new
position.  Scalers depend only on the flow's own bindings, so a grid point
is described once by the original parameter names and remapped per
permutation through ``param_map``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .dsl import Flow, ModelSpec, covariate_names, parameter_names, pretty_print
from .engine import apply_flow

__all__ = [
    "OrderingWitness",
    "OrderingReport",
    "permute_spec",
    "remap_params",
    "enumerate_orderings",
]

_MAX_FLOWS = 8
_CAVEAT = (
    "co-classed permutations were not distinguished on this grid at this tolerance; "
    "a finer grid or wider covariate ranges may still separate them"
)


def permute_spec(spec: ModelSpec, perm: Sequence[int]) -> tuple[ModelSpec, dict[str, str]]:
    """Reorder a spec's flows by original position, renumbering as needed.

    ``perm`` lists the original 1-based positions in their new order.
    Returns the permuted spec and a map from original parameter names to the
    names the permuted spec uses for the same quantities.
    """
    n = len(spec.flows)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"perm must rearrange positions 1..{n}, got {tuple(perm)}")
    new_flows = []
    param_map: dict[str, str] = {}
    for new_pos, orig_pos in enumerate(perm, start=1):
        orig = spec.flows[orig_pos - 1]
        new_flows.append(Flow(kind=orig.kind, predictor=orig.predictor, position=new_pos))
        suffixes = (["intercept"] if orig.predictor.has_intercept else []) + list(orig.predictor.terms)
        for suffix in suffixes:
            param_map[f"f{orig_pos}.{suffix}"] = f"f{new_pos}.{suffix}"
    return ModelSpec(spec.outcome, spec.base_prob, tuple(new_flows)), param_map


def remap_params(params: Mapping[str, float], param_map: Mapping[str, str]) -> dict[str, float]:
    """Rename a binding set through a permutation's parameter map."""
    return {param_map[name]: value for name, value in params.items()}


@dataclass(frozen=True)
class OrderingWitness:
    """A grid point at which two class representatives disagree.

    ``params`` uses the original spec's parameter names; replay a side by
    permuting the spec, remapping the bindings, and evaluating.
    """

    perm_low: tuple[int, ...]
    perm_high: tuple[int, ...]
    params: dict[str, float]
    covariates: dict[str, float]
    prob_low: float
    prob_high: float
    gap: float


@dataclass
class OrderingReport:
    """Partition of flow permutations by observational agreement on a grid."""

    model: str
    grid_size: int
    tolerance: float
    n_grid_points: int
    permutations: list[tuple[int, ...]]
    classes: list[list[tuple[int, ...]]]
    param_maps: dict[tuple[int, ...], dict[str, str]]
    invalid_counts: dict[tuple[int, ...], int]
    n_points_any_invalid: int
    witnesses: list[OrderingWitness]
    max_gap: float
    caveat: str = field(default=_CAVEAT)

    def class_of(self, perm: Sequence[int]) -> int:
        """Index of the class containing ``perm``."""
        key = tuple(perm)
        for i, group in enumerate(self.classes):
            if key in group:
                return i
        raise KeyError(f"{key} is not a permutation of this report")

    def to_dict(self) -> dict:
        """JSON-friendly rendering of the report."""
        return {
            "model": self.model,
            "grid_size": self.grid_size,
            "tolerance": self.tolerance,
            "n_grid_points": self.n_grid_points,
            "permutations": [
                {
                    "order": list(perm),
                    "invalid_points": self.invalid_counts[perm],
                    "param_map": self.param_maps[perm],
                }
                for perm in self.permutations
            ],
            "classes": [[list(p) for p in group] for group in self.classes],
            "witnesses": [
                {
                    "perm_low": list(w.perm_low),
                    "perm_high": list(w.perm_high),
                    "params": w.params,
                    "covariates": w.covariates,
                    "prob_low": w.prob_low,
                    "prob_high": w.prob_high,
                    "gap": w.gap,
                }
                for w in self.witnesses
            ],
            "max_gap": self.max_gap,
            "n_points_any_invalid": self.n_points_any_invalid,
            "caveat": self.caveat,
        }


def _fold_permutation(
    spec: ModelSpec,
    perm: tuple[int, ...],
    etas: dict[int, np.ndarray],
    premask: np.ndarray,
    n_points: int,
) -> tuple[np.ndarray, np.ndarray]:
    p = np.full(n_points, float(spec.base_prob))
    ok = premask.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for orig_pos in perm:
            p, stage_ok = apply_flow(p, spec.flows[orig_pos - 1], etas[orig_pos])
            ok &= stage_ok
    ok &= np.isfinite(p)
    return p, ok


def enumerate_orderings(
    spec: ModelSpec,
    grid_size: int = 8,
    tolerance: float = 1e-10,
    covariate_ranges: Mapping[str, tuple[float, float]] | None = None,
    max_points: int = 1_000_000,
) -> OrderingReport:
    """Partition all flow orderings of ``spec`` by agreement on a grid.

    The grid is the full factorial product of ``grid_size`` equispaced values
    on [-2, 2] for every parameter with, for every covariate, either the two
    binary levels {0, 1} or ``grid_size`` equispaced values over its entry in
    ``covariate_ranges``.  Two permutations are compared only where both
    evaluate validly; points that are invalid under a permutation are counted
    per permutation and reported.  At most 8 flows (8! orderings) and
    ``max_points`` grid points are allowed, and the tolerance must be a
    non-negative number.
    """
    n = len(spec.flows)
    if n > _MAX_FLOWS:
        raise ValueError(f"{n} flows would need {math.factorial(n)} orderings; the limit is {_MAX_FLOWS} flows")
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")
    if not tolerance >= 0.0:
        raise ValueError(f"tolerance must be a non-negative number, got {tolerance!r}")
    ranges = dict(covariate_ranges or {})
    for name, (lo, hi) in ranges.items():
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"range for {name!r} must be finite with lo < hi, got ({lo}, {hi})")

    if n == 0:
        perm: tuple[int, ...] = ()
        return OrderingReport(
            model=pretty_print(spec),
            grid_size=grid_size,
            tolerance=tolerance,
            n_grid_points=1,
            permutations=[perm],
            classes=[[perm]],
            param_maps={perm: {}},
            invalid_counts={perm: 0},
            n_points_any_invalid=0,
            witnesses=[],
            max_gap=0.0,
        )

    pnames = parameter_names(spec)
    cnames = covariate_names(spec)
    axes: list[np.ndarray] = [np.linspace(-2.0, 2.0, grid_size) for _ in pnames]
    for name in cnames:
        if name in ranges:
            lo, hi = ranges[name]
            axes.append(np.linspace(lo, hi, grid_size))
        else:
            axes.append(np.array([0.0, 1.0]))
    n_points = 1
    for axis in axes:
        n_points *= len(axis)
    if n_points > max_points:
        raise ValueError(f"grid has {n_points} points; limit is {max_points}")
    mesh = np.meshgrid(*axes, indexing="ij") if axes else []
    cols = {name: grid.reshape(-1) for name, grid in zip(pnames + cnames, mesh)}

    etas: dict[int, np.ndarray] = {}
    with np.errstate(over="ignore"):
        for flow in spec.flows:
            lp = np.zeros(n_points)
            if flow.predictor.has_intercept:
                lp = lp + cols[f"f{flow.position}.intercept"]
            for term in flow.predictor.terms:
                lp = lp + cols[f"f{flow.position}.{term}"] * cols[term]
            etas[flow.position] = np.exp(lp)
    premask = np.ones(n_points, dtype=bool)
    for e in etas.values():
        premask &= np.isfinite(e) & (e > 0.0)

    perms = list(itertools.permutations(range(1, n + 1)))
    probs: dict[tuple[int, ...], np.ndarray] = {}
    valids: dict[tuple[int, ...], np.ndarray] = {}
    for perm in perms:
        probs[perm], valids[perm] = _fold_permutation(spec, perm, etas, premask, n_points)

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

    witnesses: list[OrderingWitness] = []
    max_gap = 0.0
    for i, j in itertools.combinations(range(len(classes)), 2):
        rep_i, rep_j = classes[i][0], classes[j][0]
        mutual = valids[rep_i] & valids[rep_j]
        if not mutual.any():
            continue
        with np.errstate(invalid="ignore"):
            diff = np.where(mutual, np.abs(probs[rep_i] - probs[rep_j]), -1.0)
        idx = int(np.argmax(diff))
        gap = float(diff[idx])
        witnesses.append(
            OrderingWitness(
                perm_low=rep_i,
                perm_high=rep_j,
                params={name: float(cols[name][idx]) for name in pnames},
                covariates={name: float(cols[name][idx]) for name in cnames},
                prob_low=float(probs[rep_i][idx]),
                prob_high=float(probs[rep_j][idx]),
                gap=gap,
            )
        )
        max_gap = max(max_gap, gap)

    any_invalid = np.zeros(n_points, dtype=bool)
    for perm in perms:
        any_invalid |= ~valids[perm]
    return OrderingReport(
        model=pretty_print(spec),
        grid_size=grid_size,
        tolerance=tolerance,
        n_grid_points=n_points,
        permutations=perms,
        classes=classes,
        param_maps={perm: permute_spec(spec, perm)[1] for perm in perms},
        invalid_counts={perm: int(np.count_nonzero(~valids[perm])) for perm in perms},
        n_points_any_invalid=int(np.count_nonzero(any_invalid)),
        witnesses=witnesses,
        max_gap=max_gap,
    )
