"""Order-dependence analysis: which flow orderings give the same model?

Each flow is a linear-fractional map of p.  Maps of one kind commute; maps
of different kinds do not, for generic scalers.  ``enumerate_orderings``
therefore classes the permutations of a spec's flows by a key read off the
spec: drop each flow with an empty predictor (its scaler is 1), drop the
leading ScOdds/ScRisk1 flows from Ber(0) and the leading ScOdds/ScRisk0
flows from Ber(1) (they leave the base unchanged), and key the rest as one
``(kind, frozenset of original positions)`` entry per maximal run of
same-kind flows.  The partition is the generic one: co-classed orderings
are the same function of the parameters, and orderings in different
classes differ except at special values, such as a scaler equal to 1.  A
grid fold of every permutation counts its invalid points, and each pair of
classes gets a witness, between their first members, for replay: the first
grid point of largest gap among the points where both are valid.  A
permutation's probability and validity at a point depend only on the
point's tuple of flow scalers, so the fold runs once per distinct tuple, at
its first point, and each tuple counts for every point that has it.  The
permutations, in lexicographic order, are folded depth first over their
shared prefixes: each one goes on from the state after the longest prefix it
shares with the one before, so a prefix is folded once (325 flow updates
for 5 flows, not 600), with the same operations in the same order as a fold
from the base, and at most n + 1 states are held at a time.

Parameters travel with their flow when flows are permuted: the flow that was
at position k keeps its predictor, but its parameters are renamed to the new
position.  Scalers depend only on the flow's own bindings, so a grid point
is described once by the original parameter names and remapped per
permutation through ``param_map``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import ClassVar, Mapping, NamedTuple, Sequence

from .dsl import Flow, FlowKind, ModelSpec, pretty_print
from .engine import batch_scalers, fold_batch

__all__ = [
    "OrderingWitness",
    "OrderingReport",
    "permute_spec",
    "remap_params",
    "enumerate_orderings",
]

_MAX_FLOWS = 8
_MAX_POINTS = 1_000_000
_MAX_WITNESSES = 100_000
_MAX_CLASS_POINTS = 20_000_000  # classes x grid points, 9 bytes each
_BLOCK_VALUES = 2**20  # values per temporary in the witness search
_JSON_BLOCK = 2048  # witnesses spelled per json call in to_json
_RECORD_SEP = ",\n    "  # between two witnesses in to_json, as json writes it
_FIELD_BREAK = "\n      "  # before a witness field's closing bracket, as json indents it
_ITEM_BREAK = _FIELD_BREAK + "  "  # before each item of a witness field
_FIELD_ENCODER = json.JSONEncoder(separators=("," + _ITEM_BREAK, ": "))  # json's C encoder
_MARK = "\0"  # a field or block of to_json's text; no name of the DSL holds it
_BASE_FIXERS = {0: {FlowKind.SC_ODDS, FlowKind.SC_RISK1}, 1: {FlowKind.SC_ODDS, FlowKind.SC_RISK0}}


def permute_spec(spec: ModelSpec, perm: Sequence[int]) -> tuple[ModelSpec, dict[str, str]]:
    """Reorder a spec's flows by original position, renumbering as needed.

    ``perm`` lists the original 1-based positions in their new order.
    Returns the permuted spec and a map from original parameter names to the
    names the permuted spec uses for the same quantities.
    """
    n = len(spec.flows)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"perm must rearrange positions 1..{n}, got {tuple(perm)}")
    moves = [_moved(spec.flows[orig_pos - 1], new_pos) for new_pos, orig_pos in enumerate(perm, start=1)]
    new_flows = tuple(moved for moved, _ in moves)
    return ModelSpec(spec.outcome, spec.base_prob, new_flows), _joined(names for _, names in moves)


def _moved(flow: Flow, position: int) -> tuple[Flow, dict[str, str]]:
    """``flow`` moved to ``position``, and the map from its parameter names
    to the moved flow's."""
    moved = Flow(kind=flow.kind, predictor=flow.predictor, position=position)
    return moved, dict(zip(flow.parameter_names, moved.parameter_names))


def _joined(name_maps) -> dict[str, str]:
    """One permutation's parameter map: its flows' name maps, in new order."""
    return {name: new for names in name_maps for name, new in names.items()}


def remap_params(params: Mapping[str, float], param_map: Mapping[str, str]) -> dict[str, float]:
    """Rename a binding set through a permutation's parameter map."""
    return {param_map[name]: value for name, value in params.items()}


class OrderingWitness(NamedTuple):
    """A grid point at which two class representatives disagree.

    ``params`` uses the original spec's parameter names; replay a side by
    permuting the spec, remapping the bindings, and evaluating.  The
    witnesses of one report at one grid point share one ``params`` and one
    ``covariates`` dict, so treat both as read-only.  A named tuple, like
    ``engine.StageRecord``, because it is cheaper to build than a frozen
    dataclass.
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
    """Partition of flow permutations into generically equal models.

    ``to_dict`` gives it as plain data and ``to_json`` as the indented JSON
    the CLI writes, which is ``json.dumps`` of ``to_dict`` written faster.
    """

    model: str
    grid_size: int
    n_grid_points: int
    permutations: list[tuple[int, ...]]
    classes: list[list[tuple[int, ...]]]
    param_maps: dict[tuple[int, ...], dict[str, str]]
    invalid_counts: dict[tuple[int, ...], int]
    n_points_any_invalid: int
    witnesses: list[OrderingWitness]
    max_gap: float
    caveat: ClassVar[str] = (
        "the partition is exact for generic parameter values; at special values "
        "(for example a scaler equal to 1) orderings in different classes can coincide"
    )

    def class_of(self, perm: Sequence[int]) -> int:
        """Index of the class containing ``perm``."""
        key = tuple(perm)
        for i, group in enumerate(self.classes):
            if key in group:
                return i
        raise KeyError(f"{key} is not a permutation of this report")

    def to_dict(self) -> dict:
        """JSON-friendly rendering of the report, of which ``to_json`` is the
        indented ``json.dumps``.  No name in it may hold ``"\\0"``, the
        marker of ``to_json``; no name of the DSL does."""
        return self._fields([w._asdict() for w in self.witnesses])

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2) + "\\n"``, byte for byte.

        json writes the report with a ``"\\0"`` marker in place of each block
        of ``_JSON_BLOCK`` witnesses, and with it the witness array's brackets
        and separators, and the text is split at the markers; so no name may
        hold ``"\\0"``.  Each block fills one layout per witness, json's
        rendering of a witness with a ``%s`` for each field.  Each distinct
        permutation and mapping object is spelled once (``_spelled_field``),
        memoised by ``id()``, not by value, so that -0.0 and 0.0, NaN, and 1,
        1.0 and True each keep their own spelling; the report's witnesses
        keep every such object alive meanwhile.  json's C encoder spells the
        three floats of each witness, one field of a block at a time, as its
        indenting encoder does.
        """
        starts = range(0, len(self.witnesses), _JSON_BLOCK)
        text = json.dumps(self._fields([_MARK] * len(starts)), indent=2) + "\n"
        pieces = text.split(json.dumps(_MARK))  # the head, a separator between blocks, the tail
        parts = [pieces[0]]
        record = _witness_layout()
        spelled: dict[int, str] = {}  # id() of a permutation or mapping -> its text
        for lo, after in zip(starts, pieces[1:]):
            block = self.witnesses[lo : lo + _JSON_BLOCK]
            columns = list(zip(*block))  # one per field: two permutations, two dicts, three floats
            distinct = {id(obj): obj for column in columns[:4] for obj in column}
            spelled.update((key, _spelled_field(obj)) for key, obj in distinct.items() if key not in spelled)
            width = len(columns)
            fills = [""] * (width * len(block))  # witness by witness, field by field
            for f, column in enumerate(columns):
                if f < 4:
                    fills[f::width] = [spelled[id(obj)] for obj in column]
                else:
                    fills[f::width] = json.dumps(column)[1:-1].split(", ")
            parts += [_RECORD_SEP.join([record] * len(block)) % tuple(fills), after]
        return "".join(parts)

    def _fields(self, witnesses: list) -> dict:
        """Every field, in declaration order, with ``witnesses`` as given;
        json writes the tuples as arrays."""
        return {
            "model": self.model,
            "grid_size": self.grid_size,
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
            "witnesses": witnesses,
            "max_gap": self.max_gap,
            "n_points_any_invalid": self.n_points_any_invalid,
            "caveat": self.caveat,
        }


def _spelled_field(obj: Sequence | Mapping) -> str:
    """A permutation or a mapping of names to numbers as json's indented
    rendering writes it as a witness field: json's C encoder writes it with
    the indented item separator, and line breaks go after the opening and
    before the closing bracket, as json writes them for a non-empty one."""
    text = _FIELD_ENCODER.encode(obj)
    return text[0] + _ITEM_BREAK + text[1:-1] + _FIELD_BREAK + text[-1] if obj else text


def _witness_layout() -> str:
    """A witness as ``to_json`` writes it, with ``%s`` for each field."""
    text = json.dumps(dict.fromkeys(OrderingWitness._fields, _MARK), indent=2)
    return text.replace("\n", "\n    ").replace(json.dumps(_MARK), "%s")  # at the depth of the array


def _class_key(spec: ModelSpec, perm: tuple[int, ...]) -> tuple:
    """The class key of ``perm`` described in the module docstring."""
    fixers = _BASE_FIXERS.get(spec.base_prob, set())
    runs: list[tuple[FlowKind, set[int]]] = []
    for pos in perm:
        flow = spec.flows[pos - 1]
        if not (flow.predictor.has_intercept or flow.predictor.terms):
            continue
        if not runs and flow.kind in fixers:
            continue
        if runs and runs[-1][0] is flow.kind:
            runs[-1][1].add(pos)
        else:
            runs.append((flow.kind, {pos}))
    return tuple((kind, frozenset(positions)) for kind, positions in runs)


def _scaler_groups(scalers: list[np.ndarray], n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """The first point and the size of each distinct tuple of flow scalers,
    in order of first occurrence.  Tuples are compared by their bytes, so NaN
    and inf scalers group exactly."""
    import numpy as np

    if not scalers:  # no flows: no names, so the grid is one point
        return np.zeros(1, dtype=np.intp), np.array([n_points])
    rows = np.ascontiguousarray(np.stack(scalers, axis=1))
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, sizes = np.unique(keys, return_index=True, return_counts=True)
    order = np.argsort(first)
    return first[order], sizes[order]


def _records(names: Sequence[str], cols: Mapping[str, np.ndarray], idx: np.ndarray) -> list[dict[str, float]]:
    """One dict per entry of ``idx``: each name's column value at that point."""
    columns = [cols[name][idx].tolist() for name in names]
    return [dict(zip(names, values)) for values in zip(*columns)] if names else [{} for _ in idx]


def enumerate_orderings(
    spec: ModelSpec,
    grid_size: int = 8,
    covariate_ranges: Mapping[str, tuple[float, float]] | None = None,
) -> OrderingReport:
    """Partition all flow orderings of ``spec`` into generically equal models.

    The grid, used only for invalid counts and witnesses, is the full
    factorial product of ``grid_size`` equispaced values on [-2, 2]
    for every parameter with, for every covariate, either the two binary
    levels {0, 1} or ``grid_size`` equispaced values over its entry in
    ``covariate_ranges``, which may name only covariates of the spec.
    Points that are invalid under a permutation are counted per permutation
    and reported; witnesses compare two classes only where both evaluate
    validly, at the first point of largest gap.  Each permutation is folded
    once per distinct tuple of flow scalers on the grid, not once per point,
    and depth first over the prefixes it shares with the permutation before
    it, so each prefix is folded once and at most n + 1 fold states of one
    value per distinct tuple are held; each class representative is compared
    with all later ones in blocks of about 2**20 values.  The witnesses at
    one grid point share their ``params`` and ``covariates`` dicts, and each
    flow's parameter names are mapped once per new position.  At most 8
    flows (8! orderings), 100,000
    witnesses (one per pair of classes), 1,000,000 grid points and
    20,000,000 representative values (classes x points) are allowed; each is
    checked before the grid.  A covariate range must have finite ends,
    lo < hi, and a finite span hi - lo.
    """
    import numpy as np

    n = len(spec.flows)
    if n > _MAX_FLOWS:
        raise ValueError(f"{n} flows would need {math.factorial(n)} orderings; the limit is {_MAX_FLOWS} flows")
    if grid_size < 2:
        raise ValueError(f"grid_size must be at least 2, got {grid_size}")
    perms = list(itertools.permutations(range(1, n + 1)))
    by_key: dict[tuple, list[tuple[int, ...]]] = {}
    for perm in perms:
        by_key.setdefault(_class_key(spec, perm), []).append(perm)
    classes = list(by_key.values())
    n_pairs = math.comb(len(classes), 2)
    if n_pairs > _MAX_WITNESSES:
        raise ValueError(
            f"{len(classes)} classes would need {n_pairs} witnesses; the limit is {_MAX_WITNESSES}"
        )
    pnames = spec.parameter_names
    cnames = spec.covariate_names
    ranges = dict(covariate_ranges or {})
    for name, (lo, hi) in ranges.items():
        if name not in cnames:
            raise ValueError(f"range given for {name!r}, which is not a covariate of the model")
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError(f"range for {name!r} must be finite with lo < hi, got ({lo}, {hi})")
        if not math.isfinite(hi - lo):
            raise ValueError(f"range for {name!r} must have a finite span hi - lo, got ({lo}, {hi})")

    n_points = grid_size ** len(pnames)
    for name in cnames:
        n_points *= grid_size if name in ranges else 2
    if n_points > _MAX_POINTS:
        raise ValueError(f"grid has {n_points} points; limit is {_MAX_POINTS}")
    if len(classes) * n_points > _MAX_CLASS_POINTS:
        raise ValueError(
            f"{len(classes)} classes on {n_points} points would hold {len(classes) * n_points}"
            f" representative values; the limit is {_MAX_CLASS_POINTS}"
        )
    axes = [np.linspace(-2.0, 2.0, grid_size) for _ in pnames]
    for name in cnames:
        axes.append(np.linspace(*ranges[name], grid_size) if name in ranges else np.array([0.0, 1.0]))
    mesh = np.meshgrid(*axes, indexing="ij") if axes else []
    cols = {name: grid.reshape(-1) for name, grid in zip(pnames + cnames, mesh)}

    scalers = batch_scalers(spec, cols, cols, n_points)
    first, sizes = _scaler_groups(scalers, n_points)
    scalers = [scaler[first] for scaler in scalers]
    m = len(first)
    invalid_counts = {}
    any_invalid = np.zeros(m, dtype=bool)
    probs = np.empty((len(classes), m))  # one row per class representative, over the groups
    valids = np.empty((len(classes), m), dtype=bool)
    rep_class = {group[0]: c for c, group in enumerate(classes)}
    # perms is in lexicographic order: each permutation goes on from the state
    # after the longest prefix it shares with the one before.
    states = [fold_batch(spec.base_prob, (), (), m)]  # states[j]: after its first j flows
    previous: tuple[int, ...] = ()
    for perm in perms:
        shared = 0
        while shared < len(previous) and perm[shared] == previous[shared]:
            shared += 1
        del states[shared + 1 :]
        for pos in perm[shared:]:
            states.append(fold_batch(spec.base_prob, [spec.flows[pos - 1]], [scalers[pos - 1]], m, states[-1]))
        p, valid, ok = states[-1]
        invalid = ~(valid & ok)
        invalid_counts[perm] = int(sizes[invalid].sum())
        any_invalid |= invalid
        if perm in rep_class:
            probs[rep_class[perm]], valids[rep_class[perm]] = p, ~invalid
        previous = perm

    # Each representative against all later ones, in blocks of rows that keep
    # every temporary near _BLOCK_VALUES values.  argmax takes the first
    # group of largest gap, whose first point is the first point of that gap.
    low: list[int] = []  # per witness, in report order: the two classes and the group
    high: list[int] = []
    groups: list[int] = []
    rows = max(1, _BLOCK_VALUES // m)
    for i in range(len(classes)):
        for lo in range(i + 1, len(classes), rows):
            later = slice(lo, min(lo + rows, len(classes)))
            mutual = valids[i] & valids[later]
            with np.errstate(invalid="ignore"):
                diff = np.where(mutual, np.abs(probs[i] - probs[later]), -1.0)
            hits = np.flatnonzero(mutual.any(axis=1))
            low += [i] * len(hits)
            high += (lo + hits).tolist()
            groups += diff.argmax(axis=1)[hits].tolist()

    # The witnesses' fields, one column at a time, with one pair of records
    # per distinct grid point; each gap is the search's |difference| again,
    # the same float.
    points, at = np.unique(np.array(groups, dtype=np.intp), return_inverse=True)
    idx = first[points]  # the first grid point of each distinct witness point
    params, covariates = _records(pnames, cols, idx), _records(cnames, cols, idx)
    prob_low, prob_high = probs[low, groups], probs[high, groups]
    reps = [group[0] for group in classes]
    witnesses = [
        OrderingWitness(reps[i], reps[k], params[a], covariates[a], p_low, p_high, gap)
        for i, k, a, p_low, p_high, gap in zip(
            low, high, at.tolist(), prob_low.tolist(), prob_high.tolist(), np.abs(prob_low - prob_high).tolist()
        )
    ]

    # Each flow's name map at each position, once; joined per permutation.
    renamed = {(pos, new): _moved(flow, new)[1] for pos, flow in enumerate(spec.flows, 1) for new in range(1, n + 1)}
    return OrderingReport(
        model=pretty_print(spec),
        grid_size=grid_size,
        n_grid_points=n_points,
        permutations=perms,
        classes=classes,
        param_maps={perm: _joined(renamed[pos, new] for new, pos in enumerate(perm, start=1)) for perm in perms},
        invalid_counts=invalid_counts,
        n_points_any_invalid=int(sizes[any_invalid].sum()),
        witnesses=witnesses,
        max_gap=max((w.gap for w in witnesses), default=0.0),
    )
