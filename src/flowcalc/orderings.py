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
point's tuple of flow scalers.  The scalers are taken by ``batch_scalers``
on the sparse grid, once per value of each flow's predictor, and the grid's
points are grouped by the bytes of their scaler tuples; the fold runs once
per group, at its first point, and each group counts for every point in
it.  The prefixes of the permutations are folded level by level:
level j holds one row per prefix of j flows and comes from level j - 1 in n
``fold_batch`` calls, one per flow over the rows of the prefixes that lack
it.  So each prefix is folded once (325 flow updates in 25 calls for 5
flows, not 600), with the same operations in the same order as a fold from
the base.  The last level is reduced to the invalid counts and the
representatives' rows as it is folded, and the groups are folded in column
blocks, so that a level holds at most about ``_BLOCK_VALUES`` values.

Parameters travel with their flow when flows are permuted: the flow that was
at position k keeps its predictor, but its parameters are renamed to its new
position, each with the same role (``permute_spec``).  Scalers depend only
on the flow's own bindings, so a grid point is described once by the
original parameter names; a permutation's order alone gives the names it
uses, so the report carries no parameter map.
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
_MAX_CLASS_POINTS = 20_000_000  # classes x grid points, 8 bytes each
_BLOCK_VALUES = 2**20  # values per fold level, and per buffer of the witness search
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
    names the permuted spec uses for the same quantities: each parameter of
    the flow at original position k keeps its role and takes position i,
    where ``perm[i - 1] == k``.
    """
    n = len(spec.flows)
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"perm must rearrange positions 1..{n}, got {tuple(perm)}")
    old = [spec.flows[pos - 1] for pos in perm]
    new = tuple(Flow(kind=flow.kind, predictor=flow.predictor, position=i) for i, flow in enumerate(old, start=1))
    names = {name: renamed for a, b in zip(old, new) for name, renamed in zip(a.parameter_names, b.parameter_names)}
    return ModelSpec(spec.outcome, spec.base_prob, new), names


def remap_params(params: Mapping[str, float], param_map: Mapping[str, str]) -> dict[str, float]:
    """Rename a binding set through a permutation's parameter map."""
    return {param_map[name]: value for name, value in params.items()}


class OrderingWitness(NamedTuple):
    """A grid point at which two class representatives disagree.

    ``params`` uses the original spec's parameter names; replay a side by
    permuting the spec and remapping the bindings with ``permute_spec`` and
    ``remap_params`` on the side's permutation alone, and evaluating.  The
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

    The invalid counts and witnesses come from a grid grouped by scaler
    tuples, one fold per group.  A permutation's parameter names follow from
    its order (``permute_spec``), so the report keeps no parameter map.
    ``to_dict`` gives it as plain data and ``to_json`` as the indented JSON
    the CLI writes, which is ``json.dumps`` of ``to_dict`` written faster.
    """

    model: str
    grid_size: int
    n_grid_points: int
    permutations: list[tuple[int, ...]]
    classes: list[list[tuple[int, ...]]]
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
        object of a witness field is spelled once, memoised by ``id()``, not
        by value, so that -0.0 and 0.0, NaN, and 1, 1.0 and True each keep
        their own spelling; the report's witnesses keep every such object
        alive meanwhile.  A permutation or mapping (a tuple, list or dict) is
        spelled by ``_spelled_field``; a block's new numbers, every other
        field, are spelled by one call of json's C encoder, as its indenting
        encoder spells them.  ``enumerate_orderings`` shares one float object
        per distinct number, so the memo spells each number once.
        """
        starts = range(0, len(self.witnesses), _JSON_BLOCK)
        text = json.dumps(self._fields([_MARK] * len(starts)), indent=2) + "\n"
        pieces = text.split(json.dumps(_MARK))  # the head, a separator between blocks, the tail
        parts = [pieces[0]]
        record = _witness_layout()
        spelled: dict[int, str] = {}  # id() of a field's object -> its text
        for lo, after in zip(starts, pieces[1:]):
            block = self.witnesses[lo : lo + _JSON_BLOCK]
            fields = list(itertools.chain.from_iterable(block))  # witness by witness, field by field
            objects = dict(zip(map(id, fields), fields))
            numbers = []  # id()s of the block's numbers not yet spelled
            for key in objects.keys() - spelled.keys():
                if isinstance(objects[key], (tuple, list, dict)):
                    spelled[key] = _spelled_field(objects[key])
                else:
                    numbers.append(key)
            spelled.update(zip(numbers, json.dumps([objects[key] for key in numbers])[1:-1].split(", ")))
            fills = tuple(map(spelled.__getitem__, map(id, fields)))
            parts += [_RECORD_SEP.join([record] * len(block)) % fills, after]
        return "".join(parts)

    def _fields(self, witnesses: list) -> dict:
        """Every field, in declaration order, with ``witnesses`` as given;
        json writes the tuples as arrays."""
        return {
            "model": self.model,
            "grid_size": self.grid_size,
            "n_grid_points": self.n_grid_points,
            "permutations": [
                {"order": list(perm), "invalid_points": self.invalid_counts[perm]} for perm in self.permutations
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


def _tuple_groups(columns: Sequence[np.ndarray], n_points: int) -> tuple[np.ndarray, np.ndarray]:
    """The first point and the size of each distinct tuple of the float
    ``columns``, each of ``n_points`` values, in order of first occurrence.
    Tuples are compared by their bytes, so NaN, inf and -0.0 group exactly:
    one stable lexsort of the columns' bit patterns puts each tuple's points
    together, its first point first."""
    import numpy as np

    if not columns:  # one empty tuple at every point
        return np.zeros(1, dtype=np.intp), np.array([n_points])
    bits = np.stack([column.view(np.uint64) for column in columns])
    order = np.lexsort(bits)
    bits = bits[:, order]
    new = np.ones(n_points, dtype=bool)
    np.any(bits[:, 1:] != bits[:, :-1], axis=0, out=new[1:])
    starts = np.flatnonzero(new)
    first, sizes = order[starts], np.diff(starts, append=n_points)
    rank = np.argsort(first)
    return first[rank], sizes[rank]


def _prefix_levels(n: int) -> tuple[list[list[tuple[int, np.ndarray]]], list[tuple[int, ...]]]:
    """The prefix tree of the orderings of flows 1..n, level by level.

    Level j holds one row per prefix of j flows.  Each level is a list of
    ``(flow position, rows)``: the rows of the level before whose prefixes
    lack that flow.  The level's own rows are those prefixes extended by the
    flow, flow by flow.  Also returns the prefixes of the last level, which
    are all the orderings, in row order.
    """
    import numpy as np

    prefixes: list[tuple[int, ...]] = [()]
    levels = []
    for _ in range(n):
        level = [(pos, [r for r, prefix in enumerate(prefixes) if pos not in prefix]) for pos in range(1, n + 1)]
        prefixes = [prefixes[r] + (pos,) for pos, rows in level for r in rows]
        levels.append([(pos, np.array(rows, dtype=np.intp)) for pos, rows in level])
    return levels, prefixes


def _last_level(spec: ModelSpec, levels: list, scalers: Sequence[np.ndarray], width: int):
    """Fold the prefix tree over ``width`` columns, level by level through
    ``fold_batch`` with one row per prefix, and return the last level in row
    order, one ``(p, valid, ok)`` of rows per flow, each folded only as it is
    read.  Each level before it is held whole while the next is folded."""
    import numpy as np

    def extended(state, level):
        return (
            fold_batch(spec.base_prob, [spec.flows[pos - 1]], [scalers[pos - 1]], width, tuple(a[rows] for a in state))
            for pos, rows in level
        )

    state = tuple(a[np.newaxis] for a in fold_batch(spec.base_prob, (), (), width))
    for level in levels[:-1]:
        state = tuple(map(np.concatenate, zip(*extended(state, level))))
    return extended(state, levels[-1]) if levels else [state]  # no flows: the base is the last level


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
    factorial product of ``grid_size`` equispaced values on [-2, 2] for
    every parameter with, for every covariate, either the two binary levels
    {0, 1} or ``grid_size`` equispaced values over its entry in
    ``covariate_ranges``, which may name only covariates of the spec.
    Points that are invalid under a permutation are counted per permutation
    and reported; witnesses compare two classes only where both evaluate
    validly, at the first point of largest gap.  The grid is grouped by each
    point's tuple of flow scalers from ``batch_scalers``, compared by bytes,
    and each permutation is folded once per group at its first point, not
    once per point.  The prefix tree of the permutations is folded level by
    level, one row per prefix, so each prefix is folded once; the groups go
    in column blocks of at most 2**20 values per level (n! rows wide at the
    widest), and the last level is reduced as it is folded, so no n! x
    groups array is held.  Each class representative keeps one probability
    per group, NaN where it is invalid, and is compared with all later ones
    in blocks of about 2**20 values.  The witnesses at one grid point share
    their ``params`` and ``covariates`` dicts, and witnesses share one float
    object per distinct number.  At most 8 flows (8! orderings), 100,000
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
    names = pnames + cnames
    axes = [np.linspace(-2.0, 2.0, grid_size) for _ in pnames]
    for name in cnames:
        axes.append(np.linspace(*ranges[name], grid_size) if name in ranges else np.array([0.0, 1.0]))
    shape = tuple(len(axis) for axis in axes)
    mesh = dict(zip(names, np.meshgrid(*axes, indexing="ij", sparse=True)))
    flat = [s.reshape(-1) for s in batch_scalers(spec, mesh, mesh, shape)]
    first, sizes = _tuple_groups(flat, n_points)
    m = len(first)
    coords = np.unravel_index(first, shape) if axes else ()
    cols = {name: axis[at] for name, axis, at in zip(names, axes, coords)}  # at each group's first point
    scalers = [s[first] for s in flat]

    # The prefix tree in column blocks of at most _BLOCK_VALUES values per
    # level (the widest levels hold n! rows); the last level is reduced as it
    # is folded.
    levels, last = _prefix_levels(n)
    row_of = {perm: row for row, perm in enumerate(last)}
    reps = [group[0] for group in classes]
    rep_rows = np.array([row_of[perm] for perm in reps])
    counts = np.zeros(len(perms), dtype=np.int64)  # per row of the last level
    any_invalid = np.zeros(m, dtype=bool)
    probs = np.empty((len(classes), m))  # per class representative and group; NaN where invalid
    width = max(1, _BLOCK_VALUES // len(perms))
    for lo in range(0, m, width):
        block = slice(lo, min(lo + width, m))
        row = 0
        for p, valid, ok in _last_level(spec, levels, [s[block] for s in scalers], block.stop - lo):
            invalid = ~(valid & ok)
            counts[row : row + len(p)] += invalid @ sizes[block]
            any_invalid[block] |= invalid.any(axis=0)
            here = (rep_rows >= row) & (rep_rows < row + len(p))
            probs[here, block] = np.where(invalid[rep_rows[here] - row], np.nan, p[rep_rows[here] - row])
            row += len(p)

    # Each representative against all later ones, in blocks of rows that keep
    # every buffer near _BLOCK_VALUES values.  argmax takes the first group of
    # largest gap, whose first point is the first point of that gap; a gap
    # is NaN where either side is invalid and is set to -1, so a pair with no
    # mutually valid group has the maximum -1.
    low: list[int] = []  # per witness, in report order: the two classes and the group
    high: list[int] = []
    groups: list[int] = []
    rows = min(max(1, _BLOCK_VALUES // m), len(classes))
    gaps = np.empty((rows, m))
    for i in range(len(classes)):
        for lo in range(i + 1, len(classes), rows):
            hi = min(lo + rows, len(classes))
            gap = gaps[: hi - lo]
            np.subtract(probs[i], probs[lo:hi], out=gap)
            np.abs(gap, out=gap)
            np.fmax(gap, -1.0, out=gap)  # NaN, where either side is invalid, to -1
            best = gap.argmax(axis=1)
            hits = np.flatnonzero(gap[np.arange(hi - lo), best] >= 0.0)
            low += [i] * len(hits)
            high += (lo + hits).tolist()
            groups += best[hits].tolist()

    # The witnesses' fields, one column at a time, with one pair of records
    # per distinct grid point and one float object per distinct number (by
    # its bits, so 0.0 and -0.0 stay apart); each gap is the search's
    # |difference| again, the same float.
    points, at = np.unique(np.array(groups, dtype=np.intp), return_inverse=True)
    params, covariates = _records(pnames, cols, points), _records(cnames, cols, points)
    prob_low, prob_high = probs[low, groups], probs[high, groups]
    bits, which = np.unique(np.concatenate([prob_low, prob_high, np.abs(prob_low - prob_high)]).view(np.uint64),
                            return_inverse=True)
    numbers = list(map(bits.view(np.float64).tolist().__getitem__, which.tolist()))
    k, at = len(low), at.tolist()
    witnesses = list(map(OrderingWitness._make, zip(
        map(reps.__getitem__, low), map(reps.__getitem__, high), map(params.__getitem__, at),
        map(covariates.__getitem__, at), numbers[:k], numbers[k : 2 * k], numbers[2 * k :],
    )))

    return OrderingReport(
        model=pretty_print(spec),
        grid_size=grid_size,
        n_grid_points=n_points,
        permutations=perms,
        classes=classes,
        invalid_counts={perm: int(counts[row_of[perm]]) for perm in perms},
        n_points_any_invalid=int(sizes[any_invalid].sum()),
        witnesses=witnesses,
        max_gap=max((w.gap for w in witnesses), default=0.0),
    )
