import hashlib
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcalc.dsl import Flow, FlowKind, LinearPredictor, ModelSpec, parse, pretty_print
from flowcalc.engine import evaluate
from flowcalc import engine, orderings
from flowcalc.orderings import enumerate_orderings, permute_spec, remap_params

from helpers import close, grid_partition, loop_parameter_names, orderings_oracle, random_model_spec

MIXED_RUN_SPEC = "y = Ber(1/2) | ScRisk1(0+a) | ScRisk1(0+b) | ScOdds(1+c)"
TRIPLE_RISK_SPEC = "y = Ber(1/2) | ScRisk1(0+a) | ScRisk1(0+b) | ScRisk1(0+c)"


class TestPermuteSpec:
    def test_positions_renumbered_and_params_remapped(self, model1):
        permuted, param_map = permute_spec(model1, (1, 3, 2))
        assert pretty_print(permuted) == "y = Ber(1/2) | ScOdds(1+age) | ScRisk0(0+trt2) | ScRisk1(0+trt1)"
        assert param_map == {
            "f1.intercept": "f1.intercept",
            "f1.age": "f1.age",
            "f2.trt1": "f3.trt1",
            "f3.trt2": "f2.trt2",
        }

    def test_identity_permutation(self, model1):
        permuted, param_map = permute_spec(model1, (1, 2, 3))
        assert permuted == model1
        assert all(k == v for k, v in param_map.items())

    def test_model1_reordered_is_model2_shaped(self, model1, model2):
        permuted, _ = permute_spec(model1, (1, 3, 2))
        assert permuted == model2

    def test_bad_permutations_rejected(self, model1):
        with pytest.raises(ValueError, match="rearrange"):
            permute_spec(model1, (1, 2))
        with pytest.raises(ValueError, match="rearrange"):
            permute_spec(model1, (1, 2, 2))

    def test_remap_params_round_trip(self, model1, witness_logs):
        beta, gamma = witness_logs
        params = {"f1.intercept": 0.0, "f1.age": 0.0, "f2.trt1": beta, "f3.trt2": gamma}
        permuted, param_map = permute_spec(model1, (3, 1, 2))
        remapped = remap_params(params, param_map)
        covs = {"age": 40.0, "trt1": 1.0, "trt2": 1.0}
        assert evaluate(permuted, remapped, covs).valid


class TestEnumerateOrderings:
    def test_model1_and_model2_orders_are_distinguished(self, model1):
        report = enumerate_orderings(model1, grid_size=4)
        assert len(report.permutations) == 6
        assert sum(len(group) for group in report.classes) == 6
        assert report.class_of((1, 2, 3)) != report.class_of((1, 3, 2))
        assert report.max_gap > 1e-3

    def test_class_of_refuses_a_tuple_that_is_not_a_permutation(self, model1):
        report = enumerate_orderings(model1, grid_size=2)
        with pytest.raises(KeyError, match=r"\(1, 2\) is not a permutation of this report"):
            report.class_of((1, 2))

    def test_witnesses_replay_to_their_stated_gap(self, model1):
        report = enumerate_orderings(model1, grid_size=4)
        assert report.witnesses
        for witness in report.witnesses:
            probs = []
            for perm in (witness.perm_low, witness.perm_high):
                permuted, param_map = permute_spec(model1, perm)
                result = evaluate(permuted, remap_params(witness.params, param_map), witness.covariates)
                assert result.valid
                probs.append(result.probability)
            assert close(probs[0], witness.prob_low)
            assert close(probs[1], witness.prob_high)
            assert close(abs(probs[1] - probs[0]), witness.gap)
            assert witness.gap > 0.0

    def test_same_kind_flows_all_co_class(self):
        report = enumerate_orderings(parse(TRIPLE_RISK_SPEC), grid_size=4)
        assert len(report.classes) == 1
        assert len(report.classes[0]) == 6
        assert report.witnesses == []
        assert report.max_gap == 0.0

    def test_same_kind_run_permutations_co_class_in_mixed_spec(self):
        report = enumerate_orderings(parse(MIXED_RUN_SPEC), grid_size=4)
        # Swapping the two risk flows only leaves the model unchanged while
        # they sit next to each other in the fold order.
        assert report.class_of((1, 2, 3)) == report.class_of((2, 1, 3))
        assert report.class_of((3, 1, 2)) == report.class_of((3, 2, 1))
        # Once the odds flow separates them, the orders genuinely differ.
        assert report.class_of((1, 3, 2)) != report.class_of((2, 3, 1))
        assert len(report.classes) == 4

    def test_single_flow_trivial_partition(self):
        report = enumerate_orderings(parse("y = Ber(1/2) | ScOdds(1+age)"), grid_size=3)
        assert report.permutations == [(1,)]
        assert report.classes == [[(1,)]]
        assert report.max_gap == 0.0

    def test_zero_flow_trivial_partition(self):
        report = enumerate_orderings(parse("y = Ber(2/5)"), grid_size=3)
        assert report.classes == [[()]]
        assert report.n_grid_points == 1
        assert report.n_points_any_invalid == 0

    def test_factorial_guard(self):
        flows = " | ".join(f"ScRisk1(0+c{k})" for k in range(9))
        with pytest.raises(ValueError, match="orderings"):
            enumerate_orderings(parse(f"y = Ber(1/2) | {flows}"), grid_size=2)

    def test_grid_size_guard(self, model1):
        with pytest.raises(ValueError, match="grid_size"):
            enumerate_orderings(model1, grid_size=1)

    def test_point_budget_guard(self, model1):
        with pytest.raises(ValueError, match="points"):
            enumerate_orderings(model1, grid_size=20)

    def test_point_budget_is_checked_before_any_axis_is_built(self, model1):
        # One 10**6-value axis per parameter would take 32 MB before the refusal.
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="points"):
                enumerate_orderings(model1, grid_size=10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_representative_value_cap(self, model1, monkeypatch):
        # Model 1 at grid 2: 6 classes on 2**4 * 2**3 = 128 points.
        monkeypatch.setattr(orderings, "_MAX_CLASS_POINTS", 6 * 128)
        assert len(enumerate_orderings(model1, grid_size=2).classes) == 6
        monkeypatch.setattr(orderings, "_MAX_CLASS_POINTS", 6 * 128 - 1)
        with pytest.raises(ValueError, match="6 classes on 128 points would hold 768 representative values"):
            enumerate_orderings(model1, grid_size=2)

    def test_invalid_points_are_counted(self, model1):
        report = enumerate_orderings(model1, grid_size=4)
        assert report.n_grid_points == 4**4 * 2**3
        assert all(count >= 0 for count in report.invalid_counts.values())
        assert report.n_points_any_invalid > 0
        identity_invalid = report.invalid_counts[(1, 2, 3)]
        assert 0 < identity_invalid < report.n_grid_points

    def test_deterministic_across_runs(self, model1):
        a = enumerate_orderings(model1, grid_size=3)
        b = enumerate_orderings(model1, grid_size=3)
        assert a.classes == b.classes
        assert a.witnesses == b.witnesses
        assert a.max_gap == b.max_gap

    def test_continuous_covariate_ranges(self, model1):
        report = enumerate_orderings(
            model1, grid_size=3, covariate_ranges={"age": (20.0, 60.0)}
        )
        assert report.n_grid_points == 3**4 * 3 * 2 * 2
        ages = {w.covariates["age"] for w in report.witnesses}
        assert ages <= {20.0, 40.0, 60.0}

    def test_bad_range_rejected(self, model1):
        with pytest.raises(ValueError, match="range"):
            enumerate_orderings(model1, grid_size=3, covariate_ranges={"age": (60.0, 20.0)})
        with pytest.raises(ValueError, match="'agee', which is not a covariate"):
            enumerate_orderings(model1, grid_size=3, covariate_ranges={"agee": (20.0, 60.0)})

    def test_overflowing_range_span_rejected(self, model1):
        with pytest.raises(ValueError, match=r"range for 'age' must have a finite span hi - lo, got \(-1e\+308, 1e\+308\)"):
            enumerate_orderings(model1, grid_size=2, covariate_ranges={"age": (-1e308, 1e308)})
        # The widest span that does not overflow still gives a finite grid.
        report = enumerate_orderings(model1, grid_size=3, covariate_ranges={"age": (-8.9e307, 8.9e307)})
        assert report.witnesses and all(math.isfinite(w.covariates["age"]) for w in report.witnesses)

    def test_report_serializes_to_json_types(self, model1):
        report = enumerate_orderings(model1, grid_size=3)
        text = json.dumps(report.to_dict())
        round_tripped = json.loads(text)
        assert round_tripped["n_grid_points"] == report.n_grid_points
        assert round_tripped["caveat"] == report.caveat

    def test_classification_agrees_with_scalar_engine_spot_checks(self, model1):
        """Witness probabilities replay through evaluate() bit for bit: the
        grid takes math.exp of each predictor value, as eta() does."""
        report = enumerate_orderings(model1, grid_size=8, covariate_ranges={"age": (20.0, 60.0)})
        assert len(report.witnesses) == 15
        for witness in report.witnesses:
            for perm, prob in ((witness.perm_low, witness.prob_low), (witness.perm_high, witness.prob_high)):
                permuted, param_map = permute_spec(model1, perm)
                result = evaluate(permuted, remap_params(witness.params, param_map), witness.covariates)
                assert result.probability == prob


#: The flows of perfbench's ``orderings-5flow`` workload, in its source order.
FIVE_FLOWS = ["ScOdds(1+age)", "ScRisk1(0+trt1)", "ScRisk0(0+trt2)", "ScOdds(0+trt1)", "ScRisk1(1+trt2)"]

#: SHA-256 of ``json.dumps(report.to_dict(), indent=2)``: (model, grid size,
#: ranges, digest).  Each was taken from the report made while the grid was
#: grouped by predictor tuples, with each permutation's ``param_map`` dropped.
REPORT_DIGESTS = [
    *(
        ("y = Ber(1/2) | " + " | ".join(FIVE_FLOWS[i:] + FIVE_FLOWS[:i]), 3, None, digest)
        for i, digest in enumerate([
            "180db4a99824d127d4bf19e0ef4b0e503c1fcce5d735fb6f20b601c6315ce1a8",
            "469c2ab05a3891357d265c54d608b6e428084b80caa176fc3f9882c331464b82",
            "4cf43277f69d6da8795e1c02d5945cf60738ffea730c3ffe7c57deb626b62d05",
            "6c451484dadd6e04f779c25ffaed8344b380d31e8dd95dbcd9abfa8f8078b44d",
            "d8a2594bbe8fb084f96f7ec31ccd17b6f00e938ca5b9bcfc5066fef5be300ab3",
        ])
    ),
    (engine.MODEL1_SPEC, 8, None, "c67c1f969a9545850b31c16427d8077c16b903e3625a8d4ee6ab21e1a47cb51e"),
    (engine.MODEL2_SPEC, 3, {"age": (20.0, 70.0)}, "cfeb65d8c6c35ea80900342ca36fccb92ad2ae7f030629426f0fa3b932b73179"),
    # Ber(0) drops a leading ScOdds or ScRisk1 flow, Ber(1) a leading ScOdds or ScRisk0 flow.
    (
        "y = Ber(0) | ScOdds(1+a) | ScRisk1(0+b) | ScRisk0(1+a) | ScOdds(0+b)",
        3,
        None,
        "1205cfcfa83f4d748a3b0f5b7b377645ab159dc675634f493c5daa8f6606334e",
    ),
    (
        "y = Ber(1) | ScRisk0(1+a) | ScOdds(0+b) | ScRisk1(1+a) | ScRisk0(0+b)",
        3,
        None,
        "8b01ac5ee1aa1acbd1ce64fa2b1cf73e8f6211c09d22c183b0152778613d03fa",
    ),
]


@pytest.mark.parametrize(
    "text, grid_size, ranges, digest",
    REPORT_DIGESTS,
    ids=[f"rotation {i}" for i in range(5)] + ["model 1", "model 2 with age", "Ber(0)", "Ber(1)"],
)
def test_report_bytes_are_pinned(text, grid_size, ranges, digest):
    report = enumerate_orderings(parse(text), grid_size=grid_size, covariate_ranges=ranges)
    text = json.dumps(report.to_dict(), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "text, stages, calls",
    [(REPORT_DIGESTS[0][0], 325, 25), (engine.MODEL1_SPEC, 15, 9)],
    ids=["orderings-5flow", "model 1"],
)
def test_each_prefix_is_folded_once(text, stages, calls, monkeypatch):
    """The prefixes are folded level by level, one row per prefix: one flow
    update per distinct prefix, 5 + 20 + 60 + 120 + 120 rows for five flows
    and 3 + 6 + 6 for three, not n * n! (600 and 18), in n calls per level
    (25 and 9), not one per prefix (325 and 15)."""
    rows = []

    def counting(p, flow, eta):
        rows.append(len(p))
        return apply_flow(p, flow, eta)

    apply_flow = engine.apply_flow
    monkeypatch.setattr(engine, "apply_flow", counting)
    enumerate_orderings(parse(text), grid_size=3)
    assert sum(rows) == stages
    assert len(rows) == calls


def test_each_fold_goes_on_from_a_state_by_one_flow(monkeypatch):
    """A column block of five flows starts from one base state and makes 25
    ``fold_batch`` calls, one flow each: no call folds an empty flow list."""
    flows = []

    def counting(state, fold_flows, scalers):
        flows.append(len(fold_flows))
        return fold_batch(state, fold_flows, scalers)

    fold_batch = orderings.fold_batch
    monkeypatch.setattr(orderings, "fold_batch", counting)
    enumerate_orderings(parse(REPORT_DIGESTS[0][0]), grid_size=3)
    assert flows == [1] * 25


def test_column_blocks_give_the_one_block_report(monkeypatch):
    """Levels of up to 120 rows over 675 groups, folded in blocks of 200
    columns, write the same bytes as one block."""
    spec = parse(REPORT_DIGESTS[0][0])
    whole = enumerate_orderings(spec, grid_size=3).to_json()
    blocks = []

    def counting(base_prob, shape):  # the base state, once per block
        blocks.append(shape)
        return base_state(base_prob, shape)

    base_state = orderings.base_state
    monkeypatch.setattr(orderings, "base_state", counting)
    monkeypatch.setattr(orderings, "_BLOCK_VALUES", 120 * 200)
    assert enumerate_orderings(spec, grid_size=3).to_json() == whole
    assert blocks == [(1, 200), (1, 200), (1, 200), (1, 75)]


def test_every_level_holds_at_most_the_block_values(monkeypatch):
    """At 120 x 200 values per level, every state that ``fold_batch``
    receives or returns holds at most that many values, and so does each
    block's last level, which is held whole: 120 rows of 200, 200, 200 and
    75 columns."""
    limit = 120 * 200
    sizes, last = [], []

    def counting(state, flows, scalers):
        sizes.extend(a.size for a in state)
        state = fold_batch(state, flows, scalers)
        sizes.extend(a.size for a in state)
        return state

    def last_level(*args):
        state = fold_levels(*args)
        last.append([a.shape for a in state])
        return state

    fold_batch, fold_levels = orderings.fold_batch, orderings._fold_levels
    monkeypatch.setattr(orderings, "fold_batch", counting)
    monkeypatch.setattr(orderings, "_fold_levels", last_level)
    monkeypatch.setattr(orderings, "_BLOCK_VALUES", limit)
    enumerate_orderings(parse(REPORT_DIGESTS[0][0]), grid_size=3)
    assert max(sizes) <= limit
    assert last == [[(120, width)] * 3 for width in (200, 200, 200, 75)]


@pytest.mark.parametrize(
    "age",
    [(700.0, 800.0), (0.0, 1e-17), (-800.0, -700.0)],
    ids=["exp overflows to inf", "predictors closer than exp's rounding", "exp underflows to 0"],
)
def test_distinct_predictors_that_share_a_scaler_equal_the_oracle(model1, age):
    """Distinct predictors that share a scaler (exp rounds them together,
    overflows to inf or underflows to 0) fall in one group of the grid, which
    is grouped by scaler tuples; the report still equals the oracle, which
    evaluates every point."""
    for spec in (parse("y = Ber(1/2) | ScOdds(1+age) | ScRisk1(0+age) | ScRisk0(1+trt2)"), model1):
        report = enumerate_orderings(spec, grid_size=3, covariate_ranges={"age": age})
        expected = orderings_oracle(spec, report.classes, 3, {"age": age})
        assert report.invalid_counts == expected["invalid_counts"]
        assert report.n_points_any_invalid == expected["n_points_any_invalid"]
        assert [w._asdict() for w in report.witnesses] == expected["witnesses"]
        assert report.max_gap == expected["max_gap"]


def _distinct_scaler_tuples(spec, grid_size, ranges):
    """The number of distinct rows of ``batch_scalers`` broadcast to the
    dense grid, compared by bytes."""
    axes = [np.linspace(-2.0, 2.0, grid_size) for _ in spec.parameter_names]
    axes += [np.linspace(*ranges[name], grid_size) if name in ranges else np.array([0.0, 1.0])
             for name in spec.covariate_names]
    names = spec.parameter_names + spec.covariate_names
    mesh = dict(zip(names, np.meshgrid(*axes, indexing="ij")))
    shape = tuple(map(len, axes))
    rows = np.stack([np.broadcast_to(s, shape).reshape(-1) for s in engine.batch_scalers(spec, mesh, mesh)], axis=1)
    return len({row.tobytes() for row in rows})


@pytest.mark.parametrize(
    "age, columns",
    [((0.0, 1e-17), 27), ((700.0, 800.0), 45)],
    ids=["predictors closer than exp's rounding", "exp overflows to inf"],
)
def test_the_fold_runs_once_per_distinct_scaler_tuple(model1, age, columns, monkeypatch):
    """The base state of the fold is as wide as the grid has distinct scaler
    tuples: 27 and 45 of Model 1's 972 points, where grouping by predictor
    tuples folds 63 and 189."""
    widths = []

    def counting(base_prob, shape):  # the base state, once per block
        widths.append(shape[1])
        return base_state(base_prob, shape)

    base_state = orderings.base_state
    monkeypatch.setattr(orderings, "base_state", counting)
    enumerate_orderings(model1, grid_size=3, covariate_ranges={"age": age})
    assert sum(widths) == _distinct_scaler_tuples(model1, 3, {"age": age}) == columns


@pytest.mark.parametrize(
    "text, flows", [(engine.MODEL1_SPEC, 3), (REPORT_DIGESTS[0][0], 5)], ids=["model 1", "orderings-5flow"]
)
def test_each_flow_predictor_is_built_once(text, flows, monkeypatch):
    """One predictor build per flow per report: the grid is grouped by the
    scalers that ``batch_scalers`` returns, not by a second pass over the
    predictors."""
    built = []

    def counting(flow, params, covariates):
        built.append(flow.position)
        return build(flow, params, covariates)

    build = engine._linear_predictor
    monkeypatch.setattr(engine, "_linear_predictor", counting)
    if hasattr(orderings, "_linear_predictor"):
        monkeypatch.setattr(orderings, "_linear_predictor", counting)
    enumerate_orderings(parse(text), grid_size=3)
    assert sorted(built) == list(range(1, flows + 1))


def _renamed(name, order):
    """A parameter name of the original spec, ``f<k>.<role>``, as the
    ordering ``order`` names it: ``f<i>.<role>`` where ``order[i - 1] == k``."""
    position, role = name[1:].split(".", 1)
    return "f%d.%s" % (order.index(int(position)) + 1, role)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_permute_spec_renames_each_parameter_by_its_flows_new_position(seed, data):
    """Each parameter of the flow at original position k keeps its role and
    takes the position of k in the order, and the map lists the permuted
    spec's names in its order."""
    spec = random_model_spec(random.Random(seed))
    order = data.draw(st.permutations(range(1, len(spec.flows) + 1)))
    permuted, param_map = permute_spec(spec, order)
    assert param_map == {name: _renamed(name, order) for name in loop_parameter_names(spec)}
    assert list(param_map.values()) == list(permuted.parameter_names)
    assert [(f.kind, f.predictor) for f in permuted.flows] == [
        (spec.flows[k - 1].kind, spec.flows[k - 1].predictor) for k in order
    ]


def test_witnesses_replay_from_their_order_alone(model1):
    """Each witness of the JSON report replays bit for bit through
    ``evaluate`` with its parameters renamed by the order alone; the report
    holds no parameter map."""
    report = json.loads(enumerate_orderings(model1, grid_size=3).to_json())
    assert all(set(entry) == {"order", "invalid_points"} for entry in report["permutations"])
    assert report["witnesses"]
    for witness in report["witnesses"]:
        for side in ("low", "high"):
            order = witness[f"perm_{side}"]
            params = {_renamed(name, order): value for name, value in witness["params"].items()}
            result = evaluate(permute_spec(model1, order)[0], params, witness["covariates"])
            assert result.valid and result.probability == witness[f"prob_{side}"]


def test_tuple_groups_compare_bytes():
    """NaN groups with NaN, -0.0 apart from 0.0, and each group is listed at
    its first point, in rising order, with sizes that sum to the points."""
    nan, inf = math.nan, math.inf
    a = np.array([nan, 0.0, -0.0, inf, nan, -inf, 0.0, -0.0, inf, 1.0])
    b = np.array([1.0, 2.0, 2.0, 3.0, 1.0, 3.0, 2.0, 2.0, 3.0, nan])
    first, sizes = orderings._tuple_groups([a, b], len(a))
    assert first.tolist() == [0, 1, 2, 3, 5, 9]
    assert sizes.tolist() == [2, 2, 2, 2, 1, 1]
    assert sizes.sum() == len(a)
    assert (np.diff(first) > 0).all()
    first, sizes = orderings._tuple_groups([], 7)
    assert first.tolist() == [0] and sizes.tolist() == [7]


def _dumped(report):
    return json.dumps(report.to_dict(), indent=2) + "\n"


@pytest.mark.parametrize(
    "text, grid_size, ranges, digest",
    [*REPORT_DIGESTS, (engine.MODEL1_SPEC, 3, {"age": (-8.9e307, 8.9e307)}, None)],
    ids=[f"rotation {i}" for i in range(5)]
    + ["model 1", "model 2 with age", "Ber(0)", "Ber(1)", "model 1 with the widest age"],
)
def test_to_json_is_the_indented_dump(text, grid_size, ranges, digest):
    report = enumerate_orderings(parse(text), grid_size=grid_size, covariate_ranges=ranges)
    out = report.to_json()
    assert report.witnesses and out == _dumped(report)
    if digest is not None:
        assert hashlib.sha256(out[:-1].encode()).hexdigest() == digest


def test_to_json_spells_every_leaf_as_json_does():
    """Special floats, ints, bools and a "%" in a name, across more than one
    block.  Leaves that are equal but spelled apart (0.0 and -0.0; 1, 1.0 and
    True; 0 and False) sit under one key in distinct dicts, and every third
    witness shares one params dict, so a memo keyed by value, not by object,
    writes other bytes."""
    values = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308, 0.1, 2, True]
    values += [1, 1.0, False, 0]
    shared = {"a%s": -0.0, "%": 1}
    witnesses = [
        orderings.OrderingWitness(
            (1, 2), (2, 1),
            shared if k % 3 == 0 else {"a%s": values[k % 14], "%": 1e16}, {"c": values[(k + 3) % 14]},
            values[(k + 5) % 14], values[(k + 7) % 14], float(k),
        )
        for k in range(orderings._JSON_BLOCK + 3)
    ]
    report = orderings.OrderingReport(
        "y = Ber(1/2) | ScOdds(0+c) | ScRisk1(0+c)", 2, 4, [(1, 2), (2, 1)], [[(1, 2)], [(2, 1)]],
        {(1, 2): 0, (2, 1): 1}, 1, witnesses, math.nan,
    )
    assert report.to_json() == _dumped(report)
    report.witnesses = []
    assert '\n  "witnesses": [],\n' in report.to_json()
    assert report.to_json() == _dumped(report)


@st.composite
def small_specs(draw):
    """Specs of 1-4 flows, each with an optional intercept and at most one
    covariate, so the grid stays small; empty predictors and the degenerate
    bases Ber(0) and Ber(1) are included."""
    bases = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(9, 10), Fraction(1, 7)]
    base = draw(st.sampled_from(bases))
    terms = st.lists(st.sampled_from(["a", "b"]), max_size=1)
    flow = st.tuples(st.sampled_from(list(FlowKind)), st.booleans(), terms)
    flows = tuple(
        Flow(kind=kind, predictor=LinearPredictor(intercept, tuple(covs)), position=pos)
        for pos, (kind, intercept, covs) in enumerate(draw(st.lists(flow, min_size=1, max_size=4)), start=1)
    )
    return ModelSpec("y", base, flows)


@settings(max_examples=150, deadline=None)
@given(spec=small_specs())
def test_class_key_matches_grid_partition(spec):
    """The classes read off the spec equal the greedy grid partition at grid 3
    and tolerance 1e-10, members and class order included."""
    expected = grid_partition(spec, grid_size=3, tolerance=1e-10)
    assert enumerate_orderings(spec, grid_size=3).classes == expected


@settings(max_examples=60, deadline=None)
@given(spec=small_specs(), grid_size=st.sampled_from([2, 3]), data=st.data())
def test_report_equals_the_per_point_oracle(spec, grid_size, data):
    """Invalid counts, witnesses (the first point of largest gap, ties
    included) and max_gap equal a point-by-point evaluation, with and without
    a covariate range; a covariate at 0 makes its coefficients irrelevant, so
    ties are common."""
    ranges = None
    if spec.covariate_names and data.draw(st.booleans()):
        ranges = {data.draw(st.sampled_from(spec.covariate_names)): data.draw(
            st.sampled_from([(-1.0, 1.0), (0.0, 2.0), (20.0, 70.0), (-800.0, 800.0)]))}
    if grid_size ** len(spec.parameter_names) * 2 ** len(spec.covariate_names) > 1000:
        grid_size = 2  # at most 24 orderings on 1,500 points for the scalar oracle
    report = enumerate_orderings(spec, grid_size=grid_size, covariate_ranges=ranges)
    expected = orderings_oracle(spec, report.classes, grid_size, ranges)
    assert report.n_grid_points == expected["n_grid_points"]
    assert report.invalid_counts == expected["invalid_counts"]
    assert report.n_points_any_invalid == expected["n_points_any_invalid"]
    assert [w._asdict() for w in report.witnesses] == expected["witnesses"]
    assert report.max_gap == expected["max_gap"]


@settings(max_examples=100, deadline=None)
@given(spec=small_specs(), grid_size=st.sampled_from([2, 3]))
def test_to_json_is_the_indented_dump_for_small_specs(spec, grid_size):
    """One class (no witnesses), no covariates, empty predictors, Ber(0) and Ber(1)."""
    report = enumerate_orderings(spec, grid_size=grid_size)
    assert report.to_json() == _dumped(report)


#: Each flow's Moebius matrix, acting on (p, 1): p -> (a*p + b) / (c*p + d).
_MOEBIUS = {
    FlowKind.SC_ODDS: lambda eta: ((eta, 0), (eta - 1, 1)),
    FlowKind.SC_RISK1: lambda eta: ((eta, 0), (0, 1)),
    FlowKind.SC_RISK0: lambda eta: ((eta, 1 - eta), (0, 1)),
}


def _symbolic_partition(spec, sympy):
    """The permutations of ``spec``, grouped in first-seen order by the
    rational function their composed matrices give at the base, with one
    symbol per flow with a non-empty predictor and eta = 1 for an empty one."""
    ring, *symbols = sympy.ring([f"eta{flow.position}" for flow in spec.flows], sympy.QQ)
    etas = [eta if flow.predictor.has_intercept else ring(1) for flow, eta in zip(spec.flows, symbols)]
    p = sympy.Rational(spec.base_prob.numerator, spec.base_prob.denominator)
    groups: dict = {}
    for perm in itertools.permutations(range(1, len(spec.flows) + 1)):
        (a, b), (c, d) = (ring(1), ring(0)), (ring(0), ring(1))
        for pos in perm:
            (m00, m01), (m10, m11) = _MOEBIUS[spec.flows[pos - 1].kind](etas[pos - 1])
            (a, b), (c, d) = (m00 * a + m01 * c, m00 * b + m01 * d), (m10 * a + m11 * c, m10 * b + m11 * d)
        function = sympy.cancel((a * p + b).as_expr() / (c * p + d).as_expr())
        groups.setdefault(function, []).append(perm)
    return list(groups.values())


def test_class_key_is_the_symbolic_partition():
    """The classes read off the spec are exactly the groups of equal maps,
    for 1-5 flows over the bases 0, 1, 1/2, 1/3 and 9/10: co-classed orderings
    are one function of the scalers, and different classes differ for generic
    scalers, not only on a grid."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(20261018)
    for n_flows in range(1, 6):
        for base in (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(9, 10)):
            for _ in range(2 if n_flows < 5 else 1):
                flows = tuple(
                    Flow(rng.choice(list(FlowKind)), LinearPredictor(rng.random() < 0.8, ()), pos)
                    for pos in range(1, n_flows + 1)
                )
                spec = ModelSpec("y", base, flows)
                expected = _symbolic_partition(spec, sympy)
                assert enumerate_orderings(spec, grid_size=2).classes == expected, pretty_print(spec)
