import dataclasses
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcalc import marginal
from flowcalc.dsl import parse
from flowcalc.engine import BindingError, EvaluationError, closed_form_model1, evaluate
from flowcalc.marginal import (
    CovariateDistribution,
    DistributionError,
    MarginalizationError,
    expected_eta3,
    marginalize,
    recovery_condition,
    recovery_equivalence_suite,
)

from helpers import close, mc_marginal, model1_params, scalar_recovery_suite, scan_weights


def binary_dist(covariate, pi):
    rows = [{"value": 0.0, "probability": 1.0 - pi}, {"value": 1.0, "probability": pi}]
    return CovariateDistribution.from_table(covariate, rows)


def _written(draw, x: float):
    """``x`` as a config may write it: an int when it is integral, else a float or its text."""
    forms = [x, repr(x)] + [int(x)] * (x == int(x))
    return draw(st.sampled_from(forms))


@st.composite
def _tables(draw):
    """Shuffled config rows over 1-4 support values, each row group binding
    some of 0-2 context covariates, and a query context over them."""
    scale = draw(st.sampled_from((1, 2)))
    support = [v / scale for v in draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4, unique=True))]
    names = draw(st.lists(st.sampled_from(("trt1", "sex", "age")), max_size=2, unique=True))
    level = st.sampled_from((0.0, 1.0, 2.5))
    contexts = draw(
        st.lists(
            st.fixed_dictionaries({}, optional={name: level for name in names}),
            min_size=1,
            max_size=4,
            unique_by=lambda ctx: tuple(sorted(ctx.items())),
        )
    )
    rows = []
    for ctx in contexts:
        counts = draw(st.lists(st.integers(0, 9), min_size=len(support), max_size=len(support)).filter(any))
        for value, count in zip(support, counts):
            row = {"value": _written(draw, value), "probability": _written(draw, count / sum(counts))}
            if ctx or draw(st.booleans()):
                row["context"] = {k: _written(draw, v) for k, v in ctx.items()}
            rows.append(row)
    query = draw(st.fixed_dictionaries({}, optional={name: level for name in (*names, "dose")}))
    return draw(st.permutations(rows)), query


RECOVERY_TABLE = [
    {"context": {"trt1": 0}, "value": 1, "probability": 0.4},
    {"context": {"trt1": 0}, "value": 0, "probability": 0.6},
    {"context": {"trt1": 1}, "value": 1, "probability": 0.6},
    {"context": {"trt1": 1}, "value": 0, "probability": 0.4},
]


class TestDistributionTable:
    def test_lookup_follows_the_conditioning_context(self):
        dist = CovariateDistribution.from_table("trt2", RECOVERY_TABLE)
        assert dist.support == (0.0, 1.0)
        assert dist.weights({"trt1": 0.0, "age": 40.0}) == (0.6, 0.4)
        assert dist.weights({"trt1": 1.0}) == (0.4, 0.6)

    def test_unmatched_context_is_an_error(self):
        dist = CovariateDistribution.from_table("trt2", RECOVERY_TABLE)
        with pytest.raises(DistributionError, match="no distribution rows"):
            dist.weights({"age": 40.0})

    def test_ambiguous_context_is_an_error(self):
        rows = RECOVERY_TABLE + [
            {"context": {"sex": 0}, "value": 1, "probability": 0.5},
            {"context": {"sex": 0}, "value": 0, "probability": 0.5},
        ]
        dist = CovariateDistribution.from_table("trt2", rows)
        with pytest.raises(DistributionError, match="ambiguous"):
            dist.weights({"trt1": 0.0, "sex": 0.0})

    @settings(max_examples=300, deadline=None)
    @given(table=_tables())
    def test_weights_equal_a_row_scan(self, table):
        rows, query = table
        dist = CovariateDistribution.from_table("trt2", rows)
        assert dist.support == tuple(sorted({float(row["value"]) for row in rows}))
        expected = scan_weights(rows, query)
        if isinstance(expected, tuple):
            assert dist.weights(query) == expected
            return
        refusal = "no distribution rows" if expected == 0 else f"ambiguous distribution: {expected} row groups"
        with pytest.raises(DistributionError, match=f"^{refusal} match context {re.escape(str(query))}$"):
            dist.weights(query)

    def test_incomplete_support_rejected(self):
        rows = [
            {"context": {}, "value": 0, "probability": 0.5},
            {"context": {}, "value": 1, "probability": 0.5},
            {"context": {"trt1": 1}, "value": 1, "probability": 1.0},
        ]
        with pytest.raises(DistributionError, match="cover"):
            CovariateDistribution.from_table("trt2", rows)

    def test_sum_to_one_enforced_per_context(self):
        rows = [
            {"context": {}, "value": 0, "probability": 0.5},
            {"context": {}, "value": 1, "probability": 0.6},
        ]
        with pytest.raises(DistributionError, match="sums to"):
            CovariateDistribution.from_table("trt2", rows)

    @pytest.mark.parametrize(
        "row",
        [
            1,
            None,
            "a",
            [1, 2],
            {"probability": 1.0},
            {"value": 1, "probability": "x"},
            {"value": 1, "probability": 10**400},
            {"context": {"trt1": 10**400}, "value": 1, "probability": 1.0},
            {"value": math.nan, "probability": 1.0},
            {"value": -math.inf, "probability": 1.0},
            {"context": {"trt1": math.nan}, "value": 1, "probability": 1.0},
            {"context": {"trt1": 0, "sex": "inf"}, "value": 1, "probability": 1.0},
            {"context": {"trt2": 0}, "value": 1, "probability": 1.0},
        ],
        ids=[
            "int", "null", "string", "list", "no value", "text probability", "huge probability", "huge context",
            "nan value", "infinite value", "nan context", "infinite context", "own covariate in context",
        ],
    )
    def test_malformed_row_rejected(self, row):
        with pytest.raises(DistributionError, match="^malformed distribution row "):
            CovariateDistribution.from_table("trt2", [row])

    def test_float_text_and_booleans_stay_accepted(self):
        rows = [{"context": {"trt1": True}, "value": "1", "probability": "1e0"}]
        dist = CovariateDistribution.from_table("trt2", rows)
        assert dist.support == (1.0,)
        assert dist.weights({"trt1": 1.0}) == (1.0,)

    @pytest.mark.parametrize("prob", [1.5, -0.25])
    def test_row_probability_outside_the_unit_interval_rejected(self, prob):
        with pytest.raises(DistributionError, match=rf"^row probability {prob} outside \[0, 1\]$"):
            CovariateDistribution.from_table("trt2", [{"value": 1, "probability": prob}])

    def test_empty_table_rejected(self):
        with pytest.raises(DistributionError, match="^distribution table is empty$"):
            CovariateDistribution.from_table("trt2", [])

    def test_negative_weight_in_a_group_rejected(self):
        message = r"^probability -0.5 of trt2=0.0 under context {} outside \[0, 1\]$"
        with pytest.raises(DistributionError, match=message):
            CovariateDistribution("trt2", (0.0, 1.0), (((), (-0.5, 1.5)),))

    def test_group_shorter_than_the_support_rejected(self):
        message = r"^context {'trt1': 1.0} does not cover the full support \(0.0, 1.0\)$"
        with pytest.raises(DistributionError, match=message):
            CovariateDistribution("trt2", (0.0, 1.0), (((("trt1", 0.0),), (0.5, 0.5)), ((("trt1", 1.0),), (1.0,))))

    def test_duplicate_rows_rejected(self):
        rows = [
            {"context": {}, "value": 1, "probability": 0.5},
            {"context": {}, "value": 1, "probability": 0.5},
        ]
        with pytest.raises(DistributionError, match="duplicate"):
            CovariateDistribution.from_table("trt2", rows)


class TestMarginalize:
    def test_point_mass_equals_plain_evaluation(self, model1, witness_logs):
        beta, gamma = witness_logs
        params = model1_params(beta=beta, gamma=gamma)
        point = CovariateDistribution("trt2", (1.0,), (((), (1.0,)),))
        direct = evaluate(model1, params, {"age": 40.0, "trt1": 1.0, "trt2": 1.0})
        assert marginalize(model1, params, point, {"age": 40.0, "trt1": 1.0}) == direct.probability

    def test_worked_example_marginals(self, model1):
        """beta = ln 1.2, gamma = ln 0.9, prevalences 0.4 / 0.6."""
        params = model1_params(beta=math.log(1.2), gamma=math.log(0.9))
        dist = CovariateDistribution.from_table("trt2", RECOVERY_TABLE)
        low = marginalize(model1, params, dist, {"age": 0.0, "trt1": 0.0})
        high = marginalize(model1, params, dist, {"age": 0.0, "trt1": 1.0})
        assert close(low, 0.52)
        assert close(high, 0.624)
        assert close(high / low, 1.2)

    def test_matches_closed_form_with_expected_scaler(self, model1, rng):
        """Marginalizing the survival flow's binary covariate is the same as
        plugging the expected survival scaler into the closed form."""
        done = 0
        while done < 100:
            alpha0 = rng.uniform(-2.0, 2.0)
            beta = rng.uniform(-1.0, 1.0)
            gamma = rng.uniform(-1.0, 1.0)
            pi = rng.uniform(0.0, 1.0)
            trt1 = float(rng.randint(0, 1))
            params = model1_params(alpha0=alpha0, beta=beta, gamma=gamma)
            try:
                value = marginalize(
                    model1, params, binary_dist("trt2", pi), {"age": 0.0, "trt1": trt1}
                )
            except MarginalizationError:
                continue
            done += 1
            eta1 = math.exp(alpha0)
            eta2 = math.exp(beta * trt1)
            assert close(value, closed_form_model1(eta1, eta2, expected_eta3(gamma, pi)))

    def test_unreferenced_covariate_is_a_no_op(self, model1, witness_logs):
        beta, gamma = witness_logs
        params = model1_params(beta=beta, gamma=gamma)
        context = {"age": 40.0, "trt1": 1.0, "trt2": 1.0}
        direct = evaluate(model1, params, context)
        assert marginalize(model1, params, binary_dist("sex", 0.3), context) == direct.probability

    def test_unreferenced_covariate_with_an_invalid_evaluation_raises(self, model1):
        params = model1_params(beta=math.log(3.0))
        context = {"age": 0.0, "trt1": 1.0, "trt2": 0.0}
        assert not evaluate(model1, params, context).valid
        with pytest.raises(MarginalizationError, match="^invalid evaluation under context "):
            marginalize(model1, params, binary_dist("sex", 0.3), context)

    def test_marginalized_covariate_must_not_be_fixed(self, model1, witness_logs):
        beta, gamma = witness_logs
        params = model1_params(beta=beta, gamma=gamma)
        with pytest.raises(ValueError, match="marginalized and fixed"):
            marginalize(model1, params, binary_dist("trt2", 0.4), {"age": 0.0, "trt1": 1.0, "trt2": 1.0})

    def test_invalid_support_evaluation_raises(self, model1):
        params = model1_params(beta=math.log(3.0))
        with pytest.raises(MarginalizationError, match="invalid evaluation"):
            marginalize(model1, params, binary_dist("trt2", 0.4), {"age": 0.0, "trt1": 1.0})

    def test_distribution_must_sum_to_one(self):
        with pytest.raises(DistributionError, match=r"^context {} sums to 0.8, not 1$"):
            CovariateDistribution("trt2", (0.0, 1.0), (((), (0.4, 0.4)),))

    def test_monte_carlo_cross_check_small(self, model1, witness_logs):
        beta, gamma = witness_logs
        params = model1_params(beta=beta, gamma=gamma)
        dist = binary_dist("trt2", 0.35)
        context = {"age": 0.0, "trt1": 1.0}
        exact = marginalize(model1, params, dist, context)
        estimate = mc_marginal(model1, params, dist, context, n_draws=100_000, seed=7)
        assert abs(exact - estimate) < 1e-2


class TestExpectedEta3:
    def test_zero_coefficient_is_exactly_one(self):
        assert expected_eta3(0.0, 0.37) == 1.0

    def test_zero_prevalence_is_exactly_one(self):
        assert expected_eta3(-0.4, 0.0) == 1.0

    def test_worked_example_value(self):
        assert close(expected_eta3(math.log(0.9), 0.4), 0.96)
        assert close(expected_eta3(math.log(0.9), 0.6), 0.94)

    def test_equals_support_weighted_sum(self, rng):
        for _ in range(100):
            gamma = rng.uniform(-2.0, 2.0)
            pi = rng.uniform(0.0, 1.0)
            weighted = (1.0 - pi) + pi * math.exp(gamma)
            assert close(expected_eta3(gamma, pi), weighted, rel=1e-15, floor=1e-15)

    def test_prevalence_range_checked(self):
        with pytest.raises(ValueError, match="prevalence"):
            expected_eta3(0.1, 1.5)

    def test_overflowing_exp_gamma_raises_evaluation_error(self):
        with pytest.raises(EvaluationError, match=r"scaler overflow \(exp\(710\.0\)\)"):
            expected_eta3(710.0, 0.5)


class TestRecoveryCondition:
    def test_null_gamma_always_recovers(self, rng):
        done = 0
        while done < 20:
            try:
                report = recovery_condition(
                    eta1=math.exp(rng.uniform(-2.0, 2.0)),
                    beta=rng.uniform(-1.0, 1.0),
                    gamma=0.0,
                    pi0=rng.uniform(0.1, 0.9),
                    pi1=rng.uniform(0.1, 0.9),
                )
            except MarginalizationError:
                continue  # infeasible draw: a support evaluation left [0, 1]
            done += 1
            assert report.condition_value == 0.0
            assert report.condition_holds and report.rr_matches
            assert close(report.lhs_rr, report.target)

    def test_balanced_worked_example(self):
        report = recovery_condition(1.0, math.log(1.2), math.log(0.9), 0.4, 0.6)
        assert abs(report.condition_value) <= 1e-12
        assert report.condition_holds and report.rr_matches
        assert close(report.lhs_rr, 1.2)
        assert close(report.marginal_low, 0.52)
        assert close(report.marginal_high, 0.624)

    def test_unbalanced_prevalences_break_recovery(self):
        report = recovery_condition(1.0, math.log(1.2), math.log(0.9), 0.4, 0.4)
        # condition value is (0.9 - 1) * (1.2*0.4 - 0.8*0.4) = -0.016
        assert close(report.condition_value, (0.9 - 1.0) * (1.2 * 0.4 - 0.8 * 0.4), rel=1e-12)
        assert not report.condition_holds
        assert not report.rr_matches
        assert abs(report.lhs_rr - 1.2) > 1e-3

    def test_invalid_configuration_raises(self):
        with pytest.raises(MarginalizationError):
            recovery_condition(1.0, 1.0, 1.0, 0.5, 0.5)  # exp(1) risk scaling overflows 1

    def test_input_validation(self):
        with pytest.raises(ValueError, match="eta1"):
            recovery_condition(-1.0, 0.0, 0.0, 0.5, 0.5)
        with pytest.raises(ValueError, match="pi1"):
            recovery_condition(1.0, 0.0, 0.0, 0.5, 1.5)

    @pytest.mark.parametrize("beta, gamma", [(-1000.0, 0.1), (0.1, -1000.0)])
    def test_underflowing_exponential_is_a_value_error(self, beta, gamma):
        with pytest.raises(ValueError, match="underflows to 0"):
            recovery_condition(1.0, beta, gamma, 0.5, 0.5)

    def test_first_failing_support_row_is_reported(self):
        # (trt1, trt2) = (0, 1) is invalid and (1, 1) overflows to a
        # non-finite probability, which evaluate refuses; the trt1 = 0 rows
        # are marginalized first, so the invalid row is reported.
        with pytest.raises(MarginalizationError) as info:
            recovery_condition(1.0, 700.0, 700.0, 0.5, 0.5)
        assert str(info.value) == "invalid evaluation at trt2=1.0 (probability -5.0711602736750225e+303)"

    def test_zero_marginal_at_trt1_0_is_refused(self):
        # At trt1 = 0, trt2 = 1 the survival scaler 2 takes p = 1/2 to exactly
        # 0, a valid row, and pi0 = 1 puts all of the trt1 = 0 weight on it.
        with pytest.raises(MarginalizationError) as info:
            recovery_condition(1.0, 0.0, math.log(2.0), 1.0, 0.5)
        assert str(info.value) == "marginal probability at trt1=0 is zero; risk ratio undefined"

    def test_non_finite_coefficient_is_refused_by_evaluate(self):
        with pytest.raises(BindingError, match="'f2.trt1' is not finite: nan"):
            recovery_condition(1.0, math.nan, 0.1, 0.5, 0.5)

    def test_equivalence_suite_smoke(self):
        report = recovery_equivalence_suite(n_random=1000, n_constructed=100, seed=11)
        assert report.all_agree
        assert report.n_agree == 1100
        assert report.n_disagree == 0

    @pytest.mark.parametrize(
        "seed, redrawn",
        [
            (11, (668, 0, 66)),  # never takes the ambiguous branch
            (68, (795, 1, 72)),  # takes all three redraw branches
        ],
    )
    def test_suite_draw_stream_is_pinned(self, seed, redrawn):
        # Counts recorded from the suite with one loop per phase; they change
        # if the draws are taken in another order or redrawn for other reasons.
        report = recovery_equivalence_suite(n_random=1000, n_constructed=100, seed=seed)
        assert report.n_agree == 1100
        counts = (report.n_redrawn_invalid, report.n_redrawn_ambiguous, report.n_redrawn_infeasible)
        assert counts == redrawn


class TestSuiteRejectionGuard:
    def test_random_phase_that_rejects_every_draw_raises(self, monkeypatch):
        # With gamma on (5, 6) every random draw is redrawn.
        ranges = list(marginal._DRAW_RANGES)
        ranges[2] = (5.0, 6.0)
        monkeypatch.setattr(marginal, "_DRAW_RANGES", tuple(ranges))
        with pytest.raises(RuntimeError, match="^random draw rejection rate is implausibly high$"):
            recovery_equivalence_suite(3, 0)

    def test_constructed_phase_that_rejects_every_draw_raises(self, monkeypatch):
        # Within these ranges a constructed draw is feasible and valid, but
        # its marginals fall below 1e-4, so every draw is redrawn.
        ranges = ((-12.0, -11.0), (-0.1, -0.05), (-1e-6, 0.0), *marginal._DRAW_RANGES[3:])
        eta1, beta, gamma, pi0 = math.exp(-11.5), -0.075, -5e-7, 0.5
        pi1 = math.exp(beta) * pi0 / marginal._balance_factor(eta1, math.exp(beta))
        assert 0.0 <= pi1 <= 1.0
        report = recovery_condition(eta1, beta, gamma, pi0, pi1)
        assert min(report.marginal_low, report.marginal_high) < 1e-4
        monkeypatch.setattr(marginal, "_DRAW_RANGES", ranges)
        with pytest.raises(RuntimeError, match="^constructed draw rejection rate is implausibly high$"):
            recovery_equivalence_suite(0, 3)


class TestChunkedSuite:
    def test_chunk_is_at_most_512_draws(self):
        assert 1 <= marginal._CHUNK <= 512

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_scalar_oracle(self, seed):
        assert recovery_equivalence_suite(1000, 100, seed) == scalar_recovery_suite(1000, 100, seed)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("phases", ["both", "random only", "constructed only"])
    def test_phase_handoff_at_chunk_boundaries(self, offset, phases):
        n = marginal._CHUNK + offset
        n_random, n_constructed = {"both": (n, n), "random only": (n, 0), "constructed only": (0, n)}[phases]
        suite = recovery_equivalence_suite(n_random, n_constructed, seed=5)
        assert suite == scalar_recovery_suite(n_random, n_constructed, seed=5)

    def test_each_draw_equals_recovery_condition(self, model1, rng):
        # The batch against the scalar check, which takes its marginals from
        # marginalize: draws with an invalid support row, one with a zero
        # trt1 = 0 marginal, prevalences of exactly 0 and 1, and eta1 values
        # whose numpy log rounds differently from math.log.  A failing draw
        # raises the error of the first failing trt1 level, trt1 = 0 first,
        # or else the zero-marginal error.
        candidates = np.exp(np.random.default_rng(3).uniform(-2.0, 2.0, 50_000))
        logs_differ = candidates[np.log(candidates) != [math.log(v) for v in candidates.tolist()]]
        draws = [(1.0, 0.0, math.log(2.0), 1.0, 0.5)]
        for eta1 in logs_differ.tolist()[:200] + [math.exp(rng.uniform(-2.0, 2.0)) for _ in range(2000)]:
            pi0, pi1 = (rng.choice((0.0, 1.0)) if rng.random() < 0.1 else rng.uniform(0.0, 1.0) for _ in range(2))
            draws.append((eta1, rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5), pi0, pi1))
        report, fine = marginal._recovery_batch(*(np.array(column) for column in zip(*draws)))
        assert not fine[0]
        assert 500 < sum(fine) < len(draws) - 500
        for i, draw in enumerate(draws):
            if not fine[i]:
                eta1, beta, gamma, pi0, pi1 = draw
                params = model1_params(alpha0=math.log(eta1), beta=beta, gamma=gamma)
                marginals = []
                try:
                    for trt1, pi in ((0.0, pi0), (1.0, pi1)):
                        context = {"age": 0.0, "trt1": trt1}
                        marginals.append(marginalize(model1, params, binary_dist("trt2", pi), context))
                except MarginalizationError as exc:
                    expected = str(exc)
                else:
                    assert marginals[0] == 0.0
                    expected = "marginal probability at trt1=0 is zero; risk ratio undefined"
                with pytest.raises(MarginalizationError) as info:
                    recovery_condition(*draw)
                assert str(info.value) == expected
                continue
            # repr tells every float apart, -0.0 from 0.0 included.
            expected = marginal.RecoveryReport(**{name: column[i] for name, column in report.items()})
            assert repr(recovery_condition(*draw)) == repr(expected)

    def test_report_holds_python_numbers(self):
        report = recovery_equivalence_suite(50, 10, seed=2)
        fields = dataclasses.asdict(report)
        assert all(type(v) is int for k, v in fields.items() if k != "all_agree")
        assert type(fields["all_agree"]) is bool
        json.dumps(fields)
