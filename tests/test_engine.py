import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcalc import engine
from flowcalc.dsl import Flow, FlowKind, LinearPredictor, covariate_names, parameter_names, parse
from flowcalc.engine import (
    BindingError,
    EvaluationError,
    apply_flow,
    closed_form_model1,
    closed_form_model2,
    eta,
    evaluate,
    evaluate_batch,
)

from helpers import close, model1_params, model2_params, random_model_spec


def bare_flow(kind: FlowKind, position: int = 1) -> Flow:
    return Flow(kind, LinearPredictor(False, ()), position)


WITNESS_COVS = {"age": 40.0, "trt1": 1.0, "trt2": 1.0}


class TestEta:
    def test_empty_predictor_is_exactly_one(self):
        assert eta(bare_flow(FlowKind.SC_ODDS), {}, {}) == 1.0

    def test_intercept_and_terms_combine(self):
        spec = parse("y = Ber(1/2) | ScOdds(1+age+sex)")
        flow = spec.flows[0]
        params = {"f1.intercept": 0.25, "f1.age": 0.5, "f1.sex": -1.0}
        covariates = {"age": 2.0, "sex": 0.5, "ignored": 9.0}
        assert math.isclose(
            eta(flow, params, covariates), math.exp(0.25 + 0.5 * 2.0 - 1.0 * 0.5), rel_tol=1e-15
        )

    def test_zero_coefficient_gives_unit_scaler_exactly(self):
        spec = parse("y = Ber(1/2) | ScRisk1(0+trt1)")
        assert eta(spec.flows[0], {"f1.trt1": 0.0}, {"trt1": 1.0}) == 1.0
        assert eta(spec.flows[0], {"f1.trt1": 0.7}, {"trt1": 0.0}) == 1.0

    def test_unbound_parameter(self):
        spec = parse("y = Ber(1/2) | ScOdds(1+age)")
        with pytest.raises(BindingError, match="f1.intercept"):
            eta(spec.flows[0], {"f1.age": 0.0}, {"age": 1.0})

    def test_unbound_covariate(self):
        spec = parse("y = Ber(1/2) | ScOdds(1+age)")
        with pytest.raises(BindingError, match="age"):
            eta(spec.flows[0], {"f1.intercept": 0.0, "f1.age": 0.0}, {})

    def test_overflow_is_an_evaluation_error(self):
        spec = parse("y = Ber(1/2) | ScOdds(1)")
        with pytest.raises(EvaluationError, match="overflow"):
            eta(spec.flows[0], {"f1.intercept": 1e4}, {})

    def test_underflow_to_zero_is_an_evaluation_error(self):
        spec = parse("y = Ber(1/2) | ScOdds(1)")
        with pytest.raises(EvaluationError, match="positive"):
            eta(spec.flows[0], {"f1.intercept": -1e4}, {})


class TestApplyFlow:
    @pytest.mark.parametrize("scaler", [0.1, 0.5, 1.0, 1.7, 4.0])
    def test_odds_flow_from_half(self, scaler):
        p, ok = apply_flow(0.5, bare_flow(FlowKind.SC_ODDS), scaler)
        assert ok
        assert math.isclose(p, scaler / (1.0 + scaler), rel_tol=1e-15)

    def test_odds_flow_fixes_endpoints_exactly(self):
        assert apply_flow(0.0, bare_flow(FlowKind.SC_ODDS), 3.7) == (0.0, True)
        assert apply_flow(1.0, bare_flow(FlowKind.SC_ODDS), 3.7) == (1.0, True)

    def test_risk_flow_values_and_validity(self):
        assert apply_flow(0.5, bare_flow(FlowKind.SC_RISK1), 1.2) == (0.6, True)
        p, ok = apply_flow(0.5, bare_flow(FlowKind.SC_RISK1), 3.0)
        assert (p, ok) == (1.5, False)
        assert apply_flow(0.5, bare_flow(FlowKind.SC_RISK1), 2.0) == (1.0, True)

    def test_survival_flow_values_and_validity(self):
        p, ok = apply_flow(0.6, bare_flow(FlowKind.SC_RISK0), 0.8)
        assert ok and math.isclose(p, 0.68, rel_tol=1e-15)
        p, ok = apply_flow(0.2, bare_flow(FlowKind.SC_RISK0), 2.0)
        assert not ok and p < 0.0

    @given(p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_unit_scaler_is_bit_identical_for_risk_and_survival(self, p):
        assert apply_flow(p, bare_flow(FlowKind.SC_RISK1), 1.0) == (p, True)
        assert apply_flow(p, bare_flow(FlowKind.SC_RISK0), 1.0) == (p, True)

    @given(p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_unit_scaler_moves_odds_flow_at_most_1e15th(self, p):
        q, ok = apply_flow(p, bare_flow(FlowKind.SC_ODDS), 1.0)
        assert ok
        assert abs(q - p) <= 1e-15

    @given(
        p=st.floats(min_value=1e-9, max_value=1.0 - 1e-9),
        log_eta=st.floats(min_value=-15.0, max_value=15.0),
    )
    def test_odds_flow_maps_open_interval_into_itself(self, p, log_eta):
        q, ok = apply_flow(p, bare_flow(FlowKind.SC_ODDS), math.exp(log_eta))
        assert ok
        assert 0.0 < q < 1.0

    @given(
        p=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        log_eta=st.floats(min_value=-700.0, max_value=700.0),
    )
    def test_odds_flow_never_leaves_unit_interval(self, p, log_eta):
        # Underflow can pin subnormal inputs to an endpoint, but the flow
        # can never escape [0, 1] and is always stage-valid.
        q, ok = apply_flow(p, bare_flow(FlowKind.SC_ODDS), math.exp(log_eta))
        assert ok
        assert 0.0 <= q <= 1.0


class TestEvaluate:
    def test_model1_witness(self, model1, witness_logs):
        beta, gamma = witness_logs
        result = evaluate(model1, model1_params(beta=beta, gamma=gamma), WITNESS_COVS)
        assert result.valid
        assert close(result.probability, 0.68)
        assert close(result.probability, closed_form_model1(1.0, 1.2, 0.8))

    def test_model2_witness(self, model2, witness_logs):
        beta, gamma = witness_logs
        result = evaluate(model2, model2_params(beta=beta, gamma=gamma), WITNESS_COVS)
        assert result.valid
        assert close(result.probability, 0.72)
        assert close(result.probability, closed_form_model2(1.0, 1.2, 0.8))

    def test_stage_trace_of_model1_witness(self, model1, witness_logs):
        beta, gamma = witness_logs
        result = evaluate(model1, model1_params(beta=beta, gamma=gamma), WITNESS_COVS)
        assert [s.position for s in result.stages] == [1, 2, 3]
        assert [s.kind for s in result.stages] == [
            FlowKind.SC_ODDS,
            FlowKind.SC_RISK1,
            FlowKind.SC_RISK0,
        ]
        assert result.stages[0].probability == 0.5
        assert close(result.stages[0].eta, 1.0)
        assert close(result.stages[1].eta, 1.2)
        assert close(result.stages[1].probability, 0.6)
        assert close(result.stages[2].eta, 0.8)
        assert result.stages[2].probability == result.probability
        assert all(s.valid for s in result.stages)

    def test_base_only_model_returns_base_exactly(self):
        spec = parse("y = Ber(3/8)")
        result = evaluate(spec, {}, {})
        assert result.probability == 0.375
        assert result.valid and result.stages == ()

    def test_missing_parameter(self, model1):
        with pytest.raises(BindingError, match="unbound parameters: f3.trt2"):
            params = model1_params()
            del params["f3.trt2"]
            evaluate(model1, params, WITNESS_COVS)

    def test_extra_parameter(self, model1):
        params = model1_params()
        params["f9.zzz"] = 1.0
        with pytest.raises(BindingError, match="unexpected parameters: f9.zzz"):
            evaluate(model1, params, WITNESS_COVS)

    def test_missing_covariate(self, model1):
        with pytest.raises(BindingError, match="unbound covariates: trt2"):
            evaluate(model1, model1_params(), {"age": 40.0, "trt1": 1.0})

    def test_extra_covariates_are_ignored(self, model1):
        covs = dict(WITNESS_COVS, unused=123.0)
        assert evaluate(model1, model1_params(), covs).valid

    def test_non_finite_binding_rejected(self, model1):
        params = model1_params(beta=math.nan)
        with pytest.raises(BindingError, match="not finite"):
            evaluate(model1, params, WITNESS_COVS)

    def test_invalidity_is_monotone_across_stages(self):
        spec = parse("y = Ber(1/2) | ScRisk1(0+t) | ScRisk1(0+t)")
        result = evaluate(
            spec, {"f1.t": math.log(3.0), "f2.t": math.log(0.5)}, {"t": 1.0}
        )
        assert not result.stages[0].valid
        assert result.stages[1].valid  # 1.5 * 0.5 = 0.75 is back inside [0, 1]
        assert not result.valid
        assert close(result.probability, 0.75)

    def test_scaler_overflow_propagates(self, model1):
        with pytest.raises(EvaluationError):
            evaluate(model1, model1_params(alpha0=1e4), WITNESS_COVS)

    def test_non_finite_probability_is_refused(self):
        # Each scaler exp(700) is finite; their product with 1/2 is not.
        spec = parse("y = Ber(1/2) | ScRisk1(1) | ScRisk1(1)")
        with pytest.raises(EvaluationError, match="^flow 2: non-finite probability inf$"):
            evaluate(spec, {"f1.intercept": 700.0, "f2.intercept": 700.0}, {})


class TestClosedForms:
    def test_witness_values(self, witness_scalers):
        e1, e2, e3 = witness_scalers
        assert close(closed_form_model1(e1, e2, e3), 0.68)
        assert close(closed_form_model2(e1, e2, e3), 0.72)

    def test_all_unit_scalers_give_half(self):
        assert closed_form_model1(1.0, 1.0, 1.0) == 0.5
        assert closed_form_model2(1.0, 1.0, 1.0) == 0.5

    @pytest.mark.parametrize("e1", [0.2, 1.0, 5.0])
    def test_unit_risk_and_survival_reduce_to_odds_stage(self, e1):
        assert close(closed_form_model1(e1, 1.0, 1.0), e1 / (1.0 + e1))
        assert close(closed_form_model2(e1, 1.0, 1.0), e1 / (1.0 + e1))

    def test_nonpositive_scaler_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            closed_form_model1(0.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="positive"):
            closed_form_model2(1.0, -2.0, 1.0)

    def _grid(self, n=8):
        axis = [math.exp(x) for x in
                (-2.0 + 4.0 * i / (n - 1) for i in range(n))]
        return itertools.product(axis, repeat=3)

    def test_sequential_model1_matches_closed_form_on_grid(self, model1):
        n_valid = 0
        for e1, e2, e3 in self._grid():
            params = model1_params(
                alpha0=math.log(e1), beta=math.log(e2), gamma=math.log(e3)
            )
            result = evaluate(model1, params, {"age": 0.0, "trt1": 1.0, "trt2": 1.0})
            if result.valid:
                n_valid += 1
                assert close(result.probability, closed_form_model1(e1, e2, e3))
        assert n_valid > 100

    def test_sequential_model2_matches_closed_form_on_grid(self, model2):
        n_valid = 0
        for e1, e2, e3 in self._grid():
            params = model2_params(
                alpha0=math.log(e1), beta=math.log(e2), gamma=math.log(e3)
            )
            result = evaluate(model2, params, {"age": 0.0, "trt1": 1.0, "trt2": 1.0})
            if result.valid:
                n_valid += 1
                assert close(result.probability, closed_form_model2(e1, e2, e3))
        assert n_valid > 100


class TestCommutation:
    """Same-kind flows commute; the risk/survival pair does not."""

    @pytest.mark.parametrize("kind", list(FlowKind), ids=lambda kind: kind.value)
    @settings(max_examples=60)
    @given(
        p=st.floats(min_value=0.01, max_value=0.99),
        la=st.floats(min_value=-1.5, max_value=1.5),
        lb=st.floats(min_value=-1.5, max_value=1.5),
    )
    def test_same_kind_pairs_commute_where_both_orders_valid(self, kind, p, la, lb):
        ea, eb = math.exp(la), math.exp(lb)
        ab, ok_ab = self._chain(p, kind, ea, eb)
        ba, ok_ba = self._chain(p, kind, eb, ea)
        if ok_ab and ok_ba:
            assert close(ab, ba)

    @staticmethod
    def _chain(p, kind, *scalers):
        ok = True
        for scaler in scalers:
            p, stage_ok = apply_flow(p, bare_flow(kind), scaler)
            ok = ok and stage_ok
        return p, ok

    def test_risk_survival_order_matters(self, witness_scalers):
        _, e2, e3 = witness_scalers
        forward, ok1 = self._chain(0.5, FlowKind.SC_RISK1, e2)
        forward, ok2 = apply_flow(forward, bare_flow(FlowKind.SC_RISK0), e3)
        reverse, ok3 = self._chain(0.5, FlowKind.SC_RISK0, e3)
        reverse, ok4 = apply_flow(reverse, bare_flow(FlowKind.SC_RISK1), e2)
        assert ok1 and ok2 and ok3 and ok4
        assert close(forward, 0.68)
        assert close(reverse, 0.72)
        assert abs(forward - reverse) > 0.03


def _row(env, i):
    return {k: float(v[i]) if isinstance(v, np.ndarray) else v for k, v in env.items()}


def _batch_bindings(spec, rng: random.Random, n: int):
    """Random bindings, each a float or an array of n values, with occasional
    values that make evaluate raise and occasional naming mistakes."""
    spike_rate = rng.choice([0.0, 0.0, 0.01, 0.05])
    spikes = [800.0, -800.0, 1e200, math.nan, math.inf]

    def draw(lo, hi):
        if rng.random() < spike_rate:
            return rng.choice(spikes)
        return rng.uniform(lo, hi)

    def binding(lo, hi):
        if rng.random() < 0.4:
            return draw(lo, hi)
        return np.array([draw(lo, hi) for _ in range(n)])

    params = {name: binding(-2.0, 2.0) for name in parameter_names(spec)}
    covariates = {name: binding(0.0, 2.0) for name in covariate_names(spec)}
    if rng.random() < 0.5:
        covariates["unused"] = np.array([rng.uniform(0.0, 1.0) for _ in range(n)])
    mistake = rng.random()
    if mistake < 0.03 and params:
        del params[rng.choice(sorted(params))]
    elif mistake < 0.06:
        params["f9.zzz"] = 0.0
    elif mistake < 0.09 and len(covariates) > ("unused" in covariates):
        del covariates[rng.choice(sorted(set(covariates) - {"unused"}))]
    return params, covariates


class TestEvaluateBatch:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1), n=st.integers(min_value=1, max_value=12))
    def test_rows_equal_evaluate_bit_for_bit(self, seed, n):
        rng = random.Random(seed)
        spec = random_model_spec(rng)
        params, covariates = _batch_bindings(spec, rng, n)
        arrays = [v for v in (*params.values(), *covariates.values()) if isinstance(v, np.ndarray)]
        expected = []
        try:
            for i in range(n if arrays else 1):
                expected.append(evaluate(spec, _row(params, i), _row(covariates, i)))
        except (BindingError, EvaluationError) as exc:
            with pytest.raises(type(exc)) as raised:
                evaluate_batch(spec, params, covariates)
            assert str(raised.value) == str(exc)
            return
        probability, valid = evaluate_batch(spec, params, covariates)
        assert probability.dtype == np.float64 and valid.dtype == bool
        want = np.array([r.probability for r in expected])
        assert probability.view(np.uint64).tolist() == want.view(np.uint64).tolist()
        assert valid.tolist() == [r.valid for r in expected]

    def test_division_by_zero_in_a_later_row_raises_the_scalar_error(self):
        # Stage 1 leaves p = 0.5 * exp(0.705) > 1, and at this stage-2 scaler
        # the odds update's denominator p*eta + (1 - p) is exactly zero.
        spec = parse("y = Ber(1/2) | ScRisk1(1) | ScOdds(1)")
        lps = np.array([0.0, -4.441110068275321, 1.0])
        params = {"f1.intercept": 0.705, "f2.intercept": lps}
        with pytest.raises(EvaluationError, match="flow 2: division by zero"):
            evaluate(spec, _row(params, 1), {})
        with pytest.raises(EvaluationError, match="flow 2: division by zero"):
            evaluate_batch(spec, params, {})

    def test_arrays_of_different_lengths_are_refused(self, model1):
        params = model1_params()
        params["f2.trt1"] = np.zeros(3)
        with pytest.raises(ValueError, match="differ in length"):
            evaluate_batch(model1, params, dict(WITNESS_COVS, age=np.zeros(2)))
