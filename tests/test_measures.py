import math
import re

import pytest

from flowcalc.dsl import parameter_names, parse, pretty_print
from flowcalc.engine import MODEL1_SPEC, MODEL2_SPEC, EvaluationError, evaluate
from flowcalc.measures import (
    MODEL3_SPEC,
    EffectQuery,
    Measure,
    composite_contrast_check,
    effect,
    rr_model1_formula,
    subcomposition,
)

from helpers import close, model1_params, model2_params


def restrict(params, spec):
    return {name: params[name] for name in parameter_names(spec)}


def draw_model1_config(rng):
    return {
        "alpha0": rng.uniform(-2.0, 2.0),
        "alpha1": rng.uniform(-0.05, 0.05),
        "beta": rng.uniform(-1.0, 1.0),
        "gamma": rng.uniform(-1.0, 1.0),
        "age": rng.uniform(20.0, 60.0),
    }


class TestEffectQuery:
    def test_target_must_not_be_fixed(self):
        with pytest.raises(ValueError, match="context"):
            EffectQuery(target="trt1", context={"trt1": 1.0})

    def test_levels_must_differ(self):
        with pytest.raises(ValueError, match="both"):
            EffectQuery(target="trt1", low=1.0, high=1.0)


class TestEffect:
    def test_rr_from_endpoint_probabilities(self, model1, witness_logs):
        beta, gamma = witness_logs
        params = model1_params(beta=beta, gamma=gamma)
        query = EffectQuery(target="trt1", context={"age": 40.0, "trt2": 1.0})
        report = effect(model1, params, query)
        low = evaluate(model1, params, {"age": 40.0, "trt1": 0.0, "trt2": 1.0})
        high = evaluate(model1, params, {"age": 40.0, "trt1": 1.0, "trt2": 1.0})
        assert report.endpoint_probs == (low.probability, high.probability)
        assert report.valid
        assert close(report.value, high.probability / low.probability)

    @pytest.mark.parametrize("measure", list(Measure), ids=lambda measure: measure.value)
    def test_measures_agree_with_direct_ratios(self, model1, rng, measure):
        for _ in range(50):
            cfg = draw_model1_config(rng)
            params = model1_params(cfg["alpha0"], cfg["alpha1"], cfg["beta"], cfg["gamma"])
            query = EffectQuery(
                target="trt1", context={"age": cfg["age"], "trt2": 1.0}, measure=measure
            )
            report = effect(model1, params, query)
            p_low, p_high = report.endpoint_probs
            if measure is Measure.RR:
                expected = p_high / p_low
            elif measure is Measure.SR:
                expected = (1.0 - p_high) / (1.0 - p_low)
            else:
                expected = (p_high / (1.0 - p_high)) / (p_low / (1.0 - p_low))
            if report.valid:
                assert close(report.value, expected)

    def test_invalid_endpoint_flags_report(self, model1):
        params = model1_params(beta=math.log(3.0))  # risk stage exits [0, 1]
        query = EffectQuery(target="trt1", context={"age": 40.0, "trt2": 1.0})
        report = effect(model1, params, query)
        assert not report.valid
        assert math.isfinite(report.value)  # still computed for diagnostics

    def test_zero_denominator_gives_nan(self):
        spec = parse("y = Ber(0) | ScRisk1(0+trt1)")
        report = effect(spec, {"f1.trt1": 0.5}, EffectQuery(target="trt1"))
        assert not report.valid
        assert math.isnan(report.value)


class TestSubcomposition:
    def test_keep_prefix(self, model1):
        sub = subcomposition(model1, 2)
        assert pretty_print(sub) == "y = Ber(1/2) | ScOdds(1+age) | ScRisk1(0+trt1)"

    def test_keep_all_and_none(self, model1):
        assert subcomposition(model1, 3) == model1
        assert subcomposition(model1, 0).flows == ()

    def test_out_of_range(self, model1):
        with pytest.raises(ValueError, match="keep"):
            subcomposition(model1, 4)
        with pytest.raises(ValueError, match="keep"):
            subcomposition(model1, -1)

    def test_subcomposition_rr_is_exp_beta(self, model1, rng):
        """Truncating after the risk flow leaves RR(trt1) = exp(beta)."""
        sub = subcomposition(model1, 2)
        done = 0
        while done < 200:
            cfg = draw_model1_config(rng)
            params = restrict(
                model1_params(cfg["alpha0"], cfg["alpha1"], cfg["beta"], 0.0), sub
            )
            report = effect(sub, params, EffectQuery(target="trt1", context={"age": cfg["age"]}))
            if not report.valid:
                continue
            done += 1
            assert close(report.value, math.exp(cfg["beta"]))


class TestModelInvariants:
    def test_model2_rr_trt1_is_exp_beta(self, model2, rng):
        """In MODEL2_SPEC the risk flow acts last, so RR(trt1) is exp(beta)."""
        done = 0
        while done < 200:
            cfg = draw_model1_config(rng)
            params = model2_params(cfg["alpha0"], cfg["alpha1"], cfg["beta"], cfg["gamma"])
            report = effect(
                model2, params, EffectQuery(target="trt1", context={"age": cfg["age"], "trt2": 1.0})
            )
            if not report.valid:
                continue
            done += 1
            assert close(report.value, math.exp(cfg["beta"]))

    def test_model1_sr_trt2_is_exp_gamma(self, model1, rng):
        """In MODEL1_SPEC the survival flow acts last, so SR(trt2) is exp(gamma)."""
        done = 0
        while done < 200:
            cfg = draw_model1_config(rng)
            params = model1_params(cfg["alpha0"], cfg["alpha1"], cfg["beta"], cfg["gamma"])
            report = effect(
                model1,
                params,
                EffectQuery(target="trt2", context={"age": cfg["age"], "trt1": 1.0}, measure=Measure.SR),
            )
            if not report.valid:
                continue
            done += 1
            assert close(report.value, math.exp(cfg["gamma"]))

    def test_model2_rr_trt2_is_not_exp_gamma_in_general(self, model2):
        """The trt2 contrast of MODEL2_SPEC is (1 + eta1 - exp(gamma)) / eta1,
        which only equals exp(gamma) at gamma = 0."""
        gamma = math.log(0.8)
        params = model2_params(beta=math.log(1.2), gamma=gamma)
        report = effect(model2, params, EffectQuery(target="trt2", context={"age": 40.0, "trt1": 1.0}))
        assert report.valid
        assert close(report.value, (1.0 + 1.0 - 0.8) / 1.0)
        assert abs(report.value - math.exp(gamma)) > 0.3


class TestModel1Formula:
    def test_frozen_witness_value(self):
        value = rr_model1_formula(1.0, 0.8, math.log(1.2))
        assert close(value, 1.36 / 1.2)
        assert abs(value - 1.2) > 1e-3

    def test_matches_effect_on_random_draws(self, model1, rng):
        done = 0
        while done < 200:
            cfg = draw_model1_config(rng)
            params = model1_params(cfg["alpha0"], cfg["alpha1"], cfg["beta"], cfg["gamma"])
            report = effect(model1, params, EffectQuery(target="trt1", context={"age": cfg["age"], "trt2": 1.0}))
            if not report.valid:
                continue
            done += 1
            eta1 = math.exp(cfg["alpha0"] + cfg["alpha1"] * cfg["age"])
            eta3 = math.exp(cfg["gamma"])
            assert close(report.value, rr_model1_formula(eta1, eta3, cfg["beta"]))

    def test_unit_survival_scaler_reduces_to_exp_beta(self, rng):
        for _ in range(20):
            eta1 = math.exp(rng.uniform(-2.0, 2.0))
            beta = rng.uniform(-1.0, 1.0)
            assert close(rr_model1_formula(eta1, 1.0, beta), math.exp(beta))

    def test_zero_beta_gives_unity(self, rng):
        for _ in range(20):
            eta1 = math.exp(rng.uniform(-2.0, 2.0))
            eta3 = math.exp(rng.uniform(-1.0, 0.5))
            assert rr_model1_formula(eta1, eta3, 0.0) == 1.0

    def test_zero_denominator_raises(self):
        with pytest.raises(ZeroDivisionError):
            rr_model1_formula(1.0, 2.0, 0.3)

    def test_overflowing_exp_beta_raises_evaluation_error(self):
        with pytest.raises(EvaluationError, match=r"scaler overflow \(exp\(710\.0\)\)"):
            rr_model1_formula(1.0, 1.0, 710.0)


class TestCompositeContrast:
    AGES = [20.0 + k for k in range(41)]

    def test_null_coefficients_make_both_targets_match(self):
        params = {"f1.intercept": 0.0, "f1.age": 0.0, "f2.trt2": 0.0, "f3.trt2": 0.0}
        report = composite_contrast_check(params, self.AGES)
        assert report.n_invalid == 0
        assert report.max_identity_gap == 0.0
        assert report.matches_rr and report.matches_sr

    def test_identity_holds_but_neither_measure_matches(self):
        params = {
            "f1.intercept": 0.0,
            "f1.age": 0.0,
            "f2.trt2": math.log(1.2),
            "f3.trt2": math.log(0.9),
        }
        report = composite_contrast_check(params, self.AGES)
        assert report.n_valid == len(self.AGES)
        assert report.max_identity_gap <= 1e-12
        assert not report.matches_rr
        assert not report.matches_sr
        point = report.points[0]
        assert close(point.rr, 1.28)
        assert close(point.sr, 0.72)
        assert abs(point.rr - report.rr_target) > 1e-3
        assert abs(point.sr - report.sr_target) > 1e-3

    def test_identity_on_random_draws(self, rng):
        done = 0
        while done < 50:
            alpha0 = rng.uniform(-2.0, 2.0)
            alpha1 = rng.uniform(-0.05, 0.05)
            beta = rng.uniform(-1.0, 1.0)
            gamma = rng.uniform(-1.0, 1.0)
            params = {
                "f1.intercept": alpha0,
                "f1.age": alpha1,
                "f2.trt2": beta,
                "f3.trt2": gamma,
            }
            report = composite_contrast_check(params, self.AGES)
            if report.n_valid == 0:
                continue
            done += 1
            assert report.max_identity_gap <= 1e-12

    def test_invalid_points_are_counted_not_aggregated(self):
        params = {
            "f1.intercept": 0.0,
            "f1.age": 0.0,
            "f2.trt2": math.log(3.0),  # risk stage exits [0, 1] at trt2=1
            "f3.trt2": 0.0,
        }
        report = composite_contrast_check(params, [40.0])
        assert report.n_valid == 0
        assert report.n_invalid == 1
        assert not report.matches_rr and not report.matches_sr

    @pytest.mark.parametrize(
        "coefficients, overflowing",
        [
            ({"f1.intercept": 0.0, "f2.trt2": 710.0, "f3.trt2": 0.0}, "exp(710.0)"),
            # Both evaluations succeed at age 40; exp(beta + gamma) overflows.
            ({"f1.intercept": -690.0, "f2.trt2": 400.0, "f3.trt2": 400.0}, "exp(800.0)"),
        ],
    )
    def test_overflowing_exponential_raises_evaluation_error(self, coefficients, overflowing):
        params = {"f1.age": 0.0, **coefficients}
        with pytest.raises(EvaluationError, match=re.escape(f"scaler overflow ({overflowing})")):
            composite_contrast_check(params, [40.0])

    def test_overflowing_slope_raises_on_an_empty_grid(self):
        # exp(beta + gamma) is taken before any age is evaluated, so it
        # overflows even when there is no age to evaluate.
        params = {"f1.intercept": 0.0, "f1.age": 0.0, "f2.trt2": 400.0, "f3.trt2": 400.0}
        with pytest.raises(EvaluationError, match=re.escape("scaler overflow (exp(800.0))")):
            composite_contrast_check(params, [])

    def test_model3_spec_shape(self):
        spec = parse(MODEL3_SPEC)
        assert parameter_names(spec) == ["f1.intercept", "f1.age", "f2.trt2", "f3.trt2"]
