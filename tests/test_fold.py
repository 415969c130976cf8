"""``effect`` and ``marginalize`` read ``evaluate``'s numbers without its trace.

Both fold through ``engine._fold`` and build no stage records; these tests
pin that each of their results, and each refusal, is what ``evaluate`` gives
on the same bindings, bit for bit.  ``evaluate`` and ``_fold`` themselves are
held to ``helpers.reference_fold``, which checks every name and value before
it folds, so the fold's fast path and its fallback are checked apart from
the fold itself.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcalc import dsl, engine
from flowcalc.dsl import Flow, FlowKind, LinearPredictor, ModelSpec, parse
from flowcalc.engine import BindingError, EvalResult, EvaluationError, evaluate
from flowcalc.marginal import CovariateDistribution, MarginalizationError, marginalize
from flowcalc.measures import EffectQuery, Measure, _measure_value, effect

from helpers import reference_fold

_KINDS = ("ScOdds", "ScRisk1", "ScRisk0")
_COVARIATES = ("age", "trt1", "trt2", "x")


@st.composite
def _model_texts(draw) -> str:
    flows = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(_KINDS))
        terms = draw(st.lists(st.sampled_from(_COVARIATES), max_size=3, unique=True))
        flows.append(f"{kind}({draw(st.sampled_from('01'))}{''.join('+' + t for t in terms)})")
    num = draw(st.integers(min_value=0, max_value=8))
    return " | ".join([f"y = Ber({num}/8)", *flows])


_VALUES = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)

#: Bindings the checked fold refuses or that reach its edges: non-finite
#: floats, signed zeros, exp overflow (710) and underflow (-750), a scaler
#: near the overflow (700), an int and a Fraction too large for a float,
#: exact int zeros that can hide them in a product, and values that are not
#: numbers, arrays of two lengths among them.
_ODD_VALUES = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 710, -750, 700.0, 1e308, 2**1100, Fraction(2**1100, 3), 0, False,
     None, "x", np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])]
)


def _outcome(call):
    """``repr`` of what ``call()`` returns, or the type and message it raises.
    ``repr`` of a finite float is its bits: it round-trips, and spells -0.0."""
    try:
        return repr(call())
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)


def _bits(call):
    """The bytes of the float or float array ``call()`` returns (``repr`` of
    the items of an object array), or the type and message it raises.  Every
    NaN counts as one: the sign of ``nan + -nan`` depends on whether CPython
    has specialised the addition."""
    try:
        value = np.asarray(call())
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome compared
        return type(exc), str(exc)
    if value.dtype != np.float64:
        return repr(value.tolist())
    return np.where(np.isnan(value), np.nan, value).tobytes()


def _marginalize_by_evaluate(spec, params, over, context):
    """``marginalize``'s sum, read off ``evaluate`` at each support value."""
    total = 0.0
    for value, weight in zip(over.support, over.weights(context)):
        result = evaluate(spec, params, {**context, over.covariate: value})
        if not result.valid:
            raise MarginalizationError(
                f"invalid evaluation at {over.covariate}={value} (probability {result.probability!r})"
            )
        total += weight * result.probability
    return total


def _binary(covariate: str, prevalence: float = 0.5) -> CovariateDistribution:
    rows = [{"value": 1, "probability": prevalence}, {"value": 0, "probability": 1.0 - prevalence}]
    return CovariateDistribution.from_table(covariate, rows)


class TestParity:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), text=_model_texts(), measure=st.sampled_from(list(Measure)))
    def test_effect_and_marginalize_equal_evaluate(self, data, text, measure):
        spec = parse(text)
        params = {name: data.draw(_VALUES, label=name) for name in spec.parameter_names}
        covariates = {name: data.draw(_VALUES, label=name) for name in spec.covariate_names}
        target = data.draw(st.sampled_from(spec.covariate_names or ("absent",)), label="target")
        context = {k: v for k, v in covariates.items() if k != target}
        low, high = sorted(data.draw(st.lists(_VALUES, min_size=2, max_size=2, unique=True), label="levels"))

        def by_evaluate():
            p_low = evaluate(spec, params, {**context, target: low})
            p_high = evaluate(spec, params, {**context, target: high})
            value, computable = _measure_value(measure, p_low.probability, p_high.probability)
            return value, p_low.valid and p_high.valid and computable, (p_low.probability, p_high.probability)

        def by_effect():
            report = effect(spec, params, EffectQuery(target, context, low, high, measure))
            return report.value, report.valid, report.endpoint_probs

        assert _outcome(by_effect) == _outcome(by_evaluate)
        if target not in spec.covariate_names:
            return  # marginalize then calls evaluate itself
        over = _binary(target, data.draw(st.floats(min_value=0.0, max_value=1.0), label="prevalence"))
        assert _outcome(lambda: marginalize(spec, params, over, context)) == _outcome(
            lambda: _marginalize_by_evaluate(spec, params, over, context)
        )


class TestReferenceFold:
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")  # numpy, on array bindings
    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), text=_model_texts())
    def test_evaluate_and_fold_equal_the_reference(self, data, text):
        spec = parse(text)
        values = data.draw(st.sampled_from([_VALUES, st.one_of(_VALUES, _ODD_VALUES)]), label="values")
        params = {name: data.draw(values, label=name) for name in spec.parameter_names}
        covariates = {name: data.draw(values, label=name) for name in [*spec.covariate_names, "unused"]}
        names = data.draw(st.sampled_from(["kept", "drop", "extra"]), label="names")
        env = data.draw(st.sampled_from([params, covariates]), label="env")
        if names == "drop" and env:
            del env[data.draw(st.sampled_from(sorted(env)), label="dropped")]
        elif names == "extra":
            env["f9.extra"] = data.draw(values, label="f9.extra")

        _assert_folds_equal_the_reference(spec, params, covariates)
        with np.errstate(all="ignore"):
            for flow in spec.flows:
                source = engine._predictor_source(flow)
                assert _bits(lambda: eval(source, {}, {"params": params, "covariates": covariates})) == _bits(
                    lambda: engine._linear_predictor(flow, params, covariates)
                )


def _assert_folds_equal_the_reference(spec, params, covariates):
    """``evaluate`` (a trace) and ``_fold`` (none) equal ``reference_fold``, in
    bits, stages and refusals, on each of a spec's first three scalar folds:
    the checked fold, the fold that compiles the spec's fold and runs it, and
    the compiled fold.  ``evaluate`` and ``_fold`` each fold a fresh copy
    of the spec."""
    for fold, reference in (
        (evaluate, lambda: EvalResult(*reference_fold(spec, params, covariates))),
        (engine._fold, lambda: reference_fold(spec, params, covariates)[:2]),
    ):
        fresh = ModelSpec(spec.outcome, spec.base_prob, spec.flows)
        assert fresh.compiled_fold is None
        for _ in range(3):
            assert _outcome(lambda: fold(fresh, params, covariates)) == _outcome(reference)


def _parsed_afresh(text: str) -> ModelSpec:
    dsl._parse_cached.cache_clear()
    return parse(text)


class TestWhereTheFoldCompiles:
    """``engine._fold`` alone compiles a spec's fold, on the spec's second
    scalar fold, so criterion 1's timed first ``evaluate`` calls never
    compile and a spec folded once, or only in batches, compiles nothing."""

    @pytest.fixture
    def compiled(self, monkeypatch):
        specs = []
        compile_fold = engine._compile_fold

        def counting(spec):
            specs.append(spec)
            return compile_fold(spec)

        monkeypatch.setattr(engine, "_compile_fold", counting)
        return specs

    @pytest.mark.parametrize(
        "make",
        [
            lambda: _parsed_afresh("w = Ber(3/11) | ScRisk0(1+z) | ScOdds(0+z+v)"),
            lambda: ModelSpec("y", Fraction(1, 2), parse(engine.MODEL1_SPEC).flows),
            lambda: parse(engine.MODEL1_SPEC.ljust(dsl._PARSE_CACHE_MAX_CHARS + 1)),
        ],
        ids=["parsed", "built directly", "too long to cache"],
    )
    def test_a_spec_compiles_on_its_second_fold_once(self, make, compiled):
        spec = make()
        params = {name: 0.1 for name in spec.parameter_names}
        covariates = {name: 1.0 for name in spec.covariate_names}
        assert spec.compiled_fold is None
        evaluate(spec, params, covariates)
        assert compiled == [] and spec.compiled_fold is False
        engine._fold(spec, params, covariates)
        assert compiled == [spec] and callable(spec.compiled_fold)
        for _ in range(20):
            evaluate(spec, params, covariates)
            engine._fold(spec, params, covariates)
        for target in spec.covariate_names:
            context = {k: v for k, v in covariates.items() if k != target}
            effect(spec, params, EffectQuery(target, context))
            marginalize(spec, params, _binary(target), context)
        assert compiled == [spec]

    @pytest.fixture
    def defined(self, monkeypatch):
        sources = []
        define = engine._define

        def counting(source):
            sources.append(source)
            return define(source)

        monkeypatch.setattr(engine, "_define", counting)
        return sources

    def test_a_predictor_too_deep_to_compile_falls_back(self, defined):
        """20,000 terms nest deeper than Python compiles, and are far past
        the bound: the spec's second fold generates and compiles nothing, and
        every fold is then the checked fold's."""
        spec, params, covariates = _one_flow_spec(20_000)
        for before in (None, False, engine._no_fast_path):
            assert spec.compiled_fold is before
            assert _outcome(lambda: evaluate(spec, params, covariates)) == _outcome(
                lambda: EvalResult(*reference_fold(spec, params, covariates))
            )
        assert defined == []

    @pytest.mark.parametrize("extra, compiles", [(0, 1), (1, 0)], ids=["at the bound", "one past it"])
    def test_the_compile_bound_counts_parameters(self, extra, compiles, defined):
        spec, params, covariates = _one_flow_spec(engine._COMPILED_PARAMETERS_MAX + extra - 1)
        assert len(spec.parameter_names) == engine._COMPILED_PARAMETERS_MAX + extra
        for _ in range(4):
            assert _outcome(lambda: engine._fold(spec, params, covariates)) == _outcome(
                lambda: reference_fold(spec, params, covariates)[:2]
            )
        assert len(defined) == compiles
        assert (spec.compiled_fold is engine._no_fast_path) == (compiles == 0)

    def test_a_recursion_error_while_compiling_falls_back(self, monkeypatch):
        """From a deep enough call stack a spec within the bound nests too
        deep to compile; the fold then falls back as past the bound."""

        def too_deep(source):
            raise RecursionError("maximum recursion depth exceeded during compilation")

        monkeypatch.setattr(engine, "_define", too_deep)
        spec, params, covariates = _one_flow_spec(3)
        for _ in range(3):
            assert engine._fold(spec, params, covariates) == reference_fold(spec, params, covariates)[:2]
        assert spec.compiled_fold is engine._no_fast_path


def _one_flow_spec(n_terms: int):
    """A ScOdds flow of an intercept and ``n_terms`` covariate terms, with
    bindings that keep it valid."""
    terms = tuple(f"x{i}" for i in range(n_terms))
    spec = ModelSpec("y", Fraction(1, 2), (Flow(FlowKind.SC_ODDS, LinearPredictor(True, terms), 1),))
    return spec, {name: 1e-6 for name in spec.parameter_names}, {term: 1.0 for term in terms}


_MODEL1_PARAMS = {"f1.intercept": 0.0, "f1.age": 0.0, "f2.trt1": 0.18, "f3.trt2": -0.22}
_MODEL1_COVARIATES = {"age": 40.0, "trt1": 1.0, "trt2": 1.0}

# case: (model text, parameters, covariates other than the target x, the
# exception and its message); each is refused at x = 0, the low level of
# the contrast and the first support value.
_REFUSALS = {
    "missing parameter": (
        "y = Ber(1/2) | ScOdds(1+x+age)", {"f1.intercept": 0.1, "f1.x": 0.2}, {"age": 1.0},
        BindingError, "unbound parameters: f1.age",
    ),
    "extra parameter": (
        "y = Ber(1/2) | ScOdds(0+x)", {"f1.x": 0.2, "f9.zzz": 1.0}, {},
        BindingError, "unexpected parameters: f9.zzz",
    ),
    "missing covariate": (
        "y = Ber(1/2) | ScOdds(0+x+age)", {"f1.x": 0.2, "f1.age": 0.1}, {},
        BindingError, "unbound covariates: age",
    ),
    "non-finite parameter": (
        "y = Ber(1/2) | ScOdds(1+x)", {"f1.intercept": math.nan, "f1.x": 0.2}, {},
        BindingError, "parameter 'f1.intercept' is not finite: nan",
    ),
    "non-finite parameter in flow 3 of Model 1": (
        engine.MODEL1_SPEC, {**_MODEL1_PARAMS, "f3.trt2": math.nan}, _MODEL1_COVARIATES,
        BindingError, "parameter 'f3.trt2' is not finite: nan",
    ),
    "non-finite covariate": (
        "y = Ber(1/2) | ScOdds(0+x+age)", {"f1.x": 0.2, "f1.age": 0.1}, {"age": math.inf},
        BindingError, "covariate 'age' is not finite: inf",
    ),
    "infinite covariate with coefficient 0": (
        engine.MODEL1_SPEC, {**_MODEL1_PARAMS, "f3.trt2": 0.0}, {**_MODEL1_COVARIATES, "trt2": math.inf},
        BindingError, "covariate 'trt2' is not finite: inf",
    ),
    "exp overflow": (
        "y = Ber(1/2) | ScOdds(0+x) | ScRisk0(1)", {"f1.x": 0.2, "f2.intercept": 1000.0}, {},
        EvaluationError, "flow 2: scaler overflow (exp(1000.0))",
    ),
    "exp overflow at 710 in Model 1": (
        engine.MODEL1_SPEC, {**_MODEL1_PARAMS, "f2.trt1": 710}, _MODEL1_COVARIATES,
        EvaluationError, "flow 2: scaler overflow (exp(710.0))",
    ),
    "scaler underflows to 0": (
        "y = Ber(1/2) | ScRisk1(1+x)", {"f1.intercept": -1000.0, "f1.x": 0.2}, {},
        EvaluationError, "flow 1: scaler 0.0 is not a positive real",
    ),
    "division by zero": (
        "y = Ber(1/2) | ScRisk1(1+x) | ScOdds(1)",
        {"f1.intercept": 0.705, "f1.x": 0.2, "f2.intercept": -4.441110068275321},
        {},
        EvaluationError, "flow 2: division by zero",
    ),
    "division by zero after an invalid stage": (
        "y = Ber(1/2) | ScRisk1(1) | ScOdds(1)", {"f1.intercept": math.log(4), "f2.intercept": math.log(0.5)}, {},
        EvaluationError, "flow 2: division by zero",
    ),
    "non-finite probability": (
        "y = Ber(1/2) | ScRisk1(1+x) | ScRisk1(1)",
        {"f1.intercept": 700.0, "f1.x": 0.2, "f2.intercept": 700.0},
        {},
        EvaluationError, "flow 2: non-finite probability inf",
    ),
    "parameter too large for a float": (
        engine.MODEL1_SPEC, {**_MODEL1_PARAMS, "f1.intercept": 2**1100}, _MODEL1_COVARIATES,
        OverflowError, "int too large to convert to float",
    ),
    "parameter too large for a float, times an int 0": (
        "y = Ber(1/2) | ScOdds(0+x+z)", {"f1.x": 0.2, "f1.z": 2**1100}, {"z": 0},
        OverflowError, "int too large to convert to float",
    ),
}


class TestRefusals:
    @pytest.mark.parametrize("case", list(_REFUSALS))
    def test_same_exception_and_message(self, case):
        text, params, context, error, message = _REFUSALS[case]
        spec = parse(text)
        refused = _outcome(lambda: evaluate(spec, params, {**context, "x": 0.0}))
        assert refused == (error, message)
        _assert_folds_equal_the_reference(spec, params, {**context, "x": 0.0})
        assert _outcome(lambda: effect(spec, params, EffectQuery("x", context))) == refused
        assert _outcome(lambda: marginalize(spec, params, _binary("x"), context)) == refused


class TestArrayBindings:
    def test_refused_before_any_array_arithmetic(self, model1):
        """+inf and -inf in two array bindings would make numpy warn "invalid
        value encountered in add"; the fold raises the checked fold's
        TypeError instead, with no warning."""
        intercepts, slopes = np.array([math.inf, 1.0]), np.array([-math.inf, 0.0])
        params = {**_MODEL1_PARAMS, "f1.intercept": intercepts, "f1.age": slopes}
        refused = _outcome(lambda: math.isfinite(intercepts))
        assert refused[0] is TypeError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(lambda: evaluate(model1, params, _MODEL1_COVARIATES)) == refused
            assert _outcome(lambda: engine._fold(model1, params, _MODEL1_COVARIATES)) == refused


class TestNoTrace:
    def test_effect_and_marginalize_build_no_stage_record(self, monkeypatch, model1):
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return record(*args, **kwargs)

        record = engine.StageRecord
        monkeypatch.setattr(engine, "StageRecord", counting)
        params = {"f1.intercept": 0.0, "f1.age": 0.0, "f2.trt1": 0.18, "f3.trt2": -0.22}
        effect(model1, params, EffectQuery("trt1", {"age": 40.0, "trt2": 1.0}))
        marginalize(model1, params, _binary("trt2"), {"age": 40.0, "trt1": 1.0})
        assert built == []
        result = evaluate(model1, params, {"age": 40.0, "trt1": 1.0, "trt2": 1.0})
        assert len(built) == 3 and all(type(stage) is record for stage in result.stages)
