import ast
import dataclasses
import itertools
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from flowcalc import dsl
from flowcalc.dsl import (
    Flow,
    FlowKind,
    LinearPredictor,
    ModelSpec,
    ModelSyntaxError,
)
from flowcalc.engine import MODEL1_SPEC, MODEL2_SPEC
from flowcalc.measures import subcomposition
from flowcalc.orderings import permute_spec

from helpers import loop_covariate_names, loop_parameter_names, random_model_spec


#: (text, message fragment, offset) of texts the parser must refuse.  A bad
#: character is reported before any syntax error, and a decimal numerator
#: before a missing denominator.
_MALFORMED = [
    ("", "expected outcome name", 0),
    ("y Ber(1/2)", "expected '='", 2),
    ("y : Ber(1/2)", "unexpected character", 2),
    ("y = Bern(1/2)", "expected 'Ber'", 4),
    ("y = Ber(3/2)", "outside", 8),
    ("y = Ber(1.5)", "outside", 8),
    ("y = Ber(1/0)", "zero denominator", 10),
    ("y = Ber(0.5/2)", "must be integers", 8),
    ("y = Ber(1/2.5)", "must be integers", 10),
    ("y = Ber(1/2) | ScFoo(1+age)", "unknown flow name", 15),
    ("y = Ber(1/2) | ScOdds(age)", "intercept marker", 22),
    ("y = Ber(1/2) | ScOdds(2+age)", "intercept marker", 22),
    ("y = Ber(1/2) | ScOdds(1.0+age)", "intercept marker", 22),
    ("y = Ber(1/2) | ScOdds(1+age+age)", "duplicate covariate", 28),
    ("y = Ber(1/2) | ScOdds(1+age) trailing", "end of input", 29),
    ("y = Ber(1/2) | ScOdds(1+age", "found end of input", 27),
    ("y = Ber(1/2) |", "expected flow name", 14),
    ("y = Ber(1/2) @", "unexpected character", 13),
    ("y Ber(1/2) @", "unexpected character '@'", 11),
    ("y = Ber(10.5/", "must be integers", 8),
]


class TestParse:
    def test_model1_shape(self):
        spec = dsl.parse(MODEL1_SPEC)
        assert spec.outcome == "y"
        assert spec.base_prob == Fraction(1, 2)
        assert [f.kind for f in spec.flows] == [
            FlowKind.SC_ODDS,
            FlowKind.SC_RISK1,
            FlowKind.SC_RISK0,
        ]
        assert [f.position for f in spec.flows] == [1, 2, 3]
        assert spec.flows[0].predictor == LinearPredictor(True, ("age",))
        assert spec.flows[1].predictor == LinearPredictor(False, ("trt1",))
        assert spec.flows[2].predictor == LinearPredictor(False, ("trt2",))

    def test_base_only_model(self):
        spec = dsl.parse("y = Ber(1/2)")
        assert spec.flows == ()
        assert spec.base_prob == Fraction(1, 2)

    def test_decimal_and_rational_probs_agree(self):
        assert dsl.parse("y = Ber(0.5)").base_prob == dsl.parse("y = Ber(1/2)").base_prob
        assert dsl.parse("y = Ber(0.25)").base_prob == Fraction(1, 4)
        assert dsl.parse("y = Ber(3/10)").base_prob == Fraction(3, 10)

    def test_integer_prob_endpoints(self):
        assert dsl.parse("y = Ber(0)").base_prob == 0
        assert dsl.parse("y = Ber(1)").base_prob == 1

    def test_whitespace_insensitive(self):
        tight = dsl.parse("y=Ber(1/2)|ScOdds(1+age)|ScRisk1(0+trt1)")
        spaced = dsl.parse("  y =  Ber( 1 / 2 ) | ScOdds( 1 + age ) | ScRisk1(0 +trt1)  ")
        assert tight == spaced
        # Any str.isspace character separates tokens: ideographic space,
        # next line (U+0085), tab and newline.
        unicode_spaced = dsl.parse(
            "y\u3000=\u0085Ber(1\t/\n2)\u3000|\u0085ScOdds(1\t+\nage)\t|\nScRisk1(0\u3000+trt1)"
        )
        assert unicode_spaced == dsl.parse("y = Ber(1 / 2) | ScOdds(1 + age) | ScRisk1(0 + trt1)")

    def test_multi_covariate_predictor(self):
        spec = dsl.parse("y = Ber(1/2) | ScOdds(1+age+sex+bmi)")
        assert spec.flows[0].predictor == LinearPredictor(True, ("age", "sex", "bmi"))

    def test_empty_predictor(self):
        spec = dsl.parse("y = Ber(1/3) | ScRisk1(0) | ScOdds(1)")
        assert spec.flows[0].predictor == LinearPredictor(False, ())
        assert spec.flows[1].predictor == LinearPredictor(True, ())

    def test_same_covariate_in_two_flows_is_fine(self):
        spec = dsl.parse("y = Ber(1/2) | ScRisk1(0+trt2) | ScRisk0(0+trt2)")
        assert dsl.covariate_names(spec) == ["trt2"]

    @pytest.mark.parametrize(
        "text, fragment, offset",
        _MALFORMED,
        ids=[f"{text}-{fragment}" for text, fragment, _ in _MALFORMED],
    )
    def test_rejects_malformed_text(self, text, fragment, offset):
        # Three calls in a row: the parse cache keeps results, never exceptions.
        messages = set()
        for _ in range(3):
            with pytest.raises(ModelSyntaxError, match=fragment) as err:
                dsl.parse(text)
            assert err.value.position == offset
            messages.add(str(err.value))
        assert len(messages) == 1

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("y = Ber(1/" + "1" * 5000 + ")", 10),
            ("y = Ber(" + "1" * 5000 + "/3)", 8),
            ("y = Ber(0." + "1" * 5000 + ")", 8),
        ],
        ids=["denominator", "numerator", "decimal"],
    )
    def test_number_past_the_digit_limit_is_a_syntax_error(self, text, offset):
        # Python refuses to convert a string of more than 4,300 digits.
        with pytest.raises(ModelSyntaxError, match="too long to convert") as err:
            dsl.parse(text)
        assert err.value.position == offset

    def test_zero_denominator_is_reported_before_a_long_numerator(self):
        with pytest.raises(ModelSyntaxError, match="zero denominator") as err:
            dsl.parse("y = Ber(" + "1" * 5000 + "/0)")
        assert err.value.position == 5009

    def test_repeated_text_returns_the_same_spec(self):
        assert dsl.parse(MODEL1_SPEC) is dsl.parse(MODEL1_SPEC)
        assert dsl.parse(" " + MODEL1_SPEC) == dsl.parse(MODEL1_SPEC)

    def test_parse_cache_is_bounded(self):
        maxsize = dsl._parse_cached.cache_info().maxsize
        assert maxsize is not None and maxsize > 0
        for i in range(maxsize + 10):
            dsl.parse(f"y = Ber({i}/{maxsize + 10})")
            assert dsl._parse_cached.cache_info().currsize <= maxsize
        assert dsl._parse_cached.cache_info().currsize == maxsize

    def test_parse_cache_keeps_only_short_texts(self):
        limit = dsl._PARSE_CACHE_MAX_CHARS
        at_limit = MODEL1_SPEC.ljust(limit)
        past_limit = MODEL1_SPEC.ljust(limit + 1)
        assert dsl.parse(at_limit) is dsl.parse(at_limit)
        first, second = dsl.parse(past_limit), dsl.parse(past_limit)
        assert first == second == dsl.parse(MODEL1_SPEC)
        assert first is not second

    def test_error_positions_point_at_the_problem(self):
        with pytest.raises(ModelSyntaxError) as err:
            dsl.parse("y = Ber(1/2) | ScFoo(1)")
        assert err.value.position == 15
        with pytest.raises(ModelSyntaxError) as err:
            dsl.parse("y = Ber(9/2)")
        assert err.value.position == 8


class TestConstructors:
    def test_positions_must_be_contiguous(self):
        flow = Flow(FlowKind.SC_ODDS, LinearPredictor(True, ()), position=2)
        with pytest.raises(ValueError, match="contiguous"):
            ModelSpec("y", Fraction(1, 2), (flow,))

    def test_base_prob_range_checked(self):
        with pytest.raises(ValueError, match="outside"):
            ModelSpec("y", Fraction(3, 2), ())

    def test_duplicate_terms_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            LinearPredictor(True, ("age", "age"))

    def test_bad_outcome_rejected(self):
        with pytest.raises(ValueError, match="outcome"):
            ModelSpec("2y", Fraction(1, 2), ())

    def test_bad_covariate_name_rejected(self):
        with pytest.raises(ValueError, match="invalid covariate name '1x'"):
            LinearPredictor(True, ("age", "1x"))

    def test_flow_position_must_be_positive(self):
        with pytest.raises(ValueError, match="flow position must be >= 1, got 0"):
            Flow(FlowKind.SC_ODDS, LinearPredictor(True, ()), position=0)


class TestPrettyPrint:
    def test_canonical_models_roundtrip_verbatim(self):
        assert dsl.pretty_print(dsl.parse(MODEL1_SPEC)) == MODEL1_SPEC
        assert dsl.pretty_print(dsl.parse(MODEL2_SPEC)) == MODEL2_SPEC

    def test_fraction_rendering(self):
        assert dsl.pretty_print(dsl.parse("y = Ber(0.25)")) == "y = Ber(1/4)"
        assert dsl.pretty_print(dsl.parse("y = Ber(1)")) == "y = Ber(1)"

    def test_roundtrip_on_random_corpus(self):
        rng = random.Random(1107)
        for _ in range(100):
            spec = random_model_spec(rng)
            assert dsl.parse(dsl.pretty_print(spec)) == spec


class TestNameDerivation:
    def test_model1_parameter_names(self):
        spec = dsl.parse(MODEL1_SPEC)
        assert dsl.parameter_names(spec) == ["f1.intercept", "f1.age", "f2.trt1", "f3.trt2"]

    def test_shared_covariate_model_parameter_names(self):
        spec = dsl.parse("y = Ber(1/2) | ScOdds(1+age) | ScRisk1(0+trt2) | ScRisk0(0+trt2)")
        assert dsl.parameter_names(spec) == ["f1.intercept", "f1.age", "f2.trt2", "f3.trt2"]

    def test_base_only_has_no_parameters(self):
        assert dsl.parameter_names(dsl.parse("y = Ber(1/2)")) == []

    def test_intercept_precedes_terms_within_a_flow(self):
        spec = dsl.parse("y = Ber(1/2) | ScOdds(1+sex+age)")
        assert dsl.parameter_names(spec) == ["f1.intercept", "f1.sex", "f1.age"]

    def test_covariate_names_dedupe_in_first_use_order(self):
        spec = dsl.parse("y = Ber(1/2) | ScOdds(1+sex+age) | ScRisk1(0+age+trt1)")
        assert dsl.covariate_names(spec) == ["sex", "age", "trt1"]

    def test_spec_names_match_the_loop_oracle(self):
        rng = random.Random(2026)
        for _ in range(200):
            spec = random_model_spec(rng)
            specs = [spec, *(subcomposition(spec, keep) for keep in range(len(spec.flows) + 1))]
            specs += [
                permute_spec(spec, perm)[0] for perm in itertools.permutations(range(1, len(spec.flows) + 1))
            ]
            for each in specs:
                assert each.parameter_names == tuple(loop_parameter_names(each))
                for flow in each.flows:
                    intercept = () if flow.intercept_key is None else (flow.intercept_key,)
                    assert intercept + tuple(key for key, _ in flow.term_keys) == flow.parameter_names
                    assert tuple(term for _, term in flow.term_keys) == flow.predictor.terms
                assert each.covariate_names == tuple(loop_covariate_names(each))
                assert dsl.parameter_names(each) == loop_parameter_names(each)
                assert dsl.covariate_names(each) == loop_covariate_names(each)

    def test_flow_names_are_kept_on_the_flow(self):
        flow = Flow(FlowKind.SC_RISK0, LinearPredictor(True, ("sex", "age")), 7)
        assert flow.parameter_names == ("f7.intercept", "f7.sex", "f7.age")
        assert flow.parameter_names is flow.parameter_names
        assert flow.intercept_key == "f7.intercept"
        assert flow.term_keys == (("f7.sex", "sex"), ("f7.age", "age"))
        assert Flow(FlowKind.SC_ODDS, LinearPredictor(False, ("age",)), 2).intercept_key is None
        assert Flow(FlowKind.SC_ODDS, LinearPredictor(False, ("age",)), 2).parameter_names == ("f2.age",)
        assert [f.name for f in dataclasses.fields(flow)] == ["kind", "predictor", "position"]
        assert flow == Flow(FlowKind.SC_RISK0, LinearPredictor(True, ("sex", "age")), 7)
        names = dsl.flow_parameter_names(flow)
        names.clear()
        assert dsl.flow_parameter_names(flow) == ["f7.intercept", "f7.sex", "f7.age"]

    def test_names_are_not_fields(self):
        spec = ModelSpec("y", Fraction(1, 2), (Flow(FlowKind.SC_ODDS, LinearPredictor(True, ("age",)), 1),))
        assert spec.parameter_names == ("f1.intercept", "f1.age")
        assert [f.name for f in dataclasses.fields(spec)] == ["outcome", "base_prob", "flows"]
        assert spec == ModelSpec("y", Fraction(1, 2), spec.flows)
        assert hash(spec) == hash(ModelSpec("y", Fraction(1, 2), spec.flows))
        assert "names" not in repr(spec)

    def test_flow_keys_are_not_fields(self):
        spec = dsl.parse(MODEL1_SPEC)
        assert repr(spec) == (
            "ModelSpec(outcome='y', base_prob=Fraction(1, 2), flows=("
            "Flow(kind=<FlowKind.SC_ODDS: 'ScOdds'>, predictor=LinearPredictor(has_intercept=True, "
            "terms=('age',)), position=1), "
            "Flow(kind=<FlowKind.SC_RISK1: 'ScRisk1'>, predictor=LinearPredictor(has_intercept=False, "
            "terms=('trt1',)), position=2), "
            "Flow(kind=<FlowKind.SC_RISK0: 'ScRisk0'>, predictor=LinearPredictor(has_intercept=False, "
            "terms=('trt2',)), position=3)))"
        )
        fields = [(flow.kind, flow.predictor, flow.position) for flow in spec.flows]
        assert spec.flows == tuple(Flow(*f) for f in fields)
        assert [hash(flow) for flow in spec.flows] == [hash(f) for f in fields]
        assert hash(spec) == hash((spec.outcome, spec.base_prob, spec.flows))

    def test_only_dsl_spells_parameter_keys(self):
        """No string constant of another module, docstrings aside, starts
        like a parameter key (``f2.trt1``): they read keys off a spec."""
        found = []
        for path in sorted(Path(dsl.__file__).parent.glob("*.py")):
            if path.name == "dsl.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            documented = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            docstrings = {
                id(node.body[0].value)
                for node in ast.walk(tree)
                if isinstance(node, documented) and node.body and isinstance(node.body[0], ast.Expr)
            }
            found += [
                f"{path.name}:{node.lineno} {node.value!r}"
                for node in ast.walk(tree)
                if isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docstrings
                and re.match(r"f\d+\.", node.value)
            ]
        assert found == []

    def test_dsl_imports_no_other_flowcalc_module(self):
        """Every other module imports ``dsl``, and it imports none of them,
        at module level or inside a function: a spec's compiled fold is
        ``engine``'s alone."""
        tree = ast.parse(Path(dsl.__file__).read_text(encoding="utf-8"))
        modules = [
            (node.lineno, "." * node.level + (node.module or ""))
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
        ]
        modules += [
            (node.lineno, alias.name) for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
        ]
        assert [(line, name) for line, name in modules if name.startswith((".", "flowcalc"))] == []

    def test_returned_lists_are_new(self):
        spec = dsl.parse(MODEL1_SPEC)
        names = dsl.parameter_names(spec)
        names.append("f9.extra")
        names[0] = "changed"
        covariates = dsl.covariate_names(spec)
        covariates.clear()
        assert spec.parameter_names == ("f1.intercept", "f1.age", "f2.trt1", "f3.trt2")
        assert spec.covariate_names == ("age", "trt1", "trt2")
        assert dsl.parameter_names(spec) == ["f1.intercept", "f1.age", "f2.trt1", "f3.trt2"]
        assert dsl.covariate_names(spec) == ["age", "trt1", "trt2"]
