"""Calculus and CLI for sequentially composed binary-outcome flow models.

A model pipes a base Bernoulli probability through ordered flows, each of
which rescales odds, risk, or survival by the exponential of its own linear
predictor.  The package parses the model language, evaluates the implied
probabilities, extracts effect measures, marginalizes over covariates, and
mechanically checks which flow orderings are observationally distinct.
"""

from .dsl import (
    Flow,
    FlowKind,
    LinearPredictor,
    ModelSpec,
    ModelSyntaxError,
    covariate_names,
    flow_parameter_names,
    parameter_names,
    parse,
    pretty_print,
)
from .engine import (
    MODEL1_SPEC,
    MODEL2_SPEC,
    BindingError,
    CovariateEnv,
    EvalResult,
    EvaluationError,
    ParamEnv,
    StageRecord,
    apply_flow,
    closed_form_model1,
    closed_form_model2,
    eta,
    evaluate,
    evaluate_batch,
)
from .marginal import (
    CovariateDistribution,
    DistributionError,
    MarginalizationError,
    RecoveryReport,
    RecoverySuiteReport,
    expected_eta3,
    marginalize,
    recovery_condition,
    recovery_equivalence_suite,
)
from .measures import (
    MODEL3_SPEC,
    CompositeContrastPoint,
    CompositeContrastReport,
    EffectQuery,
    EffectReport,
    Measure,
    composite_contrast_check,
    effect,
    rr_model1_formula,
    subcomposition,
)
from .orderings import (
    OrderingReport,
    OrderingWitness,
    enumerate_orderings,
    permute_spec,
    remap_params,
)

__version__ = "0.1.0"

__all__ = [
    "Flow",
    "FlowKind",
    "LinearPredictor",
    "ModelSpec",
    "ModelSyntaxError",
    "covariate_names",
    "flow_parameter_names",
    "parameter_names",
    "parse",
    "pretty_print",
    "MODEL1_SPEC",
    "MODEL2_SPEC",
    "MODEL3_SPEC",
    "BindingError",
    "CovariateEnv",
    "EvalResult",
    "EvaluationError",
    "ParamEnv",
    "StageRecord",
    "apply_flow",
    "closed_form_model1",
    "closed_form_model2",
    "eta",
    "evaluate",
    "evaluate_batch",
    "CovariateDistribution",
    "DistributionError",
    "MarginalizationError",
    "RecoveryReport",
    "RecoverySuiteReport",
    "expected_eta3",
    "marginalize",
    "recovery_condition",
    "recovery_equivalence_suite",
    "CompositeContrastPoint",
    "CompositeContrastReport",
    "EffectQuery",
    "EffectReport",
    "Measure",
    "composite_contrast_check",
    "effect",
    "rr_model1_formula",
    "subcomposition",
    "OrderingReport",
    "OrderingWitness",
    "enumerate_orderings",
    "permute_spec",
    "remap_params",
    "__version__",
]
