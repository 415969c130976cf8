"""Acceptance gate: one test per shipped criterion.

Each test prints a single ``[criterion N] PASS`` / ``FAIL`` line (visible
with ``pytest -s``) and then asserts, so ``pytest -v`` shows one status per
criterion.  All eight criteria pass.  Two of them assert values derived
from the update rules rather than the claims first written for them, which
are false: criterion 2 checks the validity flags against the stage
inequalities (3498 of 8000 grid points are valid, 43.73%, not the 60% once
asserted), and criterion 3(b) checks Model 2's trt2 risk ratio against
(1 + eta1 - exp(gamma)) / eta1 (not exp(gamma)).  README.md derives both.
"""

import csv
import json
import math
import random
from time import perf_counter

import numpy as np
import pytest

from flowcalc.cli import main
from flowcalc.dsl import parse, pretty_print
from flowcalc.engine import (
    MODEL1_SPEC,
    MODEL2_SPEC,
    closed_form_model1,
    closed_form_model2,
    evaluate,
)
from flowcalc.marginal import (
    CovariateDistribution,
    MarginalizationError,
    marginalize,
    recovery_condition,
    recovery_equivalence_suite,
)
from flowcalc.measures import (
    EffectQuery,
    composite_contrast_check,
    effect,
    rr_model1_formula,
    subcomposition,
)
from flowcalc.orderings import enumerate_orderings, permute_spec, remap_params

from helpers import close, mc_marginal, model1_params, model2_params, random_model_spec


class CriterionCheck:
    """Accumulates labeled sub-checks and reports one line per criterion."""

    def __init__(self, number: int, description: str):
        self.number = number
        self.description = description
        self.failures: list[str] = []

    def check(self, label: str, ok: bool) -> None:
        if not ok:
            self.failures.append(label)

    def runtime(self, limit_s: float, elapsed_s: float) -> None:
        self.check(f"runtime < {limit_s:g} s (measured {elapsed_s:.3f} s)", elapsed_s < limit_s)

    def finish(self) -> None:
        if self.failures:
            line = f"[criterion {self.number}] FAIL: {self.description} -- {'; '.join(self.failures)}"
        else:
            line = f"[criterion {self.number}] PASS: {self.description}"
        print(line)
        assert not self.failures, line


def test_criterion1_order_dependence_witness():
    gate = CriterionCheck(1, "order-dependence witness (0.68 vs 0.72)")
    m1, m2 = parse(MODEL1_SPEC), parse(MODEL2_SPEC)
    beta, gamma = math.log(1.2), math.log(0.8)
    covs = {"age": 0.0, "trt1": 1.0, "trt2": 1.0}
    p1 = model1_params(beta=beta, gamma=gamma)
    p2 = model2_params(beta=beta, gamma=gamma)

    t0 = perf_counter()
    r1 = evaluate(m1, p1, covs)
    r2 = evaluate(m2, p2, covs)
    cf1 = closed_form_model1(1.0, 1.2, 0.8)
    cf2 = closed_form_model2(1.0, 1.2, 0.8)
    elapsed = perf_counter() - t0

    gate.check("Model 1 evaluates to 0.68 (1e-12)", abs(r1.probability - 0.68) <= 1e-12)
    gate.check("Model 2 evaluates to 0.72 (1e-12)", abs(r2.probability - 0.72) <= 1e-12)
    gate.check("Model 1 matches its closed form (1e-12)", abs(r1.probability - cf1) <= 1e-12)
    gate.check("Model 2 matches its closed form (1e-12)", abs(r2.probability - cf2) <= 1e-12)
    gate.check("both evaluations valid", r1.valid and r2.valid)
    gate.runtime(1e-3, elapsed)
    gate.finish()


def test_criterion2_closed_form_agreement_grid():
    gate = CriterionCheck(2, "closed-form agreement on the 20^3 log-grid")
    m1, m2 = parse(MODEL1_SPEC), parse(MODEL2_SPEC)
    logs = np.linspace(-2.0, 2.0, 20)
    covs = {"age": 0.0, "trt1": 1.0, "trt2": 1.0}

    t0 = perf_counter()
    # Overall valid flag and first invalid stage (0: none) of each evaluation,
    # in (l1, l2, l3) odometer order.
    valid1, valid2, first_bad1, first_bad2 = [], [], [], []
    agree1 = agree2 = True
    for l1 in logs:
        for l2 in logs:
            for l3 in logs:
                e1, e2, e3 = math.exp(l1), math.exp(l2), math.exp(l3)
                r1 = evaluate(m1, model1_params(alpha0=l1, beta=l2, gamma=l3), covs)
                r2 = evaluate(m2, model2_params(alpha0=l1, beta=l2, gamma=l3), covs)
                valid1.append(r1.valid)
                valid2.append(r2.valid)
                first_bad1.append(_first_invalid_stage(r1))
                first_bad2.append(_first_invalid_stage(r2))
                if r1.valid:
                    agree1 &= close(r1.probability, closed_form_model1(e1, e2, e3))
                if r2.valid:
                    agree2 &= close(r2.probability, closed_form_model2(e1, e2, e3))

    # Analytic validity from the stage inequalities alone, in one numpy pass
    # over the same grid.  The ScOdds stage is always valid and leaves
    # p1 = eta1 / (1 + eta1).  Model 1 then needs p1*eta2 <= 1 (ScRisk1) and
    # (1 - p1*eta2)*eta3 <= 1 (ScRisk0); Model 2 needs (1 - p1)*eta3 <= 1
    # (ScRisk0) and (1 - (1 - p1)*eta3)*eta2 <= 1 (ScRisk1).
    e1, e2, e3 = np.meshgrid(*(np.exp(logs),) * 3, indexing="ij")
    p1 = e1 / (1.0 + e1)
    stage_lhs = {
        1: (p1 * e2, (1.0 - p1 * e2) * e3),
        2: ((1.0 - p1) * e3, (1.0 - (1.0 - p1) * e3) * e2),
    }
    expected_first_bad = {
        model: np.where(s2 > 1.0, 2, np.where(s3 > 1.0, 3, 0)).ravel()
        for model, (s2, s3) in stage_lhs.items()
    }
    margin = min(float(np.abs(lhs - 1.0).min()) for pair in stage_lhs.values() for lhs in pair)
    elapsed = perf_counter() - t0

    gate.check("Model 1 agrees on valid points (1e-12 relative, 1e-14 floor)", agree1)
    gate.check("Model 2 agrees on valid points (1e-12 relative, 1e-14 floor)", agree2)
    gate.check(f"grid points keep > 1e-9 from every stage boundary (min {margin:.3g})", margin > 1e-9)
    for model, valid, first_bad in ((1, valid1, first_bad1), (2, valid2, first_bad2)):
        valid, first_bad = np.asarray(valid), np.asarray(first_bad)
        expected = expected_first_bad[model]
        counts = [int(np.count_nonzero(expected == stage)) for stage in (0, 2, 3)]
        gate.check(
            f"Model {model} stage inequalities give 3498 valid, 2340 first invalid at "
            f"stage 2, 2162 at stage 3 (counted {counts})",
            counts == [3498, 2340, 2162],
        )
        gate.check(
            f"Model {model} valid flag matches the analytic mask at all 8000 points "
            f"({int(np.count_nonzero(valid != (expected == 0)))} differ)",
            np.array_equal(valid, expected == 0),
        )
        gate.check(
            f"Model {model} first invalid stage matches the analytic mask "
            f"({int(np.count_nonzero(first_bad != expected))} differ)",
            np.array_equal(first_bad, expected),
        )
    gate.runtime(1.0, elapsed)
    gate.finish()


def _first_invalid_stage(result) -> int:
    return next((stage.position for stage in result.stages if not stage.valid), 0)


def _draw_model1_config(rng):
    return (
        rng.uniform(-2.0, 2.0),
        rng.uniform(-0.05, 0.05),
        rng.uniform(-1.0, 1.0),
        rng.uniform(-1.0, 1.0),
        rng.uniform(20.0, 60.0),
    )


def test_criterion3_effect_measure_suite():
    gate = CriterionCheck(3, "effect-measure suite (subcomposition, Model 2, Model 1 formula)")
    m1, m2 = parse(MODEL1_SPEC), parse(MODEL2_SPEC)
    sub = subcomposition(m1, 2)
    rng = random.Random(31)
    n_draws = 1000
    budget = 100 * n_draws

    t0 = perf_counter()

    # (a) On the two-flow prefix of Model 1 the trt1 risk ratio is exp(beta).
    n_ok_a = 0
    collected = attempts = 0
    while collected < n_draws and attempts < budget:
        attempts += 1
        alpha0, alpha1, beta, _, age = _draw_model1_config(rng)
        params = {"f1.intercept": alpha0, "f1.age": alpha1, "f2.trt1": beta}
        report = effect(sub, params, EffectQuery(target="trt1", context={"age": age}))
        if not report.valid:
            continue
        collected += 1
        n_ok_a += close(report.value, math.exp(beta))
    gate.check(f"(a) drew {collected}/{n_draws} valid subcomposition configs", collected == n_draws)
    gate.check(f"(a) subcomposition RR(trt1) = exp(beta) to 1e-12 ({n_ok_a}/{n_draws})", n_ok_a == n_draws)

    # (b) Model 2's trt2 risk ratio is not exp(gamma): dividing the closed
    # form (1 + eta1 - eta3) * eta2 / (1 + eta1) at eta3 = exp(gamma) by
    # itself at eta3 = 1 gives (1 + eta1 - exp(gamma)) / eta1.  It depends on
    # age through eta1 and not on trt1, whose scaler eta2 cancels.
    def model2_rr(params, age, trt1):
        return effect(
            m2, params, EffectQuery(target="trt2", context={"age": age, "trt1": trt1})
        )

    def rr_model2_trt2(eta1, gamma):
        return (1.0 + eta1 - math.exp(gamma)) / eta1

    n_ok_b = n_ok_age = n_inv_trt1 = 0
    collected = attempts = 0
    while collected < n_draws and attempts < budget:
        attempts += 1
        alpha0, alpha1, beta, gamma, age = _draw_model1_config(rng)
        params = model2_params(alpha0=alpha0, alpha1=alpha1, beta=beta, gamma=gamma)
        reports = [
            model2_rr(params, age, 1.0),
            model2_rr(params, 20.0, 1.0),
            model2_rr(params, 60.0, 1.0),
            model2_rr(params, age, 0.0),
        ]
        if not all(r.valid for r in reports):
            continue
        collected += 1
        base, at20, at60, at_trt1_0 = (r.value for r in reports)
        formulas = [rr_model2_trt2(math.exp(alpha0 + alpha1 * a), gamma) for a in (age, 20.0, 60.0)]
        n_ok_b += close(base, formulas[0])
        n_ok_age += close(at20, formulas[1]) and close(at60, formulas[2])
        n_inv_trt1 += close(base, at_trt1_0)
    witness_b = rr_model2_trt2(1.0, math.log(0.8))
    gate.check(f"(b) drew {collected}/{n_draws} valid Model 2 configs", collected == n_draws)
    gate.check(
        f"(b) Model 2 RR(trt2) matches (1 + eta1 - exp(gamma)) / eta1 to 1e-12 ({n_ok_b}/{n_draws})",
        n_ok_b == n_draws,
    )
    gate.check(
        f"(b) RR(trt2) at ages 20 and 60 matches the formula at those ages ({n_ok_age}/{n_draws})",
        n_ok_age == n_draws,
    )
    gate.check(f"(b) RR(trt2) invariant in trt1 ({n_inv_trt1}/{n_draws})", n_inv_trt1 == n_draws)
    gate.check(
        f"(b) witness (1, ln 0.8) gives 1.2 (got {witness_b!r}) and differs from exp(gamma) = 0.8 by > 1e-3",
        close(witness_b, 1.2) and abs(witness_b - 0.8) > 1e-3,
    )

    # (c) Model 1's full trt1 risk ratio follows the three-scaler formula and
    # is not exp(beta).
    n_ok_c = 0
    collected = attempts = 0
    while collected < n_draws and attempts < budget:
        attempts += 1
        alpha0, alpha1, beta, gamma, age = _draw_model1_config(rng)
        params = model1_params(alpha0=alpha0, alpha1=alpha1, beta=beta, gamma=gamma)
        report = effect(m1, params, EffectQuery(target="trt1", context={"age": age, "trt2": 1.0}))
        if not report.valid:
            continue
        eta1 = math.exp(alpha0 + alpha1 * age)
        try:
            formula = rr_model1_formula(eta1, math.exp(gamma), beta)
        except ZeroDivisionError:
            continue
        collected += 1
        n_ok_c += close(report.value, formula)
    witness = rr_model1_formula(1.0, 0.8, math.log(1.2))
    elapsed = perf_counter() - t0

    gate.check(f"(c) drew {collected}/{n_draws} valid Model 1 configs", collected == n_draws)
    gate.check(f"(c) full RR(trt1) matches the formula to 1e-12 ({n_ok_c}/{n_draws})", n_ok_c == n_draws)
    gate.check(
        "(c) witness (1, 0.8, ln 1.2) differs from exp(beta) by > 1e-3",
        abs(witness - 1.2) > 1e-3,
    )
    gate.runtime(2.0, elapsed)
    gate.finish()


def test_criterion4_model3_composite_identity():
    gate = CriterionCheck(4, "Model 3 composite identity over the age grid")
    rng = random.Random(41)
    ages = np.linspace(20.0, 60.0, 50)
    n_draws = 100
    budget = 100 * n_draws

    t0 = perf_counter()
    max_gap = 0.0
    collected = attempts = 0
    while collected < n_draws and attempts < budget:
        attempts += 1
        alpha0, alpha1, beta, gamma, _ = _draw_model1_config(rng)
        params = {"f1.intercept": alpha0, "f1.age": alpha1, "f2.trt2": beta, "f3.trt2": gamma}
        report = composite_contrast_check(params, ages)
        if report.n_valid == 0:
            continue
        collected += 1
        max_gap = max(max_gap, report.max_identity_gap)

    witness_params = {
        "f1.intercept": 0.0,
        "f1.age": 0.0,
        "f2.trt2": math.log(1.2),
        "f3.trt2": math.log(0.9),
    }
    witness = composite_contrast_check(witness_params, ages)
    elapsed = perf_counter() - t0

    gate.check(f"drew {collected}/{n_draws} configs with valid evaluations", collected == n_draws)
    gate.check(
        f"identity holds to 1e-12 at every valid grid point (max gap {max_gap:.3g})",
        max_gap <= 1e-12,
    )
    gate.check("witness has valid points", witness.n_valid > 0)
    gate.check("witness contrast differs from exp(beta) by > 1e-6", not witness.matches_rr)
    gate.check("witness contrast differs from exp(gamma) by > 1e-6", not witness.matches_sr)
    gate.runtime(1.0, elapsed)
    gate.finish()


def test_criterion5_recovery_condition_equivalence():
    gate = CriterionCheck(5, "recovery condition iff marginal RR recovery")

    t0 = perf_counter()
    suite = recovery_equivalence_suite(n_random=10_000, n_constructed=1_000, seed=0)
    constructed = recovery_condition(1.0, math.log(1.2), math.log(0.9), 0.4, 0.6)
    elapsed = perf_counter() - t0

    gate.check(
        f"condition_holds == rr_matches on all {suite.n_random + suite.n_constructed} "
        f"configurations ({suite.n_agree} agree, {suite.n_disagree} disagree)",
        suite.all_agree and suite.n_agree == 11_000,
    )
    gate.check(
        "constructed example (1, ln 1.2, ln 0.9, 0.4, 0.6) recovers RR = 1.2 to 1e-12",
        abs(constructed.lhs_rr - 1.2) <= 1e-12,
    )
    gate.check("constructed example satisfies the balance condition", constructed.condition_holds)
    gate.runtime(5.0, elapsed)
    gate.finish()


def test_criterion6_orderings_classification():
    gate = CriterionCheck(6, "orderings partition of Model 1's flows")
    m1 = parse(MODEL1_SPEC)

    t0 = perf_counter()
    report = enumerate_orderings(m1, grid_size=8)
    same_kind = enumerate_orderings(
        parse("y = Ber(1/2) | ScRisk1(0+a) | ScRisk1(0+b) | ScRisk1(0+c)"), grid_size=8
    )
    replayed = True
    for witness in report.witnesses:
        probs = []
        for perm in (witness.perm_low, witness.perm_high):
            permuted, param_map = permute_spec(m1, perm)
            result = evaluate(permuted, remap_params(witness.params, param_map), witness.covariates)
            replayed &= result.valid
            probs.append(result.probability)
        replayed &= close(probs[0], witness.prob_low)
        replayed &= close(probs[1], witness.prob_high)
        replayed &= close(abs(probs[1] - probs[0]), witness.gap)
    elapsed = perf_counter() - t0

    gate.check(
        "all 6 permutations are classified",
        sum(len(group) for group in report.classes) == 6,
    )
    gate.check(
        "Model-1 and Model-2 orderings land in different classes",
        report.class_of((1, 2, 3)) != report.class_of((1, 3, 2)),
    )
    gate.check(
        "same-kind-block permutations co-class (3 x ScRisk1 collapses to one class)",
        len(same_kind.classes) == 1 and len(same_kind.classes[0]) == 6,
    )
    gate.check(f"all {len(report.witnesses)} witnesses replay to their stated gap", replayed)
    gate.runtime(5.0, elapsed)
    gate.finish()


def test_criterion7_cli_determinism_and_replay(tmp_path, capsys):
    gate = CriterionCheck(7, "sweep determinism, row replay, round-trip corpus")
    config_path = tmp_path / "m1.json"
    config_path.write_text(
        json.dumps(
            {
                "model": MODEL1_SPEC,
                "aliases": {
                    "f1.intercept": "alpha0",
                    "f1.age": "alpha1",
                    "f2.trt1": "beta",
                    "f3.trt2": "gamma",
                },
                "params": {"alpha0": 0.0, "alpha1": 0.0, "beta": 0.0, "gamma": 0.0},
                "covariates": {"age": 40, "trt1": 1, "trt2": 1},
            }
        ),
        encoding="utf-8",
    )
    sweep_args = [
        "sweep",
        "--config",
        str(config_path),
        "--vary",
        "beta=-1:1:0.1",
        "--vary",
        "gamma=-1:1:0.1",
    ]

    t0 = perf_counter()
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    codes = [main(sweep_args + ["--out", str(path)]) for path in paths]
    capsys.readouterr()

    with open(paths[0], newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    replayed = bool(rows)
    for row in rows:
        rc = main(
            [
                "eval",
                "--config",
                str(config_path),
                "--bind",
                f"beta={row['beta']}",
                "--bind",
                f"gamma={row['gamma']}",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        replayed &= rc == (0 if row["valid"] == "true" else 4)
        replayed &= payload["probability"] == float(row["probability"])
        replayed &= str(payload["valid"]).lower() == row["valid"]

    rng = random.Random(71)
    corpus_ok = all(
        parse(pretty_print(spec)) == spec for spec in (random_model_spec(rng) for _ in range(100))
    )
    elapsed = perf_counter() - t0

    gate.check("both sweep runs exit 0", codes == [0, 0])
    gate.check("441 rows (21 x 21 grid)", len(rows) == 441)
    gate.check("reruns are byte-identical", paths[0].read_bytes() == paths[1].read_bytes())
    gate.check("every row reproduces under eval", replayed)
    gate.check("parse/pretty-print round-trip on a 100-spec corpus", corpus_ok)
    gate.runtime(2.0, elapsed)
    gate.finish()


def test_criterion8_monte_carlo_cross_check():
    gate = CriterionCheck(8, "marginalize vs 1e6-draw simulation")
    rng = random.Random(81)
    n_configs = 20
    budget = 100 * n_configs

    t0 = perf_counter()
    max_abs_err = 0.0
    collected = attempts = 0
    while collected < n_configs and attempts < budget:
        attempts += 1
        alpha0 = rng.uniform(-1.0, 1.0)
        alpha1 = rng.uniform(-0.02, 0.02)
        beta = rng.uniform(-0.7, 0.7)
        gamma = rng.uniform(-0.7, 0.7)
        age = rng.uniform(20.0, 60.0)
        pi = rng.uniform(0.05, 0.95)
        other = float(rng.randint(0, 1))
        if collected % 2 == 0:
            spec = parse(MODEL1_SPEC)
            params = model1_params(alpha0=alpha0, alpha1=alpha1, beta=beta, gamma=gamma)
            over_name, context = "trt2", {"age": age, "trt1": other}
        else:
            spec = parse(MODEL2_SPEC)
            params = model2_params(alpha0=alpha0, alpha1=alpha1, beta=beta, gamma=gamma)
            over_name, context = "trt1", {"age": age, "trt2": other}
        over = CovariateDistribution.from_table(
            over_name, [{"value": 0.0, "probability": 1.0 - pi}, {"value": 1.0, "probability": pi}]
        )
        try:
            exact = marginalize(spec, params, over, context)
        except MarginalizationError:
            continue
        simulated = mc_marginal(spec, params, over, context, n_draws=10**6, seed=800 + collected)
        max_abs_err = max(max_abs_err, abs(exact - simulated))
        collected += 1
    elapsed = perf_counter() - t0

    gate.check(f"drew {collected}/{n_configs} feasible configurations", collected == n_configs)
    gate.check(
        f"max |marginalize - simulation| = {max_abs_err:.2e} <= 3e-3",
        max_abs_err <= 3e-3,
    )
    gate.runtime(10.0, elapsed)
    gate.finish()
