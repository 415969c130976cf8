"""The benchmark's four workloads: seeded inputs, operations and output checks.

A workload is built from a seed and exposes:

* ``ops``: the zero-argument callables of one *unit* of work, each one
  operation timed on its own by the harness.  An operation is one CLI
  command for the three CLI workloads and one query for ``query-mix``; a
  unit is one command for ``sweep-grid`` and ``recovery-suite``, five for
  ``orderings-5flow`` and one pass over the seeded query sequence for
  ``query-mix``.
* ``work_per_op``: input-size units one operation completes (rows, accepted
  trials, permutation x grid-point pairs, queries).
* ``output(index, result)``: the bytes operation ``index`` produced, for
  the determinism check (every unit must reproduce the reference unit byte
  for byte).
* ``check(results)``: verify one unit's results against independent
  expectations; returns ``(op_index, message)`` pairs, with index ``None``
  when every operation is affected.

The CLI workloads call ``cli.main`` in-process, so the traced run can wrap
the functions ``cli`` calls.  ``query-mix`` calls the library through the
module attributes ``dsl.parse``, ``engine.evaluate``, ``measures.effect`` and
``marginal.marginalize`` for the same reason.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import random
from pathlib import Path

from flowcalc import cli, dsl, engine, marginal, measures, orderings

REL_TOL = 1e-12
ABS_FLOOR = 1e-14

# README's example config: Model 1 with display aliases for its parameters.
_MODEL1_ALIASES = {"f1.intercept": "alpha0", "f1.age": "alpha1", "f2.trt1": "beta", "f3.trt2": "gamma"}
_SWEEP_VARY = ["--vary", "beta=-1:1:0.01", "--vary", "gamma=-1:1:0.01"]
_SWEEP_ROWS = 201 * 201

_RECOVERY_TRIALS = 10000
_RECOVERY_CONSTRUCTED = 1000

_ORDERING_FLOWS = ["ScOdds(1+age)", "ScRisk1(0+trt1)", "ScRisk0(0+trt2)", "ScOdds(0+trt1)", "ScRisk1(1+trt2)"]
_ORDERING_GRID = 3
# 7 parameters on 3 values each, 3 binary covariates; 5! orderings.
_ORDERING_POINTS = 3**7 * 2**3
_ORDERING_PERMS = 120
_ORDERING_CLASSES = 78

_POOL_SIZE = 256
_QUERIES_PER_PASS = 4000
_BINARY = ("trt1", "trt2", "sex")
_CONTINUOUS = {"age": (20.0, 70.0), "dose": (0.0, 2.0)}
_EFFECT_LEVELS = {"age": (30.0, 50.0), "dose": (0.5, 1.5)}


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    """Relative comparison with an absolute floor near zero."""
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), ABS_FLOOR)


class CommandFailed(RuntimeError):
    """A CLI command returned a non-zero exit code."""


class CliWorkload:
    """``flowcalc`` commands run in-process through ``cli.main``, one per operation.

    ``commands`` pairs each argv with the file it writes, or None when its
    output is standard output.
    """

    cli_command = True

    def __init__(self, commands: list[tuple[list[str], Path | None]]):
        self.commands = commands
        self.ops = [functools.partial(_run_command, argv) for argv, _ in commands]

    def output(self, index: int, stdout: str) -> bytes:
        path = self.commands[index][1]
        return stdout.encode("utf-8") if path is None else path.read_bytes()


def _run_command(argv: list[str]) -> str:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    if code != 0:
        raise CommandFailed(f"exit {code}: {stderr.getvalue().strip()}")
    return stdout.getvalue()


class SweepGrid(CliWorkload):
    name = "sweep-grid"
    work_per_op = _SWEEP_ROWS

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.alpha0 = rng.uniform(-1.0, 1.0)
        self.alpha1 = rng.uniform(-0.03, 0.03)
        self.age = rng.uniform(20.0, 70.0)
        self.sample_seed = rng.getrandbits(32)
        config = {
            "model": engine.MODEL1_SPEC,
            "aliases": _MODEL1_ALIASES,
            "params": {"alpha0": self.alpha0, "alpha1": self.alpha1, "beta": 0.1823, "gamma": -0.2231},
            "covariates": {"age": self.age, "trt1": 1, "trt2": 1},
        }
        config_path = workdir / "sweep.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = workdir / "sweep.csv"
        super().__init__([(["sweep", "--config", str(config_path), *_SWEEP_VARY, "--out", str(out)], out)])

    def check(self, results: list) -> list:
        text = self.output(0, results[0]).decode("utf-8")
        rows = list(csv.reader(io.StringIO(text)))
        if rows[:1] != [["beta", "gamma", "probability", "valid"]] or len(rows) != _SWEEP_ROWS + 1:
            return [(None, f"sweep wrote {len(rows)} lines with header {rows[:1]}")]
        rows = rows[1:]
        covariates = {"age": self.age, "trt1": 1.0, "trt2": 1.0}
        eta1 = math.exp(self.alpha0 + self.alpha1 * self.age)
        problems = []
        for beta_s, gamma_s, prob_s, valid_s in rows:
            beta, gamma, prob = float(beta_s), float(gamma_s), float(prob_s)
            if valid_s == "true":
                expected = engine.closed_form_model1(eta1, math.exp(beta), math.exp(gamma))
                if not close(prob, expected):
                    problems.append((None, f"row beta={beta_s} gamma={gamma_s}: {prob!r} vs closed form {expected!r}"))
        spec = dsl.parse(engine.MODEL1_SPEC)
        for beta_s, gamma_s, prob_s, valid_s in random.Random(self.sample_seed).sample(rows, 200):
            params = {"f1.intercept": self.alpha0, "f1.age": self.alpha1,
                      "f2.trt1": float(beta_s), "f3.trt2": float(gamma_s)}
            replay = engine.evaluate(spec, params, covariates)
            if (f"{replay.probability:.17g}", str(replay.valid).lower()) != (prob_s, valid_s):
                problems.append((None, f"row beta={beta_s} gamma={gamma_s} does not replay bit for bit"))
        return problems[:5]


class RecoverySuite(CliWorkload):
    name = "recovery-suite"
    work_per_op = _RECOVERY_TRIALS + _RECOVERY_CONSTRUCTED

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        super().__init__([(["check-recovery", "--trials", str(_RECOVERY_TRIALS),
                            "--constructed", str(_RECOVERY_CONSTRUCTED), "--seed", str(seed)], None)])

    def check(self, results: list) -> list:
        report = json.loads(results[0])
        expected = {"n_random": _RECOVERY_TRIALS, "n_constructed": _RECOVERY_CONSTRUCTED,
                    "n_agree": self.work_per_op, "n_disagree": 0, "all_agree": True, "seed": self.seed}
        wrong = {k: report.get(k) for k, v in expected.items() if report.get(k) != v}
        return [(None, f"recovery report differs from {expected}: {wrong}")] if wrong else []


class Orderings5Flow(CliWorkload):
    """The five flows in the seed's shuffled order and its four rotations.

    The cost of ``orderings`` depends on the textual order of the flows (by
    about 30% between the cheapest and dearest of the 120 orders), mostly on
    which flow comes first.  Running all five rotations, so that each flow
    leads once, keeps that out of the run-to-run spread.
    """

    name = "orderings-5flow"
    work_per_op = _ORDERING_PERMS * _ORDERING_POINTS

    def __init__(self, seed: int, workdir: Path):
        flows = list(_ORDERING_FLOWS)
        random.Random(seed).shuffle(flows)
        commands = []
        for i in range(len(flows)):
            model = "y = Ber(1/2) | " + " | ".join(flows[i:] + flows[:i])
            out = workdir / f"orderings-{i}.json"
            commands.append((["orderings", "--model", model, "--grid-size", str(_ORDERING_GRID),
                              "--out", str(out)], out))
        super().__init__(commands)

    def check(self, results: list) -> list:
        problems = []
        for i, result in enumerate(results):
            problems += [(i, message) for message in self._check_report(json.loads(self.output(i, result)))]
        return problems

    @staticmethod
    def _check_report(report: dict) -> list:
        perms = [tuple(p["order"]) for p in report["permutations"]]
        members = sorted(tuple(p) for group in report["classes"] for p in group)
        witnesses = report["witnesses"]
        counts = (len(perms), len(report["classes"]), len(witnesses), report["n_grid_points"])
        wanted = (_ORDERING_PERMS, _ORDERING_CLASSES, math.comb(_ORDERING_CLASSES, 2), _ORDERING_POINTS)
        if counts != wanted or members != sorted(perms):
            return [f"{report['model']}: (permutations, classes, witnesses, points) = {counts},"
                    f" expected {wanted} with every permutation in exactly one class"]
        spec = dsl.parse(report["model"])
        permuted = {p: orderings.permute_spec(spec, p) for p in perms}
        problems = []
        for w in witnesses:
            for perm, prob in ((w["perm_low"], w["prob_low"]), (w["perm_high"], w["prob_high"])):
                pspec, pmap = permuted[tuple(perm)]
                replay = engine.evaluate(pspec, orderings.remap_params(w["params"], pmap), w["covariates"])
                if not close(replay.probability, prob):
                    problems.append(f"{report['model']}: witness {perm} replays to {replay.probability!r},"
                                    f" report has {prob!r}")
        return problems[:5]


class QueryMix:
    """Closed loop, one caller: parse model text, then evaluate/effect/marginalize.

    The pool holds ``_POOL_SIZE`` generated texts, as many of each length
    from 1 to 6 flows (so that pools of different seeds cost about the same),
    plus the two canonical models; queries draw texts from it, so texts
    repeat.  Each query is about 1/2 ``evaluate``, 1/4 ``effect`` and 1/4
    ``marginalize`` over a binary covariate whose distribution is conditional
    when the model has a second binary covariate.  Marginalize queries keep every risk and
    survival scaler at most 1, so each support evaluation is valid and no
    query raises; evaluate and effect queries may be invalid, as in use.
    """

    name = "query-mix"
    work_per_op = 1
    cli_command = False

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.pool = [(engine.MODEL1_SPEC, 1), (engine.MODEL2_SPEC, 2)]
        self.pool += [(_random_model_text(rng, 1 + i % 6), 0) for i in range(_POOL_SIZE)]
        self.queries = [self._random_query(rng) for _ in range(_QUERIES_PER_PASS)]
        self.ops = [q.run for q in self.queries]

    def _random_query(self, rng: random.Random) -> "_Query":
        kind = rng.choice(("evaluate", "evaluate", "effect", "marginalize"))
        text, canonical = self.pool[rng.randrange(2)] if rng.random() < 0.1 else rng.choice(self.pool[2:])
        spec = dsl.parse(text)
        covariates = dsl.covariate_names(spec)
        params = {}
        for flow in spec.flows:
            restricted = kind == "marginalize" and flow.kind is not dsl.FlowKind.SC_ODDS
            for name in dsl.flow_parameter_names(flow):
                scale = 0.03 if name.endswith(".age") else 1.0
                value = rng.uniform(-scale, scale)
                params[name] = -abs(value) if restricted else value
        env = {name: _random_covariate(rng, name) for name in covariates}
        if kind == "evaluate":
            return _Query(text, canonical, kind, params, env)
        if kind == "effect":
            target = rng.choice(covariates)
            low, high = _EFFECT_LEVELS.get(target, (0.0, 1.0))
            measure = rng.choice(list(measures.Measure))
            context = {k: v for k, v in env.items() if k != target}
            query = measures.EffectQuery(target=target, context=context, low=low, high=high, measure=measure)
            return _Query(text, canonical, kind, params, query)
        binary = [c for c in covariates if c in _BINARY]
        over_name = rng.choice(binary)
        given = [c for c in binary if c != over_name]
        if given:
            cond = rng.choice(given)
            rows = [row for level in (0.0, 1.0) for row in _binary_rows(rng, over_name, {cond: level})]
        else:
            rows = _binary_rows(rng, over_name, {})
        over = marginal.CovariateDistribution.from_table(over_name, rows)
        context = {k: v for k, v in env.items() if k != over_name}
        return _Query(text, canonical, kind, params, (over, context, rows))

    def output(self, index: int, result) -> bytes:
        return repr(result).encode("ascii")

    def check(self, results: list) -> list:
        problems = []
        for text, _ in self.pool:
            spec = dsl.parse(text)
            if dsl.parse(dsl.pretty_print(spec)) != spec:
                problems.append((None, f"{text!r} does not survive parse(pretty_print(.))"))
        for i, (query, result) in enumerate(zip(self.queries, results)):
            if query.canonical:
                message = query.check_closed_form(result)
                if message:
                    problems.append((i, message))
        return problems


class _Query:
    __slots__ = ("text", "canonical", "kind", "params", "payload", "run")

    def __init__(self, text, canonical, kind, params, payload):
        self.text, self.canonical, self.kind, self.params, self.payload = text, canonical, kind, params, payload
        self.run = getattr(self, "_" + kind)

    def _evaluate(self):
        result = engine.evaluate(dsl.parse(self.text), self.params, self.payload)
        return result.probability, result.valid

    def _effect(self):
        report = measures.effect(dsl.parse(self.text), self.params, self.payload)
        return report.value, report.valid, report.endpoint_probs

    def _marginalize(self):
        over, context, _ = self.payload
        return marginal.marginalize(dsl.parse(self.text), self.params, over, context)

    def _closed_form(self, env) -> float:
        p = self.params
        eta1 = math.exp(p["f1.intercept"] + p["f1.age"] * env["age"])
        if self.canonical == 1:
            return engine.closed_form_model1(eta1, math.exp(p["f2.trt1"] * env["trt1"]),
                                             math.exp(p["f3.trt2"] * env["trt2"]))
        return engine.closed_form_model2(eta1, math.exp(p["f3.trt1"] * env["trt1"]),
                                         math.exp(p["f2.trt2"] * env["trt2"]))

    def check_closed_form(self, result) -> str | None:
        """Compare a canonical-model result with Model 1/2's closed form."""
        if self.kind == "evaluate":
            prob, valid = result
            expected = self._closed_form(self.payload)
            ok = not valid or close(prob, expected)
        elif self.kind == "effect":
            q = self.payload
            value, valid, (p_low, p_high) = result
            e_low = self._closed_form({**q.context, q.target: q.low})
            e_high = self._closed_form({**q.context, q.target: q.high})
            expected = _measure(q.measure, e_low, e_high)
            ok = not valid or (close(p_low, e_low) and close(p_high, e_high) and close(value, expected, 1e-9))
        else:
            over, context, rows = self.payload
            expected = sum(
                row["probability"] * self._closed_form({**context, over.covariate: row["value"]})
                for row in rows
                if all(context[k] == v for k, v in row["context"].items())
            )
            ok = close(result, expected)
        return None if ok else f"{self.kind} on {self.text!r}: {result!r}, closed form {expected!r}"


def _measure(measure, p_low: float, p_high: float) -> float:
    if measure is measures.Measure.RR:
        return p_high / p_low
    if measure is measures.Measure.SR:
        return (1.0 - p_high) / (1.0 - p_low)
    return p_high * (1.0 - p_low) / (p_low * (1.0 - p_high))


def _random_covariate(rng: random.Random, name: str) -> float:
    if name in _CONTINUOUS:
        return rng.uniform(*_CONTINUOUS[name])
    return float(rng.randint(0, 1))


def _binary_rows(rng: random.Random, name: str, context: dict) -> list[dict]:
    pi = rng.uniform(0.05, 0.95)
    return [{"context": context, "value": 1.0, "probability": pi},
            {"context": context, "value": 0.0, "probability": 1.0 - pi}]


def _random_model_text(rng: random.Random, n_flows: int) -> str:
    """Model text of ``n_flows`` flows with at least one binary covariate."""
    names = list(_BINARY) + list(_CONTINUOUS)
    while True:
        flows = []
        for _ in range(n_flows):
            kind = rng.choice(list(dsl.FlowKind)).value
            terms = rng.sample(names, rng.randint(0, 2))
            plus = rng.choice(("+", " + "))
            flows.append(f"{kind}({rng.choice('01')}{''.join(plus + t for t in terms)})")
        if any(t in text for text in flows for t in _BINARY):
            break
    den = rng.randint(2, 10)
    base = rng.choice((f"{rng.randint(1, den - 1)}/{den}", f"0.{rng.randint(1, 99):02d}"))
    return f"y = Ber({base})" + "".join(rng.choice(("|", " | ")) + flow for flow in flows)


WORKLOADS = {cls.name: cls for cls in (SweepGrid, RecoverySuite, Orderings5Flow, QueryMix)}
