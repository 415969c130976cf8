"""flowcalc benchmark: run one workload from a seed and print its metrics.

    python3 perfbench/run.py --workload sweep-grid --seed 0 --seconds 15 --trace 0

Run it from the root of a checkout; it imports flowcalc from ``src/`` and
writes only under ``.perfbench/`` there.  With ``--trace 0`` it measures the
end-to-end metrics untraced; with ``--trace 1`` it measures the per-layer
metrics from spans around each module's functions (see ``tracing.py``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; sample counts and diagnostics go
to standard error.  Metric names and units are those of ``BENCHMARK.json``.

A reference child process first runs one unit of the workload, checks its
outputs against independent expectations and reports a SHA-256 digest per
operation; its peak RSS after the unit is ``peak_rss_mb``.  Every operation timed here must
reproduce its reference digest, so outputs are also compared across
processes.  An operation fails when it raises, exits non-zero, produces
other bytes, or belongs to a failed check.

Times are CPU time of the process's one thread (numpy runs with one BLAS
thread).  The untraced run converts them to CPU time at a reference host
speed, sampled while it runs (see ``hostspeed.py``), because the shared host
changes the CPU time of the same work by up to 1.8x within seconds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from hostspeed import REFERENCE_START, REFERENCE_START_S, HostSpeed
from tracing import Tracer, clock_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"
WORKLOAD_NAMES = ("sweep-grid", "recovery-suite", "orderings-5flow", "query-mix")
SETUP_SAMPLES = 11
# Bytes the fold moves per permutation, flow and grid point: read p and eta,
# write p, as 8-byte floats.  A modelled figure, not a measured one.
FOLD_BYTES_PER_STEP = 24


def _load_flowcalc():
    """Import flowcalc from this checkout's sources, never from elsewhere."""
    if not (SRC / "flowcalc" / "__init__.py").is_file():
        sys.exit(f"perfbench: no flowcalc sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import flowcalc

    if Path(flowcalc.__file__).resolve().parent != (SRC / "flowcalc").resolve():
        sys.exit(f"perfbench: imported flowcalc from {flowcalc.__file__}, not from {SRC}")
    import workloads

    return workloads


def run_unit(workload, speed, tracer=None):
    """Run one unit; return per-operation CPU times (ns), results and the
    host-speed sample counts before and after each operation.

    The CPU time of host-speed samples taken during an operation is not
    counted in it.  A result is the exception an operation raised, if it
    raised one.
    """
    latencies, results, samples = [], [], []
    for i, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op += 1
            if workload.cli_command or i == 0:
                tracer.forget_texts()
        frame = None if tracer is None else tracer.enter("bench.op")
        busy_ns, first = speed.busy_ns, speed.samples
        start = clock_ns()
        try:
            result = op()
        except Exception as exc:
            result = exc
        latencies.append(clock_ns() - start - (speed.busy_ns - busy_ns))
        samples.append((first, speed.samples))
        if frame is not None:
            tracer.exit(frame)
        results.append(result)
    return latencies, results, samples


def reference(workload) -> dict:
    """Run and check one unit: peak RSS, per-operation digests and failed operations.

    The peak RSS is read before the checks, which hold outputs of their own.
    """
    _, results, _ = run_unit(workload, HostSpeed())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digests, problems = [], []
    for i, result in enumerate(results):
        if isinstance(result, Exception):
            digests.append(None)
            problems.append((i, f"operation raised {result!r}"))
        else:
            digests.append(hashlib.sha256(workload.output(i, result)).hexdigest())
    if not problems:
        try:
            problems = workload.check(results)
        except Exception:
            problems = [(None, "output check raised:\n" + traceback.format_exc())]
    return {"peak_rss_mb": peak_rss_mb, "digests": digests, "problems": problems}


def run_child(argv, env=None, stdout=subprocess.DEVNULL):
    """Run a child process to completion; return its standard output and resource usage."""
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=stdout, text=True)
    out = proc.stdout.read() if proc.stdout else ""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.stdout:
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}")
    return out, usage


class Verdicts:
    """Judge each operation against the reference child's digests and checks."""

    def __init__(self, workload, seed: int):
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload.name,
                "--seed", str(seed), "--reference"]
        out, _ = run_child(argv, stdout=subprocess.PIPE)
        ref = json.loads(out)
        self.peak_rss_mb = ref["peak_rss_mb"]
        self.workload = workload
        self.digests = ref["digests"]
        self.bad = set()
        for index, message in ref["problems"]:
            print(f"check failed: {message}", file=sys.stderr)
            self.bad.update(range(len(self.digests)) if index is None else [index])
        unit = hashlib.sha256("".join(d or "-" for d in self.digests).encode()).hexdigest()
        print(f"{workload.name} seed {seed}: output sha256 {unit}", file=sys.stderr)

    def failures(self, results) -> int:
        return sum(
            isinstance(r, Exception) or i in self.bad
            or hashlib.sha256(self.workload.output(i, r)).hexdigest() != self.digests[i]
            for i, r in enumerate(results)
        )


def setup_sample() -> tuple[float, float]:
    """CPU times of a fresh ``flowcalc --help`` (import plus parser build)
    and, right after it, of the reference start (``hostspeed.REFERENCE_START``).

    Both read compiled bytecode from a cache under ``.perfbench/``, as an
    installed package does, whatever ``PYTHONDONTWRITEBYTECODE`` says.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPYCACHEPREFIX=str(SCRATCH / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    _, usage = run_child([sys.executable, "-m", "flowcalc.cli", "--help"], env)
    _, reference = run_child([sys.executable, "-c", REFERENCE_START], env)
    return usage.ru_utime + usage.ru_stime, reference.ru_utime + reference.ru_stime


def measure(workload, verdicts, seconds: float, speed, tracer=None):
    """Run whole units until ``seconds`` of wall time have passed (at least one unit).

    Untraced, with ``speed`` sampling, it converts each operation's CPU time
    to the reference speed by the samples taken during it, and takes
    ``SETUP_SAMPLES`` set-up samples spread evenly
    over the run, so that their median covers the same period as the units;
    their wall time is not counted against ``seconds``.  Set-up samples
    are scaled by the reference start taken with each, not by the reference
    loop, which does not track the speed of interpreter start-up and
    imports.  With a tracer,
    it runs pairs of one untraced and one traced unit, so that both sets of
    unit times come from the same period.  Returns the untraced per-operation
    CPU times, as measured and at the reference speed, the untraced and
    traced per-unit CPU times, the set-up samples and the number of failed
    operations.
    """
    latencies, ref_latencies, unit_ns, traced_unit_ns, setup, failed = [], [], [], [], [], 0
    if tracer is None:
        setup_sample()  # warm-up: fills the bytecode cache
    start = perf_counter()
    setup_wall = 0.0

    def elapsed():
        return perf_counter() - start - setup_wall

    while not unit_ns or elapsed() < seconds:
        if tracer is None:
            order = (False,)
        else:  # which side of a pair runs first alternates from pair to pair
            order = (False, True) if len(unit_ns) % 2 == 0 else (True, False)
        for traced in order:
            gc.collect()
            if traced:
                with tracer.installed():
                    lat, results, _ = run_unit(workload, speed, tracer)
                traced_unit_ns.append(sum(lat))
                if workload.cli_command:
                    tracer.counts["output_bytes"] += sum(len(workload.output(i, r)) for i, r in enumerate(results)
                                                         if not isinstance(r, Exception))
            else:
                lat, results, samples = run_unit(workload, speed)
                if tracer is None:
                    ref_latencies += [ns * speed.scale(*span) for ns, span in zip(lat, samples)]
                latencies += lat
                unit_ns.append(sum(lat))
            failed += verdicts.failures(results)
        if tracer is None:
            while len(setup) < min(SETUP_SAMPLES, SETUP_SAMPLES * elapsed() / seconds):
                setup_start = perf_counter()
                setup.append(setup_sample())
                setup_wall += perf_counter() - setup_start
    while tracer is None and len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample())
    print(f"CPU time / wall time while measuring: "
          f"{(sum(unit_ns) + sum(traced_unit_ns)) / 1e9 / elapsed():.3f}", file=sys.stderr)
    return latencies, ref_latencies, unit_ns, traced_unit_ns, setup, failed


def end_to_end_metrics(workload, verdicts, latencies, ref_latencies, setup, speed) -> dict:
    print(f"setup_s samples: {len(setup)}; as measured: median {statistics.median(s for s, _ in setup):.6g} CPU s,"
          f" reference start {statistics.median(r for _, r in setup):.6g} CPU s", file=sys.stderr)
    print(f"host speed: {speed.samples} samples, mean reference loop {speed.mean_ns() / 1e3:.1f} us;"
          f" as measured: p50 {statistics.median(latencies) / 1e6:.6g} CPU ms,"
          f" {workload.work_per_op * len(latencies) / (sum(latencies) / 1e9):.6g} work per CPU s", file=sys.stderr)
    ordered = sorted(ref_latencies)
    print(f"operations timed: {len(ordered)}", file=sys.stderr)
    # The highest percentile with at least ten samples beyond it, if any.
    for pct in (99.9, 99, 90):
        rank = int(len(ordered) * pct / 100)
        if len(ordered) - rank >= 10:
            print(f"p{pct:g}: {ordered[rank] / 1e6} ref-ms over {len(ordered)} operations", file=sys.stderr)
            break
    return {
        "setup_s": statistics.median(s / r for s, r in setup) * REFERENCE_START_S,
        "peak_rss_mb": verdicts.peak_rss_mb,
        "op_p50_refms": statistics.median(ref_latencies) / 1e6,
        "work_per_ref_s": workload.work_per_op * len(ref_latencies) / (sum(ref_latencies) / 1e9),
    }


def per_layer_metrics(tracer, untraced_unit_ns, traced_unit_ns) -> dict:
    """Per-layer counts and self CPU times, per operation (one command or one query)."""
    ops = tracer.op
    calls = {name: n / ops for name, n in tracer.calls.items()}
    self_s = {name: ns / ops / 1e9 for name, ns in tracer.self_ns.items()}
    counts = {name: n / ops for name, n in tracer.counts.items()}
    op_s = sum(self_s.values())  # every span nests inside a bench.op span

    def ratio(num, den):
        return num / den if den else 0.0

    config_calls, config_ns = tracer.layer_totals("config")
    evaluate_calls = calls.get("engine.evaluate", 0)
    evaluate_s = self_s.get("engine.evaluate", 0.0)
    parse_calls = calls.get("dsl.parse", 0)
    accepted = counts.get("accepted", 0)
    return {
        "dsl.parse_calls": parse_calls,
        "dsl.parse_self_s": self_s.get("dsl.parse", 0.0),
        "dsl.text_repeat_share": ratio(counts.get("parse_repeats", 0), parse_calls),
        "config.calls": config_calls / ops,
        "config.self_s": config_ns / ops / 1e9,
        "engine.evaluate_calls": evaluate_calls,
        "engine.evaluate_self_s": evaluate_s,
        "engine.evaluate_us_per_call": ratio(evaluate_s * 1e6, evaluate_calls),
        "engine.invalid_ratio": ratio(counts.get("invalid", 0), evaluate_calls),
        "measures.effect_calls": calls.get("measures.effect", 0),
        "measures.effect_self_s": self_s.get("measures.effect", 0.0),
        "marginal.marginalize_calls": calls.get("marginal.marginalize", 0),
        "marginal.marginalize_self_s": self_s.get("marginal.marginalize", 0.0),
        "marginal.recovery_calls": calls.get("marginal.recovery", 0),
        "marginal.recovery_self_s": self_s.get("marginal.recovery", 0.0),
        "marginal.suite_self_s": self_s.get("marginal.suite", 0.0),
        "marginal.accept_ratio": ratio(accepted, accepted + counts.get("redrawn", 0)),
        "orderings.enumerate_self_s": self_s.get("orderings.enumerate", 0.0),
        "orderings.permutations": counts.get("permutations", 0),
        "orderings.grid_points": counts.get("grid_points", 0),
        "orderings.classes": counts.get("classes", 0),
        "orderings.witnesses": counts.get("witnesses", 0),
        "orderings.fold_points": counts.get("fold_points", 0),
        "orderings.fold_bytes_computed": counts.get("fold_steps", 0) * FOLD_BYTES_PER_STEP,
        "cli.main_calls": calls.get("cli.main", 0),
        "cli.main_self_s": self_s.get("cli.main", 0.0),
        "cli.output_bytes": counts.get("output_bytes", 0),
        "trace.overhead_ratio": statistics.median(traced_unit_ns) / statistics.median(untraced_unit_ns),
        "trace.op_cpu_s": op_s,
        "trace.unattributed_ratio": self_s.get("bench.op", 0.0) / op_s,
        "trace.untraced_targets": len(tracer.untraced),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true",
                        help="run and check one unit, print digests as JSON (the reference child)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    workloads = _load_flowcalc()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    workdir = SCRATCH / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.reference:
            print(json.dumps(reference(workload)))
            return 0
        verdicts = Verdicts(workload, args.seed)
        speed = HostSpeed()
        tracer = Tracer() if args.trace else None
        with contextlib.nullcontext() if args.trace else speed.sampling():
            workload.ops[0]()  # warm-up: lazy imports and first-call set-up
            latencies, ref_latencies, unit_ns, traced_unit_ns, setup, failed = measure(
                workload, verdicts, args.seconds, speed, tracer)
        attempted = len(workload.ops) * (len(unit_ns) + len(traced_unit_ns))
        if args.trace:
            for name in tracer.untraced:
                print(f"untraced (name not found): {name}", file=sys.stderr)
            spans_path = SCRATCH / f"spans-{args.workload}-seed{args.seed}.tsv"
            tracer.write(spans_path)
            print(f"traced units: {len(traced_unit_ns)}, spans: {len(tracer.spans)} in {spans_path}",
                  file=sys.stderr)
            metrics = per_layer_metrics(tracer, unit_ns, traced_unit_ns)
        else:
            metrics = end_to_end_metrics(workload, verdicts, latencies, ref_latencies, setup, speed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json {sorted(units)}")
    print(json.dumps({
        "correct": failed == 0 and not verdicts.bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
