"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/baseline.py --seeds 0-9 [--traced-seed N] [--out FILE]

For each workload in ``BENCHMARK.json``, runs ``run.py`` for its
``run_seconds`` once per seed untraced and, with ``--traced-seed``, once
traced; runs are sequential.  Prints, per
end-to-end metric, the median, the quartiles (``statistics.quantiles`` with
``n=4``) and the spread, the distance between the quartiles as a share of
the median, next to the metric's bound.  ``--out`` writes the summary as
JSON, with the interpreter and numpy versions and the processor count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    digest = next((line.rsplit(" ", 1)[1] for line in proc.stderr.splitlines() if "output sha256" in line), "")
    return json.loads(proc.stdout.strip().splitlines()[-1]), digest


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def versions() -> dict:
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    return {"python": platform.python_version(), "numpy": numpy, "nproc": os.cpu_count(),
            "machine": platform.machine()}


def main(argv=None) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 3,5,8")
    parser.add_argument("--traced-seed", type=int, help="also make one traced run per workload")
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    why = {w["name"]: w["why"] for w in declared["workloads"]}
    seeds = parse_seeds(args.seeds)
    seconds = declared["run_seconds"]

    summary = {**versions(), "run_seconds": seconds, "seeds": seeds, "workloads": {}}
    for workload in names:
        results = [run_once(workload, seed, seconds, 0) for seed in seeds]
        entry = {
            "why": why[workload],
            "runs": len(results),
            "correct": all(r["correct"] for r, _ in results),
            "failed": sum(r["failed"] for r, _ in results),
            "attempted_per_run": [r["attempted"] for r, _ in results],
            "output_sha256": {str(seed): digest for seed, (_, digest) in zip(seeds, results)},
            "metrics": {},
        }
        print(f"{workload}: correct={entry['correct']} failed={entry['failed']} "
              f"attempted/run={entry['attempted_per_run']}")
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name]["value"] for r, _ in results])
            entry["metrics"][name] = {"unit": results[0][0]["metrics"][name]["unit"], **stats}
            flag = "" if stats["spread"] <= bound / 3 else "  <-- above bound/3"
            print(f"  {name:14s} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}"
                  f"  spread {stats['spread']:.4f}  bound {bound}{flag}")
        if args.traced_seed is not None:
            traced, _ = run_once(workload, args.traced_seed, seconds, 1)
            entry["traced"] = {"seed": args.traced_seed, "correct": traced["correct"],
                               "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
            m = entry["traced"]["metrics"]
            print(f"  traced: {m['trace.op_cpu_s']:.4g} CPU s per operation, overhead x{m['trace.overhead_ratio']:.3f},"
                  f" unattributed {m['trace.unattributed_ratio']:.4f}")
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
