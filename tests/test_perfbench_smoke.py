"""The benchmark's workloads still build and run against the library.

``perfbench/workloads.py`` calls the library the way its users do: it parses
model texts, builds distributions with ``CovariateDistribution.from_table``,
reads their ``covariate`` and ``support`` and runs the CLI in process.  This
test loads it by path, builds every workload for seed 0 and runs one unit of
each, so a rename or a changed result fails here before it breaks a benchmark
run.  The unit digest is computed as ``perfbench/run.py`` computes it: the
SHA-256 of the concatenated per-operation SHA-256 digests.  It pins, bit for
bit, ``evaluate``, ``effect`` and ``marginalize`` on 4,000 seeded queries,
the five ``orderings`` reports, the ``check-recovery --trials`` report and
the 40,401-row sweep CSV.
"""

import hashlib
import importlib.util
from pathlib import Path

_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

#: ``query-mix`` seed 0's unit digest, as ``perfbench/run.py --reference`` reports it.
QUERY_MIX_SEED0_DIGEST = "1c4c717b577bcda09bfe2ec3f9abe8d55adc5dcae1df45742a3481281b9f761f"

#: ``orderings-5flow`` seed 0's unit digest, as ``perfbench/run.py --reference`` reports it.
ORDERINGS_SEED0_DIGEST = "5473ac7da3ba7b86ed2ff0446a0aa0de04151047af8488bbd8eaae3e9c37383a"

#: ``recovery-suite`` and ``sweep-grid`` seed 0's unit digests, as ``perfbench/run.py --reference`` reports them.
BATCH_SEED0_DIGESTS = {
    "recovery-suite": "3d949762ff99afb30f424d9109f9e81b0e380d3e57b2ccfa85620405074a537e",
    "sweep-grid": "d85a5f7872ad9fdbce3637a69a69436d11d2129ae40595fd1db3beeeccb55754",
}


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _unit_digest(workload) -> str:
    """Run one unit of ``workload``, check it and return its unit digest."""
    results = [op() for op in workload.ops]
    assert workload.check(results) == []
    digests = (hashlib.sha256(workload.output(i, result)).hexdigest() for i, result in enumerate(results))
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def test_every_workload_builds_and_a_query_mix_unit_reproduces(tmp_path):
    workloads = _workloads()
    built = {name: cls(0, tmp_path) for name, cls in workloads.WORKLOADS.items()}
    assert all(workload.ops for workload in built.values())
    assert _unit_digest(built["query-mix"]) == QUERY_MIX_SEED0_DIGEST


def test_an_orderings_unit_reproduces(tmp_path):
    assert _unit_digest(_workloads().Orderings5Flow(0, tmp_path)) == ORDERINGS_SEED0_DIGEST


def test_a_recovery_suite_and_a_sweep_unit_reproduce(tmp_path):
    workloads = _workloads()
    for name, digest in BATCH_SEED0_DIGESTS.items():
        assert _unit_digest(workloads.WORKLOADS[name](0, tmp_path)) == digest, name
