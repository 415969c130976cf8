"""The benchmark's workloads still build and run against the library.

``perfbench/workloads.py`` calls the library the way its users do: it parses
model texts, builds distributions with ``CovariateDistribution.from_table``,
reads their ``covariate`` and ``support`` and runs the CLI in process.  This
test loads it by path, builds every workload for seed 0 and runs one
``query-mix`` unit and one ``orderings-5flow`` unit, so a rename or a changed
result fails here before it breaks a benchmark run.  The unit digest is
computed as ``perfbench/run.py`` computes it: the SHA-256 of the concatenated
per-operation SHA-256 digests.  It pins ``evaluate``, ``effect`` and
``marginalize`` on 4,000 seeded queries, and the five ``orderings`` reports,
bit for bit.
"""

import hashlib
import importlib.util
from pathlib import Path

_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

#: ``query-mix`` seed 0's unit digest, as ``perfbench/run.py --reference`` reports it.
QUERY_MIX_SEED0_DIGEST = "1c4c717b577bcda09bfe2ec3f9abe8d55adc5dcae1df45742a3481281b9f761f"

#: ``orderings-5flow`` seed 0's unit digest, as ``perfbench/run.py --reference`` reports it.
ORDERINGS_SEED0_DIGEST = "5473ac7da3ba7b86ed2ff0446a0aa0de04151047af8488bbd8eaae3e9c37383a"


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
