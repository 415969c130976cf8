"""The benchmark's workloads still build and run against the library.

``perfbench/workloads.py`` calls the library the way its users do: it parses
model texts, builds distributions with ``CovariateDistribution.from_table``,
reads their ``covariate`` and ``support`` and runs the CLI in process.  This
test loads it by path, builds every workload for seed 0 and runs one
``query-mix`` unit, so a rename or a changed result fails here before it
breaks a benchmark run.  The unit digest is computed as ``perfbench/run.py``
computes it: the SHA-256 of the concatenated per-operation SHA-256 digests.
It pins ``evaluate``, ``effect`` and ``marginalize`` on 4,000 seeded
queries bit for bit.
"""

import hashlib
import importlib.util
from pathlib import Path

_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

#: ``query-mix`` seed 0's unit digest, as ``perfbench/run.py --reference`` reports it.
QUERY_MIX_SEED0_DIGEST = "1c4c717b577bcda09bfe2ec3f9abe8d55adc5dcae1df45742a3481281b9f761f"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_workload_builds_and_a_query_mix_unit_reproduces(tmp_path):
    workloads = _workloads()
    built = {name: cls(0, tmp_path) for name, cls in workloads.WORKLOADS.items()}
    assert all(workload.ops for workload in built.values())
    query_mix = built["query-mix"]
    results = [op() for op in query_mix.ops]
    assert query_mix.check(results) == []
    digests = (hashlib.sha256(query_mix.output(i, result)).hexdigest() for i, result in enumerate(results))
    assert hashlib.sha256("".join(digests).encode()).hexdigest() == QUERY_MIX_SEED0_DIGEST
