"""The phaseret API that the benchmark calls still serves each workload.

One first-pass operation per workload, on the held-out seed's inputs,
through the untraced API, must pass that workload's own checks.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_operation_passes_its_check(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    pool, _ = workload.make_inputs(workloads.HELD_OUT_SEED)
    out = workload.op(tracing.Api(), pool[0], str(tmp_path))
    verdict = workload.check(pool[0], out)
    assert isinstance(verdict, workloads.Verdict)
    assert verdict.status == "ok", verdict.reason
