"""One traced pass of each benchmark workload, run in-process with the
benchmark's own tracer and pass runner from ``perfbench/``.

The traced benchmark run fails when a span it expects records no call or
one of its hooks can no longer read its arguments, so a change that drops
or reshapes a traced function fails here as well.
"""

import importlib
import json
import os
import sys

import pytest

from wignerlab import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
# run.py imports its siblings as top-level modules.
PERFBENCH_MODULES = ("run", "checks", "workloads", "tracer")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    WORKLOADS = [w["name"] for w in json.load(handle)["workloads"]]


@pytest.fixture
def run(monkeypatch):
    """perfbench's ``run`` module, imported from this checkout."""
    monkeypatch.syspath_prepend(PERFBENCH)
    for name in PERFBENCH_MODULES:
        sys.modules.pop(name, None)
    module = importlib.import_module("run")
    assert module.__file__ == os.path.join(PERFBENCH, "run.py")
    yield module
    for name in PERFBENCH_MODULES:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_traced_pass_records_every_expected_span(run, tmp_path, workload):
    invocations = run.workloads.build(workload, 1, str(tmp_path / "configs"))
    tracer = run.Tracer()
    tracer.install()
    try:
        result = run.run_pass(cli, invocations, str(tmp_path / "reports"), tracer)
    finally:
        tracer.uninstall()
    assert result["problems"] == []
    assert run.trace_problems([tracer.take()]) == []
