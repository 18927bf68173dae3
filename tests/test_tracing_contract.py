"""The benchmark's tracing contract, on the seed-0 commands of every workload.

``perfbench/tracing.py`` wraps the traced functions where their callers
look them up, as module attributes.  A scenario table that stored a
builder or kernel as a record field would call past the wrapper, and the
benchmark's ``--trace 1`` run would stop with "expected spans recorded
zero calls".  This runs each workload's commands at two rows per sweep
under the tracer and requires every expected span to have recorded calls.
"""

import sys
from pathlib import Path

import pytest

import tvmeter.cli as cli

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", sorted(tracing.EXPECTED))
def test_every_expected_span_records_calls(workload, tmp_path):
    commands = workloads.commands(ROOT, workload, 0, tmp_path, rows=2)
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        codes = [cli.main([*cmd.argv, "--output", str(tmp_path / f"{i}.csv")])
                 for i, cmd in enumerate(commands)]
    assert codes == [0] * len(commands)
    assert tracing.missing_spans(tracer, workload) == []
