"""The benchmark's contract with the program, on the seed-0 commands of
every workload.

``perfbench/tracing.py`` wraps the traced functions where their callers
look them up, as module attributes.  A scenario table that stored a
builder or kernel as a record field would call past the wrapper, and the
benchmark's ``--trace 1`` run would stop with "expected spans recorded
zero calls".  This runs each workload's commands at two rows per sweep
under the tracer and requires every expected span to have recorded calls.

``perfbench/run.py`` scales ``wall_s`` by a speed probe that runs at the
returns of the ``PROBE_POINTS`` functions of ``tvmeter.cli``, found with
``hasattr``: a rename would silently change the scaling.  The row checks
(``perfbench/checks.py``) call the builders directly, and must agree
with the CLI's figures; they pass on every seed-0 table at two rows.
"""

import sys
from pathlib import Path

import pytest

import tvmeter
import tvmeter.cli as cli

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
import record_reference  # noqa: E402
import run  # noqa: E402
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


def test_every_probe_point_is_on_the_cli():
    assert [name for name in run.PROBE_POINTS if not hasattr(cli, name)] == []


def test_figures_row_probes_every_written_row(tmp_path, monkeypatch):
    """The probe runs at the returns of ``cli._figures_row``: a row path
    that wrote rows without it would probe less often and coarsen the
    ``wall_s`` scaling.  Every seed-0 direct-rows command (blocks of
    stacked rows included) calls it once per row it writes."""
    calls = []
    figures_row = cli._figures_row
    monkeypatch.setattr(cli, "_figures_row", lambda *a: calls.append(a) or figures_row(*a))
    for i, cmd in enumerate(workloads.commands(ROOT, "direct-rows", 0, tmp_path, rows=5)):
        out = tmp_path / f"{i}.csv"
        calls.clear()
        assert cli.main([*cmd.argv, "--output", str(out)]) == 0
        written = out.read_text().splitlines()[4:]  # after the 3 comment lines and the header
        assert len(calls) == len(written) == cmd.rows == 5, cmd.label


@pytest.mark.parametrize("scenario, params, conditioning", [
    ("displacement", {}, "meter"),
    ("cqnc", {"C": 3.0}, "meter+ancilla"),
    ("qnd-imperfect", {"nu": 0.1, "delta_c": 0.01, "xi": 0.1}, "meter"),
    ("qnd-floquet", {"g": 0.05, "C": None}, "meter"),
], ids=["displacement", "cqnc", "qnd-imperfect", "qnd-floquet"])
def test_row_checks_evaluate_as_the_cli(scenario, params, conditioning):
    p = {**cli.SCENARIOS[scenario].defaults, **params}
    bath = tvmeter.BathSpec(n_m=1.0, eta=0.9)
    want = cli.scenario_figures(scenario, p, bath, 0.3, conditioning)
    assert checks.scalar_figures(tvmeter, scenario, p, bath, 0.3, conditioning) == want


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_row_checks_pass_on_every_table(workload, tmp_path):
    """The row checks run the single-row scans (``generalized_sql`` for
    the threshold, ``minimize_vc_over_frequency`` for the competing
    optima of fig2) on the tables the workload writes."""
    checker = checks.Checker(tvmeter)
    for i, cmd in enumerate(workloads.commands(ROOT, workload, 0, tmp_path, rows=2)):
        out = tmp_path / f"{i}.csv"
        assert cli.main([*cmd.argv, "--output", str(out)]) == 0
        assert checker.check(cmd.label, out) == set(), checker.messages
        if cmd.label == "fig2":
            assert set(record_reference.competing_rows(tvmeter, out)) <= set(range(cmd.rows))
