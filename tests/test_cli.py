"""Command-line interface: table output, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tvmeter
from tvmeter import (
    BathSpec,
    DegenerateMeter,
    DisplacementParams,
    LinearModel,
    cli,
    cooperativity_to_g,
    displacement_model,
    evaluate,
    floquet,
    ideal_qnd_model,
    optimize,
    pulsed,
    qnd_cooperativity_threshold,
    scenarios,
    vc_on_grid,
)
from tvmeter.cli import (
    SCENARIOS,
    _collect_param_flags,
    _figures_row,
    _swept_params,
    _sweep_values,
    build_config,
    build_parser,
    main,
    scenario_figures,
    write_table,
)
from tvmeter.optimize import find_threshold, generalized_sql, minimize_vc_over_frequency

RECIPES = Path(__file__).resolve().parent.parent / "recipes"


def run(args, tmp_path, name="out.csv"):
    out = tmp_path / name
    rc = main(list(args) + ["--output", str(out)])
    return rc, out


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestSweep:
    def test_ideal_qnd_rows_satisfy_closed_form(self, tmp_path):
        rc, out = run(
            ["sweep", "--scenario", "qnd-ideal", "--param", "C",
             "--log", "1e-3", "1e3", "--n", "50", "--n-m", "1"],
            tmp_path,
        )
        assert rc == 0
        rows = read_rows(out)
        assert len(rows) == 50
        for row in rows:
            C, Vc = float(row["C"]), float(row["Vc"])
            assert Vc * (1 / 1.5 + 32 * C) == pytest.approx(1.0, rel=1e-9)

    def test_header_metadata(self, tmp_path):
        rc, out = run(
            ["sweep", "--scenario", "displacement", "--param", "C",
             "--log", "0.1", "10", "--n", "3"],
            tmp_path,
        )
        text = out.read_text()
        assert text.startswith("# tvmeter ")
        assert "# scenario: displacement" in text
        assert "# config: " in text

    def test_json_format(self, tmp_path):
        rc, out = run(
            ["sweep", "--scenario", "qnd-ideal", "--param", "C",
             "--log", "0.1", "10", "--n", "4", "--format", "json"],
            tmp_path, "out.json",
        )
        assert rc == 0
        rows = json.loads(out.read_text())
        assert isinstance(rows, list) and len(rows) == 4
        assert {"C", "omega", "Vc", "Ts", "Tm", "Ts_plus_Tm", "regime"} <= set(rows[0])

    def test_round_trip_from_header(self, tmp_path):
        args = ["sweep", "--scenario", "qnd-imperfect", "--param", "C",
                "--log", "1e-2", "1e2", "--n", "20", "--nu", "0.1", "--n-m", "1"]
        rc, out = run(args, tmp_path, "first.csv")
        assert rc == 0
        config_line = next(
            l for l in out.read_text().splitlines() if l.startswith("# config: ")
        )
        cfg_path = tmp_path / "echo.json"
        cfg_path.write_text(config_line[len("# config: "):])
        rc2, out2 = run(["sweep", "--config", str(cfg_path)], tmp_path, "second.csv")
        assert rc2 == 0
        assert out.read_bytes() == out2.read_bytes()

    def test_matches_library_pipeline(self, tmp_path):
        rc, out = run(
            ["sweep", "--scenario", "qnd-ideal", "--param", "C",
             "--log", "0.5", "2", "--n", "3", "--n-m", "1"],
            tmp_path,
        )
        row = read_rows(out)[0]
        figs = evaluate(ideal_qnd_model(10.0, 0.01, BathSpec(n_m=1.0), C=0.5), 0.0)
        assert float(row["Vc"]) == pytest.approx(figs.Vc, rel=1e-15)


def scalar_scan_table(argv):
    """Bytes of `tv sweep` for ``argv`` with every row's frequency scan
    evaluating ``scenario_figures`` point by point."""
    args = build_parser().parse_args(argv)
    _collect_param_flags(args)
    cfg = build_config(None, args)
    bath = cfg.bath_spec()
    rows = []
    for value in _sweep_values(cfg):
        params = _swept_params(cfg, value)
        res = minimize_vc_over_frequency(
            lambda w: scenario_figures(cfg.scenario, params, bath, w, cfg.conditioning),
            *cfg.omega_bounds,
        )
        rows.append(_figures_row(cfg.sweep["param"], value, res.figures))
    buf = io.StringIO()
    write_table(cfg, rows, buf)
    return buf.getvalue().encode()


@pytest.mark.parametrize("argv", [
    ["sweep", "--scenario", "displacement", "--param", "C", "--log", "1e-3", "1e4",
     "--n", "6", "--n-m", "1", "--optimize-frequency", "--omega-bounds", "0.2", "1000"],
    ["sweep", "--scenario", "cqnc", "--param", "C", "--log", "1e-3", "1e8",
     "--n", "6", "--n-m", "1", "--optimize-frequency", "--omega-bounds", "0.01", "1000",
     "--conditioning", "meter+ancilla"],
    ["sweep", "--scenario", "cqnc", "--param", "C", "--log", "1e-3", "1e4",
     "--n", "5", "--n-m", "1", "--optimize-frequency", "--eta", "0.5"],
    ["sweep", "--scenario", "displacement", "--param", "kappa", "--log", "0.5", "50",
     "--n", "5", "--n-m", "1", "--optimize-frequency", "--omega-bounds", "0.2", "1000",
     "--eta", "0.5"],
    ["sweep", "--scenario", "qnd-imperfect", "--param", "nu", "--log", "0.01", "0.3",
     "--n", "5", "--n-m", "1", "--optimize-frequency", "--omega-bounds", "0.001", "1"],
    ["sweep", "--scenario", "lev-single", "--param", "alpha", "--lin", "0.05", "0.5",
     "--n", "5", "--g", "0.3", "--n-m", "1", "--optimize-frequency", "--omega-bounds", "1", "300"],
    ["sweep", "--scenario", "qnd-floquet", "--param", "C", "--log", "1e-2", "1e2", "--n", "3",
     "--n-m", "1", "--optimize-frequency", "--omega-bounds", "0.01", "10", "--eta", "0.7"],
    ["sweep", "--scenario", "lev-dual", "--param", "g1", "--log", "1e-2", "1e-1", "--n", "4",
     "--n-m", "1", "--optimize-frequency"],
    ["sweep", "--scenario", "lev-dual", "--param", "g_total", "--log", "0.1", "1", "--n", "4",
     "--readout-fraction", "0.3", "--n-m", "1", "--m-sq-re", "0.2", "--m-sq-im", "0.3",
     "--optimize-frequency", "--eta", "0.8"],
    ["sweep", "--scenario", "lev-dual", "--param", "readout_fraction", "--lin", "0.1", "0.9",
     "--n", "4", "--g-total", "0.6", "--n-m", "1e3", "--optimize-frequency",
     "--omega-bounds", "1", "1000"],
], ids=["displacement", "cqnc-meter+ancilla", "cqnc-meter-eta0.5", "displacement-kappa-eta0.5",
        "qnd-imperfect", "lev-single", "qnd-floquet", "lev-dual-g1", "lev-dual-g_total",
        "lev-dual-readout_fraction"])
def test_optimized_sweep_matches_scalar_scan(argv, tmp_path):
    rc, out = run(argv, tmp_path)
    assert rc == 0
    assert out.read_bytes() == scalar_scan_table(argv)


OPTIMIZED_SWEEP = ["sweep", "--scenario", "displacement", "--param", "C", "--log", "1e-3", "1e4",
                   "--n", "6", "--n-m", "1", "--optimize-frequency", "--omega-bounds", "0.2", "1000"]

SQL_SWEEP = ["sql", "--scenario", "qnd-imperfect", "--param", "nu", "--log", "0.05", "0.3",
             "--n", "4", "--omega", "0", "--n-m", "1", "--c-count", "60"]


class TestOptimizedSweepRows:
    """`tv sweep --optimize-frequency` refines its rows in lockstep and
    falls back to one row at a time."""

    @pytest.mark.parametrize("argv, code, message", [
        (["sweep", "--scenario", "displacement", "--param", "C", "--lin", "1", "-1", "--n", "5",
          "--optimize-frequency", "--n-m", "1"],
         2, "tv: configuration error: cooperativity must be nonnegative, got -0.5"),
        (["sweep", "--scenario", "qnd-imperfect", "--param", "xi", "--lin", "0.1", "0.9", "--n", "5",
          "--optimize-frequency", "--n-m", "1"],
         3, "tv: numerical failure at xi=0.5: drift matrix is not strictly stable"),
    ], ids=["negative-C", "unstable-xi"])
    def test_first_failing_row_raises_its_own_error(self, argv, code, message, tmp_path, capsys):
        rc, out = run(argv, tmp_path)
        assert rc == code
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_lockstep_failure_reruns_the_rows_one_at_a_time(self, tmp_path, monkeypatch):
        scans, batches = cli._frequency_scans, []

        def failing(cfg, params):
            batches.append(np.size(params["C"]))
            if batches[-1] > 1:
                raise DegenerateMeter("lockstep stage")
            return scans(cfg, params)

        monkeypatch.setattr(cli, "_frequency_scans", failing)
        rc, out = run(OPTIMIZED_SWEEP, tmp_path)
        assert rc == 0
        assert batches == [6] + [1] * 6
        assert out.read_bytes() == scalar_scan_table(OPTIMIZED_SWEEP)

    @pytest.mark.parametrize("argv, scan, param", [
        (OPTIMIZED_SWEEP, "_frequency_scans", "C"),
        (SQL_SWEEP, "_sql_scan", "nu"),
    ], ids=["optimize-frequency", "sql"])
    def test_blocks_write_the_same_bytes(self, argv, scan, param, tmp_path, monkeypatch):
        whole = run(argv, tmp_path, "whole.csv")[1].read_bytes()
        original, sizes = getattr(cli, scan), []

        def counted(cfg, params, *args):
            sizes.append(np.size(params[param]))
            return original(cfg, params, *args)

        monkeypatch.setattr(cli, scan, counted)
        monkeypatch.setattr(cli, "BLOCK_ROWS", 2)
        rc, out = run(argv, tmp_path, "blocks.csv")
        assert rc == 0
        assert sizes == [2] * (len(read_rows(out)) // 2)
        assert out.read_bytes() == whole

    def test_traced_layers_stay_on_the_path(self, tmp_path, monkeypatch):
        # the functions a tracer wraps where their callers look them up
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module, name in [(optimize, "golden_section"), (optimize, "minimize_on_grid"),
                             (cli, "minimize_vc_over_frequency"), (cli, "scenario_figures"),
                             (scenarios, "evaluate")]:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        rc, _ = run(OPTIMIZED_SWEEP, tmp_path)
        assert rc == 0
        assert calls["minimize_vc_over_frequency"] == calls["minimize_on_grid"] == 1
        assert 1 <= calls["golden_section"] <= 2  # the optima, then any branches
        # the figures at the optima of all rows of the block in one evaluation
        assert calls["scenario_figures"] == calls["evaluate"] == 1


#: frequency-optimized sweeps of 6 rows: at 200 points a grid, one V_c call
#: scores the grids of optimize.GRID_POINTS // 200 = 4 rows, and one the last 2
BLOCKED_SWEEPS = {
    "displacement": OPTIMIZED_SWEEP,
    "cqnc-meter+ancilla": ["sweep", "--scenario", "cqnc", "--param", "C", "--log", "1e-3", "1e8",
                           "--n", "6", "--n-m", "1", "--optimize-frequency", "--omega-bounds",
                           "0.01", "1000", "--conditioning", "meter+ancilla"],
    "qnd-floquet": ["sweep", "--scenario", "qnd-floquet", "--param", "C", "--log", "1e-2", "1e2",
                    "--n", "6", "--n-m", "1", "--eta", "0.7", "--optimize-frequency"],
    "lev-dual": ["sweep", "--scenario", "lev-dual", "--param", "g2", "--log", "0.01", "0.6",
                 "--n", "6", "--g1", "0.2", "--n-m", "1e7", "--optimize-frequency"],
}


class TestBlockedFrequencyGrids:
    """The frequency scans of a sweep score several rows' grids per V_c
    call, and each row's minimum is that of the row scanned alone."""

    @pytest.mark.parametrize("name", sorted(BLOCKED_SWEEPS))
    def test_each_row_scans_as_alone(self, name, monkeypatch):
        _, cfg = _config(BLOCKED_SWEEPS[name])
        values = _sweep_values(cfg)
        minimize_on_grid, grids = optimize.minimize_on_grid, []

        def recorded(f, spec, rows, block=1):
            def f_recorded(ks, xs):
                if np.ndim(xs) == 2:
                    grids.append(np.shape(xs))
                return f(ks, xs)
            return minimize_on_grid(f_recorded, spec, rows, block)

        monkeypatch.setattr(optimize, "minimize_on_grid", recorded)
        together = cli._frequency_scans(cfg, _swept_params(cfg, np.asarray(values)))
        assert grids == [(4, 200), (2, 200)]
        alone = [cli._frequency_scans(cfg, _swept_params(cfg, value))[0] for value in values]
        assert grids == [(4, 200), (2, 200)]  # a row alone scores its grid in one call of its own
        assert together == alone

    def test_unstable_last_row_exits_with_its_own_error(self, tmp_path, capsys):
        rc, out = run(["sweep", "--scenario", "qnd-imperfect", "--param", "xi", "--lin", "0.1",
                       "0.5", "--n", "5", "--optimize-frequency", "--n-m", "1"], tmp_path)
        assert rc == 3
        assert capsys.readouterr().err.startswith(
            "tv: numerical failure at xi=0.5: drift matrix is not strictly stable")
        assert not out.exists()


def test_closed_standard_output_is_not_a_configuration_error():
    # the reader of the pipe is gone before the table is written; Python
    # ignores SIGPIPE, so the write raises BrokenPipeError inside `tv`
    src = str(Path(tvmeter.__file__).parent.parent)
    proc = subprocess.Popen([sys.executable, "-m", "tvmeter.cli", "pulsed", "--n", "300",
                             "--n-m", "1e7"], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONPATH": src})
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert err == b""


@pytest.mark.parametrize("argv", [
    ["optimize-frequency", "--scenario", "cqnc", "--C", "1e8", "--n-m", "1",
     "--omega-bounds", "1e-2", "1e3"],
    ["optimize-frequency", "--scenario", "cqnc", "--C", "1e3", "--n-m", "1",
     "--conditioning", "meter+ancilla"],
    ["optimize-frequency", "--scenario", "displacement", "--C", "3", "--n-m", "1", "--eta", "0.5"],
    ["optimize-frequency", "--scenario", "qnd-floquet", "--C", "3", "--n-m", "1", "--eta", "0.7",
     "--omega-bounds", "0.01", "10"],
    ["optimize-frequency", "--scenario", "lev-dual", "--g1", "0.05", "--n-m", "1"],
    ["optimize-frequency", "--scenario", "lev-dual", "--g-total", "0.6", "--readout-fraction",
     "0.4", "--n-m", "1", "--eta", "0.6"],
], ids=["cqnc-meter", "cqnc-meter+ancilla", "displacement-eta0.5", "qnd-floquet", "lev-dual-g1",
        "lev-dual-split"])
def test_optimize_frequency_matches_scalar_scan(argv, tmp_path):
    args = build_parser().parse_args(argv)
    _collect_param_flags(args)
    cfg = build_config(None, args)
    bath = cfg.bath_spec()
    res = minimize_vc_over_frequency(
        lambda w: scenario_figures(cfg.scenario, cfg.parameters, bath, w, cfg.conditioning),
        *cfg.omega_bounds,
    )
    row = {**_figures_row("omega_opt", res.x, res.figures),
           "at_boundary": int(res.at_boundary), "n_branches": len(res.branches)}
    buf = io.StringIO()
    write_table(cfg, [row], buf)
    rc, out = run(argv, tmp_path)
    assert rc == 0
    assert out.read_bytes() == buf.getvalue().encode()


class TestOptimizedSweepWaste:
    """An optimized sweep builds and validates one model stack per block for
    the scans and one for the figures at the optima, never one per row."""

    @pytest.mark.parametrize("argv, builder", [
        (OPTIMIZED_SWEEP, "displacement_model"),
        (["sweep", "--scenario", "cqnc", "--param", "kappa", "--log", "1", "100", "--n", "6",
          "--n-m", "1", "--optimize-frequency", "--conditioning", "meter+ancilla"], "cqnc_model"),
    ], ids=["displacement-C", "cqnc-kappa"])
    def test_two_builds_and_two_validations_per_block(self, argv, builder, tmp_path, monkeypatch):
        whole = run(argv, tmp_path, "whole.csv")[1].read_bytes()
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(scenarios, builder, counted("build", getattr(scenarios, builder)))
        monkeypatch.setattr(LinearModel, "__post_init__",
                            counted("validate", LinearModel.__post_init__))
        monkeypatch.setattr(cli, "BLOCK_ROWS", 2)
        rc, out = run(argv, tmp_path, "blocks.csv")
        assert rc == 0
        assert out.read_bytes() == whole
        assert calls == {"build": 2 * 3, "validate": 2 * 3}


class TestScanWork:
    """Every scan scores stacks: an optimized sweep calls its kernel once
    per row's frequency grid, once per lockstep round (two refinement
    passes, optima then branches, of at most 40 rounds each) and once for
    the figures at the optima; a frequency-optimized SQL scan runs one
    frequency scan per such call over C."""

    @pytest.mark.parametrize("argv, module, kernels", [
        (["sweep", "--scenario", "qnd-floquet", "--param", "C", "--log", "1e-2", "1e2", "--n",
          "10", "--n-m", "1", "--optimize-frequency"], floquet, ["sideband_scattering"]),
        (["sweep", "--scenario", "lev-dual", "--param", "g1", "--log", "1e-2", "1e-1", "--n", "10",
          "--n-m", "1", "--optimize-frequency"], scenarios, ["reduced_metrics", "reduced_vc"]),
    ], ids=["qnd-floquet", "lev-dual"])
    def test_kernel_calls_of_an_optimized_sweep(self, argv, module, kernels, tmp_path,
                                                monkeypatch):
        calls = []
        for name in kernels:
            kernel = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, kernel=kernel, **k: calls.append(a) or
                                kernel(*a, **k))
        rc, out = run(argv, tmp_path)
        assert rc == 0
        assert 10 < len(calls) <= 10 + 2 * 40 + 2

    def test_frequency_scans_of_an_optimized_sql_scan(self, tmp_path, monkeypatch):
        scans, calls = cli._frequency_scans, []
        monkeypatch.setattr(cli, "_frequency_scans", lambda *a: calls.append(a) or scans(*a))
        rc, out = run(["sql", "--scenario", "displacement", "--n-m", "1", "--optimize-frequency"],
                      tmp_path)
        assert rc == 0
        # the C grid, the first round's two points, one per round, the optimum's figures
        assert len(calls) <= 2 * 40 + 3
        assert len(calls[0][1]["C"]) == 200  # the whole C grid in one scan


class TestRefinedOptima:
    """The refinement returns the best point it scored.  Narrow resonance
    dips at gamma = 1e-6 (fine-grid minima: displacement 1.375150 at
    C = 0.01 and 1.10420 at C = 1, cqnc 1.40081 at C = 0.01), where the
    midpoint of the last golden-section bracket read 1.40328, 1.10782 and
    1.41906, although that search had scored 1.37631 in the first case."""

    @pytest.mark.parametrize("scenario, C, most", [
        ("displacement", "0.01", 1.3764), ("displacement", "1", 1.1043), ("cqnc", "0.01", 1.4010),
    ])
    def test_narrow_resonance_dip(self, scenario, C, most, tmp_path):
        rc, out = run(["optimize-frequency", "--scenario", scenario, "--n-m", "1",
                       "--gamma", "1e-6", "--C", C], tmp_path)
        assert rc == 0
        [row] = read_rows(out)
        assert float(row["Vc"]) <= most

    def test_fig4_row_16_keeps_its_dip(self, tmp_path):
        # two dips share the grid interval of this row's best grid point:
        # parabolic steps from the start settle in the other one, at
        # omega = 0.99753 with V_c = 1.201888
        rc, out = run(["sweep", "--config", str(RECIPES / "fig4.json")], tmp_path)
        assert rc == 0
        row = read_rows(out)[16]
        assert float(row["C"]) == pytest.approx(0.168985, rel=1e-6)
        assert float(row["omega"]) == pytest.approx(1.00294, abs=2e-5)
        assert float(row["Vc"]) <= 1.1979593


class TestRefinementWork:
    """A guard made of counts, not timers: the points the refiner's ``f``
    is asked for (golden section asked for 168 and 2,760)."""

    @pytest.mark.parametrize("argv, most", [
        (["threshold", "--scenario", "qnd-imperfect", "--vary", "nu", "--bounds", "0.05", "0.3",
          "--level", "0.5", "--quantity", "min-vc", "--n-m", "1"], 100),
        (["sweep", "--config", str(RECIPES / "fig2.json")], 1500),
    ], ids=["threshold", "fig2"])
    def test_refinement_points(self, argv, most, tmp_path, monkeypatch):
        points, refine = [], optimize.golden_section
        monkeypatch.setattr(optimize, "golden_section", lambda f, brackets, rel_tol: refine(
            lambda ks, xs: points.extend(xs) or f(ks, xs), brackets, rel_tol))
        rc, _ = run(argv, tmp_path)
        assert rc == 0
        assert 0 < len(points) <= most


#: scenario -> its numeric parameters and a range around each, wide enough
#: to leave the valid region (a negative rate, an unstable drift)
SCAN_RANGES = {
    "displacement": dict(kappa=(-1.0, 30.0), gamma=(-0.01, 0.1), omega_m=(-1.0, 3.0),
                         C=(-1.0, 1e3)),
    "qnd-floquet": dict(kappa=(-0.1, 3.0), gamma=(-0.01, 0.1), omega_m=(-0.5, 3.0), C=(-1.0, 1e3)),
    "lev-dual": dict(kappa1=(-0.5, 5.0), kappa2=(-0.5, 5.0), gamma=(-1e-9, 1e-6),
                     omega_m=(-10.0, 300.0), g1=(-0.2, 1.0), g2=(-0.2, 1.0), alpha1=(-0.5, 3.0),
                     alpha2=(-0.5, 2.0), g_total=(-0.2, 1.0), readout_fraction=(-0.2, 1.2)),
    "lev-pulsed": dict(kappa=(-0.5, 3.0), gamma=(-1e-3, 1.0), omega_m=(-10.0, 300.0),
                       g_prep=(-0.2, 1.5), alpha_prep=(-0.5, 3.0), g=(-0.2, 2.0),
                       alpha=(-0.5, 2.0), tau=(-1.0, 1e3), V0=(-1.0, 100.0)),
}


@st.composite
def _scan_commands(draw):
    """A `tv sweep` or `tv sql` command of a generated scan."""
    scenario = draw(st.sampled_from(sorted(SCAN_RANGES)))
    sql = "C" in SCAN_RANGES[scenario] and draw(st.booleans())
    names = sorted(k for k in SCAN_RANGES[scenario] if not (sql and k == "C"))
    name = draw(st.sampled_from(names))
    # positional notation with a digit after the point: argparse takes "-1e-05" and "-0."
    # for options, "-0.00001" and "-0.0" for numbers
    lo, hi = (np.format_float_positional(draw(st.floats(*SCAN_RANGES[scenario][name])), trim="0")
              for _ in range(2))
    argv = ["sql" if sql else "sweep", "--scenario", scenario, "--param", name,
            "--lin", lo, hi, "--n", str(draw(st.integers(2, 3))), "--n-m", "1"]
    if scenario == "lev-dual" and name in ("g_total", "readout_fraction"):
        argv += ["--set", f"{'readout_fraction' if name == 'g_total' else 'g_total'}=0.5"]
    if sql:
        argv += ["--c-count", "3", "--c-bounds", "1", "1.001"]  # few rounds
    if SCENARIOS[scenario].vc is not None and draw(st.booleans()):
        w_lo = draw(st.floats(1e-3, 10.0))
        argv += ["--optimize-frequency", "--omega-bounds", repr(w_lo),
                 repr(w_lo * draw(st.floats(0.5, 1e3)))]
    return argv


#: per C scenario, the parameters a C scan sets with --set: ranges that
#: leave the valid region, and for qnd-imperfect make the drift unstable
#: at every C (|xi| > 1/2) or at some C (delta_c and nu nonzero)
C_SCAN_SETS = {
    "displacement": dict(kappa=(-1.0, 30.0), gamma=(-0.01, 0.1), omega_m=(-1.0, 3.0)),
    "cqnc": dict(kappa=(-1.0, 30.0), gamma=(-0.01, 0.1), omega_m=(-1.0, 3.0)),
    "qnd-ideal": dict(kappa=(-1.0, 30.0), gamma=(-0.01, 0.1)),
    "qnd-imperfect": dict(kappa=(-1.0, 30.0), delta_c=(-0.5, 0.5), nu=(-0.5, 0.5),
                          mu=(-0.5, 0.5), xi=(-0.8, 0.8)),
    "qnd-floquet": dict(kappa=(-0.1, 3.0), gamma=(-0.01, 0.1), omega_m=(-0.5, 3.0)),
}


@st.composite
def _c_scan_commands(draw):
    """A `tv sql` or `tv threshold` (min-vc or tsum-at-sql) command with
    generated --set values, at a fixed frequency."""
    scenario = draw(st.sampled_from(sorted(C_SCAN_SETS)))
    ranges = C_SCAN_SETS[scenario]
    names = draw(st.lists(st.sampled_from(sorted(ranges)), unique=True, max_size=3))
    sets = [f"{k}={draw(st.floats(*ranges[k]))!r}" for k in names]
    if scenario == "qnd-imperfect" and draw(st.booleans()):  # the detuned loop
        sets += [f"delta_c={draw(st.floats(0.01, 0.5))!r}", f"nu={draw(st.floats(0.01, 0.5))!r}"]
    argv = [draw(st.sampled_from(["sql", "threshold"])), "--scenario", scenario, "--n-m", "1",
            "--c-count", "3", "--c-bounds", "1", repr(draw(st.floats(1.001, 1e3)))]
    for assignment in sets:
        argv += ["--set", assignment]
    if argv[0] == "threshold":
        argv += ["--vary", "n_m", "--bounds", "0.5", "3", "--level", repr(draw(st.floats(0, 2))),
                 "--quantity", draw(st.sampled_from(["min-vc", "tsum-at-sql"]))]
    return argv


def _exits_without_a_traceback(argv, tmp_path_factory):
    out, err = tmp_path_factory.mktemp("scan") / "out.csv", io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(argv + ["--output", str(out)])
    err = err.getvalue()
    if rc == 0:
        cells = [float(c) for row in read_rows(out) for k, c in row.items()
                 if k not in ("regime", "vary", "quantity")]
        assert all(math.isfinite(c) or c == math.inf for c in cells), argv
    else:
        assert (rc, err.startswith("tv: configuration error: ")) in ((2, True), (3, False)), argv
        assert err.count("\n") == 1 and (rc == 2 or err.startswith("tv: numerical failure at "))


@settings(max_examples=15)
@given(argv=_scan_commands())
@example(argv=["pulsed", "--tau-log", "1e8", "1e9", "--n", "3", "--n-m", "1e7"])  # overflows
@example(argv=["sweep", "--scenario", "lev-pulsed", "--param", "gamma", "--lin", "0.0",
               "-3.3e-301", "--n", "2", "--n-m", "1"])  # the square root of a negative gamma
def test_scan_commands_exit_without_a_traceback(argv, tmp_path_factory):
    _exits_without_a_traceback(argv, tmp_path_factory)


@settings(max_examples=15)
@given(argv=_c_scan_commands())
@example(argv=["sql", "--scenario", "qnd-imperfect", "--n-m", "1", "--set", "xi=0.6"])
@example(argv=["threshold", "--scenario", "qnd-imperfect", "--vary", "nu", "--bounds", "0.05",
               "0.3", "--level", "0.5", "--quantity", "tsum-at-sql", "--n-m", "1",
               "--set", "delta_c=0.1"])
def test_c_scan_commands_exit_without_a_traceback(argv, tmp_path_factory):
    _exits_without_a_traceback(argv, tmp_path_factory)


#: the parameters a `tv optimize-frequency` command sets, where its scenario
#: has them, and their ranges: a zero rate is invalid, and delta_c and nu
#: nonzero make the detuned loop, which can be unstable
OPTIMIZE_SETS = dict(kappa=(0.0, 30.0), gamma=(0.0, 0.1), C=(0.0, 1e4), delta_c=(-0.5, 0.5),
                     nu=(-0.5, 0.5), g2=(0.0, 1.0))


@st.composite
def _optimize_frequency_commands(draw):
    """A `tv optimize-frequency` command with generated frequency bounds,
    bath occupation and --set values."""
    scenario = draw(st.sampled_from(sorted(k for k, s in SCENARIOS.items() if s.vc is not None)))
    w_lo, ratio = draw(st.floats(1e-3, 10.0)), draw(st.floats(1.0, 1e4, exclude_min=True))
    argv = ["optimize-frequency", "--scenario", scenario, "--n-m", repr(draw(st.floats(0.0, 1e3))),
            "--omega-bounds", repr(w_lo), repr(w_lo * ratio)]
    for k in sorted(set(OPTIMIZE_SETS) & set(SCENARIOS[scenario].defaults)):
        if draw(st.booleans()):
            argv += ["--set", f"{k}={draw(st.floats(*OPTIMIZE_SETS[k]))!r}"]
    return argv


@st.composite
def _pulsed_commands(draw):
    """A `tv pulsed` command with generated pulse lengths up to 1e6, rates,
    coupling, bath occupation and detection efficiency."""
    taus = sorted(draw(st.floats(1e-3, 1e6)) for _ in range(2))
    argv = ["pulsed", "--tau-log", *map(repr, taus), "--n", str(draw(st.integers(2, 3))),
            "--n-m", repr(draw(st.floats(0.0, 1e7))), "--eta", repr(draw(st.floats(0.0, 1.0)))]
    for k, (lo, hi) in dict(kappa=(0.0, 3.0), gamma=(0.0, 1.0), g=(0.0, 2.0)).items():
        if draw(st.booleans()):
            argv += ["--set", f"{k}={draw(st.floats(lo, hi))!r}"]
    return argv


@settings(max_examples=15)
@given(argv=_optimize_frequency_commands())
def test_optimize_frequency_exits_without_a_traceback(argv, tmp_path_factory):
    _exits_without_a_traceback(argv, tmp_path_factory)


@settings(max_examples=15)
@given(argv=_pulsed_commands())
def test_pulsed_exits_without_a_traceback(argv, tmp_path_factory):
    _exits_without_a_traceback(argv, tmp_path_factory)


@pytest.mark.parametrize("argv, err", [
    (["sql", "--scenario", "qnd-imperfect", "--n-m", "1", "--xi", "0.6"],
     "numerical failure at C in [0.001, 1000.0]: drift matrix is not strictly stable "
     "(max Re eigenvalue 1.000e-03)"),
    (["sql", "--scenario", "qnd-imperfect", "--n-m", "1", "--nu", "0.1", "--param", "delta_c",
      "--lin", "0", "0.2", "--n", "3"],
     "numerical failure at delta_c=0.1: drift matrix is not strictly stable "
     "(max Re eigenvalue 9.143e-05)"),
    # an overflowing coupling is a numerical failure of the C range or the row
    (["sql", "--scenario", "qnd-imperfect", "--n-m", "1", "--c-bounds", "1", "1e308"],
     "numerical failure at C in [1.0, 1e+308]: drift matrix is not strictly stable "
     "(max Re eigenvalue nan)"),
    (["sql", "--scenario", "displacement", "--n-m", "1", "--c-bounds", "1", "1e308"],
     "numerical failure at C in [1.0, 1e+308]: "),
    (["sql", "--scenario", "cqnc", "--n-m", "1", "--c-bounds", "1", "1e308"],
     "numerical failure at C in [1.0, 1e+308]: "),
    (["threshold", "--scenario", "qnd-imperfect", "--vary", "nu", "--bounds", "0.05", "0.3",
      "--level", "0.5", "--quantity", "min-vc", "--n-m", "1", "--c-bounds", "1", "1e308"],
     "numerical failure at nu=0.05: "),
    (["sweep", "--scenario", "qnd-imperfect", "--param", "C", "--log", "1", "1e308", "--n", "3",
      "--n-m", "1"],
     "numerical failure at C=1e+308: drift matrix is not strictly stable (max Re eigenvalue nan)"),
], ids=["unstable-at-every-C", "unstable-at-some-C", "sql-overflow", "displacement-overflow",
        "cqnc-overflow", "threshold-overflow", "sweep-overflow"])
def test_c_scan_failures_exit_3(argv, err, tmp_path, capsys):
    """An unstable or overflowing drift fails the scan with exit code 3,
    naming the C range or the row: the message in full, or its start."""
    rc, out = run(argv, tmp_path)
    assert rc == 3
    got = capsys.readouterr().err
    assert got.startswith(f"tv: {err}") and got.count("\n") == 1
    if "eigenvalue" in err:
        assert got == f"tv: {err}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, err", [
    (["sql", "--scenario", "qnd-floquet", "--n-m", "1", "--c-bounds", "1e250", "1e260",
      "--c-count", "5"],
     "numerical failure at C in [1e+250, 1e+260]: conditional variance nan is not finite"),
    (["sweep", "--scenario", "qnd-floquet", "--n-m", "1", "--param", "C", "--log", "1e150",
      "1e260", "--n", "6"],
     "numerical failure at C=1e+150: conditional variance -inf below zero"),
], ids=["sql-nan", "sweep-minus-inf"])
def test_overflowing_density_is_a_numerical_failure(argv, err):
    """A sideband density that overflows gives V_c NaN or -inf: the scan
    exits 3 with its one line on stderr, and numpy prints no warning."""
    src = str(Path(tvmeter.__file__).parent.parent)
    proc = subprocess.run([sys.executable, "-m", "tvmeter.cli", *argv], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr == f"tv: {err}\n"  # the one line, and no RuntimeWarning


@pytest.mark.parametrize("param, values, bad", [
    ("gamma", ["0.0", "-0.1"], "0.0"),
    ("gamma", ["0.0", "-3.3e-301"], "0.0"),
    ("gamma", ["-0.1", "0.0"], "-0.1"),
    ("kappa", ["1.0", "-1.0"], "-1.0"),
])
def test_pulsed_preparation_checks_its_rates_before_solving(param, values, bad, tmp_path):
    """The first row whose kappa or gamma is not positive fails its sign
    check before the preparation's solve takes a square root of it (a
    RuntimeWarning, an error under the test settings)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["sweep", "--scenario", "lev-pulsed", "--param", param, "--lin", *values,
                   "--n", "2", "--n-m", "1", "--output", str(tmp_path / "out.csv")])
    assert (rc, err.getvalue()) == (2, f"tv: configuration error: {param} must be positive, "
                                       f"got {bad}\n")


FIXED_OMEGA_SWEEPS = [
    ["sweep", "--scenario", "cqnc", "--param", "C", "--log", "1e-3", "1e4", "--n", "300",
     "--n-m", "1", "--omega", "1", "--conditioning", "meter+ancilla"],
    ["sweep", "--scenario", "cqnc", "--param", "g", "--log", "1e-3", "1", "--n", "40",
     "--n-m", "1", "--omega", "0.7", "--eta", "0.5"],
    ["sweep", "--scenario", "displacement", "--param", "g", "--lin", "-0.3", "0.3", "--n", "41",
     "--n-m", "1"],
    ["sweep", "--scenario", "qnd-ideal", "--param", "C", "--lin", "0", "10", "--n", "11",
     "--n-m", "1", "--eta", "0.5", "--n-c", "0.3"],
    ["sweep", "--scenario", "qnd-imperfect", "--param", "g", "--log", "1e-4", "1e-1", "--n", "40",
     "--nu", "0.1", "--n-m", "1", "--eta", "0.5", "--omega", "0.01"],
    ["sweep", "--scenario", "qnd-floquet", "--param", "C", "--log", "1e-2", "1e2", "--n", "40",
     "--n-m", "1", "--eta", "0.7", "--omega", "0.3"],
    ["sweep", "--scenario", "qnd-floquet", "--param", "g", "--log", "1e-3", "1", "--n", "40",
     "--n-m", "1", "--eta", "0.5"],
    ["sweep", "--scenario", "lev-single", "--param", "alpha", "--lin", "0.013", "1.7", "--n", "997",
     "--g", "0.37", "--n-m", "1.3", "--omega", "0.7"],
    ["sweep", "--scenario", "lev-single", "--param", "Omega", "--lin", "60", "90", "--n", "30",
     "--n-m", "1", "--eta", "0.4"],
    ["sweep", "--scenario", "displacement", "--param", "kappa", "--log", "0.1", "100", "--n", "40",
     "--n-m", "1", "--eta", "0.6", "--omega", "0.8"],
    ["sweep", "--scenario", "cqnc", "--param", "gamma", "--log", "1e-4", "1", "--n", "40",
     "--n-m", "1", "--conditioning", "meter+ancilla", "--omega", "1.3"],
    ["sweep", "--scenario", "qnd-ideal", "--param", "kappa", "--log", "0.1", "100", "--n", "30",
     "--n-m", "1", "--eta", "0.5", "--n-c", "0.3"],
    ["sweep", "--scenario", "qnd-imperfect", "--param", "nu", "--log", "0.01", "0.3", "--n", "300",
     "--n-m", "1", "--omega", "0.01"],
    ["sweep", "--scenario", "qnd-floquet", "--param", "kappa", "--log", "0.05", "1", "--n", "40",
     "--n-m", "1", "--eta", "0.7", "--omega", "0.3"],
    ["sweep", "--scenario", "qnd-floquet", "--param", "omega_m", "--lin", "0.5", "3", "--n", "30",
     "--n-m", "1"],
]


class TestBlockedSweepRows:
    """A fixed-frequency sweep of any numeric parameter evaluates blocks
    of rows as model stacks and falls back to one row at a time."""

    @pytest.mark.parametrize("argv", FIXED_OMEGA_SWEEPS,
                             ids=[f"{a[2]}-{a[4]}" for a in FIXED_OMEGA_SWEEPS])
    def test_same_bytes_as_row_by_row(self, argv, tmp_path, row_by_row_table):
        rc, out = run(argv, tmp_path)
        assert rc == 0
        assert out.read_bytes() == row_by_row_table(argv)

    def test_first_failing_row_raises_its_own_error(self, tmp_path, capsys):
        rc, out = run(["sweep", "--scenario", "displacement", "--param", "C", "--lin", "1", "-1",
                       "--n", "5", "--n-m", "1"], tmp_path)
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            "tv: configuration error: cooperativity must be nonnegative, got -0.5")
        assert not out.exists()

    def test_failing_block_reruns_its_rows_one_at_a_time(self, tmp_path, monkeypatch,
                                                         row_by_row_table):
        argv = FIXED_OMEGA_SWEEPS[0]
        evaluate, stacks = scenarios.evaluate, []

        def failing(model, *args, **kwargs):
            if model.A.ndim > 2:
                stacks.append(len(model.A))
                raise DegenerateMeter("stacked stage")
            return evaluate(model, *args, **kwargs)

        monkeypatch.setattr(scenarios, "evaluate", failing)
        rc, out = run(argv, tmp_path)
        assert rc == 0
        assert stacks == [cli.BLOCK_ROWS, 300 - cli.BLOCK_ROWS]
        assert out.read_bytes() == row_by_row_table(argv)

    def test_one_build_per_block(self, tmp_path, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module, name in [(scenarios, "cqnc_model"), (cli, "scenario_figures"),
                             (scenarios, "evaluate")]:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        rc, out = run(["sweep", "--config", str(RECIPES / "fig3.json"), "--n", "2000",
                       "--param", "C", "--log", "1e-3", "1e4"], tmp_path)
        assert rc == 0
        assert len(read_rows(out)) == 2000
        assert calls["cqnc_model"] == calls["scenario_figures"] == calls["evaluate"] == 8


PULSED_TAU_SWEEP = ["sweep", "--scenario", "lev-pulsed", "--param", "tau", "--log", "1e-2", "1e2",
                    "--n", "300", "--n-m", "1e7"]


def assert_rows_close(got: bytes, want: bytes) -> None:
    """Tables equal but for cells within 1e-11 relative, with equal regimes:
    a row computed in a stack of rows groups its term algebra with other
    rows, and its series may run a term longer than its own."""
    got, want = got.decode().splitlines(), want.decode().splitlines()
    assert len(got) == len(want)
    for g_line, w_line in zip(got, want):
        if g_line.startswith("#") or g_line.endswith(",regime"):
            assert g_line == w_line
            continue
        *g_cells, g_regime = g_line.split(",")
        *w_cells, w_regime = w_line.split(",")
        assert g_regime == w_regime
        assert np.allclose([float(c) for c in g_cells], [float(c) for c in w_cells],
                           rtol=1e-11, atol=0.0)


class TestStackedPulsedRows:
    """A sweep of any numeric lev-pulsed parameter evaluates blocks of rows
    as stacks, and falls back to one row at a time."""

    @staticmethod
    def stack_sizes(monkeypatch) -> list[int]:
        sizes, pulsed_metrics = [], scenarios.pulsed_metrics

        def counted(p, tau, **kwargs):
            sizes.append(np.broadcast(tau, p.kappa, p.gamma, p.omega_m, p.g, p.alpha2, p.V0).size)
            return pulsed_metrics(p, tau, **kwargs)

        monkeypatch.setattr(scenarios, "pulsed_metrics", counted)
        return sizes

    def test_tv_pulsed_evaluates_blocks(self, tmp_path, monkeypatch):
        sizes = self.stack_sizes(monkeypatch)
        rc, out = run(["pulsed", "--n", "500", "--n-m", "1e7"], tmp_path)
        assert rc == 0
        assert len(read_rows(out)) == 500
        assert sizes == [cli.BLOCK_ROWS, 500 - cli.BLOCK_ROWS]

    def test_tau_sweep_rows_equal_the_scalar_rows(self, tmp_path, monkeypatch, row_by_row_table):
        sizes = self.stack_sizes(monkeypatch)
        rc, out = run(PULSED_TAU_SWEEP, tmp_path)
        assert rc == 0
        assert sizes == [cli.BLOCK_ROWS, 300 - cli.BLOCK_ROWS]
        assert_rows_close(out.read_bytes(), row_by_row_table(PULSED_TAU_SWEEP))

    @pytest.mark.parametrize("error", [DegenerateMeter, FloatingPointError])
    def test_failing_block_reruns_its_rows_one_at_a_time(self, error, tmp_path, monkeypatch,
                                                         row_by_row_table):
        stacks, pulsed_metrics = [], scenarios.pulsed_metrics

        def failing(p, tau, **kwargs):
            if np.ndim(tau):
                stacks.append(len(tau))
                raise error("stacked stage")
            return pulsed_metrics(p, tau, **kwargs)

        monkeypatch.setattr(scenarios, "pulsed_metrics", failing)
        rc, out = run(PULSED_TAU_SWEEP, tmp_path)
        assert rc == 0
        assert stacks == [cli.BLOCK_ROWS, 300 - cli.BLOCK_ROWS]
        assert out.read_bytes() == row_by_row_table(PULSED_TAU_SWEEP)

    @pytest.mark.parametrize("argv", [
        ["--param", "g_prep", "--log", "0.1", "0.6", "--n", "6"],
        ["--param", "alpha", "--lin", "0.1", "1", "--n", "6", "--tau", "3"],
    ], ids=["g_prep", "alpha"])
    def test_other_parameters_sweep_as_one_stack(self, argv, tmp_path, monkeypatch,
                                                 row_by_row_table):
        argv = ["sweep", "--scenario", "lev-pulsed", *argv, "--n-m", "1e7"]
        sizes = self.stack_sizes(monkeypatch)
        rc, out = run(argv, tmp_path)
        assert rc == 0
        assert sizes == [6]
        assert_rows_close(out.read_bytes(), row_by_row_table(argv))

    @pytest.mark.parametrize("lo, hi, groups", [("1", "1", [4]), ("0.5", "2", [1] * 4)],
                             ids=["repeated", "distinct"])
    def test_rows_of_equal_rates_share_a_group(self, lo, hi, groups, tmp_path, monkeypatch,
                                               row_by_row_table):
        # kappa sets the rates of the term algebra: rows of one kappa (at one
        # tau, so every branch test agrees) run it once, other rows alone
        sizes, group_covariances = [], pulsed._group_covariances
        monkeypatch.setattr(pulsed, "_group_covariances",
                            lambda p, tau, shape: sizes.append(len(tau))
                            or group_covariances(p, tau, shape))
        argv = ["sweep", "--scenario", "lev-pulsed", "--param", "kappa", "--lin", lo, hi,
                "--n", "4", "--n-m", "1e7"]
        rc, out = run(argv, tmp_path)
        assert rc == 0
        assert sizes == groups
        assert_rows_close(out.read_bytes(), row_by_row_table(argv))


def _two_values(defaults: dict, name: str) -> tuple[float, float]:
    """Two valid values of a numeric scenario parameter, near its default."""
    value = defaults[name]
    if name == "Omega":  # detuned from the backaction-free point, stably
        return 0.8 * defaults["omega_m"], 0.9 * defaults["omega_m"]
    if value is None:  # g, in place of C
        return 0.1, 0.2
    if value == 0:
        return 0.0, 0.1
    return value, 2 * value


#: (scenario, parameter, optimize): every numeric parameter of every
#: scenario at a fixed frequency, and optimized where there is a frequency
STACKED_SWEEPS = [
    (scenario, name, optimize)
    for scenario, record in SCENARIOS.items()
    for name, value in record.defaults.items() if value is None or not isinstance(value, str)
    for optimize in ([False, True] if record.vc is not None else [False])
]


@pytest.mark.parametrize("scenario, name, optimize", STACKED_SWEEPS,
                         ids=[f"{s}-{n}-{'optimized' if o else 'fixed'}"
                              for s, n, o in STACKED_SWEEPS])
def test_every_numeric_parameter_sweeps_as_one_stack(scenario, name, optimize, tmp_path,
                                                     monkeypatch):
    # a sweep falls back to one row at a time only when its stack fails
    calls = []
    row_figures = cli._row_figures
    monkeypatch.setattr(cli, "_row_figures", lambda *a: calls.append(a) or row_figures(*a))
    lo, hi = _two_values(SCENARIOS[scenario].defaults, name)
    argv = ["sweep", "--scenario", scenario, "--param", name, "--lin", repr(lo), repr(hi),
            "--n", "2", "--n-m", "1"]
    pair = {"g_total": "readout_fraction", "readout_fraction": "g_total"}
    if scenario == "lev-dual" and name in pair:  # these two couple lev-dual together
        argv += ["--set", f"{pair[name]}=0.5"]
    rc, out = run(argv + ["--optimize-frequency"] * optimize, tmp_path)
    assert rc == 0
    assert len(read_rows(out)) == 2
    assert calls == []


def _config(argv):
    args = build_parser().parse_args(argv)
    _collect_param_flags(args)
    return args, build_config(None, args)


def _scalar_family(cfg, params, bath):
    """The generalized-SQL family of one row, evaluated point by point at
    the row's fixed detection frequency (given by --omega)."""
    return lambda C: scenario_figures(
        cfg.scenario, {**params, "C": C, "g": None}, bath, cfg.omega, cfg.conditioning)


def scalar_sql_table(argv):
    """Bytes of `tv sql` for ``argv`` from a scalar `generalized_sql` scan."""
    args, cfg = _config(argv)
    bath = cfg.bath_spec()
    rows = []
    for value in _sweep_values(cfg):
        params = _swept_params(cfg, value)
        res = generalized_sql(_scalar_family(cfg, params, bath), *args.c_bounds,
                              count=args.c_count)
        row = _figures_row("C_opt", res.x, res.figures)
        row["at_boundary"] = int(res.at_boundary)
        row["n_branches"] = len(res.branches)
        rows.append({cfg.sweep["param"]: value, **row})
    buf = io.StringIO()
    write_table(cfg, rows, buf)
    return buf.getvalue().encode()


def scalar_threshold_table(argv):
    """Bytes of `tv threshold --quantity min-vc` for ``argv`` (varying a
    scenario parameter) from scalar `generalized_sql` scans."""
    args, cfg = _config(argv)
    bath = cfg.bath_spec()

    def curve(value):
        params = {**cfg.parameters, args.vary: value}
        return generalized_sql(_scalar_family(cfg, params, bath), *args.c_bounds,
                               count=args.c_count).value

    crossing = find_threshold(curve, args.level, *args.bounds)
    rows = [{"vary": args.vary, "quantity": "min-vc", "level": args.level, "crossing": crossing}]
    buf = io.StringIO()
    write_table(cfg, rows, buf)
    return buf.getvalue().encode()


def nested_sql_scan(cfg, params, c_bounds, c_count):
    """The generalized SQL of one row over the optimal detection frequency,
    scalar and nested: `generalized_sql` over C of the figures at the
    optimum of a `minimize_vc_over_frequency` of `scenario_figures`.  For
    speed, the V_c of a displacement model is `vc_on_grid`, one call for
    the frequency grid (the values of the point-by-point scan, bit for
    bit); every other scan goes through the figures point by point."""
    bath = cfg.bath_spec()

    def family(C):
        p = {**params, "C": C, "g": None}
        vc = None
        if cfg.scenario == "displacement":
            model = displacement_model(
                DisplacementParams(p["kappa"], p["gamma"], p["omega_m"], C=C), bath)
            vc = lambda ws: vc_on_grid(model, ws, bath, cfg.conditioning)
        return minimize_vc_over_frequency(
            lambda w: scenario_figures(cfg.scenario, p, bath, w, cfg.conditioning),
            *cfg.omega_bounds, vc=vc,
        ).figures

    return generalized_sql(family, *c_bounds, count=c_count)


def nested_sql_table(argv):
    """Bytes of `tv sql --optimize-frequency` for ``argv`` from nested
    scalar scans, one per row."""
    args, cfg = _config(argv)
    rows = []
    for value in _sweep_values(cfg) if cfg.sweep else [None]:
        params = _swept_params(cfg, value) if cfg.sweep else dict(cfg.parameters)
        res = nested_sql_scan(cfg, params, args.c_bounds, args.c_count)
        row = {**_figures_row("C_opt", res.x, res.figures),
               "at_boundary": int(res.at_boundary), "n_branches": len(res.branches)}
        rows.append({cfg.sweep["param"]: value, **row} if cfg.sweep else row)
    buf = io.StringIO()
    write_table(cfg, rows, buf)
    return buf.getvalue().encode()


NESTED_SQL_ARGV = [
    ["sql", "--scenario", "displacement", "--n-m", "1", "--optimize-frequency", "--c-count", "20"],
    ["sql", "--scenario", "displacement", "--param", "kappa", "--log", "1", "10", "--n", "2",
     "--n-m", "1", "--eta", "0.8", "--optimize-frequency", "--c-count", "12"],
    # a narrow C grid keeps the point-by-point reference short: about 12 rounds
    ["sql", "--scenario", "qnd-floquet", "--n-m", "1", "--optimize-frequency", "--c-count", "3",
     "--c-bounds", "3", "3.001", "--omega-bounds", "0.01", "10", "--eta", "0.9"],
]


@pytest.mark.parametrize("argv", NESTED_SQL_ARGV,
                         ids=["displacement", "displacement-kappa", "qnd-floquet"])
def test_optimized_sql_matches_nested_scalar_scan(argv, tmp_path):
    rc, out = run(argv, tmp_path)
    assert rc == 0
    assert out.read_bytes() == nested_sql_table(argv)


def test_optimized_threshold_matches_nested_scalar_scan(tmp_path):
    # the curve is the generalized SQL over frequency and C at each n_m
    argv = ["threshold", "--scenario", "displacement", "--vary", "n_m", "--bounds", "0.5", "3",
            "--level", "1.2", "--quantity", "min-vc", "--optimize-frequency", "--c-count", "10"]
    args, cfg = _config(argv)

    def curve(value):
        cfg_v = replace(cfg, bath={**cfg.bath, "n_m": value})
        return nested_sql_scan(cfg_v, dict(cfg.parameters), args.c_bounds, args.c_count).value

    rows = [{"vary": "n_m", "quantity": "min-vc", "level": 1.2,
             "crossing": find_threshold(curve, 1.2, 0.5, 3.0)}]
    buf = io.StringIO()
    write_table(cfg, rows, buf)
    rc, out = run(argv, tmp_path)
    assert rc == 0
    assert out.read_bytes() == buf.getvalue().encode()


SQL_ARGV = [
    ["sql", "--scenario", "displacement", "--param", "kappa", "--log", "1", "10", "--n", "3",
     "--omega", "1", "--eta", "0.6", "--n-m", "1", "--c-count", "60"],
    ["sql", "--scenario", "cqnc", "--param", "gamma", "--log", "0.005", "0.05", "--n", "2",
     "--omega", "2.2", "--conditioning", "meter+ancilla", "--n-m", "1", "--c-count", "60"],
    ["sql", "--scenario", "qnd-ideal", "--param", "kappa", "--log", "1", "10", "--n", "2",
     "--omega", "0", "--eta", "0.8", "--n-c", "0.5", "--n-m", "1", "--c-count", "60"],
    ["sql", "--scenario", "qnd-imperfect", "--param", "nu", "--log", "0.05", "0.3", "--n", "3",
     "--omega", "0", "--n-m", "1", "--c-count", "60"],
    ["sql", "--scenario", "qnd-floquet", "--param", "kappa", "--log", "0.05", "1", "--n", "2",
     "--omega", "0.1", "--eta", "0.9", "--n-m", "1", "--c-count", "60"],
]


@pytest.mark.parametrize("argv", SQL_ARGV, ids=[a[2] for a in SQL_ARGV])
def test_sql_matches_scalar_scan(argv, tmp_path):
    rc, out = run(argv, tmp_path)
    assert rc == 0
    assert out.read_bytes() == scalar_sql_table(argv)


def test_threshold_matches_scalar_scan(tmp_path):
    argv = ["threshold", "--scenario", "qnd-imperfect", "--vary", "nu",
            "--bounds", "0.05", "0.3", "--level", "0.5", "--quantity", "min-vc",
            "--omega", "0", "--n-m", "1", "--c-count", "40"]
    rc, out = run(argv, tmp_path)
    assert rc == 0
    assert out.read_bytes() == scalar_threshold_table(argv)


def test_threshold_crossing_reproduces_its_level(tmp_path, monkeypatch):
    # the README command: an independent scalar scan at the printed
    # crossing gives the level back, and the search takes few SQL scans
    scans = []
    sql_scan = cli._sql_scan
    monkeypatch.setattr(cli, "_sql_scan", lambda *a: scans.append(a) or sql_scan(*a))
    argv = ["threshold", "--scenario", "qnd-imperfect", "--vary", "nu", "--bounds", "0.05",
            "0.3", "--level", "0.5", "--quantity", "min-vc", "--n-m", "1"]
    rc, out = run(argv, tmp_path)
    assert rc == 0
    assert len(scans) <= 9
    _, cfg = _config(argv)
    cfg = replace(cfg, omega=cli._default_omega(cfg, cfg.parameters))
    params = {**cfg.parameters, "nu": float(read_rows(out)[0]["crossing"])}
    res = generalized_sql(_scalar_family(cfg, params, cfg.bath_spec()), 1e-3, 1e3)
    assert res.value == pytest.approx(0.5, rel=1e-5)


class TestSqlSweepRows:
    """`tv sql` over a swept parameter refines its rows' C brackets in
    lockstep and falls back to one row at a time."""

    def test_lockstep_scores_each_grid_alone_and_each_round_once(self, tmp_path, monkeypatch):
        vc_on_grid, points = scenarios.vc_on_grid, []

        def counted(*args, **kwargs):
            vcs = vc_on_grid(*args, **kwargs)
            points.append(np.size(vcs))
            return vcs

        figures = Counter()
        scenario_figures = cli.scenario_figures
        monkeypatch.setattr(scenarios, "vc_on_grid", counted)
        monkeypatch.setattr(cli, "scenario_figures",
                            lambda *a: figures.update(["calls"]) or scenario_figures(*a))
        rc, out = run(["sql", "--config", str(RECIPES / "fig6.json")], tmp_path)
        assert rc == 0
        rows, c_count = len(read_rows(out)), 200
        assert rows == 30
        assert points.count(c_count) == rows  # one grid per row
        assert max(points) <= c_count  # no stack holds more than one row's grid
        # each refinement round serves all rows: two refinement passes
        # (optima, then branches) of at most 40 rounds each, not one call
        # per row and round
        assert rows < len(points) <= rows + 2 * 40
        assert figures["calls"] == 1  # the figures at the optima of all rows

    def test_first_failing_row_raises_its_own_error(self, tmp_path, capsys):
        # xi beyond gamma/2 destabilizes the squeezing branch from the third row on
        rc, out = run(["sql", "--scenario", "qnd-imperfect", "--param", "xi", "--lin", "0.1", "0.9",
                       "--n", "5", "--n-m", "1"], tmp_path)
        assert rc == 3
        assert capsys.readouterr().err == (
            "tv: numerical failure at xi=0.5: drift matrix is not strictly stable "
            "(max Re eigenvalue 0.000e+00)\n")
        assert not out.exists()

    def test_lockstep_failure_reruns_the_rows_one_at_a_time(self, tmp_path, monkeypatch):
        scans, batches = cli._sql_scan, []

        def failing(cfg, params, *args):
            batches.append(np.size(params["nu"]))
            if batches[-1] > 1:
                raise DegenerateMeter("lockstep stage")
            return scans(cfg, params, *args)

        monkeypatch.setattr(cli, "_sql_scan", failing)
        rc, out = run(SQL_SWEEP, tmp_path)
        assert rc == 0
        assert batches == [4] + [1] * 4
        assert out.read_bytes() == scalar_sql_table(SQL_SWEEP)


class TestValidation:
    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"scenario": "qnd-ideal", "bogus_key": 1}))
        rc = main(["sweep", "--config", str(cfg), "--param", "C",
                   "--log", "0.1", "1", "--n", "3"])
        assert rc == 2

    def test_unknown_parameter_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "scenario": "qnd-ideal",
            "parameters": {"kappa": 10.0, "detuning": 1.0},
            "sweep": {"param": "C", "lo": 0.1, "hi": 1.0, "n": 3},
        }))
        rc = main(["sweep", "--config", str(cfg)])
        assert rc == 2
        assert "detuning" in capsys.readouterr().err

    def test_unknown_scenario(self):
        cfg_rc = main(["sweep", "--scenario", "qnd-ideal", "--param", "nope",
                       "--log", "0.1", "1", "--n", "3"])
        assert cfg_rc == 2

    def test_conflicting_couplings(self, tmp_path):
        rc = main(["sweep", "--scenario", "qnd-ideal", "--param", "kappa",
                   "--log", "1", "10", "--n", "3", "--C", "1", "--g", "0.1"])
        assert rc == 2

    def test_conditioning_restricted_to_cqnc(self):
        rc = main(["sweep", "--scenario", "qnd-ideal", "--param", "C",
                   "--log", "0.1", "1", "--n", "3",
                   "--conditioning", "meter+ancilla"])
        assert rc == 2

    @pytest.mark.parametrize("scenario", ["lev-single", "lev-dual", "lev-pulsed"])
    def test_sql_needs_a_cooperativity(self, scenario, tmp_path, capsys):
        rc, out = run(["sql", "--scenario", scenario, "--n-m", "1"], tmp_path)
        assert rc == 2
        assert f"scenario {scenario!r} has no cooperativity" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("quantity", ["min-vc", "tsum-at-sql"])
    def test_threshold_scan_needs_a_cooperativity(self, quantity, tmp_path, capsys):
        rc, out = run(["threshold", "--scenario", "lev-dual", "--vary", "g1",
                       "--bounds", "0.1", "0.3", "--level", "0.5",
                       "--quantity", quantity, "--n-m", "1"], tmp_path)
        assert rc == 2
        assert "scenario 'lev-dual' has no cooperativity" in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # xi beyond gamma/2 destabilizes the squeezing branch
        rc = main(["sweep", "--scenario", "qnd-imperfect", "--param", "xi",
                   "--lin", "0.1", "0.9", "--n", "5", "--n-m", "1"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "xi=0.5" in err
        assert "np.float64" not in err

    def test_swept_values_are_python_floats(self, tmp_path, capsys):
        # the middle row of a linear sweep of the harmonic order is 1.5
        rc, out = run(["sweep", "--scenario", "qnd-floquet", "--param", "order",
                       "--lin", "1", "2", "--n", "3", "--n-m", "1"], tmp_path)
        assert rc == 2
        assert capsys.readouterr().err == (
            "tv: configuration error: harmonic order must be an integer >= 1, got 1.5\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv, where", [
        (["sql", "--scenario", "qnd-imperfect", "--set", "xi=1", "--n-m", "1", "--omega", "0"],
         "C in [0.001, 1000.0]"),
        (["optimize-frequency", "--scenario", "qnd-imperfect", "--set", "xi=1", "--n-m", "1",
          "--C", "1"], "omega in [0.01, 1000.0]"),
    ], ids=["sql", "optimize-frequency"])
    def test_failure_at_the_configured_point_names_the_range(self, argv, where, tmp_path, capsys):
        # xi = 1 destabilizes the drift at every C and every frequency
        rc, out = run(argv, tmp_path)
        assert rc == 3
        assert capsys.readouterr().err == (
            f"tv: numerical failure at {where}: drift matrix is not strictly stable "
            "(max Re eigenvalue 5.000e-03)\n")
        assert not out.exists()

    def test_failed_preparation_names_its_parameters(self, tmp_path, capsys):
        # the prepared state does not depend on tau: the failure names what it depends on
        rc, out = run(["pulsed", "--tau-log", "1e-2", "1e2", "--n", "3", "--n-m", "1",
                       "--set", "alpha_prep=3", "--set", "g_prep=1"], tmp_path)
        assert rc == 3
        assert capsys.readouterr().err == (
            "tv: numerical failure at kappa=1.0, gamma=1e-09, g_prep=1.0, "
            "alpha_prep=3.0: drift matrix is not strictly stable (max Re eigenvalue 3.624e-01)\n")
        assert not out.exists()

    def test_lost_matched_filter_is_a_numerical_failure(self, tmp_path, capsys):
        # gamma within 3e-7 of kappa: M23 cancels and kappa * int M23^2 comes out negative
        rc, out = run(["pulsed", "--tau-log", "0.1", "10", "--n", "5", "--n-m", "1",
                       "--gamma", "0.9999997", "--g", "1", "--alpha", "1", "--V0", "1"], tmp_path)
        assert rc == 3
        assert capsys.readouterr().err.startswith(
            "tv: numerical failure at tau=0.1: matched filter undefined: kappa * int M23^2 = ")
        assert not out.exists()

    def test_overflowing_integrals_are_a_numerical_failure(self, tmp_path, capsys):
        # at tau = 3.2e8 the power series of int (G G) overflows: tau**P above 1e308
        rc, out = run(["pulsed", "--tau-log", "1e8", "1e9", "--n", "3", "--n-m", "1e7"], tmp_path)
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("tv: numerical failure at tau=316227766.01683795: pulsed readout "
                              "integrals: overflow encountered in ")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("bounds, level, where, message", [
        (("0", "1"), "0.5", "xi=1.0", "drift matrix is not strictly stable"),
        (("0", "0.4"), "5", "xi in [0.0, 0.4]", "do not have opposite signs"),
    ], ids=["at-a-point", "no-crossing"])
    def test_threshold_failure_names_the_point(self, bounds, level, where, message, tmp_path,
                                               capsys):
        # xi = 1 destabilizes the squeezing branch; V_c stays below 5 on [0, 0.4]
        rc, out = run(["threshold", "--scenario", "qnd-imperfect", "--vary", "xi",
                       "--bounds", *bounds, "--level", level, "--quantity", "vc",
                       "--omega", "0", "--n-m", "1"], tmp_path)
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(f"tv: numerical failure at {where}: ")
        assert message in err
        assert not out.exists()

    @pytest.mark.parametrize("bounds", [("5", "1"), ("nan", "1"), ("0", "1"), ("1", "inf")],
                             ids=["reversed", "nan", "zero", "infinite"])
    @pytest.mark.parametrize("optimize", [False, True], ids=["fixed", "optimized"])
    def test_omega_bounds_validated(self, bounds, optimize, tmp_path, capsys):
        argv = ["sweep", "--scenario", "qnd-ideal", "--param", "kappa", "--log", "1", "10",
                "--n", "3", "--n-m", "1", "--omega-bounds", *bounds]
        rc, out = run(argv + ["--optimize-frequency"] * optimize, tmp_path)
        assert rc == 2
        assert "configuration error: omega_bounds" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--bounds", "nan", "0.3"], "--bounds must be finite with LO < HI, got [nan, 0.3]"),
        (["--bounds", "0.05", "inf"], "--bounds must be finite with LO < HI, got [0.05, inf]"),
        (["--bounds", "0.3", "0.05"], "--bounds must be finite with LO < HI, got [0.3, 0.05]"),
        (["--level", "nan"], "--level must be a finite number, got nan"),
        (["--level", "inf"], "--level must be a finite number, got inf"),
        (["--c-bounds", "nan", "1"], "--c-bounds must be finite with 0 < LO < HI, got [nan, 1.0]"),
        (["--c-bounds", "0", "1"], "--c-bounds must be finite with 0 < LO < HI, got [0.0, 1.0]"),
        (["--c-bounds", "1", "0.5"], "--c-bounds must be finite with 0 < LO < HI, got [1.0, 0.5]"),
    ], ids=["bounds-nan", "bounds-inf", "bounds-reversed", "level-nan", "level-inf",
            "c-bounds-nan", "c-bounds-zero", "c-bounds-reversed"])
    def test_threshold_inputs_named(self, flags, message, tmp_path, capsys):
        # the flag under test comes last, so it overrides the valid one before it
        rc, out = run(["threshold", "--scenario", "qnd-imperfect", "--vary", "nu", "--n-m", "1",
                       "--bounds", "0.05", "0.3", "--level", "0.5", *flags], tmp_path)
        assert rc == 2
        assert capsys.readouterr().err == f"tv: configuration error: {message}\n"
        assert not out.exists()

    def test_sql_c_bounds_named(self, tmp_path, capsys):
        rc, out = run(["sql", "--scenario", "qnd-imperfect", "--nu", "0.1", "--n-m", "1",
                       "--c-bounds", "nan", "1"], tmp_path)
        assert rc == 2
        assert capsys.readouterr().err == (
            "tv: configuration error: --c-bounds must be finite with 0 < LO < HI, got [nan, 1.0]\n")
        assert not out.exists()

    def test_omega_bounds_in_a_config_file_must_be_a_pair(self, tmp_path, capsys):
        cfg = tmp_path / "bounds.json"
        cfg.write_text(json.dumps({"scenario": "qnd-ideal", "omega_bounds": [1.0]}))
        rc, out = run(["sweep", "--config", str(cfg), "--param", "kappa", "--log", "1", "10",
                       "--n", "3"], tmp_path)
        assert rc == 2
        assert "omega_bounds must be a pair [lo, hi], got [1.0]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("order", ["0.5", "2.9", "0"])
    def test_floquet_order_must_be_an_integer(self, order, tmp_path, capsys):
        rc, out = run(["sweep", "--scenario", "qnd-floquet", "--param", "C", "--log", "1", "2",
                       "--n", "2", "--n-m", "1", "--order", order], tmp_path)
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "harmonic order must be an integer >= 1" in err
        assert not out.exists()

    def test_floquet_order_above_one_gives_the_same_rows(self, tmp_path):
        argv = ["sweep", "--scenario", "qnd-floquet", "--param", "C", "--log", "0.1", "10",
                "--n", "3", "--n-m", "1", "--omega", "0.3"]
        rc1, first = run(argv, tmp_path, "first.csv")
        rc3, third = run(argv + ["--order", "3"], tmp_path, "third.csv")
        assert rc1 == rc3 == 0
        assert read_rows(first) == read_rows(third)

    @pytest.mark.parametrize("argv, name", [
        (["sql", "--scenario", "qnd-ideal", "--param", "C", "--log", "0.1", "1", "--n", "3"], "C"),
        (["sql", "--scenario", "cqnc", "--param", "g", "--log", "0.1", "1", "--n", "3"], "g"),
    ], ids=["C", "g"])
    def test_sql_cannot_vary_its_own_cooperativity(self, argv, name, tmp_path, capsys):
        rc, out = run(argv + ["--n-m", "1"], tmp_path)
        assert rc == 2
        assert f"the SQL scan minimizes over C, so it cannot vary {name!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("vary, quantity", [("C", "min-vc"), ("g", "tsum-at-sql")])
    def test_threshold_scan_cannot_vary_its_own_cooperativity(self, vary, quantity, tmp_path,
                                                              capsys):
        rc, out = run(["threshold", "--scenario", "qnd-ideal", "--vary", vary,
                       "--bounds", "0.01", "0.5", "--level", "0.5", "--quantity", quantity,
                       "--n-m", "1"], tmp_path)
        assert rc == 2
        assert f"cannot vary {vary!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        (["--param", "g_total", "--lin", "0.1", "1"], "needs both of 'g_total' and 'readout_fraction'"),
        (["--param", "alpha1", "--lin", "0.1", "0.3", "--set", "readout_fraction=0.5"],
         "needs both of 'g_total' and 'readout_fraction'"),
        (["--param", "g1", "--lin", "0.1", "0.3", "--g-total", "0.6", "--readout-fraction", "0.5"],
         "'g1' and 'g2' cannot be set with 'g_total' and 'readout_fraction'"),
        (["--param", "g1", "--lin", "0.1", "0.3", "--g-total", "0.6", "--readout-fraction", "0.5",
          "--optimize-frequency"],
         "'g1' and 'g2' cannot be set with 'g_total' and 'readout_fraction'"),
        (["--param", "alpha1", "--lin", "0.1", "0.3", "--g2", "0.4", "--g-total", "0.6",
          "--readout-fraction", "0.5"],
         "'g1' and 'g2' cannot be set with 'g_total' and 'readout_fraction'"),
    ], ids=["sweep-g_total-alone", "readout_fraction-alone", "sweep-g1-with-split",
            "sweep-g1-with-split-optimized", "set-g2-with-split"])
    def test_lev_dual_couplings_are_not_ignored(self, extra, message, tmp_path, capsys):
        rc, out = run(["sweep", "--scenario", "lev-dual", "--n", "3", "--n-m", "1e7", *extra],
                      tmp_path)
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["pulsed", "--tau-log", "0.1", "10", "--n", "2", "--omega", "1"],
        ["pulsed", "--tau-log", "0.1", "10", "--n", "2", "--optimize-frequency"],
        ["optimize-frequency", "--scenario", "lev-pulsed"],
    ], ids=["omega", "optimize-flag", "optimize-subcommand"])
    def test_lev_pulsed_has_no_detection_frequency(self, argv, tmp_path, capsys):
        rc, out = run(argv + ["--n-m", "1e7"], tmp_path)
        assert rc == 2
        assert "scenario 'lev-pulsed' has no detection frequency" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_swept_value_is_named(self, tmp_path, capsys):
        rc, out = run(["sweep", "--scenario", "displacement", "--param", "omega_m",
                       "--lin", "-1", "1", "--n", "3", "--n-m", "1"], tmp_path)
        assert rc == 2
        assert capsys.readouterr().err == (
            "tv: configuration error: omega_m must be nonnegative, got -1.0\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--scenario", "displacement", "--param", "C", "--log", "1", "2", "--n", "2",
          "--set", "kappa=[1,2]"], "parameter 'kappa' must be a finite number, got [1, 2]"),
        (["sql", "--scenario", "qnd-imperfect", "--param", "nu", "--log", "0.01", "0.3", "--n", "3",
          "--n-m", "1", "--set", "kappa=x"], "parameter 'kappa' must be a finite number, got 'x'"),
        (["sweep", "--scenario", "qnd-ideal", "--param", "kappa", "--lin", "1", "2", "--n", "2",
          "--set", "gamma=true"], "parameter 'gamma' must be a finite number, got True"),
        (["sweep", "--scenario", "cqnc", "--param", "kappa", "--lin", "1", "2", "--n", "2",
          "--set", "g=\"0.1\""], "parameter 'g' must be a finite number, got '0.1'"),
    ], ids=["sweep-list", "sql-string", "bool", "coupling-string"])
    def test_non_number_parameter_is_named(self, argv, message, tmp_path, capsys):
        rc, out = run(argv, tmp_path)
        assert rc == 2
        assert capsys.readouterr().err == f"tv: configuration error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("extra, message", [
        (["--lin", "nan", "1"], "sweep 'lo' must be a finite number, got nan"),
        (["--lin", "0.1", "inf"], "sweep 'hi' must be a finite number, got inf"),
        (["--lin", "0.1", "1", "--set", "xi=NaN"], "parameter 'xi' must be a finite number, got nan"),
        (["--lin", "0.1", "1", "--set", "kappa=-Infinity"],
         "parameter 'kappa' must be a finite number, got -inf"),
        (["--lin", "0.1", "1", "--n-m", "nan"], "bath 'n_m' must be a finite number, got nan"),
        (["--lin", "0.1", "1", "--omega", "nan"], "'omega' must be a finite number, got nan"),
    ], ids=["lo", "hi", "parameter-nan", "parameter-inf", "bath", "omega"])
    def test_non_finite_value_is_named(self, extra, message, tmp_path, capsys):
        rc, out = run(["sweep", "--scenario", "qnd-imperfect", "--param", "nu", "--n", "3",
                       "--n-m", "1", *extra], tmp_path)
        assert rc == 2
        assert capsys.readouterr().err == f"tv: configuration error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("optimize", [False, True], ids=["fixed", "optimized"])
    def test_lev_dual_negative_linewidth_names_the_row(self, optimize, tmp_path, capsys):
        rc, out = run(["sweep", "--scenario", "lev-dual", "--param", "alpha1", "--lin", "1", "3",
                       "--n", "3", *["--optimize-frequency"] * optimize], tmp_path)
        assert rc == 3
        assert capsys.readouterr().err == (
            "tv: numerical failure at alpha1=3.0: broadened linewidth -5.000e-02 is not positive\n")
        assert not out.exists()

    @pytest.mark.parametrize("optimize", [False, True], ids=["fixed", "optimized"])
    def test_swept_readout_fraction_out_of_range(self, optimize, tmp_path, capsys):
        rc, out = run(["sweep", "--scenario", "lev-dual", "--param", "readout_fraction",
                       "--lin", "0.5", "1.5", "--g-total", "0.6",
                       *["--optimize-frequency"] * optimize], tmp_path)
        assert rc == 2
        assert capsys.readouterr().err == (
            "tv: configuration error: readout_fraction must lie in [0, 1]\n")
        assert not out.exists()

    def test_intensity_split_out_of_range(self, tmp_path, capsys):
        rc, out = run(["sweep", "--scenario", "lev-dual", "--param", "alpha2",
                       "--lin", "0.1", "0.2", "--n", "2",
                       "--set", "g_total=0.5", "--set", "readout_fraction=1.5"], tmp_path)
        assert rc == 2
        assert "readout_fraction must lie in [0, 1]" in capsys.readouterr().err
        assert not out.exists()


class TestSubcommands:
    def test_sql_single_row(self, tmp_path):
        rc, out = run(
            ["sql", "--scenario", "qnd-imperfect", "--nu", "0.1", "--n-m", "1",
             "--c-bounds", "1e-3", "1e3"],
            tmp_path,
        )
        assert rc == 0
        row = read_rows(out)[0]
        assert float(row["Vc"]) == pytest.approx(0.4026, abs=2e-4)
        assert row["at_boundary"] == "0"

    def test_threshold_reproduces_qnd_bound(self, tmp_path):
        rc, out = run(
            ["threshold", "--scenario", "qnd-ideal", "--vary", "C",
             "--bounds", "1e-4", "10", "--level", "0.5", "--quantity", "vc",
             "--n-m", "1"],
            tmp_path,
        )
        assert rc == 0
        row = read_rows(out)[0]
        assert float(row["crossing"]) == pytest.approx(1 / 24, rel=1e-5)

    def test_threshold_varies_g_in_place_of_C(self, tmp_path):
        rc, out = run(
            ["threshold", "--scenario", "qnd-ideal", "--vary", "g",
             "--bounds", "0.001", "0.5", "--level", "0.5", "--quantity", "vc",
             "--n-m", "1"],
            tmp_path,
        )
        assert rc == 0
        row = read_rows(out)[0]
        want = cooperativity_to_g(qnd_cooperativity_threshold(1.5), 10.0, 0.01)
        assert float(row["crossing"]) == pytest.approx(want, rel=1e-5)

    def test_threshold_varies_eta_in_the_frequency_scans(self, tmp_path):
        # the curve is V_c minimized over frequency at each eta, the
        # scans included; the optimal frequency moves with eta here
        common = ["--scenario", "displacement", "--n-m", "1", "--omega-bounds", "0.02", "100"]
        rc, out = run(["threshold", *common, "--vary", "eta", "--bounds", "0.1", "1",
                       "--level", "1.4", "--quantity", "vc", "--optimize-frequency"], tmp_path)
        assert rc == 0
        crossing = float(read_rows(out)[0]["crossing"])
        rc, out = run(["optimize-frequency", *common, "--eta", repr(crossing)], tmp_path, "opt.csv")
        assert rc == 0
        assert float(read_rows(out)[0]["Vc"]) == pytest.approx(1.4, rel=1e-6)

    def test_optimize_frequency(self, tmp_path):
        rc, out = run(
            ["optimize-frequency", "--scenario", "displacement", "--C", "0.05",
             "--n-m", "1", "--omega-bounds", "0.2", "100"],
            tmp_path,
        )
        assert rc == 0
        row = read_rows(out)[0]
        assert float(row["omega_opt"]) == pytest.approx(1.0, rel=0.02)

    def test_pulsed_sweep(self, tmp_path):
        rc, out = run(
            ["pulsed", "--tau-log", "0.1", "10", "--n", "5", "--n-m", "1e7"],
            tmp_path,
        )
        assert rc == 0
        rows = read_rows(out)
        assert len(rows) == 5
        assert float(rows[0]["Ts"]) > 0.99

    def test_lev_dual_detection_loss(self, tmp_path):
        argv = ["sweep", "--scenario", "lev-dual", "--param", "g2", "--log", "0.01", "0.6",
                "--n", "3", "--g1", "0.2", "--n-m", "1e7"]
        rc_lossless, lossless = run(argv, tmp_path, "lossless.csv")
        rc_lossy, lossy = run(argv + ["--eta", "0.7"], tmp_path, "lossy.csv")
        assert rc_lossless == rc_lossy == 0
        for a, b in zip(read_rows(lossless), read_rows(lossy), strict=True):
            assert a["g2"] == b["g2"]
            assert float(b["Vc"]) > float(a["Vc"])

    def test_pulsed_detection_loss(self, tmp_path):
        argv = ["pulsed", "--tau-log", "0.1", "10", "--n", "5", "--n-m", "1e7"]
        rc_lossless, lossless = run(argv, tmp_path, "lossless.csv")
        rc_lossy, lossy = run(argv + ["--eta", "0.5"], tmp_path, "lossy.csv")
        assert rc_lossless == rc_lossy == 0
        for a, b in zip(read_rows(lossless), read_rows(lossy)):
            assert a["tau"] == b["tau"]
            assert float(b["Vc"]) > float(a["Vc"])
            assert float(b["Tm"]) < float(a["Tm"])

    def test_pulsed_prepares_the_state_once_per_sweep(self, tmp_path, monkeypatch):
        calls = []
        prepare = scenarios.prepare_state_lyapunov
        monkeypatch.setattr(
            scenarios, "prepare_state_lyapunov", lambda *a: calls.append(a) or prepare(*a)
        )
        rc, _ = run(["pulsed", "--tau-log", "0.1", "10", "--n", "5", "--n-m", "1e7"], tmp_path)
        assert rc == 0 and len(calls) == 1
        # the preparation stage depends on g_prep: one solve per row
        rc, _ = run(["sweep", "--scenario", "lev-pulsed", "--param", "g_prep",
                     "--log", "0.1", "0.6", "--n", "4", "--n-m", "1e7"], tmp_path)
        assert rc == 0 and len(calls) == 5


@pytest.mark.parametrize("name, command", [
    ("fig5", "sweep"),
    ("fig9", "sweep"),
    ("fig6", "sql"),
])
def test_recipe_determinism(name, command, tmp_path):
    recipe = RECIPES / f"{name}.json"
    rc1, a = run([command, "--config", str(recipe)], tmp_path, "a.csv")
    rc2, b = run([command, "--config", str(recipe)], tmp_path, "b.csv")
    assert rc1 == rc2 == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("name, command", [
    ("fig2", "sweep"), ("fig3", "sweep"), ("fig4", "sweep"),
    ("fig7", "sweep"), ("fig8", "sql"),
])
def test_recipes_run_clean(name, command, tmp_path):
    recipe = RECIPES / f"{name}.json"
    rc, out = run([command, "--config", str(recipe)], tmp_path)
    assert rc == 0
    assert len(read_rows(out)) > 1


def test_every_scenario_documented_in_help(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    text = capsys.readouterr().out
    from tvmeter.cli import SCENARIOS

    for name in SCENARIOS:
        assert name in text


def test_json_output_is_strict_json(tmp_path):
    # JSON has no infinity: a non-finite float is written as the CSV's text
    args = ["sweep", "--scenario", "qnd-ideal", "--param", "C", "--lin", "0", "1", "--n", "2",
            "--n-m", "1"]
    rc, out = run(args + ["--format", "json"], tmp_path, "out.json")
    assert rc == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    rows = json.loads(out.read_text(), parse_constant=reject)
    rc, csv = run(args, tmp_path, "out.csv")
    assert rc == 0
    assert rows[0]["nm_eq"] == read_rows(csv)[0]["nm_eq"] == "inf"
    assert rows[1]["nm_eq"] == float(read_rows(csv)[1]["nm_eq"])


def test_json_output_deterministic(tmp_path):
    args = ["sweep", "--scenario", "qnd-ideal", "--param", "C",
            "--log", "0.1", "10", "--n", "6", "--format", "json"]
    rc1, a = run(args, tmp_path, "a.json")
    rc2, b = run(args, tmp_path, "b.json")
    assert rc1 == rc2 == 0
    assert a.read_bytes() == b.read_bytes()


def _cell(x) -> str:
    """A table cell as the CSV writes it: 17 significant digits for a float."""
    return format(x, ".17g") if isinstance(x, float) else str(x)


class TestTableBytes:
    """``write_table`` formats each CSV row from one ``%`` template per
    tuple of cell types; every cell keeps the bytes of ``format(x,
    ".17g")`` for a float (numpy's included) and ``str(x)`` otherwise."""

    CELLS = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1.7976931348623157e308,
             np.float64(0.1), np.float64(-math.inf), np.float64(math.nan), 1 / 3, 7, True,
             False, "QND", np.int64(3)]

    @staticmethod
    def _written(rows, fmt="csv") -> str:
        cfg = _config(["sweep", "--scenario", "qnd-ideal", "--format", fmt])[1]
        buf = io.StringIO()
        write_table(cfg, rows, buf)
        return buf.getvalue()

    def test_every_cell_keeps_its_bytes(self):
        # column b runs through the values backwards and c holds a float, an
        # int and a str in turn, so the types of each column change from row
        # to row
        c = [2.5, 2, "2.5"]
        rows = [{"a": x, "b": y, "c": c[k % 3]}
                for k, (x, y) in enumerate(zip(self.CELLS, self.CELLS[::-1]))]
        lines = self._written(rows).split("\n")
        assert lines[3] == "a,b,c" and lines[-1] == ""
        assert lines[4:-1] == [",".join(_cell(v) for v in row.values()) for row in rows]
        assert lines[4:6] == ["inf,3,2.5", "-inf,QND,2"]

    def test_sql_int_columns(self):
        _, cfg = _config(["sql", "--scenario", "qnd-imperfect", "--nu", "0.1", "--n-m", "1",
                          "--param", "nu", "--lin", "0.05", "0.3", "--n", "3"])
        rows = cli.cmd_sql(cfg, (1e-3, 1e3), 40)
        assert {type(row[k]) for row in rows for k in ("at_boundary", "n_branches")} == {int}
        lines = self._written(rows).split("\n")
        assert lines[4:-1] == [",".join(_cell(v) for v in row.values()) for row in rows]

    def test_json_keeps_its_bytes(self):
        rows = [{"x": math.inf, "y": np.float64(0.5), "n": 2, "r": "QND"},
                {"x": -0.0, "y": np.float64(math.nan), "n": True, "r": "IDT"},
                {"x": 5e-324, "y": -math.inf, "n": np.float64(1e308),
                 "r": 1.7976931348623157e308}]
        assert self._written(rows, "json") == (
            '[\n {\n  "n": 2,\n  "r": "QND",\n  "x": "inf",\n  "y": 0.5\n },\n'
            ' {\n  "n": true,\n  "r": "IDT",\n  "x": -0.0,\n  "y": "nan"\n },\n'
            ' {\n  "n": 1e+308,\n  "r": 1.7976931348623157e+308,\n  "x": 5e-324,\n'
            '  "y": "-inf"\n }\n]\n')


SUBCOMMANDS = ["sweep", "sql", "threshold", "optimize-frequency", "pulsed"]


class TestParser:
    """`tv` adds the arguments of the chosen subcommand only; what it
    prints, parses and exits with must be that of the full parser."""

    @pytest.mark.parametrize("argv", [["--help"]] + [[name, "--help"] for name in SUBCOMMANDS])
    def test_help_matches_the_full_parser(self, argv, capsys):
        with pytest.raises(SystemExit) as full:
            build_parser().parse_args(argv)
        want = capsys.readouterr()
        with pytest.raises(SystemExit) as got:
            main(argv)
        assert capsys.readouterr() == want and want.out.startswith("usage: tv")
        assert got.value.code == full.value.code == 0

    @pytest.mark.parametrize("argv, code", [
        (["--version"], 0), (["bogus"], 2), ([], 2), (["sweep", "--bogus"], 2), (["threshold"], 2),
    ])
    def test_exits_match_the_full_parser(self, argv, code, capsys):
        with pytest.raises(SystemExit) as full:
            build_parser().parse_args(argv)
        want = capsys.readouterr()
        with pytest.raises(SystemExit) as got:
            main(argv)
        assert capsys.readouterr() == want
        assert got.value.code == full.value.code == code
        if argv == ["--version"]:
            assert want.out == f"tvmeter {tvmeter.__version__}\n"
        if argv == ["bogus"]:
            assert "invalid choice: 'bogus'" in want.err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--scenario", "cqnc", "--param", "C", "--log", "1", "2", "--n-m", "1"],
        ["sql", "--scenario", "qnd-imperfect", "--nu", "0.1", "--c-count", "20"],
        ["threshold", "--vary", "nu", "--bounds", "0.05", "0.3", "--level", "0.5"],
        ["optimize-frequency", "--scenario", "cqnc", "--C", "1e8"],
        ["pulsed", "--n", "3", "--set", "g=1"],
    ])
    def test_chosen_subcommand_parses_as_the_full_parser(self, argv):
        assert vars(build_parser(argv[0]).parse_args(argv)) == vars(build_parser().parse_args(argv))

    def test_main_reads_sys_argv(self, tmp_path, monkeypatch):
        argv = ["sweep", "--scenario", "qnd-ideal", "--param", "C", "--log", "0.1", "10",
                "--n", "4", "--n-m", "1"]
        rc, want = run(argv, tmp_path, "list.csv")
        got = tmp_path / "argv.csv"
        monkeypatch.setattr(sys, "argv", ["tv", *argv, "--output", str(got)])
        assert rc == main(None) == 0
        assert got.read_bytes() == want.read_bytes()


class TestNegativeNumbers:
    """A negative number in exponent notation is a value, not a flag."""

    def test_lin_and_omega(self, tmp_path):
        rc, out = run(["sweep", "--scenario", "displacement", "--param", "g", "--lin", "-1e-05",
                       "0.3", "--n", "3", "--n-m", "1", "--omega", "-1e-3"], tmp_path)
        assert rc == 0
        rows = read_rows(out)
        assert [row["g"] for row in rows] == ["-1.0000000000000001e-05", "0.14999499999999999",
                                              "0.29999999999999999"]
        assert {row["omega"] for row in rows} == {"-0.001"}

    @pytest.mark.parametrize("value, want", [("-1e-3", -1e-3), ("-2.5E+1", -25.0), ("-.5", -0.5),
                                             ("-3.", -3.0), ("-4", -4.0)])
    def test_bounds(self, value, want):
        argv = ["threshold", "--vary", "delta_c", "--bounds", value, "0.3", "--level", "0.5"]
        assert build_parser("threshold").parse_args(argv).bounds == [want, 0.3]
        assert build_parser().parse_args(argv).bounds == [want, 0.3]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--lin", "-1e-05", "0.3", "--bogus"],
        ["sweep", "--lin", "-1e-05", "0.3", "-e5"],
        ["sweep", "--omega", "-1e-3x"],
    ])
    def test_unknown_flags_still_fail(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestSweptDetectionFrequency:
    """Without --omega a sweep of omega_m detects each row at its own
    omega_m: each row has the bytes of the sweep at --omega <its omega_m>."""

    @pytest.mark.parametrize("command", ["sweep", "sql"])
    def test_rows_follow_their_omega_m(self, command, tmp_path):
        argv = [command, "--scenario", "displacement", "--param", "omega_m", "--lin", "0.5", "2",
                "--n", "3", "--n-m", "1"]
        rc, out = run(argv, tmp_path)
        assert rc == 0
        got = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert [row["omega_m"] for row in read_rows(out)] == ["0.5", "1.25", "2"]
        for k, omega in enumerate(["0.5", "1.25", "2"]):
            rc, fixed = run(argv + ["--omega", omega], tmp_path, f"{omega}.csv")
            assert rc == 0
            want = [line for line in fixed.read_text().splitlines() if not line.startswith("#")]
            assert got[0] == want[0] and got[k + 1] == want[k + 1]

    def test_threshold_of_vc_follows_omega_m(self, tmp_path):
        argv = ["threshold", "--scenario", "displacement", "--vary", "omega_m", "--bounds", "0.5",
                "3", "--level", "1.1", "--quantity", "vc", "--n-m", "1"]
        rc, out = run(argv, tmp_path)
        assert rc == 0
        crossing = float(read_rows(out)[0]["crossing"])
        model = displacement_model(DisplacementParams(10.0, 0.01, crossing, C=1.0),
                                   BathSpec(n_m=1.0))
        assert evaluate(model, crossing).Vc == pytest.approx(1.1, rel=1e-5)
