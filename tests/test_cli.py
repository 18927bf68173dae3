"""Command-line interface: table output, determinism, exit codes."""

import io
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from tvmeter import (
    BathSpec,
    DegenerateMeter,
    cli,
    cooperativity_to_g,
    evaluate,
    ideal_qnd_model,
    optimize,
    qnd_cooperativity_threshold,
    scenarios,
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
], ids=["displacement", "cqnc-meter+ancilla"])
def test_optimized_sweep_matches_scalar_scan(argv, tmp_path):
    rc, out = run(argv, tmp_path)
    assert rc == 0
    assert out.read_bytes() == scalar_scan_table(argv)


OPTIMIZED_SWEEP = ["sweep", "--scenario", "displacement", "--param", "C", "--log", "1e-3", "1e4",
                   "--n", "6", "--n-m", "1", "--optimize-frequency", "--omega-bounds", "0.2", "1000"]


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
        # one figures evaluation per row
        assert calls["scenario_figures"] == calls["evaluate"] == 6


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


STACKED_SWEEPS = [
    (scenario, name)
    for scenario, record in SCENARIOS.items() if record.vc is not None
    for name, value in record.defaults.items() if value is None or not isinstance(value, str)
]


@pytest.mark.parametrize("optimize", [False, True], ids=["fixed", "optimized"])
@pytest.mark.parametrize("scenario, name", STACKED_SWEEPS,
                         ids=[f"{s}-{n}" for s, n in STACKED_SWEEPS])
def test_every_numeric_parameter_sweeps_as_one_stack(scenario, name, optimize, tmp_path,
                                                     monkeypatch):
    # a sweep falls back to one row at a time only when its stack fails
    calls = []
    row_figures = cli._row_figures
    monkeypatch.setattr(cli, "_row_figures", lambda *a: calls.append(a) or row_figures(*a))
    lo, hi = _two_values(SCENARIOS[scenario].defaults, name)
    argv = ["sweep", "--scenario", scenario, "--param", name, "--lin", repr(lo), repr(hi),
            "--n", "2", "--n-m", "1"]
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
        (["--param", "alpha1", "--lin", "0.1", "0.3", "--g2", "0.4", "--g-total", "0.6",
          "--readout-fraction", "0.5"],
         "'g1' and 'g2' cannot be set with 'g_total' and 'readout_fraction'"),
    ], ids=["sweep-g_total-alone", "readout_fraction-alone", "sweep-g1-with-split",
            "set-g2-with-split"])
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
