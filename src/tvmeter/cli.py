"""Command-line front end: scenario sweeps and scans as CSV/JSON tables.

Subcommands
-----------
sweep               figures of merit along a parameter grid
sql                 generalized standard quantum limit (minimum
                    conditional variance over cooperativity)
threshold           bisection for a level crossing of a scan quantity
optimize-frequency  detection frequency minimizing the conditional
                    variance at fixed parameters
pulsed              pulse-duration sweep of the sequential readout

Configuration can come from a JSON file (--config) with command-line
flags taking precedence.  Outputs are deterministic: floats are printed
with 17 significant digits and the resolved configuration is echoed in
the header, so any table can be reproduced byte for byte from its own
header.  Exit codes: 0 success, 2 configuration error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from . import __version__
from .core import BathSpec
from .errors import ConfigError, TvmeterError
from .metrics import MeasurementFigures, vc_on_grid
from .optimize import ScanMinimum, find_threshold, generalized_sql, minimize_vc_over_frequency
from .scenarios import SCENARIOS, with_parameter

BATH_KEYS = dict(n_m=0.0, m_sq_re=0.0, m_sq_im=0.0, n_c=0.0, eta=1.0)

CONFIG_KEYS = {
    "scenario", "parameters", "bath", "sweep", "omega",
    "optimize_frequency", "omega_bounds", "conditioning", "output",
}
SWEEP_KEYS = {"param", "lo", "hi", "n", "scale"}
OUTPUT_KEYS = {"path", "format"}


@dataclass
class RunConfig:
    scenario: str
    parameters: dict[str, Any]
    bath: dict[str, float]
    sweep: dict[str, Any] | None
    omega: float | None
    optimize_frequency: bool
    omega_bounds: tuple[float, float]
    conditioning: str
    out_path: str | None
    out_format: str

    def bath_spec(self) -> BathSpec:
        b = self.bath
        return BathSpec(
            n_m=b["n_m"], m_sq=complex(b["m_sq_re"], b["m_sq_im"]),
            n_c=b["n_c"], eta=b["eta"],
        )

    def canonical(self) -> str:
        """Config echo used in output headers; excludes the output
        location so a table reproduces itself wherever it is written."""
        doc = {
            "scenario": self.scenario,
            "parameters": self.parameters,
            "bath": self.bath,
            "sweep": self.sweep,
            "omega": self.omega,
            "optimize_frequency": self.optimize_frequency,
            "omega_bounds": list(self.omega_bounds),
            "conditioning": self.conditioning,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _check_keys(given: dict, allowed: set[str], where: str) -> None:
    for key in given:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r} in {where}")


def build_config(file_doc: dict | None, args: argparse.Namespace) -> RunConfig:
    doc = dict(file_doc or {})
    _check_keys(doc, CONFIG_KEYS, "config")
    scenario = getattr(args, "scenario", None) or doc.get("scenario")
    if scenario is None:
        raise ConfigError("missing key 'scenario'")
    if scenario not in SCENARIOS:
        raise ConfigError(
            f"unknown scenario {scenario!r}; choose from {sorted(SCENARIOS)}"
        )
    params = dict(SCENARIOS[scenario].defaults)
    file_params = doc.get("parameters", {})
    _check_keys(file_params, set(params), f"parameters of scenario {scenario!r}")
    params.update(file_params)
    explicit = set(file_params)
    for key, value in (getattr(args, "set", None) or []):
        if key not in params:
            raise ConfigError(f"unknown key {key!r} in parameters of scenario {scenario!r}")
        params[key] = value
        explicit.add(key)
    if "C" in params:
        if {"C", "g"} <= explicit and params["g"] is not None and params["C"] is not None:
            raise ConfigError("specify exactly one of the parameters 'C' and 'g'")
        if params.get("g") is not None and "C" not in explicit:
            params["C"] = None

    bath = dict(BATH_KEYS)
    file_bath = doc.get("bath", {})
    _check_keys(file_bath, set(bath), "bath")
    bath.update(file_bath)
    for key in bath:
        flag = getattr(args, f"bath_{key}", None)
        if flag is not None:
            bath[key] = flag

    sweep = doc.get("sweep")
    if sweep is not None:
        _check_keys(sweep, SWEEP_KEYS, "sweep")
        sweep = {"scale": "log", **sweep}
    if getattr(args, "param", None) is not None:
        rng = args.log if args.log is not None else args.lin
        if rng is None:
            raise ConfigError("sweep needs --log LO HI or --lin LO HI")
        sweep = {
            "param": args.param, "lo": rng[0], "hi": rng[1],
            "n": args.n, "scale": "log" if args.log is not None else "lin",
        }
    if sweep is not None:
        missing = {"param", "lo", "hi", "n"} - set(sweep)
        if missing:
            raise ConfigError(f"sweep is missing key(s) {sorted(missing)}")

    omega = doc.get("omega")
    if getattr(args, "omega", None) is not None:
        omega = args.omega
    optimize = bool(doc.get("optimize_frequency", False))
    if getattr(args, "optimize_frequency", False):
        optimize = True
    bounds = tuple(doc.get("omega_bounds", (1e-2, 1e3)))
    if getattr(args, "omega_bounds", None) is not None:
        bounds = tuple(args.omega_bounds)
    if len(bounds) != 2:
        raise ConfigError(f"omega_bounds must be a pair [lo, hi], got {list(bounds)}")
    lo, hi = (float(b) for b in bounds)
    if not (np.isfinite(hi) and 0.0 < lo < hi):
        raise ConfigError(f"omega_bounds must be finite with 0 < lo < hi, got [{lo}, {hi}]")

    conditioning = doc.get("conditioning", "meter")
    if getattr(args, "conditioning", None) is not None:
        conditioning = args.conditioning
    allowed = SCENARIOS[scenario].conditionings
    if conditioning not in allowed:
        raise ConfigError(
            f"conditioning {conditioning!r} does not apply to scenario {scenario!r}; "
            f"choose from {list(allowed)}"
        )

    out = doc.get("output", {})
    _check_keys(out, OUTPUT_KEYS, "output")
    out_path = getattr(args, "output", None) or out.get("path")
    out_format = getattr(args, "format", None) or out.get("format") or "csv"
    if out_format not in ("csv", "json"):
        raise ConfigError(f"unknown key {out_format!r} in output format")
    cfg = RunConfig(
        scenario=scenario, parameters=params, bath=bath, sweep=sweep,
        omega=omega, optimize_frequency=optimize,
        omega_bounds=(lo, hi),
        conditioning=conditioning, out_path=out_path, out_format=out_format,
    )
    _check_has_frequency(cfg, optimize)
    return cfg


def _check_has_frequency(cfg: RunConfig, optimize: bool) -> None:
    if SCENARIOS[cfg.scenario].default_omega is None and (cfg.omega is not None or optimize):
        raise ConfigError(f"scenario {cfg.scenario!r} has no detection frequency to set or optimize")


# ---------------------------------------------------------------------------
# evaluation


def scenario_figures(
    scenario: str, params: dict, bath: BathSpec, omega: float | None, conditioning: str
) -> MeasurementFigures | list[MeasurementFigures]:
    """Figures of merit of one scenario at one detection frequency.

    For a scenario with ``vc``, parameter arrays (any numeric parameter)
    give a list of figures, one per point, from one stacked solve.
    """
    return SCENARIOS[scenario].figures(params, bath, omega, conditioning)


def _default_omega(cfg: RunConfig) -> float | None:
    """The detection frequency given, else the scenario's default, if any."""
    default = SCENARIOS[cfg.scenario].default_omega
    if cfg.omega is not None or default is None:
        return cfg.omega
    return default(cfg.parameters)


def _frequency_scans(cfg: RunConfig, params: dict) -> list[ScanMinimum]:
    """Detection frequency minimizing V_c at each row of ``params`` (an
    array holds one value per row of a sweep), with the figures there.

    A model-based scenario builds the model stack of all rows once, scans
    each row's frequency grid with one stacked solve, and refines all rows
    in lockstep: each golden-section round is one solve over the rows'
    drift (and H) stack paired with the round's frequencies.  Scenarios
    without a model are refined frequency by frequency.  The figures of
    each optimum come from :func:`scenario_figures` on the row's own
    parameters, in ``cfg``'s bath, as the V_c scans.
    """
    lo, hi = cfg.omega_bounds
    bath = cfg.bath_spec()
    arrays = {k: v for k, v in params.items() if isinstance(v, np.ndarray)}
    count = len(next(iter(arrays.values()))) if arrays else 1
    rows = [{**params, **{k: v[r] for k, v in arrays.items()}} for r in range(count)]

    def figures(r: int, w: float) -> MeasurementFigures:
        return scenario_figures(cfg.scenario, rows[r], bath, w, cfg.conditioning)

    build = SCENARIOS[cfg.scenario].model
    if build is None:
        return minimize_vc_over_frequency(figures, lo, hi, rows=count)
    stack = build(params, bath)
    A = np.broadcast_to(stack.A, (count,) + stack.A.shape[-2:])

    def at(ks):  # the models of the rows ks
        return replace(stack, A=A[ks], H=stack.H[ks] if stack.H.ndim > 2 else stack.H)

    return minimize_vc_over_frequency(
        figures, lo, hi, rows=count,
        vc=lambda ks, ws: vc_on_grid(at(ks), np.asarray(ws), bath, cfg.conditioning),
        vc_grid=lambda ws: [vc_on_grid(at(r), ws, bath, cfg.conditioning) for r in range(count)],
    )


def _row_figures(cfg: RunConfig, params: dict) -> MeasurementFigures:
    """Figures of one row in ``cfg``'s bath, at the optimal detection
    frequency with ``optimize_frequency``; they always come from
    :func:`scenario_figures`."""
    if cfg.optimize_frequency:
        return _frequency_scans(cfg, params)[0].figures
    return scenario_figures(
        cfg.scenario, params, cfg.bath_spec(), _default_omega(cfg), cfg.conditioning)


def _check_sql_scan(cfg: RunConfig, varied: str | None) -> None:
    """The generalized-SQL scan minimizes over C: the scenario needs a
    cooperativity, and the scan's own C (or g) cannot be varied."""
    if "C" not in cfg.parameters:
        raise ConfigError(f"scenario {cfg.scenario!r} has no cooperativity 'C' to scan")
    if varied in ("C", "g"):
        raise ConfigError(f"the SQL scan minimizes over C, so it cannot vary {varied!r}")


def _sql_scan(
    cfg: RunConfig, params: dict, c_bounds: tuple[float, float], c_count: int,
) -> ScanMinimum:
    """Generalized SQL at one parameter point: V_c minimized over C.

    At a fixed detection frequency the C grid is one stacked solve over
    the models at every C; with ``optimize_frequency`` every C needs its
    own frequency scan, so the grid is scanned point by point.  The
    refinement and the figures of the optimum come from
    :func:`_row_figures`.
    """

    def at(C):
        return with_parameter(params, "C", C)

    def vc_grid(Cs):
        return SCENARIOS[cfg.scenario].vc(
            at(Cs), cfg.bath_spec(), _default_omega(cfg), cfg.conditioning)

    return generalized_sql(
        lambda C: _row_figures(cfg, at(C)), c_bounds[0], c_bounds[1],
        count=c_count, vc_grid=None if cfg.optimize_frequency else vc_grid,
    )


# ---------------------------------------------------------------------------
# output


def _fmt(x: Any) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _figures_row(swept: str, value: float, figs: MeasurementFigures) -> dict:
    return {
        swept: value,
        "omega": float(figs.omega),
        "Vc": float(figs.Vc),
        "Ts": float(figs.Ts),
        "Tm": float(figs.Tm),
        "Ts_plus_Tm": float(figs.Ts + figs.Tm),
        "ns_eq": float(figs.ns_eq),
        "nm_eq": float(figs.nm_eq),
        "regime": figs.regime.value,
    }


def write_table(cfg: RunConfig, rows: list[dict], stream) -> None:
    if cfg.out_format == "json":  # JSON has no inf or NaN: those go as the CSV's text
        rows = [{k: _fmt(v) if isinstance(v, float) and not math.isfinite(v) else v
                 for k, v in row.items()} for row in rows]
        json.dump(rows, stream, sort_keys=True, indent=1)
        stream.write("\n")
        return
    stream.write(f"# tvmeter {__version__}\n")
    stream.write(f"# scenario: {cfg.scenario}\n")
    stream.write(f"# config: {cfg.canonical()}\n")
    if rows:
        cols = list(rows[0])
        stream.write(",".join(cols) + "\n")
        for row in rows:
            stream.write(",".join(_fmt(row[c]) for c in cols) + "\n")


def _emit(cfg: RunConfig, rows: list[dict]) -> None:
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8", newline="\n") as fh:
            write_table(cfg, rows, fh)
    else:
        write_table(cfg, rows, sys.stdout)


# ---------------------------------------------------------------------------
# subcommands


def _sweep_values(cfg: RunConfig) -> list[float]:
    sw = cfg.sweep
    n = int(sw["n"])
    if n < 2:
        raise ConfigError("sweep needs at least two points")
    lo, hi = float(sw["lo"]), float(sw["hi"])
    if sw.get("scale", "log") == "log":
        if lo <= 0:
            raise ConfigError("log sweep needs positive endpoints")
        return list(np.logspace(np.log10(lo), np.log10(hi), n))
    return list(np.linspace(lo, hi, n))


def _swept_params(cfg: RunConfig, value: float) -> dict:
    name = cfg.sweep["param"]
    if name not in cfg.parameters:
        raise ConfigError(f"unknown key {name!r} in sweep param for scenario {cfg.scenario!r}")
    return with_parameter(cfg.parameters, name, value)


#: rows of a fixed-frequency sweep evaluated as one parameter stack
BLOCK_ROWS = 256


def cmd_sweep(cfg: RunConfig) -> list[dict]:
    """Rows of a sweep.  With ``optimize_frequency`` all rows are scanned
    together (:func:`_frequency_scans`); at a fixed frequency a scenario
    whose figures take parameter arrays (one with ``vc``) evaluates
    blocks of ``BLOCK_ROWS`` rows as stacks, whichever numeric parameter
    is swept; the other scenarios go row by row."""
    if cfg.sweep is None:
        raise ConfigError("sweep is missing key(s) ['param', 'lo', 'hi', 'n']")
    name = cfg.sweep["param"]
    values = _sweep_values(cfg)
    rows_cfg, scenario = cfg, SCENARIOS[cfg.scenario]
    bath = cfg.bath_spec()
    if scenario.prepare and name in cfg.parameters and name not in scenario.preparation:
        try:  # the prepared state is the same for every row
            rows_cfg = replace(cfg, parameters=scenario.prepare(cfg.parameters, bath))
        except TvmeterError as err:
            raise NumericalFailure(name, values[0], err) from err

    def one(value: float) -> dict:
        try:
            figs = _row_figures(rows_cfg, _swept_params(rows_cfg, value))
        except TvmeterError as err:
            raise NumericalFailure(name, value, err) from err
        return _figures_row(name, value, figs)

    def rows(values: list[float], figures) -> list[dict]:
        """The rows of ``values`` from ``figures`` of their parameter
        stack; if that raises, the rows are rerun one at a time, so the
        first failing row raises its own error."""
        try:
            figs = figures(_swept_params(rows_cfg, np.asarray(values)))
        except (TvmeterError, ValueError, ConfigError):
            return [one(value) for value in values]
        return [_figures_row(name, value, f) for value, f in zip(values, figs)]

    if cfg.optimize_frequency:
        return rows(values, lambda stack: [s.figures for s in _frequency_scans(rows_cfg, stack)])
    if scenario.vc is not None:
        omega = _default_omega(rows_cfg)
        return [
            row for lo in range(0, len(values), BLOCK_ROWS)
            for row in rows(values[lo:lo + BLOCK_ROWS], lambda stack: scenario_figures(
                cfg.scenario, stack, bath, omega, cfg.conditioning))
        ]
    return [one(value) for value in values]


def cmd_sql(cfg: RunConfig, c_bounds: tuple[float, float], c_count: int) -> list[dict]:
    _check_sql_scan(cfg, cfg.sweep["param"] if cfg.sweep else None)

    def run_one(params: dict) -> dict:
        res = _sql_scan(cfg, params, c_bounds, c_count)
        row = _figures_row("C_opt", res.x, res.figures)
        row["at_boundary"] = int(res.at_boundary)
        row["n_branches"] = len(res.branches)
        return row

    if cfg.sweep is not None:
        name = cfg.sweep["param"]
        rows = []
        for value in _sweep_values(cfg):
            try:
                row = run_one(_swept_params(cfg, value))
            except TvmeterError as err:
                raise NumericalFailure(name, value, err) from err
            rows.append({name: value, **row})
        return rows
    try:
        return [run_one(dict(cfg.parameters))]
    except TvmeterError as err:
        raise NumericalFailure("C", float("nan"), err) from err


def cmd_threshold(
    cfg: RunConfig, vary: str, bounds: tuple[float, float], level: float,
    quantity: str, c_bounds: tuple[float, float], c_count: int,
) -> list[dict]:
    if vary not in cfg.parameters and vary not in cfg.bath:
        raise ConfigError(f"unknown key {vary!r} in threshold vary")
    if quantity != "vc":
        _check_sql_scan(cfg, vary)

    def with_value(value: float) -> tuple[RunConfig, dict]:
        """The config and parameters with ``vary`` at ``value``; a bath key
        is varied in the config's bath, which every later step reads."""
        if vary in cfg.parameters:
            return cfg, with_parameter(cfg.parameters, vary, value)
        return replace(cfg, bath={**cfg.bath, vary: value}), dict(cfg.parameters)

    def curve(value: float) -> float:
        cfg_v, params = with_value(value)
        if quantity == "vc":
            return _row_figures(cfg_v, params).Vc
        res = _sql_scan(cfg_v, params, c_bounds, c_count)
        if quantity == "min-vc":
            return res.value
        if quantity == "tsum-at-sql":
            return res.figures.Ts + res.figures.Tm
        raise ConfigError(f"unknown key {quantity!r} in threshold quantity")

    try:
        crossing = find_threshold(curve, level, bounds[0], bounds[1])
    except TvmeterError as err:
        raise NumericalFailure(vary, float("nan"), err) from err
    return [{"vary": vary, "quantity": quantity, "level": level, "crossing": crossing}]


def cmd_optimize_frequency(cfg: RunConfig) -> list[dict]:
    _check_has_frequency(cfg, True)
    try:
        res = _frequency_scans(cfg, cfg.parameters)[0]
    except TvmeterError as err:
        raise NumericalFailure("omega", float("nan"), err) from err
    row = _figures_row("omega_opt", res.x, res.figures)
    row["at_boundary"] = int(res.at_boundary)
    row["n_branches"] = len(res.branches)
    return [row]


class NumericalFailure(Exception):
    def __init__(self, param: str, value: float, err: Exception):
        self.param, self.value, self.err = param, value, err
        super().__init__(f"numerical failure at {param}={float(value)!r}: {err}")


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub: argparse.ArgumentParser, scenario_required: bool = False) -> None:
    sub.add_argument("--scenario", required=scenario_required, choices=sorted(SCENARIOS))
    sub.add_argument("--config", help="JSON configuration file")
    sub.add_argument("--output", help="output path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"))
    sub.add_argument("--omega", type=float, help="detection frequency")
    sub.add_argument("--optimize-frequency", action="store_true",
                     dest="optimize_frequency",
                     help="minimize Vc over detection frequency per point")
    sub.add_argument("--omega-bounds", nargs=2, type=float, metavar=("LO", "HI"))
    sub.add_argument("--conditioning", choices=("meter", "meter+ancilla"))
    for key in BATH_KEYS:
        sub.add_argument(f"--{key.replace('_', '-')}", type=float,
                         dest=f"bath_{key}")
    sub.add_argument("--set", action="append", type=_parse_assignment, metavar="KEY=VALUE",
                     help="set a scenario parameter (repeatable)")
    for key, flag in _SCENARIO_FLAGS.items():
        sub.add_argument(flag, type=float, dest=f"param_{key}")


_SCENARIO_FLAGS = {
    key: "--" + key.replace("_", "-")
    for scenario in SCENARIOS.values()
    for key in scenario.defaults
    if key not in ("pulse_shape",)
}


def _parse_assignment(text: str):
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {text!r}")
    key, value = text.split("=", 1)
    try:
        return key, json.loads(value)
    except json.JSONDecodeError:
        return key, value


def _collect_param_flags(args: argparse.Namespace) -> None:
    sets = list(getattr(args, "set", None) or [])
    for key in _SCENARIO_FLAGS:
        value = getattr(args, f"param_{key}", None)
        if value is not None:
            sets.append((key, value))
    args.set = sets


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tv",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "examples (one per scenario):\n"
            "  tv sweep --scenario qnd-ideal --param C --log 1e-3 1e3 --n 200 --n-m 1\n"
            "  tv sweep --scenario displacement --param C --log 1e-3 1e4 --n 200 \\\n"
            "           --optimize-frequency --omega-bounds 0.2 1e3 --n-m 1\n"
            "  tv sweep --scenario cqnc --param C --log 1e-3 1e4 --n 200 --n-m 1 \\\n"
            "           --omega 1 --conditioning meter+ancilla\n"
            "  tv sql --scenario qnd-imperfect --nu 0.1 --n-m 1 --c-bounds 1e-3 1e3\n"
            "  tv sweep --scenario qnd-floquet --param C --log 1e-2 1e2 --n 100 \\\n"
            "           --kappa 0.5 --n-m 1\n"
            "  tv sweep --scenario lev-single --param alpha --lin 0.01 0.5 --n 50 \\\n"
            "           --g 0.3 --n-m 1\n"
            "  tv sweep --scenario lev-dual --param g2 --log 0.01 0.6 --n 60 \\\n"
            "           --g1 0.2 --n-m 1e7\n"
            "  tv pulsed --tau-log 1e-2 1e2 --n 40 --n-m 1e7   (scenario lev-pulsed)\n"
            "  tv threshold --scenario qnd-imperfect --vary nu --bounds 0.05 0.3 \\\n"
            "           --level 0.5 --quantity min-vc --n-m 1\n"
            "  tv optimize-frequency --scenario cqnc --C 1e8 --omega-bounds 1e-2 1e3\n"
        ),
    )
    parser.add_argument("--version", action="version", version=f"tvmeter {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sweep = subs.add_parser("sweep", help="figures of merit along a parameter grid")
    _add_common(sweep)
    sweep.add_argument("--param", help="name of the swept parameter")
    sweep.add_argument("--log", nargs=2, type=float, metavar=("LO", "HI"))
    sweep.add_argument("--lin", nargs=2, type=float, metavar=("LO", "HI"))
    sweep.add_argument("--n", type=int, default=200)

    sql = subs.add_parser("sql", help="generalized SQL over cooperativity")
    _add_common(sql)
    sql.add_argument("--param", help="optional secondary sweep parameter")
    sql.add_argument("--log", nargs=2, type=float, metavar=("LO", "HI"))
    sql.add_argument("--lin", nargs=2, type=float, metavar=("LO", "HI"))
    sql.add_argument("--n", type=int, default=30)
    sql.add_argument("--c-bounds", nargs=2, type=float, default=(1e-3, 1e3),
                     metavar=("LO", "HI"))
    sql.add_argument("--c-count", type=int, default=200)

    thr = subs.add_parser("threshold", help="level crossing of a scan quantity")
    _add_common(thr)
    thr.add_argument("--vary", required=True, help="parameter or bath key to vary")
    thr.add_argument("--bounds", nargs=2, type=float, required=True, metavar=("LO", "HI"))
    thr.add_argument("--level", type=float, required=True)
    thr.add_argument("--quantity", choices=("min-vc", "tsum-at-sql", "vc"),
                     default="min-vc")
    thr.add_argument("--c-bounds", nargs=2, type=float, default=(1e-3, 1e3),
                     metavar=("LO", "HI"))
    thr.add_argument("--c-count", type=int, default=200)

    opt = subs.add_parser("optimize-frequency",
                          help="detection frequency minimizing Vc")
    _add_common(opt)

    pulsed = subs.add_parser("pulsed", help="pulse-duration sweep")
    _add_common(pulsed)
    pulsed.add_argument("--tau-log", nargs=2, type=float, metavar=("LO", "HI"),
                        default=(1e-2, 1e2))
    pulsed.add_argument("--n", type=int, default=50)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _collect_param_flags(args)
        file_doc = None
        if args.config:
            with open(args.config, encoding="utf-8") as fh:
                file_doc = json.load(fh)
        if args.command == "pulsed":
            args.scenario = args.scenario or "lev-pulsed"
            args.param = "tau"
            args.log = list(args.tau_log)
            args.lin = None
        cfg = build_config(file_doc, args)
        if args.command in ("sweep", "pulsed"):
            rows = cmd_sweep(cfg)
        elif args.command == "sql":
            rows = cmd_sql(cfg, tuple(args.c_bounds), args.c_count)
        elif args.command == "threshold":
            rows = cmd_threshold(
                cfg, args.vary, tuple(args.bounds), args.level,
                args.quantity, tuple(args.c_bounds), args.c_count,
            )
        elif args.command == "optimize-frequency":
            rows = cmd_optimize_frequency(cfg)
        else:  # pragma: no cover - argparse enforces the choices
            raise ConfigError(f"unknown command {args.command!r}")
        _emit(cfg, rows)
        return 0
    except (ConfigError, ValueError, OSError, json.JSONDecodeError) as err:
        print(f"tv: configuration error: {err}", file=sys.stderr)
        return 2
    except NumericalFailure as err:
        print(f"tv: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
