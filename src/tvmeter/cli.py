"""Command-line front end: scenario sweeps and scans as CSV/JSON tables.

Subcommands
-----------
sweep               figures of merit along a parameter grid
sql                 generalized standard quantum limit (minimum
                    conditional variance over cooperativity)
threshold           level crossing of a scan quantity (Brent's method)
optimize-frequency  detection frequency minimizing the conditional
                    variance at fixed parameters
pulsed              pulse-duration sweep of the sequential readout

Configuration can come from a JSON file (--config) with command-line
flags taking precedence.  Outputs are deterministic: floats are printed
with 17 significant digits and the resolved configuration is echoed in
the header, so any table can be reproduced byte for byte from its own
header and the subcommand's own flags.  Exit codes: 0 success, 1
standard output closed before the table was written (as `tv ... | head`),
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import re
import sys
from dataclasses import dataclass, replace
from typing import Any

import numpy as np

from . import __version__
from .core import BathSpec
from .errors import ConfigError, TvmeterError
from .metrics import MeasurementFigures
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


def _check_number(value: Any, where: str, optional: bool = False) -> None:
    """Reject a value that is not a finite real number (None passes where
    ``optional``)."""
    if value is None and optional:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _check_bounds(bounds: tuple[float, float], flag: str, positive: bool = False) -> None:
    """Reject a pair of command-line bounds unless both are finite with
    LO < HI (and 0 < LO where ``positive``)."""
    lo, hi = bounds
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi and (lo > 0 or not positive)):
        order = "0 < LO < HI" if positive else "LO < HI"
        raise ConfigError(f"{flag} must be finite with {order}, got [{lo}, {hi}]")


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
    for key, default in SCENARIOS[scenario].defaults.items():
        if not isinstance(default, str):  # numbers; None leaves one unset, as C when g is set
            _check_number(params[key], f"parameter {key!r}", default is None or key == "C")
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
        _check_number(bath[key], f"bath {key!r}")

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
        for key in ("lo", "hi"):
            _check_number(sweep[key], f"sweep {key!r}")

    omega = doc.get("omega")
    if getattr(args, "omega", None) is not None:
        omega = args.omega
    _check_number(omega, "'omega'", optional=True)
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
    """Figures of merit of one scenario at a detection frequency.

    Arrays of its numeric parameters (and of frequencies paired with
    them) give a list of figures, one per point.
    """
    return SCENARIOS[scenario].figures(params, bath, omega, conditioning)


def _default_omega(cfg: RunConfig, params: dict) -> float | np.ndarray | None:
    """The detection frequency given, else the scenario's default at the
    row ``params`` (one per row where they hold arrays), if any."""
    default = SCENARIOS[cfg.scenario].default_omega
    if cfg.omega is not None or default is None:
        return cfg.omega
    return default(params)


def _rows_of(params: dict) -> tuple[int | None, Any]:
    """The number of rows of ``params`` (an array holds one value per row;
    None for a row of numbers) and ``at(ks)``, the parameters of rows ks."""
    arrays = {k: v for k, v in params.items() if isinstance(v, np.ndarray)}
    count = len(next(iter(arrays.values()))) if arrays else None
    return count, lambda ks: {**params, **{k: v[ks] for k, v in arrays.items()}}


def _frequency_scans(cfg: RunConfig, params: dict) -> list[ScanMinimum]:
    """Detection frequency minimizing V_c at each row of ``params`` (a row
    of numbers is a stack of one), with the figures there, in ``cfg``'s
    bath.  The scenario builds the stack of all rows once; the grids of
    several rows (``optimize.GRID_POINTS`` points in all) are one V_c
    call, and so is each refinement round of all rows (in lockstep).
    One :func:`scenario_figures` call gives all the figures."""
    if _rows_of(params)[0] is None:
        params = {k: np.array([v]) if isinstance(v, numbers.Real) else v for k, v in params.items()}
    bath = cfg.bath_spec()
    count, at = _rows_of(params)
    vc = SCENARIOS[cfg.scenario].rows(params, bath, cfg.conditioning)
    return minimize_vc_over_frequency(
        lambda ks, ws: scenario_figures(cfg.scenario, at(ks), bath, np.asarray(ws),
                                        cfg.conditioning),
        *cfg.omega_bounds, rows=count, vc=vc)


def _row_figures(cfg: RunConfig, params: dict) -> MeasurementFigures:
    """Figures of one row in ``cfg``'s bath, at the optimal detection
    frequency with ``optimize_frequency``; they always come from
    :func:`scenario_figures`."""
    if cfg.optimize_frequency:
        return _frequency_scans(cfg, params)[0].figures
    return scenario_figures(
        cfg.scenario, params, cfg.bath_spec(), _default_omega(cfg, params), cfg.conditioning)


def _check_sql_scan(cfg: RunConfig, varied: str | None) -> None:
    """The generalized-SQL scan minimizes over C: the scenario needs a
    cooperativity, and the scan's own C (or g) cannot be varied."""
    if "C" not in cfg.parameters:
        raise ConfigError(f"scenario {cfg.scenario!r} has no cooperativity 'C' to scan")
    if varied in ("C", "g"):
        raise ConfigError(f"the SQL scan minimizes over C, so it cannot vary {varied!r}")


def _sql_scan(
    cfg: RunConfig, params: dict, c_bounds: tuple[float, float], c_count: int,
) -> ScanMinimum | list[ScanMinimum]:
    """Generalized SQL: V_c minimized over C at each row of ``params`` (a
    list of scans if it holds arrays), each with the bits of the row's own
    scan.  Each row's C grid is one V_c call (of at most ``c_count``
    points), and so is each refinement round of all rows (in lockstep)
    and the figures at the optima.  At a fixed frequency the V_c calls go
    to the scenario's C family (``Scenario.c_family``): the rows are built
    and validated once, at g = 0, and each call writes only the coupling
    entries of its points.  With ``optimize_frequency`` each call is one
    :func:`_frequency_scans` over its C points.  One row of numbers at a
    fixed frequency refines point by point on V_c alone, cheaper than by
    stacks, and evaluates the figures at its optimum."""
    scenario, bath = SCENARIOS[cfg.scenario], cfg.bath_spec()
    count, at = _rows_of(params)

    def rows(ks, Cs) -> dict:  # the rows ks paired with the cooperativities Cs
        return with_parameter(at(ks), "C", np.asarray(Cs))

    if cfg.optimize_frequency:
        def vc(ks, Cs) -> np.ndarray:
            return np.array([scan.value for scan in _frequency_scans(cfg, rows(ks, Cs))])
    else:
        vc = scenario.c_family(params, bath, _default_omega(cfg, params), cfg.conditioning)

    def figures(ks, Cs) -> list[MeasurementFigures]:
        if cfg.optimize_frequency:
            return [scan.figures for scan in _frequency_scans(cfg, rows(ks, Cs))]
        return scenario_figures(cfg.scenario, p := rows(ks, Cs), bath, _default_omega(cfg, p),
                                cfg.conditioning)

    if count is None and not cfg.optimize_frequency:
        return generalized_sql(lambda C: figures(0, C), *c_bounds, count=c_count,
                               vc=lambda C: vc(0, C))
    found = generalized_sql(figures, *c_bounds, count=c_count, rows=count or 1, vc=vc)
    return found if count else found[0]


# ---------------------------------------------------------------------------
# output


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


def _scan_row(name: str, res: ScanMinimum) -> dict:
    """The row of a scan's minimum at ``name`` = x, flagged if on a bound or not alone."""
    return {**_figures_row(name, res.x, res.figures),
            "at_boundary": int(res.at_boundary), "n_branches": len(res.branches)}


def write_table(cfg: RunConfig, rows: list[dict], stream) -> None:
    """Write the table as JSON or as CSV.  A CSV cell that is a float
    (numpy's included) is ``format(x, ".17g")``, any other ``str(x)``; each
    row is formatted by one ``%`` template per tuple of its cells' types."""
    if cfg.out_format == "json":  # JSON has no inf or NaN: those go as the CSV's text
        rows = [{k: format(v, ".17g") if isinstance(v, float) and not math.isfinite(v) else v
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
        templates: dict[tuple, str] = {}
        for row in rows:
            cells = tuple(map(row.__getitem__, cols))
            kinds = tuple(map(type, cells))
            if kinds not in templates:
                templates[kinds] = ",".join(
                    "%.17g" if issubclass(kind, float) else "%s" for kind in kinds) + "\n"
            stream.write(templates[kinds] % cells)


def _emit(cfg: RunConfig, rows: list[dict]) -> None:
    if cfg.out_path:
        with open(cfg.out_path, "w", encoding="utf-8", newline="\n") as fh:
            write_table(cfg, rows, fh)
    else:
        write_table(cfg, rows, sys.stdout)
        sys.stdout.flush()  # a closed pipe raises here, inside main


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
        return np.logspace(np.log10(lo), np.log10(hi), n).tolist()
    return np.linspace(lo, hi, n).tolist()


def _swept_params(cfg: RunConfig, value: float) -> dict:
    name = cfg.sweep["param"]
    if name not in cfg.parameters:
        raise ConfigError(f"unknown key {name!r} in sweep param for scenario {cfg.scenario!r}")
    return with_parameter(cfg.parameters, name, value)


#: rows of a sweep evaluated as one parameter stack
BLOCK_ROWS = 256


def _stacked_rows(cfg: RunConfig, values: list[float], stacked, row, one) -> list[dict]:
    """The table rows ``row(value, result)`` of the sweep values ``values``,
    in blocks of ``BLOCK_ROWS`` values, from ``stacked``, which gives one
    result per value of a block from their parameter stack.  If that
    raises, the block's rows are rerun one at a time by ``one(value)``, so
    the first failing row raises its own error."""
    rows = []
    for lo in range(0, len(values), BLOCK_ROWS):
        block = values[lo:lo + BLOCK_ROWS]
        try:
            results = stacked(_swept_params(cfg, np.asarray(block)))
        except (TvmeterError, ValueError, ConfigError, ArithmeticError):
            rows += [one(value) for value in block]
        else:
            rows += [row(value, result) for value, result in zip(block, results)]
    return rows


def cmd_sweep(cfg: RunConfig) -> list[dict]:
    """Rows of a sweep, in blocks of ``BLOCK_ROWS`` rows.  With
    ``optimize_frequency`` the rows of a block are scanned together
    (:func:`_frequency_scans`); at a fixed frequency each block is one
    stack of the swept parameter."""
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
            prep = {k: cfg.parameters[k] for k in scenario.preparation}
            raise NumericalFailure({k: v for k, v in prep.items() if v is not None}, err) from err

    def one(value: float) -> dict:
        try:
            figs = _row_figures(rows_cfg, _swept_params(rows_cfg, value))
        except TvmeterError as err:
            raise NumericalFailure({name: value}, err) from err
        return _figures_row(name, value, figs)

    def rows(figures) -> list[dict]:
        return _stacked_rows(rows_cfg, values, figures,
                             lambda value, figs: _figures_row(name, value, figs), one)

    if cfg.optimize_frequency:
        return rows(lambda stack: [s.figures for s in _frequency_scans(rows_cfg, stack)])
    return rows(lambda stack: scenario_figures(
        cfg.scenario, stack, bath, _default_omega(rows_cfg, stack), cfg.conditioning))


def cmd_sql(cfg: RunConfig, c_bounds: tuple[float, float], c_count: int) -> list[dict]:
    """Generalized-SQL rows (:func:`_sql_scan`), one per sweep value, or
    one at the configured parameters.  The rows of a sweep are scanned
    in lockstep, in blocks of ``BLOCK_ROWS``; a block that fails is rerun
    one row at a time, so the first failing row raises its own error."""
    _check_sql_scan(cfg, cfg.sweep["param"] if cfg.sweep else None)
    _check_bounds(c_bounds, "--c-bounds", positive=True)

    if cfg.sweep is None:
        try:
            return [_scan_row("C_opt", _sql_scan(cfg, dict(cfg.parameters), c_bounds, c_count))]
        except TvmeterError as err:
            raise NumericalFailure({"C": c_bounds}, err) from err
    name, values = cfg.sweep["param"], _sweep_values(cfg)

    def row(value: float, res: ScanMinimum) -> dict:
        return {name: value, **_scan_row("C_opt", res)}

    def one(value: float) -> dict:
        try:
            return row(value, _sql_scan(cfg, _swept_params(cfg, value), c_bounds, c_count))
        except TvmeterError as err:
            raise NumericalFailure({name: value}, err) from err

    return _stacked_rows(cfg, values, lambda stack: _sql_scan(cfg, stack, c_bounds, c_count),
                         row, one)


def cmd_threshold(
    cfg: RunConfig, vary: str, bounds: tuple[float, float], level: float,
    quantity: str, c_bounds: tuple[float, float], c_count: int,
) -> list[dict]:
    if vary not in cfg.parameters and vary not in cfg.bath:
        raise ConfigError(f"unknown key {vary!r} in threshold vary")
    _check_bounds(bounds, "--bounds")
    _check_number(level, "--level")
    _check_bounds(c_bounds, "--c-bounds", positive=True)
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
        try:
            if quantity == "vc":
                return _row_figures(cfg_v, params).Vc
            res = _sql_scan(cfg_v, params, c_bounds, c_count)
        except TvmeterError as err:
            raise NumericalFailure({vary: value}, err) from err
        if quantity == "min-vc":
            return res.value
        if quantity == "tsum-at-sql":
            return res.figures.Ts + res.figures.Tm
        raise ConfigError(f"unknown key {quantity!r} in threshold quantity")

    try:
        crossing = find_threshold(curve, level, bounds[0], bounds[1])
    except TvmeterError as err:  # no crossing in the bounds, or a NaN on the curve
        raise NumericalFailure({vary: bounds}, err) from err
    return [{"vary": vary, "quantity": quantity, "level": level, "crossing": crossing}]


def cmd_optimize_frequency(cfg: RunConfig) -> list[dict]:
    _check_has_frequency(cfg, True)
    try:
        res = _frequency_scans(cfg, cfg.parameters)[0]
    except TvmeterError as err:
        raise NumericalFailure({"omega": cfg.omega_bounds}, err) from err
    return [_scan_row("omega_opt", res)]


class NumericalFailure(Exception):
    """A numerical error at the parameters ``at``: name -> value, or -> (lo, hi) for a range."""

    def __init__(self, at: dict, err: Exception):
        self.at, self.err = at, err
        where = ", ".join(f"{k} in [{float(v[0])!r}, {float(v[1])!r}]" if isinstance(v, tuple)
                          else f"{k}={float(v)!r}" for k, v in at.items())
        super().__init__(f"numerical failure at {where}: {err}")


# ---------------------------------------------------------------------------
# argument parsing


_LO_HI = dict(nargs=2, type=float, metavar=("LO", "HI"))

#: a negative number, exponent included (argparse's own takes -1e-05 for a flag)
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--scenario", choices=sorted(SCENARIOS))
    sub.add_argument("--config", help="JSON configuration file")
    sub.add_argument("--output", help="output path (default: stdout)")
    sub.add_argument("--format", choices=("csv", "json"))
    sub.add_argument("--omega", type=float, help="detection frequency")
    sub.add_argument("--optimize-frequency", action="store_true",
                     dest="optimize_frequency",
                     help="minimize Vc over detection frequency per point")
    sub.add_argument("--omega-bounds", **_LO_HI)
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


def _sweep_flags(param_help: str, n: int) -> list[tuple[str, dict]]:
    return [("--param", dict(help=param_help)), ("--log", _LO_HI), ("--lin", _LO_HI),
            ("--n", dict(type=int, default=n))]


_C_SCAN_FLAGS = [("--c-bounds", dict(_LO_HI, default=(1e-3, 1e3))),
                 ("--c-count", dict(type=int, default=200))]

#: subcommand -> its help and its own flags, added after the common ones
_SUBCOMMANDS = {
    "sweep": ("figures of merit along a parameter grid",
              _sweep_flags("name of the swept parameter", 200)),
    "sql": ("generalized SQL over cooperativity",
            _sweep_flags("optional secondary sweep parameter", 30) + _C_SCAN_FLAGS),
    "threshold": ("level crossing of a scan quantity", [
        ("--vary", dict(required=True, help="parameter or bath key to vary")),
        ("--bounds", dict(_LO_HI, required=True)),
        ("--level", dict(type=float, required=True)),
        ("--quantity", dict(choices=("min-vc", "tsum-at-sql", "vc"), default="min-vc")),
        *_C_SCAN_FLAGS,
    ]),
    "optimize-frequency": ("detection frequency minimizing Vc", []),
    "pulsed": ("pulse-duration sweep", [
        ("--tau-log", dict(_LO_HI, default=(1e-2, 1e2))), ("--n", dict(type=int, default=50)),
    ]),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `tv` parser: every subcommand with its help, and the arguments
    of ``command`` only (of all of them for None), since adding all five
    subcommands' arguments costs more than a short `tv` call's work."""
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
    for name, (help_text, flags) in _SUBCOMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        sub._negative_number_matcher = _NEGATIVE_NUMBER
        if command in (None, name):
            _add_common(sub)
            for flag, kwargs in flags:
                sub.add_argument(flag, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a subcommand named first gets its own arguments alone; --help, --version
    # and an unknown name get the full parser, so what they print is unchanged
    args = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None).parse_args(argv)
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
    except BrokenPipeError:  # the reader closed standard output (`tv ... | head`)
        # as the SIGPIPE note of the `signal` docs: send what is left to devnull,
        # so that the flush at exit does not fail again, and exit 1
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ConfigError, ValueError, OSError, json.JSONDecodeError) as err:
        print(f"tv: configuration error: {err}", file=sys.stderr)
        return 2
    except NumericalFailure as err:
        print(f"tv: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
